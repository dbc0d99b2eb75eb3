// offline_anti: the paper's setup with no serving layer. P = 100k
// anti-correlated points in [0,1]^3, T = 5k anti-correlated in (1,2]^3,
// k = 10. Time goes to the R-tree and flat arena, the dominator-skyline
// probe with its SIMD kernels, Algorithm 1, and the join's lower bounds.
//
// Also home of the planner/probe measurements every workload makes on its
// final data (MeasurePlanner, MeasureProbeLayers).

#include <algorithm>
#include <numeric>
#include <optional>

#include "core/dataset.h"
#include "core/single_upgrade.h"
#include "data/generator.h"
#include "rtree/flat_rtree.h"
#include "skyline/dominating_skyline.h"
#include "span_log.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

using skyup::Algorithm;
using skyup::UpgradeResult;

skyup::ProductCostFunction BenchCostFunction() {
  return skyup::ProductCostFunction::ReciprocalSum(kDims, 1e-3);
}

double MedianOf(std::vector<double> times) {
  Dist d;
  for (double t : times) d.Add(t);
  return d.Median();
}

namespace {

constexpr size_t kOfflineP = 100000;
constexpr size_t kOfflineT = 5000;
constexpr size_t kPlannerThreads = 4;
/// Single-product queries per run (a seeded sample of T).
constexpr size_t kSingleQueries = 1500;

/// One single-product upgrade query: the dominator skyline of `t` from the
/// planner's flat index, then Algorithm 1 on it.
skyup::UpgradeOutcome SingleQuery(const skyup::UpgradePlanner& planner,
                                  const double* t, skyup::ProbeStats* probe,
                                  Dist* probe_us, Dist* upgrade_us,
                                  size_t* skyline_size, uint64_t request) {
  const Clock::time_point t0 = Clock::now();
  std::vector<skyup::PointId> rows;
  {
    ScopedSpan span("skyline.probe", request);
    rows = skyup::DominatingSkyline(*planner.competitors_flat(), t, probe);
  }
  const Clock::time_point t1 = Clock::now();
  std::vector<const double*> skyline;
  skyline.reserve(rows.size());
  for (skyup::PointId row : rows) {
    skyline.push_back(planner.competitors().data(row));
  }
  *skyline_size = rows.size();
  skyup::UpgradeOutcome outcome;
  {
    ScopedSpan span("upgrade.product", request);
    outcome = skyup::UpgradeProduct(std::move(skyline), t, kDims,
                                    planner.cost_function(), kEpsilon);
  }
  const Clock::time_point t2 = Clock::now();
  if (probe_us != nullptr) probe_us->Add(SecondsBetween(t0, t1) * 1e6);
  if (upgrade_us != nullptr) upgrade_us->Add(SecondsBetween(t1, t2) * 1e6);
  return outcome;
}

std::vector<size_t> SampleRows(size_t n, size_t sample, uint64_t seed) {
  std::vector<size_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  skyup::Rng rng(seed);
  rng.Shuffle(&rows);
  rows.resize(std::min(n, sample));
  return rows;
}

void SetPlannerLayers(const skyup::TopKReport& improved,
                      const skyup::TopKReport& join, Metrics* layers) {
  skyup::PhaseTimings phases = improved.telemetry.phases.total;
  phases.MergeFrom(join.telemetry.phases.total);
  skyup::ExecStats stats = improved.stats;
  stats.MergeFrom(join.stats);
  layers->Set("planner.probe_s", phases.probe_seconds, "s");
  layers->Set("planner.upgrade_s", phases.upgrade_seconds, "s");
  layers->Set("planner.prune_s", phases.prune_seconds, "s");
  layers->Set("planner.merge_s", phases.merge_seconds, "s");
  layers->Set("planner.nodes_visited", static_cast<double>(stats.nodes_visited),
              "count");
  layers->Set("planner.points_scanned",
              static_cast<double>(stats.points_scanned), "count");
  layers->Set("planner.block_kernel_calls",
              static_cast<double>(stats.block_kernel_calls), "count");
  layers->Set("planner.heap_pops", static_cast<double>(stats.heap_pops),
              "count");
  layers->Set("planner.lbc_evaluations",
              static_cast<double>(stats.lbc_evaluations), "count");
  layers->Set("planner.candidates_pruned",
              static_cast<double>(stats.candidates_pruned), "count");
}

void SetProbeLayers(const skyup::ProbeStats& probe, const Dist& probe_us,
                    const Dist& upgrade_us, const Dist& skyline_size,
                    Metrics* layers) {
  const double n = std::max<double>(1.0, static_cast<double>(probe_us.size()));
  layers->Set("skyline.probe_us.p50", probe_us.Median(), "us");
  layers->Set("skyline.probe_us.p99", probe_us.Quantile(0.99), "us");
  layers->Set("skyline.nodes_visited_per_probe",
              static_cast<double>(probe.nodes_visited) / n, "count");
  layers->Set("skyline.points_scanned_per_probe",
              static_cast<double>(probe.points_scanned) / n, "count");
  layers->Set("skyline.size_mean", skyline_size.Mean(), "count");
  layers->Set("upgrade.us.p50", upgrade_us.Median(), "us");
  layers->Set("upgrade.us.p99", upgrade_us.Quantile(0.99), "us");
}

void MeasureBulkLoad(const skyup::Dataset& competitors, WorkloadOutput* out) {
  std::vector<double> load_ms;
  for (int i = 0; i < kSetupRepeats; ++i) {
    ScopedSpan span("rtree.bulk_load");
    const Clock::time_point start = Clock::now();
    skyup::Result<skyup::FlatRTree> tree =
        skyup::FlatRTree::BulkLoad(competitors);
    load_ms.push_back(SecondsBetween(start, Clock::now()) * 1e3);
    if (!tree.ok()) out->Mismatch("FlatRTree::BulkLoad failed");
  }
  out->layers.Set("rtree.bulk_load_ms", MedianOf(load_ms), "ms");
}

}  // namespace

int MeasurePlanner(const Oracle& oracle, int min_repeats,
                   double budget_seconds, bool join_ties_by_id,
                   WorkloadOutput* out,
                   std::vector<UpgradeResult>* improved_top,
                   std::vector<double>* improved_times,
                   std::vector<double>* join_times) {
  std::vector<double> improved_s;
  std::vector<double> join_s;
  std::vector<UpgradeResult> first;
  const Clock::time_point start_all = Clock::now();
  // A parallel planner spawns its workers from this thread, so only a
  // sequential one may be pinned.
  std::optional<CpuRotation> rotation;
  if (oracle.planner.options().threads == 1) rotation.emplace();
  int repeats = 0;
  for (; repeats < min_repeats ||
         SecondsBetween(start_all, Clock::now()) < budget_seconds;
       ++repeats) {
    if (rotation) rotation->Pin(static_cast<size_t>(repeats));
    for (Algorithm algorithm : {Algorithm::kImprovedProbing, Algorithm::kJoin}) {
      const bool improved = algorithm == Algorithm::kImprovedProbing;
      const Clock::time_point start = Clock::now();
      skyup::Result<std::vector<UpgradeResult>> got = [&] {
        ScopedSpan span(improved ? "planner.topk_improved" : "planner.topk_join");
        return oracle.planner.TopK(kOfflineK, algorithm);
      }();
      (improved ? improved_s : join_s).push_back(
          SecondsBetween(start, Clock::now()));
      if (!got.ok()) {
        out->Mismatch(std::string("planner top-k failed: ") +
                      got.status().ToString());
        continue;
      }
      if (first.empty()) {
        first = *got;
        continue;
      }
      const std::string diff = improved || join_ties_by_id
                                   ? DiffResults(first, *got)
                                   : DiffCosts(first, *got);
      if (!diff.empty()) {
        out->Mismatch(std::string(improved ? "improved" : "join") +
                      " top-k differs from the first improved run: " + diff);
      }
    }
  }
  rotation.reset();
  out->e2e.Set("topk_improved_s", MedianOf(improved_s), "s");
  out->e2e.Set("topk_join_s", MedianOf(join_s), "s");
  if (SpansEnabled()) {
    skyup::Result<skyup::TopKReport> improved =
        oracle.planner.TopKWithReport(kOfflineK, Algorithm::kImprovedProbing);
    skyup::Result<skyup::TopKReport> join =
        oracle.planner.TopKWithReport(kOfflineK, Algorithm::kJoin);
    if (improved.ok() && join.ok()) {
      SetPlannerLayers(*improved, *join, &out->layers);
    } else {
      out->Mismatch("planner TopKWithReport failed");
    }
  }
  *improved_top = std::move(first);
  ToStableIds(oracle.product_ids, improved_top);
  if (improved_times != nullptr) {
    improved_times->insert(improved_times->end(), improved_s.begin(),
                           improved_s.end());
  }
  if (join_times != nullptr) {
    join_times->insert(join_times->end(), join_s.begin(), join_s.end());
  }
  return repeats;
}

skyup::Result<Oracle> TimeDatasetPlanner(const LiveRecord& live,
                                         WorkloadOutput* out) {
  // Several independently built planners: a run samples several memory
  // layouts instead of committing to one.
  std::vector<double> improved_s;
  std::vector<double> join_s;
  std::optional<Oracle> last;
  for (int b = 0; b < kDatasetBuilds; ++b) {
    skyup::Result<Oracle> oracle =
        BuildOracle(live, kDims, BenchCostFunction(), 1);
    if (!oracle.ok()) return oracle.status();
    std::vector<UpgradeResult> top;
    WorkloadOutput part;
    MeasurePlanner(*oracle, kDatasetRepeats / kDatasetBuilds, 0.0,
                   /*join_ties_by_id=*/false, &part, &top, &improved_s,
                   &join_s);
    for (const std::string& m : part.mismatches) out->Mismatch(m);
    for (const Metric& m : part.layers.all()) out->layers.Set(m.name, m.value, m.unit);
    last.emplace(std::move(oracle).value());
  }
  out->e2e.Set("topk_improved_s", MedianOf(improved_s), "s");
  out->e2e.Set("topk_join_s", MedianOf(join_s), "s");
  return std::move(*last);
}

void CheckQuiesced(
    const LiveRecord& live,
    const std::function<skyup::Result<std::vector<UpgradeResult>>(size_t)>&
        query,
    WorkloadOutput* out) {
  skyup::Result<Oracle> oracle = BuildOracle(live, kDims, BenchCostFunction(), 1);
  if (!oracle.ok()) {
    out->Mismatch("final oracle: " + oracle.status().ToString());
    return;
  }
  for (size_t k : kRequestKs) {
    const std::string what = "quiesced top-k k=" + std::to_string(k);
    skyup::Result<std::vector<UpgradeResult>> want =
        oracle->planner.TopK(k, Algorithm::kImprovedProbing);
    skyup::Result<std::vector<UpgradeResult>> join =
        oracle->planner.TopK(k, Algorithm::kJoin);
    skyup::Result<std::vector<UpgradeResult>> got = query(k);
    if (!want.ok() || !join.ok() || !got.ok()) {
      out->Mismatch(what + " failed");
      continue;
    }
    const std::string join_diff = DiffCosts(*want, *join);
    if (!join_diff.empty()) out->Mismatch(what + ", join: " + join_diff);
    ToStableIds(oracle->product_ids, &*want);
    const std::string diff = DiffResults(*want, *got);
    if (!diff.empty()) out->Mismatch(what + ": " + diff);
  }
}

void MeasureProbeLayers(const Oracle& oracle, size_t sample, uint64_t seed,
                        WorkloadOutput* out) {
  const skyup::Dataset& products = oracle.planner.products();
  skyup::ProbeStats probe;
  Dist probe_us;
  Dist upgrade_us;
  Dist skyline_size;
  for (size_t row : SampleRows(products.size(), sample, seed)) {
    size_t size = 0;
    SingleQuery(oracle.planner, products.data(static_cast<skyup::PointId>(row)),
                &probe, &probe_us, &upgrade_us, &size, 0);
    skyline_size.Add(static_cast<double>(size));
  }
  SetProbeLayers(probe, probe_us, upgrade_us, skyline_size, &out->layers);
  MeasureBulkLoad(oracle.planner.competitors(), out);
}

WorkloadOutput RunOfflineAnti(uint64_t seed, double seconds, Pass pass) {
  const bool traced = pass == Pass::kTraced;
  WorkloadOutput out;
  out.spec_json =
      Json()
          .Str("kind", "offline, no serving layer")
          .Str("competitors", "100000 anti-correlated in [0,1)^3")
          .Str("products", "5000 anti-correlated in (1,2]^3")
          .Str("cost", "ReciprocalSum(delta=1e-3)")
          .Num("epsilon", kEpsilon)
          .Int("k", kOfflineK)
          .Int("planner_threads", kPlannerThreads)
          .Str("algorithms", "improved probing (flat index) and join (sound CLB)")
          .Int("single_queries", kSingleQueries)
          .Str("setup", "UpgradePlanner::Create, median of 5")
          .Int("competitor_seed", kDatasetSeed)
          .Int("product_seed", kDatasetSeed + 1)
          .Str("run_seed_drives", "the sample of single-product queries")
          .str();

  skyup::Result<skyup::Dataset> p = skyup::GenerateCompetitors(
      kOfflineP, kDims, skyup::Distribution::kAntiCorrelated, kDatasetSeed);
  skyup::Result<skyup::Dataset> t = skyup::GenerateProducts(
      kOfflineT, kDims, skyup::Distribution::kAntiCorrelated,
      kDatasetSeed + 1);
  if (!p.ok() || !t.ok()) {
    out.Mismatch("dataset generation failed");
    return out;
  }
  skyup::PlannerOptions options;
  options.threads = kPlannerThreads;

  std::vector<double> setup_s;
  std::optional<skyup::UpgradePlanner> planner;
  for (int i = 0; i < kSetupRepeats; ++i) {
    planner.reset();
    ScopedSpan span("planner.create");
    const Clock::time_point start = Clock::now();
    skyup::Result<skyup::UpgradePlanner> created =
        skyup::UpgradePlanner::Create(*p, *t, BenchCostFunction(), options);
    setup_s.push_back(SecondsBetween(start, Clock::now()));
    if (!created.ok()) {
      out.Mismatch("UpgradePlanner::Create failed: " +
                   created.status().ToString());
      return out;
    }
    planner.emplace(std::move(created).value());
  }
  out.e2e.Set("setup_s", MedianOf(setup_s), "s");

  const Clock::time_point phase_start = Clock::now();
  // Single-product queries over a seeded sample of T.
  OpTally single{"single_query"};
  TimedDist query_ms;
  Dist probe_us;
  Dist upgrade_us;
  Dist skyline_size;
  skyup::ProbeStats probe;
  std::vector<double> single_cost(t->size(), -1.0);
  uint64_t request = 0;
  std::optional<CpuRotation> rotation(std::in_place);
  for (size_t row : SampleRows(t->size(), kSingleQueries, seed)) {
    if (request % 100 == 0) rotation->Pin(request / 100);
    ++single.attempted;
    size_t size = 0;
    const Clock::time_point start = Clock::now();
    ScopedSpan span("single_query", ++request);
    skyup::UpgradeOutcome outcome =
        SingleQuery(*planner, t->data(static_cast<skyup::PointId>(row)), &probe,
                    &probe_us, &upgrade_us, &size, request);
    query_ms.Add(SecondsBetween(phase_start, start),
                 SecondsBetween(start, Clock::now()) * 1e3);
    skyline_size.Add(static_cast<double>(size));
    single_cost[row] = outcome.cost;
    ++single.ok;
  }
  rotation.reset();  // before the 4-thread planner starts its workers
  out.e2e.Set("query_p50_ms", query_ms.all().Median(), "ms");
  out.e2e.Set("query_p99_ms", query_ms.CalmestWindowQuantile(1.0, 0.99, 100),
              "ms");

  // Top-k: improved and join alternate until the measuring time is used,
  // at least three of each.
  Oracle oracle{std::move(*planner), {}};
  oracle.product_ids.resize(t->size());
  std::iota(oracle.product_ids.begin(), oracle.product_ids.end(), 0);
  std::vector<UpgradeResult> top;
  const int pairs = MeasurePlanner(
      oracle, 3, seconds - SecondsBetween(phase_start, Clock::now()),
      /*join_ties_by_id=*/true, &out, &top);
  OpTally topk{"topk"};
  topk.attempted = topk.ok = 2 * static_cast<uint64_t>(pairs);

  // The single-product path must agree with the top-k on every product the
  // two share.
  for (const UpgradeResult& r : top) {
    const size_t row = static_cast<size_t>(r.product_id);
    if (single_cost[row] >= 0.0 && single_cost[row] != r.cost) {
      out.Mismatch("single-product query cost differs from top-k for row " +
                   std::to_string(row));
    }
  }
  out.tallies = {single, topk};

  SetProbeLayers(probe, probe_us, upgrade_us, skyline_size, &out.layers);
  out.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (traced) MeasureBulkLoad(*p, &out);
  return out;
}

}  // namespace perfbench
