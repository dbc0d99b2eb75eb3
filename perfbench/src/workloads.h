#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The four workloads and the pieces they share. Each workload builds its
// inputs from the seed, sets the system up several times (setup_s is the
// median), drives it for the requested seconds, checks every answer it can
// against an UpgradePlanner oracle, and fills three metric sets:
//
//   e2e     the end-to-end metrics every workload reports (BENCHMARK.json
//           "end_to_end"), always from an untraced pass;
//   layers  per-layer metrics, meaningful on the traced pass;
//   extras  end-to-end numbers only some workloads have (max_qps_at_slo,
//           update latency, closed-loop ops/s); reported in the run's
//           report line and as `workload.*` per-layer metrics.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cost_function.h"
#include "measure.h"
#include "oracle.h"
#include "serve/rebuilder.h"
#include "serve/server.h"

namespace perfbench {

inline constexpr size_t kDims = 3;
inline constexpr double kEpsilon = 1e-6;
inline constexpr int kSetupRepeats = 5;
/// Datasets are fixed per workload (like the paper's synthetic sets); the
/// run seed drives everything a run draws: arrivals, op mix, k, update
/// coordinates and victims, query samples.
inline constexpr uint64_t kDatasetSeed = 20120401;
/// k values drawn per request (seeded), and the k of offline top-k calls.
inline const std::vector<size_t> kRequestKs = {1, 5, 10, 50};
inline constexpr size_t kOfflineK = 10;

/// The serving set-up read_hot, churn_sharded and wire_mixed share: the
/// preloaded dataset and the server settings the workloads do not vary.
inline constexpr size_t kServePreloadP = 30000;
inline constexpr size_t kServePreloadT = 1500;
inline constexpr size_t kServeQueryThreads = 3;
inline constexpr size_t kServeShardQueryThreads = 1;
inline constexpr size_t kServeBatchMax = 16;
inline constexpr size_t kServeBatchWaitUs = 200;
inline constexpr size_t kServeMemoCacheMb = 16;
inline constexpr size_t kServeRebuildThresholdOps = 1024;
inline constexpr size_t kServeMaxPending = 64;
/// Server options with the shared settings above (shards = 0).
skyup::ServerOptions BaseServerOptions();
/// The shared settings as workload-spec JSON fields.
void AddServeSpec(Json* spec);

struct WorkloadOutput {
  std::vector<std::string> mismatches;  ///< oracle disagreements (empty = ok)
  std::vector<OpTally> tallies;
  Metrics e2e;
  Metrics layers;
  Metrics extras;
  std::string spec_json = "{}";   ///< full workload spec, regenerable
  std::string detail_json = "{}"; ///< workload-specific detail (rate ladder)

  void Mismatch(const std::string& what) {
    if (mismatches.size() < 20) mismatches.push_back(what);
  }
};

/// What one pass over a workload is for.
enum class Pass {
  kMeasure,  ///< --trace 0: end-to-end metrics only
  kExtras,   ///< untraced half of --trace 1: also the workload-specific
             ///< numbers that cost extra time (read_hot's rate search)
  kTraced,   ///< traced half of --trace 1: spans and per-layer probes
};

WorkloadOutput RunReadHot(uint64_t seed, double seconds, Pass pass);
WorkloadOutput RunChurnSharded(uint64_t seed, double seconds, Pass pass);
WorkloadOutput RunOfflineAnti(uint64_t seed, double seconds, Pass pass);
WorkloadOutput RunWireMixed(uint64_t seed, double seconds, Pass pass);

skyup::ProductCostFunction BenchCostFunction();

/// One inline publish attempt under `policy` (MaybePublishInline on a
/// sharded server, MaybeRebuildInline otherwise). When it published, the
/// call is timed into `publish_ms` and recorded as a `publish` span.
skyup::Result<bool> PublishInline(skyup::Server* server,
                                  const skyup::RebuildPolicy& policy,
                                  Dist* publish_ms);

/// Publishes whatever the background rebuilder has not absorbed yet (an
/// inline publish with threshold 1, repeated until the backlog is empty),
/// so a measured window starts from a fully indexed snapshot. Each inline
/// publish that published is timed into `publish_ms`.
skyup::Status PublishAll(skyup::Server* server, Dist* publish_ms);

/// `after - before` of the ServeStats counters the per-layer ratios use.
skyup::ServeStats StatsDelta(const skyup::ServeStats& after,
                             const skyup::ServeStats& before);

/// The per-layer metrics that come from server counters over a measured
/// window `d` (StatsDelta, summed with MergeFrom over slices): batch size,
/// rejected share of `queries`, upgrade-cache lookups and hit ratio, the
/// cache's `cache_entries` at the end, skyline-memo hit ratio, and publishes
/// per thousand updates.
void SetCounterLayers(const skyup::ServeStats& d, const OpTally& queries,
                      size_t cache_entries, Metrics* layers);

/// Median of `times`.
double MedianOf(std::vector<double> times);

/// Oracle-side measurements every workload makes on its final data:
/// improved probing and join top-k (k = kOfflineK) in alternation, at least
/// `min_repeats` pairs and until `budget_seconds` have passed (medians into
/// e2e topk_improved_s / topk_join_s); every answer must equal the first
/// improved one; join answers must match it exactly when
/// `join_ties_by_id`, otherwise cost for cost (the join breaks equal-cost
/// ties in discovery order, not by id). On a traced pass, one more call of each with telemetry
/// fills the planner.* layers. Returns the pairs run; `improved_top` gets
/// the answer with stable ids. Mismatches go to `out`.
int MeasurePlanner(const Oracle& oracle, int min_repeats,
                   double budget_seconds, bool join_ties_by_id,
                   WorkloadOutput* out,
                   std::vector<skyup::UpgradeResult>* improved_top,
                   std::vector<double>* improved_times = nullptr,
                   std::vector<double>* join_times = nullptr);

/// Builds kDatasetBuilds 1-thread planners over `live` (the workload's
/// dataset as loaded at set-up) and times top-k on each with
/// MeasurePlanner, kDatasetRepeats pairs in all; the medians go to
/// topk_improved_s / topk_join_s. The dataset is fixed per workload, so
/// this measures the same work in every run. Returns the last planner for
/// reuse as an oracle.
skyup::Result<Oracle> TimeDatasetPlanner(const LiveRecord& live,
                                         WorkloadOutput* out);
inline constexpr int kDatasetRepeats = 16;
inline constexpr int kDatasetBuilds = 4;

/// The quiesced check of a live workload: for every k in kRequestKs,
/// `query(k)` must equal improved probing over `live` exactly, and the join
/// must agree cost for cost.
void CheckQuiesced(
    const LiveRecord& live,
    const std::function<skyup::Result<std::vector<skyup::UpgradeResult>>(
        size_t)>& query,
    WorkloadOutput* out);

/// Times the dominator-skyline probe and Algorithm 1 separately for
/// `sample` products of the oracle's T (skyline.* and upgrade.* layers), and
/// the STR bulk load of its P (rtree.bulk_load_ms).
void MeasureProbeLayers(const Oracle& oracle, size_t sample, uint64_t seed,
                        WorkloadOutput* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
