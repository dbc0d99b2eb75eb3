// perfbench_run: runs one benchmark workload and prints its metrics.
//
//   perfbench_run --workload <read_hot|churn_sharded|offline_anti|
//                    wire_mixed> --seed <n> --seconds <s> --trace <0|1>
//                    [--out-dir DIR] [--commit SHA] [--source-digest HEX]
//
// --trace 0 runs the workload once, untraced, and reports the end-to-end
// metrics. --trace 1 runs it twice for half the time each, first untraced
// and then with spans recorded around every call into a layer, and
// reports the per-layer metrics plus the traced-vs-untraced difference of
// each end-to-end metric. The two passes measure for the same time under
// the same load (the serve workloads' sampler runs in both) and each
// reports its own peak RSS, so the difference is what the spans cost. The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// full report (provenance, workload spec, failure accounting), which is
// also written to --out-dir together with the recorded spans.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "core/dominance_batch.h"
#include "obs/trace.h"
#include "span_log.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// BENCHMARK.json "end_to_end", in order. Every workload reports all of
// them. query_p99_ms is measured too but moves with the host too much to
// gate on; it is reported as the per-layer workload.query_p99_ms.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"query_p50_ms", "ms"},
    {"topk_improved_s", "s"}, {"topk_join_s", "s"},
    {"peak_rss_mb", "MB"},
};

// BENCHMARK.json "per_layer". A layer a workload never reaches reports 0.
const MetricDef kLayers[] = {
    {"server.queue_wait_ms.p50", "ms"},
    {"server.queue_wait_ms.p99", "ms"},
    {"server.exec_ms.p50", "ms"},
    {"server.exec_ms.p99", "ms"},
    {"server.batch_size_mean", "count"},
    {"server.rejected_ratio", "ratio"},
    {"upgrade_cache.lookups_per_query", "count"},
    {"upgrade_cache.hit_ratio", "ratio"},
    {"upgrade_cache.entries", "count"},
    {"skyline_memo.hit_ratio", "ratio"},
    {"table.update_us.p50", "us"},
    {"table.update_us.p99", "us"},
    {"table.acquire_views_us.p50", "us"},
    {"table.acquire_views_us.p99", "us"},
    {"publish.ms.p50", "ms"},
    {"publish.ms.p99", "ms"},
    {"publish.patches_per_kop", "count"},
    {"publish.majors_per_kop", "count"},
    {"engine.topk_ms.p50", "ms"},
    {"engine.topk_ms.p99", "ms"},
    {"engine.candidates_evaluated_per_query", "count"},
    {"engine.pruned_ratio", "ratio"},
    {"engine.shard_fanout_per_query", "count"},
    {"skyline.probe_us.p50", "us"},
    {"skyline.probe_us.p99", "us"},
    {"skyline.nodes_visited_per_probe", "count"},
    {"skyline.points_scanned_per_probe", "count"},
    {"skyline.size_mean", "count"},
    {"upgrade.us.p50", "us"},
    {"upgrade.us.p99", "us"},
    {"planner.probe_s", "s"},
    {"planner.upgrade_s", "s"},
    {"planner.prune_s", "s"},
    {"planner.merge_s", "s"},
    {"planner.nodes_visited", "count"},
    {"planner.points_scanned", "count"},
    {"planner.block_kernel_calls", "count"},
    {"planner.heap_pops", "count"},
    {"planner.lbc_evaluations", "count"},
    {"planner.candidates_pruned", "count"},
    {"rtree.bulk_load_ms", "ms"},
    {"wire.ping_us.p50", "us"},
    {"wire.ping_us.p99", "us"},
    {"wire.topk_overhead_us.p50", "us"},
    {"wire.load_rows_per_s", "1/s"},
    {"generator.lateness_ms.p99", "ms"},
    {"generator.lateness_ms.max", "ms"},
    // End-to-end numbers not gated on, from the untraced pass.
    {"workload.query_p99_ms", "ms"},
    {"workload.max_qps_at_slo", "1/s"},
    {"workload.update_p50_ms", "ms"},
    {"workload.update_p99_ms", "ms"},
    {"workload.ops_per_s", "1/s"},
    // (traced - untraced) / untraced of each end-to-end metric.
    {"trace_overhead.setup_s", "%"},
    {"trace_overhead.query_p50_ms", "%"},
    {"trace_overhead.query_p99_ms", "%"},
    {"trace_overhead.topk_improved_s", "%"},
    {"trace_overhead.topk_join_s", "%"},
    {"trace_overhead.peak_rss_mb", "%"},
};

// Spans whose mean self time is reported as `self_us.<name>`.
const char* const kSelfTimeSpans[] = {
    "query",           "generator.lateness", "server.submit",
    "server.queue_wait", "server.exec",      "update",
    "updater.queue",   "table.update",       "engine.sample",
    "table.acquire_views", "engine.topk",    "publish",
    "single_query",    "skyline.probe",      "upgrade.product",
    "planner.create",  "planner.topk_improved", "planner.topk_join",
    "rtree.bulk_load", "wire.op",            "wire.ping",
    "wire.load",       "setup",
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out_dir;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

int Usage(const std::string& why) {
  std::cerr << "perfbench_run: " << why << "\n"
            << "usage: perfbench_run --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--commit SHA] "
               "[--source-digest HEX]\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* why) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *why = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') {
        *why = "bad --seed";
        return false;
      }
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0) ||
          args->seconds > 600) {
        *why = "bad --seconds";
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *why = "--trace must be 0 or 1";
        return false;
      }
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      *why = "unknown flag " + flag;
      return false;
    }
  }
  if (args->workload.empty() || args->seconds <= 0 || args->trace < 0) {
    *why = "--workload, --seconds and --trace are required";
    return false;
  }
  return true;
}

using RunFn = WorkloadOutput (*)(uint64_t, double, Pass);

const std::map<std::string, RunFn>& Workloads() {
  static const std::map<std::string, RunFn> kWorkloads = {
      {"read_hot", &RunReadHot},
      {"churn_sharded", &RunChurnSharded},
      {"offline_anti", &RunOfflineAnti},
      {"wire_mixed", &RunWireMixed},
  };
  return kWorkloads;
}

std::string ProvenanceJson(const Args& args, bool peak_rss_per_pass) {
  return Json()
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("simd_kernel", skyup::BatchKernelName())
      .Int("nproc", std::thread::hardware_concurrency())
      .Str("library_trace_level", skyup::TraceLevelName())
      .Int("check_level", SKYUP_CHECK_LEVEL)
      .Str("commit", args.commit)
      .Str("source_digest", args.source_digest)
      .Bool("peak_rss_per_pass", peak_rss_per_pass)
      .str();
}

void PrintMetrics(const char* title, const Metrics& metrics) {
  std::printf("# %s\n", title);
  for (const Metric& m : metrics.all()) {
    std::printf("#   %-40s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintTallies(const std::vector<OpTally>& tallies) {
  std::printf("# %-14s %10s %10s %9s %9s %7s %12s\n", "op", "attempted",
              "ok", "rejected", "timedout", "failed", "failed_share");
  for (const OpTally& t : tallies) {
    const double share =
        t.attempted == 0
            ? 0.0
            : static_cast<double>(t.not_ok()) / static_cast<double>(t.attempted);
    std::printf("# %-14s %10llu %10llu %9llu %9llu %7llu %12.6f\n",
                t.op.c_str(), static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.ok),
                static_cast<unsigned long long>(t.rejected),
                static_cast<unsigned long long>(t.timed_out),
                static_cast<unsigned long long>(t.failed), share);
  }
}

void MakeDirs(const std::string& path) {
  std::string prefix;
  size_t at = 0;
  while (at != std::string::npos) {
    at = path.find('/', at + 1);
    prefix = path.substr(0, at);
    if (!prefix.empty()) mkdir(prefix.c_str(), 0755);
  }
}

int Main(int argc, char** argv) {
  Args args;
  std::string why;
  if (!ParseArgs(argc, argv, &args, &why)) return Usage(why);
  auto it = Workloads().find(args.workload);
  if (it == Workloads().end()) return Usage("unknown workload " + args.workload);
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench_run: refusing to measure a non-Release build "
                 "(CMAKE_BUILD_TYPE='" PERFBENCH_BUILD_TYPE "')\n";
    return 3;
  }

  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  std::fflush(stdout);

  WorkloadOutput main_pass;   // the pass whose e2e metrics / tallies count
  WorkloadOutput traced_pass;
  std::vector<SpanSummary> summary;
  std::vector<SpanRecord> spans;
  bool peak_rss_per_pass = ResetPeakRss();
  if (args.trace == 0) {
    main_pass = it->second(args.seed, args.seconds, Pass::kMeasure);
  } else {
    main_pass = it->second(args.seed, args.seconds / 2, Pass::kExtras);
    peak_rss_per_pass = ResetPeakRss() && peak_rss_per_pass;
    EnableSpans(true);
    traced_pass = it->second(args.seed, args.seconds / 2, Pass::kTraced);
    EnableSpans(false);
    spans = DrainSpans();
    summary = Summarize(spans);
  }

  std::vector<std::string> mismatches = main_pass.mismatches;
  mismatches.insert(mismatches.end(), traced_pass.mismatches.begin(),
                    traced_pass.mismatches.end());
  std::vector<OpTally> tallies = main_pass.tallies;
  for (const OpTally& t : traced_pass.tallies) {
    bool merged = false;
    for (OpTally& into : tallies) {
      if (into.op == t.op) {
        into.Merge(t);
        merged = true;
      }
    }
    if (!merged) tallies.push_back(t);
  }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const OpTally& t : tallies) {
    attempted += t.attempted;
    failed += t.not_ok();
  }

  Metrics result;
  bool complete = true;
  if (args.trace == 0) {
    for (const MetricDef& def : kEndToEnd) {
      const Metric* m = main_pass.e2e.Find(def.name);
      if (m == nullptr) {
        complete = false;
        mismatches.push_back(std::string("metric not measured: ") + def.name);
        continue;
      }
      result.Set(def.name, m->value, def.unit);
    }
  } else {
    Metrics layers = traced_pass.layers;
    for (const Metric& m : main_pass.extras.all()) {
      layers.Set("workload." + m.name, m.value, m.unit);
    }
    if (const Metric* p99 = main_pass.e2e.Find("query_p99_ms")) {
      layers.Set("workload.query_p99_ms", p99->value, p99->unit);
    }
    for (const Metric& plain : main_pass.e2e.all()) {
      const Metric* traced = traced_pass.e2e.Find(plain.name);
      // Without a per-pass reset the traced pass would inherit the
      // untraced pass's peak.
      if (plain.name == "peak_rss_mb" && !peak_rss_per_pass) continue;
      if (traced != nullptr && plain.value != 0.0) {
        layers.Set("trace_overhead." + plain.name,
                   100.0 * (traced->value - plain.value) / plain.value, "%");
      }
    }
    for (const MetricDef& def : kLayers) {
      const Metric* m = layers.Find(def.name);
      result.Set(def.name, m == nullptr ? 0.0 : m->value, def.unit);
    }
    for (const char* name : kSelfTimeSpans) {
      double self_us = 0.0;
      for (const SpanSummary& s : summary) {
        if (s.name == name && s.count > 0) {
          self_us = s.self_ms * 1e3 / static_cast<double>(s.count);
        }
      }
      result.Set(std::string("self_us.") + name, self_us, "us");
    }
  }
  const bool correct = complete && mismatches.empty();

  PrintTallies(tallies);
  PrintMetrics("end-to-end (untraced pass)", main_pass.e2e);
  if (!main_pass.extras.all().empty()) {
    PrintMetrics("workload-specific end-to-end (untraced pass)",
                 main_pass.extras);
  }
  if (args.trace == 1) {
    PrintMetrics("end-to-end (traced pass)", traced_pass.e2e);
    std::printf("# %-28s %10s %14s %14s %12s\n", "span", "count", "total_ms",
                "self_ms", "self_us/op");
    for (const SpanSummary& s : summary) {
      std::printf("# %-28s %10llu %14.3f %14.3f %12.3f\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.count), s.total_ms,
                  s.self_ms, s.self_ms * 1e3 / static_cast<double>(s.count));
    }
    PrintMetrics("per-layer (traced pass)", result);
  }
  for (const std::string& m : mismatches) {
    std::printf("# MISMATCH: %s\n", m.c_str());
  }

  std::string mismatch_json = "[";
  for (size_t i = 0; i < mismatches.size(); ++i) {
    mismatch_json += (i ? ", " : "") + JsonQuote(mismatches[i]);
  }
  mismatch_json += "]";
  const std::string report =
      Json()
          .Str("workload", args.workload)
          .Int("seed", args.seed)
          .Num("seconds", args.seconds)
          .Int("trace", static_cast<uint64_t>(args.trace))
          .Raw("provenance", ProvenanceJson(args, peak_rss_per_pass))
          .Raw("spec", main_pass.spec_json)
          .Raw("ops", TallyJson(tallies))
          .Raw("end_to_end", MetricsJson(main_pass.e2e))
          .Raw("end_to_end_traced", MetricsJson(traced_pass.e2e))
          .Raw("workload_specific", MetricsJson(main_pass.extras))
          .Raw("detail", main_pass.detail_json)
          .Raw("mismatches", mismatch_json)
          .str();
  std::printf("# report: %s\n", report.c_str());

  if (!args.out_dir.empty()) {
    MakeDirs(args.out_dir);
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             std::to_string(args.trace);
    std::ofstream(stem + ".report.json") << report << "\n";
    if (args.trace == 1) WriteSpansJsonl(spans, stem + ".spans.jsonl");
  }

  std::printf("%s\n", Json()
                          .Bool("correct", correct)
                          .Int("attempted", attempted)
                          .Int("failed", failed)
                          .Raw("metrics", MetricsJson(result))
                          .str()
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
