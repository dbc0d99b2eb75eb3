// The in-process serving workloads.
//
//   read_hot       single table, 100% top-k queries in an open loop: queries
//                  arrive on a seeded Poisson schedule whatever the server's
//                  state, go through Server::Submit, and are timed from the
//                  moment they were due, so a stall also charges the queries
//                  queued behind it. After warm-up every candidate is an
//                  upgrade-cache hit: time goes to admission, batching, view
//                  acquire and the cache lookups. Every response is checked
//                  against the planner oracle.
//   churn_sharded  4 shards, a closed loop of 3 clients, 50% queries / 50%
//                  updates. Competitor inserts invalidate cache entries, so
//                  queries fall through to the skyline memo, the per-shard
//                  probe and Algorithm 1 while publishes run in the
//                  background. Checked at quiesce. (An open loop here is
//                  dominated by recompute storms, see README.md, and did not
//                  give steady figures.)

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "closed_loop.h"
#include "serve/load_gen.h"
#include "serve/query.h"
#include "serve/rebuilder.h"
#include "serve/server.h"
#include "serve/shard/shard_query.h"
#include "serve/shard/sharded_table.h"
#include "serve/upgrade_cache.h"
#include "span_log.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using skyup::QueryRequest;
using skyup::QueryResponse;
using skyup::Server;
using skyup::ServeStats;
using skyup::StatusCode;
using skyup::UpgradeResult;

/// The measured time is split over this many freshly set-up systems.
constexpr int kMeasuredSlices = 4;
/// Window of the calmest-window p99 (TimedDist::CalmestWindowQuantile).
constexpr double kWindowSeconds = 1.0;
/// read_hot's latency limit for max_qps_at_slo.
constexpr double kSloP99Ms = 2.0;

/// --trace 1: the sampler publishes inline once the backlog holds this many
/// ops, so publish.ms times publishes made under foreground load.
constexpr size_t kSamplerPublishOps = 128;

/// What read_hot and churn_sharded differ in; the rest is BaseServerOptions.
struct ServeParams {
  size_t shards;
  double rate;            ///< open loop (queries only): offered queries/s
  size_t closed_clients = 0;  ///< > 0: a closed loop of this many clients
  double query_fraction;  ///< closed loop: the rest are updates
};

skyup::ServerOptions OptionsFor(const ServeParams& p) {
  skyup::ServerOptions o = BaseServerOptions();
  o.shards = p.shards;
  return o;
}

std::string SpecJson(const ServeParams& p, bool rate_search) {
  Json spec;
  if (p.closed_clients == 0) {
    spec.Str("kind", "in-process Server, open loop (Poisson arrivals)")
        .Num("offered_ops_per_s", p.rate)
        .Str("load_threads", "dispatcher, collector, sampler (--trace 1)");
  } else {
    spec.Str("kind", "in-process Server, closed loop")
        .Int("clients", p.closed_clients)
        .Str("load_threads", "one per client, sampler (--trace 1)");
  }
  spec.Num("query_fraction", p.query_fraction)
      .Str("update_mix",
           "equal shares of competitor insert/erase and product insert/erase")
      .Str("k", "uniform per request from {1,5,10,50}")
      .Str("data", "uniform overlapping [0,1)^3 from the fixed dataset seed")
      .Int("dataset_seed", kDatasetSeed)
      .Str("run_seed_drives",
           "arrival times, op mix, k, update coordinates and erase victims")
      .Int("shards", p.shards);
  AddServeSpec(&spec);
  spec.Str("sampler",
           "--trace 1, both passes: every 20 ms an inline publish once the "
           "backlog holds 128 ops, then one k=10 query on a captured view")
      .Str("setup",
           "preload + publish everything + warm query per k; median of 5")
      .Int("measured_slices", kMeasuredSlices)
      .Str("slices", "the measured time is split over the last 4 set-ups")
      .Int("planner_builds", kDatasetBuilds)
      .Int("planner_pairs", kDatasetRepeats)
      .Int("oracle_planner_threads", 1);
  if (rate_search) {
    spec.Num("slo_p99_ms", kSloP99Ms)
        .Str("rate_search",
             "--trace 1 only: x1.5 ladder from the fixed rate, then 2 "
             "bisections");
  }
  return spec.str();
}

std::vector<double> RandomPoint(skyup::Rng* rng) {
  std::vector<double> coords(kDims);
  for (double& c : coords) c = rng->NextDouble();
  return coords;
}

// ---------------------------------------------------------------------------
// Set-up

struct ServeSystem {
  std::unique_ptr<Server> server;
  LiveRecord live;
  Dist publish_ms;  ///< the set-up's own inline publishes
};

skyup::Result<ServeSystem> SetUp(const ServeParams& p) {
  ScopedSpan span("setup");
  skyup::Result<std::unique_ptr<Server>> created =
      Server::Create(BenchCostFunction(), OptionsFor(p));
  if (!created.ok()) return created.status();
  ServeSystem sys;
  sys.server = std::move(created).value();
  skyup::Rng rng(kDatasetSeed);
  for (size_t i = 0; i < kServePreloadP; ++i) {
    std::vector<double> coords = RandomPoint(&rng);
    skyup::Result<uint64_t> id = sys.server->InsertCompetitor(coords);
    if (!id.ok()) return id.status();
    sys.live.competitors.emplace(*id, std::move(coords));
  }
  for (size_t i = 0; i < kServePreloadT; ++i) {
    std::vector<double> coords = RandomPoint(&rng);
    skyup::Result<uint64_t> id = sys.server->InsertProduct(coords);
    if (!id.ok()) return id.status();
    sys.live.products.emplace(*id, std::move(coords));
  }
  SKYUP_RETURN_IF_ERROR(PublishAll(sys.server.get(), &sys.publish_ms));
  for (size_t k : kRequestKs) {
    QueryRequest warm;
    warm.k = k;
    QueryResponse r = sys.server->Query(warm);
    if (!r.status.ok()) return r.status;
  }
  return sys;
}

// ---------------------------------------------------------------------------
// The open loop

struct PendingQuery {
  uint64_t rid = 0;
  size_t k = 0;
  Clock::time_point due;
  Clock::time_point send_start;
  Clock::time_point send_end;
  std::future<QueryResponse> future;
};

struct LoopResult {
  Clock::time_point start;  ///< samples are tagged with (due - start)
  TimedDist query_ms;  ///< due -> response observed; misses count kMissedMs
  TimedDist update_ms;
  Dist lateness_ms;
  Dist queue_wait_ms;
  Dist exec_ms;
  Dist update_call_us;
  Dist acquire_us;
  Dist engine_ms;
  Dist publish_ms;
  OpTally queries{"query"};
  OpTally updates{"update"};
  size_t outstanding_max = 0;
  ServeStats sampler_stats;
  uint64_t sampler_queries = 0;
  // One list per writer thread (collector or client fleet, sampler).
  std::vector<std::string> query_mismatches;
  std::vector<std::string> sample_mismatches;

  std::vector<std::string> mismatches() const {
    std::vector<std::string> all = query_mismatches;
    all.insert(all.end(), sample_mismatches.begin(), sample_mismatches.end());
    return all;
  }
};

struct LoopConfig {
  double rate = 1000;  ///< open loop only
  double seconds = 1.0;
  uint64_t seed = 1;
  /// Expected answer per k (read_hot); null = state changes under the loop.
  const std::map<size_t, std::vector<UpgradeResult>>* expected = nullptr;
  bool sampler = false;
};

/// Resolves submitted queries: blocks on the oldest outstanding future, then
/// sweeps all of them. A response that overtakes an older one is stamped
/// when the older one resolves (with batching, a group resolves together,
/// in order, so this is rare).
class Collector {
 public:
  Collector(const LoopConfig& config, LoopResult* out)
      : config_(config), out_(out) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Collector() { Finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Push(PendingQuery q) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      incoming_.push_back(std::move(q));
    }
    cv_.notify_one();
  }

  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    std::deque<PendingQuery> pending;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (pending.empty()) {
          cv_.wait(lock, [this] { return done_ || !incoming_.empty(); });
        }
        for (PendingQuery& q : incoming_) pending.push_back(std::move(q));
        incoming_.clear();
        if (pending.empty() && done_) return;
      }
      out_->outstanding_max = std::max(out_->outstanding_max, pending.size());
      if (pending.empty()) continue;
      pending.front().future.wait_for(std::chrono::microseconds(200));
      const Clock::time_point now = Clock::now();
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          Complete(&*it, now);
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  void Complete(PendingQuery* q, Clock::time_point now) {
    QueryResponse r = q->future.get();
    OpTally& tally = out_->queries;
    ++tally.attempted;
    const double latency_ms = SecondsBetween(q->due, now) * 1e3;
    bool ok = r.status.ok();
    if (ok && config_.expected != nullptr) {
      const std::string diff = DiffResults(config_.expected->at(q->k), r.results);
      if (!diff.empty()) {
        ok = false;
        ++tally.failed;
        if (out_->query_mismatches.size() < 10) {
          out_->query_mismatches.push_back("query k=" + std::to_string(q->k) +
                                           ": " + diff);
        }
      }
    } else if (!ok) {
      if (r.status.code() == StatusCode::kResourceExhausted) {
        ++tally.rejected;
      } else if (r.status.code() == StatusCode::kDeadlineExceeded) {
        ++tally.timed_out;
      } else {
        ++tally.failed;
      }
    }
    if (ok) ++tally.ok;
    out_->query_ms.Add(SecondsBetween(out_->start, q->due),
                       ok ? latency_ms : kMissedMs);
    const auto exec = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(r.wall_seconds));
    const Clock::time_point exec_start = std::max(q->send_end, now - exec);
    if (r.status.ok()) {
      out_->exec_ms.Add(r.wall_seconds * 1e3);
      out_->queue_wait_ms.Add(SecondsBetween(q->send_end, exec_start) * 1e3);
    }
    if (SpansEnabled()) {
      const uint64_t root = RecordSpan("query", q->due, now, 0, q->rid);
      RecordSpan("generator.lateness", q->due, q->send_start, root, q->rid);
      RecordSpan("server.submit", q->send_start, q->send_end, root, q->rid);
      RecordSpan("server.queue_wait", q->send_end, exec_start, root, q->rid);
      RecordSpan("server.exec", exec_start, now, root, q->rid);
    }
  }

  const LoopConfig& config_;
  LoopResult* out_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingQuery> incoming_;  // guarded by mu_
  bool done_ = false;                  // guarded by mu_
  std::thread thread_;
};

/// Both passes of --trace 1: every 20 ms, publishes inline if the backlog
/// holds kSamplerPublishOps ops (publish), then captures a view and runs
/// one k=10 query straight on the engine (table.acquire_views,
/// engine.topk). The untraced pass runs it too, so the two passes carry the
/// same load and differ only in the spans.
class Sampler {
 public:
  Sampler(Server* server, const LoopConfig& config, LoopResult* out)
      : server_(server), config_(config), out_(out) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Sampler() { Finish(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    const skyup::ProductCostFunction cost_fn = BenchCostFunction();
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (cv_.wait_for(lock, std::chrono::milliseconds(20),
                         [this] { return done_; })) {
          return;
        }
      }
      Sample(cost_fn);
    }
  }

  void Sample(const skyup::ProductCostFunction& cost_fn) {
    ScopedSpan root("engine.sample");
    skyup::RebuildPolicy policy;
    policy.threshold_ops = kSamplerPublishOps;
    skyup::Result<bool> published =
        PublishInline(server_, policy, &out_->publish_ms);
    if (!published.ok()) {
      out_->sample_mismatches.push_back("inline publish failed: " +
                                        published.status().ToString());
    }
    ServeStats stats;
    skyup::Result<std::vector<UpgradeResult>> got =
        skyup::Status::Internal("not run");
    Clock::time_point t0;
    Clock::time_point t1;
    Clock::time_point t2;
    if (server_->sharded()) {
      t0 = Clock::now();
      skyup::ShardedView view = [&] {
        ScopedSpan span("table.acquire_views");
        return server_->sharded_table().AcquireViews();
      }();
      t1 = Clock::now();
      {
        ScopedSpan span("engine.topk");
        got = skyup::TopKSharded(view, cost_fn, kOfflineK, kEpsilon, 0,
                                 nullptr, &stats);
      }
      t2 = Clock::now();
    } else {
      t0 = Clock::now();
      skyup::ReadView view = [&] {
        ScopedSpan span("table.acquire_views");
        return server_->table().AcquireView();
      }();
      t1 = Clock::now();
      {
        ScopedSpan span("engine.topk");
        got = skyup::TopKOverlay(view, cost_fn, kOfflineK, kEpsilon, nullptr,
                                 &stats);
      }
      t2 = Clock::now();
    }
    out_->acquire_us.Add(SecondsBetween(t0, t1) * 1e6);
    out_->engine_ms.Add(SecondsBetween(t1, t2) * 1e3);
    out_->sampler_stats.MergeFrom(stats);
    ++out_->sampler_queries;
    if (!got.ok()) {
      out_->sample_mismatches.push_back("engine sample failed: " +
                                        got.status().ToString());
    } else if (config_.expected != nullptr) {
      const std::string diff =
          DiffResults(config_.expected->at(kOfflineK), *got);
      if (!diff.empty()) {
        out_->sample_mismatches.push_back("engine sample: " + diff);
      }
    }
  }

  Server* server_;
  const LoopConfig& config_;
  LoopResult* out_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;  // guarded by mu_
  std::thread thread_;
};

LoopResult RunOpenLoop(Server* server, const LoopConfig& config) {
  LoopResult out;
  out.start = Clock::now();
  skyup::Rng rng(config.seed);
  std::optional<Sampler> sampler;
  if (config.sampler) sampler.emplace(server, config, &out);
  {
    Collector collector(config, &out);
    const Clock::time_point stop =
        out.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(config.seconds));
    Clock::time_point due = out.start;
    for (uint64_t rid = 1;; ++rid) {
      // Exponential inter-arrival gaps: a Poisson process at `rate`.
      const double gap = -std::log(1.0 - rng.NextDouble()) / config.rate;
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap));
      if (due >= stop) break;
      const size_t k = kRequestKs[rng.NextUint64(kRequestKs.size())];
      SleepUntil(due);
      PendingQuery q;
      q.rid = rid;
      q.k = k;
      q.due = due;
      q.send_start = Clock::now();
      QueryRequest request;
      request.k = k;
      q.future = server->Submit(std::move(request));
      q.send_end = Clock::now();
      out.lateness_ms.Add(SecondsBetween(due, q.send_start) * 1e3);
      collector.Push(std::move(q));
    }
    collector.Finish();
  }
  if (sampler) sampler->Finish();
  return out;
}

/// The closed loop's in-process connection: queries through
/// Submit().get() (the worker-pool path), updates on the calling thread.
/// Splits each query into queue wait and execution, and times updates.
class InProcessConnection : public skyup::LoadConnection {
 public:
  explicit InProcessConnection(Server* server) : server_(server) {}

  skyup::Result<uint64_t> InsertCompetitor(
      const std::vector<double>& coords) override {
    return TimedUpdate([&] { return server_->InsertCompetitor(coords); });
  }
  skyup::Result<uint64_t> InsertProduct(
      const std::vector<double>& coords) override {
    return TimedUpdate([&] { return server_->InsertProduct(coords); });
  }
  skyup::Status EraseCompetitor(uint64_t id) override {
    return TimedUpdate([&] { return server_->EraseCompetitor(id); });
  }
  skyup::Status EraseProduct(uint64_t id) override {
    return TimedUpdate([&] { return server_->EraseProduct(id); });
  }
  skyup::Status Query(size_t k, double timeout_seconds) override {
    QueryRequest request;
    request.k = k;
    request.timeout_seconds = timeout_seconds;
    const Clock::time_point sent = Clock::now();
    QueryResponse r = server_->Submit(std::move(request)).get();
    const Clock::time_point done = Clock::now();
    if (r.status.ok()) {
      const Clock::time_point exec_start =
          std::max(sent, done - std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(
                                        r.wall_seconds)));
      exec_ms.Add(r.wall_seconds * 1e3);
      queue_wait_ms.Add(SecondsBetween(sent, exec_start) * 1e3);
      RecordSpan("server.queue_wait", sent, exec_start, CurrentSpan(), 0);
      RecordSpan("server.exec", exec_start, done, CurrentSpan(), 0);
    }
    return r.status;
  }

  Dist exec_ms;
  Dist queue_wait_ms;
  Dist update_call_us;

 private:
  template <typename Fn>
  auto TimedUpdate(Fn fn) -> decltype(fn()) {
    const Clock::time_point start = Clock::now();
    auto result = fn();
    const Clock::time_point end = Clock::now();
    update_call_us.Add(SecondsBetween(start, end) * 1e6);
    RecordSpan("table.update", start, end, CurrentSpan(), 0);
    return result;
  }

  Server* server_;
};

// ---------------------------------------------------------------------------
// Metrics

/// The e2e p99: the p99 of the calmest 1-second window (see
/// TimedDist::CalmestWindowQuantile). The whole-run p99, the median window
/// p99 and the max go to the report.
double QueryP99(const LoopResult& loop) {
  return loop.query_ms.CalmestWindowQuantile(kWindowSeconds, 0.99, 100);
}

size_t CacheEntries(Server* server) {
  if (server->sharded()) return server->sharded_table().AcquireViews().cache->size();
  return server->table().AcquireView().cache->size();
}

void SetServeLayers(const LoopResult& loop, const ServeStats& d,
                    size_t cache_entries, Metrics* layers) {
  layers->Set("server.queue_wait_ms.p50", loop.queue_wait_ms.Median(), "ms");
  layers->Set("server.queue_wait_ms.p99", loop.queue_wait_ms.Quantile(0.99), "ms");
  layers->Set("server.exec_ms.p50", loop.exec_ms.Median(), "ms");
  layers->Set("server.exec_ms.p99", loop.exec_ms.Quantile(0.99), "ms");
  SetCounterLayers(d, loop.queries, cache_entries, layers);
  layers->Set("table.update_us.p50", loop.update_call_us.Median(), "us");
  layers->Set("table.update_us.p99", loop.update_call_us.Quantile(0.99), "us");
  layers->Set("table.acquire_views_us.p50", loop.acquire_us.Median(), "us");
  layers->Set("table.acquire_views_us.p99", loop.acquire_us.Quantile(0.99), "us");
  layers->Set("publish.ms.p50", loop.publish_ms.Median(), "ms");
  layers->Set("publish.ms.p99", loop.publish_ms.Quantile(0.99), "ms");
  layers->Set("engine.topk_ms.p50", loop.engine_ms.Median(), "ms");
  layers->Set("engine.topk_ms.p99", loop.engine_ms.Quantile(0.99), "ms");
  const ServeStats& s = loop.sampler_stats;
  const double n = static_cast<double>(loop.sampler_queries);
  layers->Set("engine.candidates_evaluated_per_query",
              Ratio(static_cast<double>(s.candidates_evaluated), n), "count");
  layers->Set("engine.pruned_ratio",
              Ratio(static_cast<double>(s.candidates_pruned),
                    static_cast<double>(s.cache_hits + s.candidates_pruned +
                                        s.candidates_evaluated)),
              "ratio");
  layers->Set("engine.shard_fanout_per_query",
              Ratio(static_cast<double>(s.shard_fanout), n), "count");
  layers->Set("generator.lateness_ms.p99", loop.lateness_ms.Quantile(0.99), "ms");
  layers->Set("generator.lateness_ms.max", loop.lateness_ms.Max(), "ms");
}

std::string LoopJson(const LoopConfig& config, const LoopResult& loop) {
  return Json()
      .Num("offered_ops_per_s", config.rate)
      .Num("seconds", config.seconds)
      .Int("queries", loop.queries.attempted)
      .Int("queries_rejected", loop.queries.rejected)
      .Num("query_p50_ms", loop.query_ms.all().Median())
      .Num("query_p99_ms", loop.query_ms.all().Quantile(0.99))
      .Num("query_p99_ms_calmest_window", QueryP99(loop))
      .Num("query_p99_ms_window_median",
           loop.query_ms.WindowQuantiles(kWindowSeconds, 0.99, 100).Median())
      .Num("query_max_ms", loop.query_ms.all().Max())
      .Num("lateness_p99_ms", loop.lateness_ms.Quantile(0.99))
      .Num("lateness_max_ms", loop.lateness_ms.Max())
      .Int("outstanding_max", loop.outstanding_max)
      .str();
}

/// read_hot's max_qps_at_slo: the highest offered rate whose query p99
/// (refusals count as misses) stays within kSloP99Ms while the backlog of
/// outstanding queries stays bounded. A x1.5 ladder from `start_rate`, then
/// two bisections, each step `step_seconds` long.
double SearchMaxQps(Server* server, LoopConfig config,
                    double start_rate, double step_seconds,
                    std::vector<std::string>* ladder,
                    std::vector<std::string>* mismatches) {
  auto passes = [&](double rate) {
    config.rate = rate;
    config.seconds = step_seconds;
    config.seed += 1;
    LoopResult r = RunOpenLoop(server, config);
    for (const std::string& m : r.mismatches()) mismatches->push_back(m);
    const bool ok = r.queries.attempted > 0 &&
                    r.query_ms.all().Quantile(0.99) <= kSloP99Ms &&
                    r.outstanding_max <= std::max<size_t>(16, rate * 0.004);
    ladder->push_back(Json()
                          .Raw("step", LoopJson(config, r))
                          .Bool("meets_slo", ok)
                          .str());
    return ok;
  };
  double good = 0.0;
  double bad = 0.0;
  for (double rate = start_rate; rate < 1e6; rate *= 1.5) {
    if (passes(rate)) {
      good = rate;
    } else {
      bad = rate;
      break;
    }
  }
  if (good == 0.0) return 0.0;
  for (int i = 0; i < 2 && bad > 0.0; ++i) {
    const double mid = (good + bad) / 2;
    (passes(mid) ? good : bad) = mid;
  }
  return good;
}

// ---------------------------------------------------------------------------
// The workloads

/// One measured slice on a freshly set-up system: the open loop, or the
/// closed loop with a sampler on traced passes.
LoopResult RunSlice(const ServeParams& params, const LoopConfig& config,
                    ServeSystem* sys) {
  Server* server = sys->server.get();
  if (params.closed_clients == 0) return RunOpenLoop(server, config);
  LoopResult loop;
  loop.start = Clock::now();
  std::vector<std::unique_ptr<skyup::LoadConnection>> connections;
  std::vector<InProcessConnection*> raw;
  for (size_t i = 0; i < params.closed_clients; ++i) {
    auto conn = std::make_unique<InProcessConnection>(server);
    raw.push_back(conn.get());
    connections.push_back(std::move(conn));
  }
  ClosedLoopConfig closed;
  closed.query_fraction = params.query_fraction;
  closed.seconds = config.seconds;
  closed.seed = config.seed;
  std::optional<Sampler> sampler;
  if (config.sampler) sampler.emplace(server, config, &loop);
  ClosedLoopResult cl = RunClosedLoop(connections, closed, &sys->live);
  if (sampler) sampler->Finish();
  loop.query_ms = std::move(cl.query_ms);
  loop.update_ms = std::move(cl.update_ms);
  loop.queries = cl.queries;
  loop.updates = cl.updates;
  loop.query_mismatches = std::move(cl.errors);
  for (InProcessConnection* c : raw) {
    loop.exec_ms.Append(c->exec_ms);
    loop.queue_wait_ms.Append(c->queue_wait_ms);
    loop.update_call_us.Append(c->update_call_us);
  }
  return loop;
}

/// Folds slice `from` into `into`, shifting its sample times by `offset`
/// seconds; offsets are whole windows, so no window straddles two slices.
void Absorb(const LoopResult& from, double offset, LoopResult* into) {
  auto shift = [offset](const TimedDist& d, TimedDist* to) {
    for (size_t i = 0; i < d.times().size(); ++i) {
      to->Add(d.times()[i] + offset, d.all().values()[i]);
    }
  };
  shift(from.query_ms, &into->query_ms);
  shift(from.update_ms, &into->update_ms);
  for (Dist LoopResult::*d :
       {&LoopResult::lateness_ms, &LoopResult::queue_wait_ms,
        &LoopResult::exec_ms, &LoopResult::update_call_us,
        &LoopResult::acquire_us, &LoopResult::engine_ms,
        &LoopResult::publish_ms}) {
    (into->*d).Append(from.*d);
  }
  into->queries.Merge(from.queries);
  into->updates.Merge(from.updates);
  into->outstanding_max = std::max(into->outstanding_max, from.outstanding_max);
  into->sampler_stats.MergeFrom(from.sampler_stats);
  into->sampler_queries += from.sampler_queries;
  for (const std::string& m : from.mismatches()) {
    into->query_mismatches.push_back(m);
  }
}

void CheckServer(const ServeSystem& sys, WorkloadOutput* out) {
  Server* server = sys.server.get();
  CheckQuiesced(
      sys.live,
      [server](size_t k) -> skyup::Result<std::vector<UpgradeResult>> {
        QueryRequest request;
        request.k = k;
        QueryResponse r = server->Query(request);
        if (!r.status.ok()) return r.status;
        return std::move(r.results);
      },
      out);
}

WorkloadOutput RunServe(const ServeParams& params, uint64_t seed,
                        double seconds, Pass pass) {
  const bool traced = pass == Pass::kTraced;
  WorkloadOutput out;
  const bool read_hot = params.query_fraction >= 1.0;
  out.spec_json = SpecJson(params, read_hot);

  LoopConfig config;
  config.rate = params.rate;
  // On --trace 1 read_hot's untraced pass spends 0.4 of its time on the
  // rate search; the traced pass measures the same 0.6 so the two passes
  // compare like with like.
  const bool rate_search = read_hot && pass == Pass::kExtras;
  const double measured =
      read_hot && pass != Pass::kMeasure ? 0.6 * seconds : seconds;
  config.seconds = measured / kMeasuredSlices;
  config.sampler = pass != Pass::kMeasure;
  const double slice_offset =
      std::ceil(config.seconds / kWindowSeconds) * kWindowSeconds;

  // Every set-up is timed (setup_s is their median); the last
  // kMeasuredSlices systems each carry one slice of the measured time, so a
  // run samples several independently built instances.
  std::vector<double> setup_s;
  std::optional<Oracle> dataset;
  std::map<size_t, std::vector<UpgradeResult>> expected;
  LoopResult loop;
  Dist setup_publish_ms;
  ServeStats delta;
  size_t cache_entries = 0;
  std::string ladder_json = "[]";
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    skyup::Result<ServeSystem> made = SetUp(params);
    setup_s.push_back(SecondsBetween(start, Clock::now()));
    if (!made.ok()) {
      out.Mismatch("set-up failed: " + made.status().ToString());
      return out;
    }
    ServeSystem sys = std::move(made).value();
    setup_publish_ms.Append(sys.publish_ms);
    if (!dataset) {
      // Offline top-k over the dataset as loaded; read_hot also checks
      // every response against this planner's answers.
      skyup::Result<Oracle> timed = TimeDatasetPlanner(sys.live, &out);
      if (!timed.ok()) {
        out.Mismatch("dataset planner: " + timed.status().ToString());
        return out;
      }
      dataset.emplace(std::move(timed).value());
      for (size_t k : kRequestKs) {
        skyup::Result<std::vector<UpgradeResult>> top =
            dataset->planner.TopK(k, skyup::Algorithm::kImprovedProbing);
        if (!top.ok()) {
          out.Mismatch("oracle top-k: " + top.status().ToString());
          return out;
        }
        ToStableIds(dataset->product_ids, &*top);
        expected[k] = std::move(*top);
      }
      config.expected = read_hot ? &expected : nullptr;
    }
    const int slice = i - (kSetupRepeats - kMeasuredSlices);
    if (slice < 0) continue;
    config.seed = (seed * 1000003 + 11) * 16 + static_cast<uint64_t>(slice);
    const ServeStats before = sys.server->stats();
    LoopResult part = RunSlice(params, config, &sys);
    delta.MergeFrom(StatsDelta(sys.server->stats(), before));
    Absorb(part, slice * slice_offset, &loop);
    cache_entries = CacheEntries(sys.server.get());
    if (rate_search && slice == kMeasuredSlices - 1) {
      std::vector<std::string> ladder;
      std::vector<std::string> search_mismatches;
      LoopConfig search = config;
      search.sampler = false;
      const double best =
          SearchMaxQps(sys.server.get(), search, params.rate,
                       0.4 * seconds / 8, &ladder, &search_mismatches);
      for (const std::string& m : search_mismatches) out.Mismatch(m);
      out.extras.Set("max_qps_at_slo", best, "1/s");
      ladder_json = "[";
      for (size_t j = 0; j < ladder.size(); ++j) {
        ladder_json += (j ? ", " : "") + ladder[j];
      }
      ladder_json += "]";
    }
    // Quiesced: every request of the slice has completed.
    CheckServer(sys, &out);
  }
  out.e2e.Set("setup_s", MedianOf(setup_s), "s");
  out.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");

  for (const std::string& m : loop.mismatches()) out.Mismatch(m);
  out.tallies = {loop.queries};
  if (!read_hot) out.tallies.push_back(loop.updates);
  out.e2e.Set("query_p50_ms", loop.query_ms.all().Median(), "ms");
  out.e2e.Set("query_p99_ms", QueryP99(loop), "ms");
  SetServeLayers(loop, delta, cache_entries, &out.layers);
  if (read_hot) {
    if (!rate_search) out.extras.Set("max_qps_at_slo", 0.0, "1/s");
  } else {
    out.extras.Set("update_p50_ms", loop.update_ms.all().Median(), "ms");
    out.extras.Set("update_p99_ms",
                   loop.update_ms.CalmestWindowQuantile(kWindowSeconds, 0.99,
                                                        100),
                   "ms");
  }
  if (params.closed_clients > 0) {
    out.extras.Set("ops_per_s",
                   static_cast<double>(loop.queries.attempted +
                                       loop.updates.attempted) /
                       measured,
                   "1/s");
  } else {
    out.extras.Set("lateness_p99_ms", loop.lateness_ms.Quantile(0.99), "ms");
    out.extras.Set("lateness_max_ms", loop.lateness_ms.Max(), "ms");
  }
  LoopConfig whole = config;
  whole.seconds = measured;
  out.detail_json = Json()
                        .Raw("measured", LoopJson(whole, loop))
                        .Int("slices", kMeasuredSlices)
                        .Raw("rate_search", ladder_json)
                        .Int("publishes_during_run",
                             delta.patches_published + delta.rebuilds_published)
                        .Int("sampler_publishes", loop.publish_ms.size())
                        .Num("setup_publish_ms_p50", setup_publish_ms.Median())
                        .str();
  if (traced) MeasureProbeLayers(*dataset, 500, seed, &out);
  return out;
}

}  // namespace

skyup::ServerOptions BaseServerOptions() {
  skyup::ServerOptions o;
  o.dims = kDims;
  o.query_threads = kServeQueryThreads;
  o.shard_query_threads = kServeShardQueryThreads;
  o.batch_max = kServeBatchMax;
  o.batch_wait_us = kServeBatchWaitUs;
  o.memo_cache_mb = kServeMemoCacheMb;
  o.rebuild_threshold_ops = kServeRebuildThresholdOps;
  o.max_pending = kServeMaxPending;
  o.default_epsilon = kEpsilon;
  o.background_rebuild = true;
  return o;
}

void AddServeSpec(Json* spec) {
  spec->Int("preload_competitors", kServePreloadP)
      .Int("preload_products", kServePreloadT)
      .Int("query_threads", kServeQueryThreads)
      .Int("shard_query_threads", kServeShardQueryThreads)
      .Int("batch_max", kServeBatchMax)
      .Int("batch_wait_us", kServeBatchWaitUs)
      .Int("memo_cache_mb", kServeMemoCacheMb)
      .Int("rebuild_threshold_ops", kServeRebuildThresholdOps)
      .Int("max_pending", kServeMaxPending)
      .Bool("background_rebuild", true)
      .Str("cost", "ReciprocalSum(delta=1e-3)")
      .Num("epsilon", kEpsilon);
}

ServeStats StatsDelta(const ServeStats& after, const ServeStats& before) {
  ServeStats d;
  d.queries_executed = after.queries_executed - before.queries_executed;
  d.queries_rejected = after.queries_rejected - before.queries_rejected;
  d.updates_applied = after.updates_applied - before.updates_applied;
  d.rebuilds_published = after.rebuilds_published - before.rebuilds_published;
  d.patches_published = after.patches_published - before.patches_published;
  d.cache_hits = after.cache_hits - before.cache_hits;
  d.cache_misses = after.cache_misses - before.cache_misses;
  d.memo_hits = after.memo_hits - before.memo_hits;
  d.memo_misses = after.memo_misses - before.memo_misses;
  d.batches_executed = after.batches_executed - before.batches_executed;
  return d;
}

void SetCounterLayers(const ServeStats& d, const OpTally& queries,
                      size_t cache_entries, Metrics* layers) {
  layers->Set("server.batch_size_mean",
              Ratio(static_cast<double>(d.queries_executed),
                    static_cast<double>(d.batches_executed)),
              "count");
  layers->Set("server.rejected_ratio",
              Ratio(static_cast<double>(queries.rejected),
                    static_cast<double>(queries.attempted)),
              "ratio");
  const double lookups = static_cast<double>(d.cache_hits + d.cache_misses);
  layers->Set("upgrade_cache.lookups_per_query",
              Ratio(lookups, static_cast<double>(d.queries_executed)), "count");
  layers->Set("upgrade_cache.hit_ratio",
              Ratio(static_cast<double>(d.cache_hits), lookups), "ratio");
  layers->Set("upgrade_cache.entries", static_cast<double>(cache_entries),
              "count");
  layers->Set("skyline_memo.hit_ratio",
              Ratio(static_cast<double>(d.memo_hits),
                    static_cast<double>(d.memo_hits + d.memo_misses)),
              "ratio");
  const double kops = static_cast<double>(d.updates_applied) / 1000.0;
  layers->Set("publish.patches_per_kop",
              Ratio(static_cast<double>(d.patches_published), kops), "count");
  layers->Set("publish.majors_per_kop",
              Ratio(static_cast<double>(d.rebuilds_published), kops), "count");
}

skyup::Result<bool> PublishInline(Server* server,
                                  const skyup::RebuildPolicy& policy,
                                  Dist* publish_ms) {
  const Clock::time_point start = Clock::now();
  bool published = false;
  if (server->sharded()) {
    skyup::Result<size_t> r = server->sharded_table().MaybePublishInline(policy);
    if (!r.ok()) return r.status();
    published = *r > 0;
  } else {
    skyup::Result<skyup::PublishKind> r =
        skyup::MaybeRebuildInline(&server->table(), policy);
    if (!r.ok()) return r.status();
    published = *r != skyup::PublishKind::kNone;
  }
  const Clock::time_point end = Clock::now();
  if (published) {
    publish_ms->Add(SecondsBetween(start, end) * 1e3);
    RecordSpan("publish", start, end, CurrentSpan(), 0);
  }
  return published;
}

skyup::Status PublishAll(Server* server, Dist* publish_ms) {
  skyup::RebuildPolicy policy;
  policy.threshold_ops = 1;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  while (server->DeltaBacklog() > 0) {
    if (Clock::now() > deadline) {
      return skyup::Status::Internal("backlog never drained");
    }
    SKYUP_RETURN_IF_ERROR(PublishInline(server, policy, publish_ms).status());
    if (server->DeltaBacklog() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return skyup::Status::OK();
}

WorkloadOutput RunReadHot(uint64_t seed, double seconds, Pass pass) {
  ServeParams p;
  p.shards = 0;
  p.rate = 2000;
  p.query_fraction = 1.0;
  return RunServe(p, seed, seconds, pass);
}

WorkloadOutput RunChurnSharded(uint64_t seed, double seconds, Pass pass) {
  ServeParams p;
  p.shards = 4;
  p.rate = 0;
  p.closed_clients = 3;
  p.query_fraction = 0.5;
  return RunServe(p, seed, seconds, pass);
}

}  // namespace perfbench
