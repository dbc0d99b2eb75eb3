// wire_mixed: a FrontDoor started in this process on loopback, one tenant
// filled through the `load` verb, then closed-loop WireClient connections
// (each sends its next request only after the previous reply) issuing 90%
// `topk` and 10% `add`/`erase`. Each op carries little server work but
// crosses framing, %.17g coordinate encode/parse and the thread-per-
// connection front door. Checked at quiesce against the planner oracle.

#include <cstdlib>
#include <memory>
#include <sstream>

#include "closed_loop.h"
#include "serve/rebuilder.h"
#include "serve/server.h"
#include "serve/shard/front_door.h"
#include "serve/shard/wire.h"
#include "serve/upgrade_cache.h"
#include "span_log.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using skyup::UpgradeResult;

constexpr size_t kClients = 3;
constexpr size_t kLoadChunkRows = 5000;
constexpr double kQueryFraction = 0.9;
constexpr double kWindowSeconds = 1.0;
const char* const kTenant = "bench";

std::string SpecJson() {
  Json spec;
  spec.Str("kind", "in-process FrontDoor on loopback, closed loop")
      .Int("connections", kClients)
      .Num("query_fraction", kQueryFraction)
      .Str("update_mix",
           "equal shares of add p / add t / erase p / erase t")
      .Str("k", "uniform per request from {1,5,10,50}")
      .Str("data", "uniform overlapping [0,1)^3 from the fixed dataset seed")
      .Int("dataset_seed", kDatasetSeed)
      .Str("run_seed_drives", "op mix, k, update coordinates, erase victims")
      .Int("load_chunk_rows", kLoadChunkRows)
      .Int("tenant_shards", 0);
  AddServeSpec(&spec);
  spec.Int("oracle_planner_threads", 1)
      .Str("setup",
           "start front door, create tenant, load, publish everything, warm "
           "topk per k; median of 5");
  return spec.str();
}

std::string CoordsCsv(const std::vector<double>& c) {
  char buf[32];
  std::string out;
  for (double v : c) {
    std::snprintf(buf, sizeof(buf), ",%.17g", v);
    out += buf;
  }
  return out;
}

struct WireSystem {
  std::unique_ptr<skyup::FrontDoor> door;
  std::shared_ptr<skyup::Server> server;  ///< the tenant's server
  LiveRecord live;
  double load_rows_per_s = 0.0;
  Dist publish_ms;  ///< the set-up's own inline publishes
};

skyup::Status CheckOk(const skyup::Result<std::string>& response) {
  if (!response.ok()) return response.status();
  if (response->rfind("+ok", 0) != 0) {
    return skyup::Status::Internal("wire error: " + response->substr(0, 200));
  }
  return skyup::Status::OK();
}

skyup::Result<WireSystem> SetUp() {
  ScopedSpan span("setup");
  skyup::FrontDoorOptions options;
  options.port = 0;
  options.tenant_base = BaseServerOptions();
  skyup::Result<std::unique_ptr<skyup::FrontDoor>> door =
      skyup::FrontDoor::Start(options);
  if (!door.ok()) return door.status();
  WireSystem sys;
  sys.door = std::move(door).value();
  skyup::Result<skyup::WireClient> admin =
      skyup::WireClient::Dial("127.0.0.1", sys.door->port());
  if (!admin.ok()) return admin.status();
  skyup::Result<uint64_t> tenant = admin->CreateTenant(kTenant, kDims, 0, 0);
  if (!tenant.ok()) return tenant.status();

  // Rows go out in `load` frames; a single-table tenant hands out stable
  // ids in arrival order from 1, which the quiesced check confirms.
  skyup::Rng rng(kDatasetSeed);
  std::vector<std::string> frames;
  std::string frame;
  size_t rows_in_frame = 0;
  auto add_row = [&](bool competitor, uint64_t id) {
    std::vector<double> c(kDims);
    for (double& v : c) v = rng.NextDouble();
    if (rows_in_frame == 0) frame = std::string("load ") + kTenant;
    frame += competitor ? "\np" : "\nt";
    frame += CoordsCsv(c);
    (competitor ? sys.live.competitors : sys.live.products).emplace(id, c);
    if (++rows_in_frame == kLoadChunkRows) {
      frames.push_back(std::move(frame));
      rows_in_frame = 0;
    }
  };
  for (size_t i = 0; i < kServePreloadP; ++i) add_row(true, i + 1);
  for (size_t i = 0; i < kServePreloadT; ++i) add_row(false, i + 1);
  if (rows_in_frame > 0) frames.push_back(std::move(frame));
  const Clock::time_point load_start = Clock::now();
  for (const std::string& f : frames) {
    ScopedSpan load("wire.load");
    SKYUP_RETURN_IF_ERROR(CheckOk(admin->Call(f)));
  }
  sys.load_rows_per_s = static_cast<double>(kServePreloadP + kServePreloadT) /
                        SecondsBetween(load_start, Clock::now());

  skyup::Result<std::shared_ptr<skyup::Server>> server =
      sys.door->registry().Find(kTenant);
  if (!server.ok()) return server.status();
  sys.server = *server;
  SKYUP_RETURN_IF_ERROR(PublishAll(sys.server.get(), &sys.publish_ms));
  for (size_t k : kRequestKs) {
    SKYUP_RETURN_IF_ERROR(admin->TopK(kTenant, k, 0.0));
  }
  return sys;
}

/// Parses a `topk` response body into results. The wire carries ids, costs
/// and upgraded vectors; a product is already competitive exactly when its
/// upgrade costs nothing.
skyup::Result<std::vector<UpgradeResult>> ParseTopK(const std::string& body) {
  std::vector<UpgradeResult> out;
  std::istringstream lines(body);
  std::string line;
  std::getline(lines, line);
  if (line.rfind("+ok", 0) != 0) return skyup::Status::Internal(line);
  while (std::getline(lines, line)) {
    UpgradeResult r;
    const size_t id = line.find(" id=");
    const size_t cost = line.find(" cost=");
    const size_t up = line.find(" upgraded=");
    if (id == std::string::npos || cost == std::string::npos ||
        up == std::string::npos) {
      return skyup::Status::Internal("bad topk row: " + line);
    }
    r.product_id = std::strtoll(line.c_str() + id + 4, nullptr, 10);
    r.cost = std::strtod(line.c_str() + cost + 6, nullptr);
    std::istringstream coords(line.substr(up + 10));
    std::string v;
    while (std::getline(coords, v, ';')) {
      r.upgraded.push_back(std::strtod(v.c_str(), nullptr));
    }
    r.already_competitive = r.cost == 0.0;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

WorkloadOutput RunWireMixed(uint64_t seed, double seconds, Pass pass) {
  const bool traced = pass == Pass::kTraced;
  WorkloadOutput out;
  out.spec_json = SpecJson();

  std::vector<double> setup_s;
  Dist publish_ms;
  WireSystem sys;
  for (int i = 0; i < kSetupRepeats; ++i) {
    sys = WireSystem{};  // stops the previous front door first
    const Clock::time_point start = Clock::now();
    skyup::Result<WireSystem> made = SetUp();
    setup_s.push_back(SecondsBetween(start, Clock::now()));
    if (!made.ok()) {
      out.Mismatch("set-up failed: " + made.status().ToString());
      return out;
    }
    sys = std::move(made).value();
    publish_ms.Append(sys.publish_ms);
  }
  out.e2e.Set("setup_s", MedianOf(setup_s), "s");
  skyup::Server* server = sys.server.get();
  // Offline top-k over the dataset as loaded.
  skyup::Result<Oracle> dataset = TimeDatasetPlanner(sys.live, &out);
  if (!dataset.ok()) {
    out.Mismatch("dataset planner: " + dataset.status().ToString());
    return out;
  }

  skyup::Result<std::unique_ptr<skyup::WireLoadTarget>> target =
      skyup::WireLoadTarget::Create("127.0.0.1", sys.door->port(), kTenant);
  if (!target.ok()) {
    out.Mismatch("wire target: " + target.status().ToString());
    return out;
  }
  std::vector<std::unique_ptr<skyup::LoadConnection>> connections;
  for (size_t i = 0; i < kClients; ++i) {
    skyup::Result<std::unique_ptr<skyup::LoadConnection>> conn =
        (*target)->Connect(i + 1);
    if (!conn.ok()) {
      out.Mismatch("wire connect: " + conn.status().ToString());
      return out;
    }
    connections.push_back(std::move(conn).value());
  }
  ClosedLoopConfig config;
  config.query_fraction = kQueryFraction;
  config.seconds = seconds;
  config.seed = seed;
  config.query_span = "wire.query";
  config.update_span = "wire.update";
  const skyup::ServeStats before = server->stats();
  ClosedLoopResult loop = RunClosedLoop(connections, config, &sys.live);
  const skyup::ServeStats delta = StatsDelta(server->stats(), before);
  connections.clear();
  target->reset();
  for (const std::string& e : loop.errors) out.Mismatch("wire op: " + e);
  out.tallies = {loop.queries, loop.updates};
  out.tallies[0].op = "wire_query";
  out.tallies[1].op = "wire_update";
  out.e2e.Set("query_p50_ms", loop.query_ms.all().Median(), "ms");
  out.e2e.Set("query_p99_ms",
              loop.query_ms.CalmestWindowQuantile(kWindowSeconds, 0.99, 100),
              "ms");
  out.extras.Set("update_p50_ms", loop.update_ms.all().Median(), "ms");
  out.extras.Set("update_p99_ms",
                 loop.update_ms.CalmestWindowQuantile(kWindowSeconds, 0.99, 10),
                 "ms");
  out.extras.Set("ops_per_s",
                 static_cast<double>(loop.queries.attempted +
                                     loop.updates.attempted) /
                     loop.wall_seconds,
                 "1/s");
  out.detail_json =
      Json()
          .Num("wall_seconds", loop.wall_seconds)
          .Num("query_p99_ms_whole_run", loop.query_ms.all().Quantile(0.99))
          .Num("query_p99_ms_window_median",
               loop.query_ms.WindowQuantiles(kWindowSeconds, 0.99, 100).Median())
          .Num("query_max_ms", loop.query_ms.all().Max())
          .Num("load_rows_per_s", sys.load_rows_per_s)
          .Num("setup_publish_ms_p50", publish_ms.Median())
          .str();

  SetCounterLayers(delta, loop.queries,
                   server->table().AcquireView().cache->size(), &out.layers);
  out.layers.Set("wire.load_rows_per_s", sys.load_rows_per_s, "1/s");

  // Quiesced: every connection has closed.
  skyup::Result<skyup::WireClient> admin =
      skyup::WireClient::Dial("127.0.0.1", sys.door->port());
  if (!admin.ok()) {
    out.Mismatch("quiesced check could not dial: " + admin.status().ToString());
    return out;
  }
  CheckQuiesced(
      sys.live,
      [&admin](size_t k) -> skyup::Result<std::vector<UpgradeResult>> {
        skyup::Result<std::string> body = admin->Call(
            std::string("topk ") + kTenant + " " + std::to_string(k));
        if (!body.ok()) return body.status();
        return ParseTopK(*body);
      },
      &out);

  out.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (traced) {
    // Round trip with no server work, and the wire's share of a top-k: the
    // same k=10 query over the wire and through the tenant's own Submit
    // (the path the front door hands it to), alternated, at the quiesced
    // state.
    Dist ping_us;
    Dist wire_topk_us;
    Dist local_topk_us;
    for (int i = 0; i < 300; ++i) {
      Clock::time_point t0 = Clock::now();
      skyup::Status pinged = [&] {
        ScopedSpan span("wire.ping");
        return admin->Ping();
      }();
      ping_us.Add(SecondsBetween(t0, Clock::now()) * 1e6);
      if (!pinged.ok()) out.Mismatch("ping: " + pinged.ToString());
      t0 = Clock::now();
      skyup::Status wired = admin->TopK(kTenant, kOfflineK, 0.0);
      wire_topk_us.Add(SecondsBetween(t0, Clock::now()) * 1e6);
      if (!wired.ok()) out.Mismatch("wire topk: " + wired.ToString());
      skyup::QueryRequest request;
      request.k = kOfflineK;
      t0 = Clock::now();
      skyup::QueryResponse local = server->Submit(request).get();
      local_topk_us.Add(SecondsBetween(t0, Clock::now()) * 1e6);
      if (!local.status.ok()) out.Mismatch("local topk failed");
    }
    out.layers.Set("wire.ping_us.p50", ping_us.Median(), "us");
    out.layers.Set("wire.ping_us.p99", ping_us.Quantile(0.99), "us");
    out.layers.Set("wire.topk_overhead_us.p50",
                   wire_topk_us.Median() - local_topk_us.Median(), "us");
  }

  if (traced) MeasureProbeLayers(*dataset, 500, seed, &out);
  return out;
}

}  // namespace perfbench
