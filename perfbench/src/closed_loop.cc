#include "closed_loop.h"

#include <thread>

#include "span_log.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Client {
  skyup::LoadConnection* conn = nullptr;
  uint64_t index = 0;
  skyup::Rng rng{1};
  std::vector<uint64_t> p_ids;  ///< rows this client may erase
  std::vector<uint64_t> t_ids;
  LiveRecord inserted;
  std::vector<uint64_t> erased_p;
  std::vector<uint64_t> erased_t;
  ClosedLoopResult out;
};

void Tally(const skyup::Status& status, OpTally* tally,
           std::vector<std::string>* errors) {
  ++tally->attempted;
  if (status.ok()) {
    ++tally->ok;
  } else if (status.code() == skyup::StatusCode::kResourceExhausted) {
    ++tally->rejected;
  } else if (status.code() == skyup::StatusCode::kDeadlineExceeded) {
    ++tally->timed_out;
  } else {
    ++tally->failed;
    if (errors->size() < 5) errors->push_back(status.ToString());
  }
}

void RunClient(const ClosedLoopConfig& config, Clock::time_point start,
               Clock::time_point stop, Client* c) {
  for (uint64_t rid = 1;; ++rid) {
    const Clock::time_point sent = Clock::now();
    if (sent >= stop) break;
    const bool query = c->rng.NextDouble() < config.query_fraction;
    ScopedSpan span(query ? config.query_span : config.update_span,
                    (c->index << 40) | rid);
    skyup::Status status;
    if (query) {
      status = c->conn->Query(kRequestKs[c->rng.NextUint64(kRequestKs.size())],
                              0.0);
    } else {
      const uint64_t kind = c->rng.NextUint64(4);
      const bool competitor = kind % 2 == 0;
      std::vector<uint64_t>& ids = competitor ? c->p_ids : c->t_ids;
      std::vector<double> coords(kDims);
      for (double& v : coords) v = c->rng.NextDouble();
      if (kind < 2 || ids.size() < 2) {
        skyup::Result<uint64_t> id = competitor
                                         ? c->conn->InsertCompetitor(coords)
                                         : c->conn->InsertProduct(coords);
        status = id.status();
        if (id.ok()) {
          ids.push_back(*id);
          (competitor ? c->inserted.competitors : c->inserted.products)
              .emplace(*id, coords);
        }
      } else {
        const size_t i = static_cast<size_t>(c->rng.NextUint64(ids.size()));
        const uint64_t id = ids[i];
        ids[i] = ids.back();
        ids.pop_back();
        status = competitor ? c->conn->EraseCompetitor(id)
                            : c->conn->EraseProduct(id);
        if (status.ok()) (competitor ? c->erased_p : c->erased_t).push_back(id);
      }
    }
    const Clock::time_point done = Clock::now();
    const double at = SecondsBetween(start, sent);
    const double ms = status.ok() ? SecondsBetween(sent, done) * 1e3 : kMissedMs;
    if (query) {
      Tally(status, &c->out.queries, &c->out.errors);
      c->out.query_ms.Add(at, ms);
    } else {
      Tally(status, &c->out.updates, &c->out.errors);
      c->out.update_ms.Add(at, ms);
    }
  }
}

void AppendTimed(const TimedDist& from, TimedDist* into) {
  for (size_t i = 0; i < from.times().size(); ++i) {
    into->Add(from.times()[i], from.all().values()[i]);
  }
}

}  // namespace

ClosedLoopResult RunClosedLoop(
    const std::vector<std::unique_ptr<skyup::LoadConnection>>& connections,
    const ClosedLoopConfig& config, LiveRecord* live) {
  const size_t n = connections.size();
  std::vector<Client> clients(n);
  for (size_t i = 0; i < n; ++i) {
    clients[i].conn = connections[i].get();
    clients[i].index = i + 1;
    clients[i].rng = skyup::Rng(config.seed * 7919 + i + 1);
  }
  for (const auto& [id, c] : live->competitors) clients[id % n].p_ids.push_back(id);
  for (const auto& [id, c] : live->products) clients[id % n].t_ids.push_back(id);

  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  {
    std::vector<std::thread> threads;
    for (Client& c : clients) {
      threads.emplace_back(RunClient, std::cref(config), start, stop, &c);
    }
    for (std::thread& t : threads) t.join();
  }
  ClosedLoopResult out;
  out.wall_seconds = SecondsBetween(start, Clock::now());
  for (Client& c : clients) {
    out.queries.Merge(c.out.queries);
    out.updates.Merge(c.out.updates);
    AppendTimed(c.out.query_ms, &out.query_ms);
    AppendTimed(c.out.update_ms, &out.update_ms);
    out.errors.insert(out.errors.end(), c.out.errors.begin(), c.out.errors.end());
    for (const auto& [id, v] : c.inserted.competitors) live->competitors[id] = v;
    for (const auto& [id, v] : c.inserted.products) live->products[id] = v;
    for (uint64_t id : c.erased_p) live->competitors.erase(id);
    for (uint64_t id : c.erased_t) live->products.erase(id);
  }
  return out;
}

}  // namespace perfbench
