#ifndef PERFBENCH_CLOSED_LOOP_H_
#define PERFBENCH_CLOSED_LOOP_H_

// A closed-loop client fleet: each client sends its next op only after the
// previous one returned, over any skyup::LoadConnection (the in-process
// server or a wire connection). Ops are drawn from a per-client seeded
// stream: top-k with k from kRequestKs, or an update (competitor/product
// insert/erase in equal shares). Each client erases only rows it owns, so
// the fleet's combined record of P and T stays exact.

#include <memory>
#include <string>
#include <vector>

#include "measure.h"
#include "oracle.h"
#include "serve/load_gen.h"

namespace perfbench {

struct ClosedLoopConfig {
  double query_fraction = 0.9;
  double seconds = 1.0;
  uint64_t seed = 1;
  const char* query_span = "query";    ///< root span names (traced runs)
  const char* update_span = "update";
};

struct ClosedLoopResult {
  TimedDist query_ms;   ///< send -> reply; failures count kMissedMs
  TimedDist update_ms;
  OpTally queries{"query"};
  OpTally updates{"update"};
  std::vector<std::string> errors;
  double wall_seconds = 0.0;
};

/// Latency recorded for an op that was refused or failed: it misses any
/// latency limit.
inline constexpr double kMissedMs = 1e9;

/// Runs one client per connection for `config.seconds`, then folds every
/// accepted insert and erase into `live`. Rows are owned by client
/// `id % connections.size()`.
ClosedLoopResult RunClosedLoop(
    const std::vector<std::unique_ptr<skyup::LoadConnection>>& connections,
    const ClosedLoopConfig& config, LiveRecord* live);

}  // namespace perfbench

#endif  // PERFBENCH_CLOSED_LOOP_H_
