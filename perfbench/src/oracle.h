#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// The benchmark's own record of the live P/T and the oracle built from it:
// an `UpgradePlanner` over exactly the rows the benchmark believes are live,
// whose answers every serving path must reproduce bit for bit.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/cost_function.h"
#include "core/planner.h"
#include "util/status.h"

namespace perfbench {

/// Live rows by stable id (std::map keeps them in id order, which is the
/// serving layer's candidate order and tie-break).
struct LiveRecord {
  std::map<uint64_t, std::vector<double>> competitors;
  std::map<uint64_t, std::vector<double>> products;
};

/// A planner over a LiveRecord plus the row -> stable id map of its T.
struct Oracle {
  skyup::UpgradePlanner planner;
  std::vector<uint64_t> product_ids;  ///< planner row -> stable id
};

skyup::Result<Oracle> BuildOracle(const LiveRecord& live, size_t dims,
                                  const skyup::ProductCostFunction& cost_fn,
                                  size_t threads);

/// Rewrites planner row ids in `results` to stable ids.
void ToStableIds(const std::vector<uint64_t>& product_ids,
                 std::vector<skyup::UpgradeResult>* results);

/// Empty when `got` equals `want` exactly (ids, bit-exact costs and
/// upgraded vectors, competitive flags); otherwise a one-line description
/// of the first difference.
std::string DiffResults(const std::vector<skyup::UpgradeResult>& want,
                        const std::vector<skyup::UpgradeResult>& got);

/// Like DiffResults but compares only the cost at each rank.
std::string DiffCosts(const std::vector<skyup::UpgradeResult>& want,
                      const std::vector<skyup::UpgradeResult>& got);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
