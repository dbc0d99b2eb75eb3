#include "oracle.h"

#include <sstream>

#include "core/dataset.h"

namespace perfbench {

skyup::Result<Oracle> BuildOracle(const LiveRecord& live, size_t dims,
                                  const skyup::ProductCostFunction& cost_fn,
                                  size_t threads) {
  skyup::Dataset p(dims);
  skyup::Dataset t(dims);
  p.Reserve(live.competitors.size());
  t.Reserve(live.products.size());
  std::vector<uint64_t> ids;
  ids.reserve(live.products.size());
  for (const auto& [id, coords] : live.competitors) p.Add(coords);
  for (const auto& [id, coords] : live.products) {
    t.Add(coords);
    ids.push_back(id);
  }
  skyup::PlannerOptions options;
  options.threads = threads;
  skyup::Result<skyup::UpgradePlanner> planner = skyup::UpgradePlanner::Create(
      std::move(p), std::move(t), cost_fn, options);
  if (!planner.ok()) return planner.status();
  return Oracle{std::move(planner).value(), std::move(ids)};
}

void ToStableIds(const std::vector<uint64_t>& product_ids,
                 std::vector<skyup::UpgradeResult>* results) {
  for (skyup::UpgradeResult& r : *results) {
    r.product_id =
        static_cast<skyup::PointId>(product_ids[static_cast<size_t>(r.product_id)]);
  }
}

std::string DiffResults(const std::vector<skyup::UpgradeResult>& want,
                        const std::vector<skyup::UpgradeResult>& got) {
  std::ostringstream out;
  if (want.size() != got.size()) {
    out << "result count " << got.size() << " vs oracle " << want.size();
    return out.str();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    // Exact comparison on purpose: every path must agree bit for bit.
    if (got[i].product_id != want[i].product_id || got[i].cost != want[i].cost ||
        got[i].upgraded != want[i].upgraded ||
        got[i].already_competitive != want[i].already_competitive) {
      out.precision(17);
      out << "rank " << i + 1 << ": got product " << got[i].product_id
          << " cost " << got[i].cost << ", oracle product "
          << want[i].product_id << " cost " << want[i].cost;
      return out.str();
    }
  }
  return "";
}

std::string DiffCosts(const std::vector<skyup::UpgradeResult>& want,
                      const std::vector<skyup::UpgradeResult>& got) {
  std::ostringstream out;
  if (want.size() != got.size()) {
    out << "result count " << got.size() << " vs oracle " << want.size();
    return out.str();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i].cost != want[i].cost) {
      out.precision(17);
      out << "rank " << i + 1 << ": got cost " << got[i].cost << ", oracle "
          << want[i].cost;
      return out.str();
    }
  }
  return "";
}

}  // namespace perfbench
