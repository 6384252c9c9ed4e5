#include "opt.hpp"

#include <stdexcept>

#include "analysis/opt.hpp"

namespace perfbench {

std::unordered_map<arvy::service::ObjectId, arvy::graph::NodeId>
last_requesters(std::span<const Batch> pass) {
  std::unordered_map<arvy::service::ObjectId, arvy::graph::NodeId> last;
  for (const Batch& batch : pass) {
    for (const auto& r : batch) last[r.object] = r.node;
  }
  return last;
}

double service_pass_opt(const arvy::graph::DistanceOracle& oracle,
                        std::span<const Batch> pass) {
  std::unordered_map<arvy::service::ObjectId, std::vector<arvy::graph::NodeId>>
      sequences;
  for (const Batch& batch : pass) {
    for (const auto& r : batch) sequences[r.object].push_back(r.node);
  }
  double total = 0.0;
  for (const auto& [object, sequence] : sequences) {
    total += arvy::analysis::opt_sequential(oracle, sequence.back(), sequence);
  }
  return total;
}

std::vector<arvy::graph::NodeId> holders_after_groups(
    const std::vector<arvy::proto::RequestRecord>& records, std::size_t first,
    std::size_t group, std::size_t groups) {
  if (first + group * groups > records.size()) {
    throw std::out_of_range("holders_after_groups: records too short");
  }
  std::vector<arvy::graph::NodeId> holders(groups, arvy::graph::kInvalidNode);
  for (std::size_t g = 0; g < groups; ++g) {
    std::uint64_t best = 0;
    for (std::size_t i = first + g * group; i < first + (g + 1) * group; ++i) {
      const auto& rec = records[i];
      if (rec.satisfaction_index > best) {
        best = rec.satisfaction_index;
        holders[g] = rec.node;
      }
    }
  }
  return holders;
}

}  // namespace perfbench
