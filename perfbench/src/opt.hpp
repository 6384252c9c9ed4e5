// Offline-optimum accounting behind `cost_ratio`.
//
// svc-*: the service runs each object's requests to quiescence in admission
// order (the paper's §6 sequential semantics), so OPT is, per object,
// analysis::opt_sequential over that object's requests. Every timed
// repetition replays the same pass after an identical pass (warm-up or the
// previous repetition), so each object starts the pass at the node that
// requested it last in the pass, and one pass's OPT serves every repetition.
//
// dir-*: OPT for a batch of concurrent requests is bounded below by
// analysis::opt_burst_lower_bound (metric MST over token ∪ requesters), so
// the ratio against it is an upper bound on the competitive ratio.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/distance_oracle.hpp"
#include "inputs.hpp"
#include "proto/engine.hpp"

namespace perfbench {

// Object -> node that requested it last in one pass.
[[nodiscard]] std::unordered_map<arvy::service::ObjectId, arvy::graph::NodeId>
last_requesters(std::span<const Batch> pass);

// Sequential OPT of one pass, each object starting at its last requester.
[[nodiscard]] double service_pass_opt(const arvy::graph::DistanceOracle& oracle,
                                      std::span<const Batch> pass);

// Token holder after each group of `group` consecutive request records: the
// node of the record satisfied last within the group (the token ends there
// once every request of the group is satisfied). Groups start at `first`.
[[nodiscard]] std::vector<arvy::graph::NodeId> holders_after_groups(
    const std::vector<arvy::proto::RequestRecord>& records, std::size_t first,
    std::size_t group, std::size_t groups);

// distance / opt; 0 when opt is 0 (nothing to serve).
[[nodiscard]] inline double cost_ratio(double distance, double opt) {
  return opt > 0.0 ? distance / opt : 0.0;
}

}  // namespace perfbench
