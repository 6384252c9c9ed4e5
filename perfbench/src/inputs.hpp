// Seeded input generation for the four workloads.
//
// Inputs are made before any timing, from the run's --seed alone, with the
// benchmark's own generators (not the library's), so a change to the
// library's RNG or workload helpers cannot silently change what is
// measured. The library receives only the generated inputs: graphs as edge
// lists, and request batches as plain arrays.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "proto/engine.hpp"
#include "service/request.hpp"

namespace perfbench {

// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t next();
  std::uint64_t below(std::uint64_t bound);  // uniform in [0, bound)
  double unit();                             // uniform in (0, 1)

 private:
  std::uint64_t s_[4];
};

// Zipf(alpha) over ranks [0, n): P(rank k) proportional to 1/(k+1)^alpha.
class Zipf {
 public:
  Zipf(std::size_t n, double alpha);
  [[nodiscard]] std::size_t sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

struct EdgeSpec {
  arvy::graph::NodeId a = 0;
  arvy::graph::NodeId b = 0;
  double weight = 1.0;
};

struct GraphSpec {
  std::string name;  // e.g. "grid:4x4"
  std::size_t nodes = 0;
  std::vector<EdgeSpec> edges;
};

[[nodiscard]] GraphSpec grid_spec(std::size_t rows, std::size_t cols);
[[nodiscard]] GraphSpec ring_spec(std::size_t n);
// Random points in the unit square; an edge with Euclidean weight between
// every pair closer than `radius`, plus the Euclidean minimum spanning tree
// so the graph is connected.
[[nodiscard]] GraphSpec geometric_spec(std::size_t n, double radius, Rng& rng);
[[nodiscard]] arvy::graph::Graph build_graph(const GraphSpec& spec);

using Batch = std::vector<arvy::service::ObjectRequest>;

// svc-live / svc-switch. `touch` materializes objects before the warm-up
// pass; `batches` is one pass, replayed identically by warm-up and by every
// timed repetition.
struct ServiceInputs {
  GraphSpec graph;
  std::size_t objects = 0;
  std::size_t shards = 0;
  bool live = false;
  std::vector<Batch> touch;
  std::vector<Batch> batches;
};

// dir-concurrent: rounds of timed arrivals at distinct nodes, times relative
// to the round's start.
struct ConcurrentInputs {
  GraphSpec graph;
  std::vector<std::vector<arvy::proto::TimedRequest>> rounds;
};

// dir-live: volleys of acquires at distinct nodes.
struct LiveInputs {
  GraphSpec graph;
  std::size_t workers = 0;
  std::vector<std::vector<arvy::graph::NodeId>> volleys;
};

[[nodiscard]] ServiceInputs make_svc_live_inputs(std::uint64_t seed);
[[nodiscard]] ServiceInputs make_svc_switch_inputs(std::uint64_t seed);
[[nodiscard]] ConcurrentInputs make_dir_concurrent_inputs(std::uint64_t seed);
[[nodiscard]] LiveInputs make_dir_live_inputs(std::uint64_t seed);

}  // namespace perfbench
