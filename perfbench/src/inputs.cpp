#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// Independent streams per input kind, so adding a stream never shifts
// another one's draws.
Rng stream(std::uint64_t seed, std::uint64_t salt) {
  return Rng(seed * 0x2545f4914f6cdd1dULL ^ salt);
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& word : s_) word = splitmix64(seed);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::below(0)");
  const auto m = static_cast<__uint128_t>(next()) * bound;
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::unit() {
  // 53 random bits, shifted off zero so log(unit()) is finite.
  return (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53;
}

Zipf::Zipf(std::size_t n, double alpha) : cdf_(n) {
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), alpha);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::sample(Rng& rng) const {
  const double u = rng.unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

GraphSpec grid_spec(std::size_t rows, std::size_t cols) {
  GraphSpec spec;
  spec.name = "grid:" + std::to_string(rows) + "x" + std::to_string(cols);
  spec.nodes = rows * cols;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const auto v = static_cast<arvy::graph::NodeId>(r * cols + c);
      if (c + 1 < cols) spec.edges.push_back({v, v + 1, 1.0});
      if (r + 1 < rows) {
        spec.edges.push_back(
            {v, static_cast<arvy::graph::NodeId>(v + cols), 1.0});
      }
    }
  }
  return spec;
}

GraphSpec ring_spec(std::size_t n) {
  GraphSpec spec;
  spec.name = "ring:" + std::to_string(n);
  spec.nodes = n;
  for (std::size_t v = 0; v < n; ++v) {
    spec.edges.push_back({static_cast<arvy::graph::NodeId>(v),
                          static_cast<arvy::graph::NodeId>((v + 1) % n), 1.0});
  }
  return spec;
}

GraphSpec geometric_spec(std::size_t n, double radius, Rng& rng) {
  GraphSpec spec;
  spec.name = "geometric:" + std::to_string(n) + ":" + std::to_string(radius);
  spec.nodes = n;
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (std::size_t v = 0; v < n; ++v) {
    x[v] = rng.unit();
    y[v] = rng.unit();
  }
  auto dist = [&](std::size_t a, std::size_t b) {
    return std::hypot(x[a] - x[b], y[a] - y[b]);
  };
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const double d = dist(a, b);
      if (d < radius) {
        spec.edges.push_back({static_cast<arvy::graph::NodeId>(a),
                              static_cast<arvy::graph::NodeId>(b), d});
      }
    }
  }
  // Euclidean MST (Prim, O(n^2)); its edges longer than the radius are the
  // ones that connect otherwise separate components.
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<std::size_t> from(n, 0);
  std::vector<bool> in_tree(n, false);
  best[0] = 0.0;
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t u = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (!in_tree[v] && (u == n || best[v] < best[u])) u = v;
    }
    in_tree[u] = true;
    if (step > 0 && best[u] >= radius) {
      spec.edges.push_back({static_cast<arvy::graph::NodeId>(from[u]),
                            static_cast<arvy::graph::NodeId>(u), best[u]});
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (!in_tree[v] && dist(u, v) < best[v]) {
        best[v] = dist(u, v);
        from[v] = u;
      }
    }
  }
  return spec;
}

arvy::graph::Graph build_graph(const GraphSpec& spec) {
  arvy::graph::Graph g(spec.nodes);
  for (const EdgeSpec& e : spec.edges) g.add_edge(e.a, e.b, e.weight);
  return g;
}

ServiceInputs make_svc_live_inputs(std::uint64_t seed) {
  ServiceInputs in;
  in.graph = grid_spec(4, 4);
  in.objects = std::size_t{1} << 20;
  in.shards = 2;
  in.live = true;
  // Object popularity: Zipf(0.9) by rank, rank r is object id r (the
  // routing hash spreads the hot ids over shards). Requesters: Zipf(1.1)
  // by rank over one fixed relabelling of the nodes, so the hot requesters
  // sit at the same grid positions for every seed; the seed draws the
  // requests.
  const Zipf objects(in.objects, 0.9);
  const Zipf nodes(in.graph.nodes, 1.1);
  std::vector<arvy::graph::NodeId> relabel(in.graph.nodes);
  std::iota(relabel.begin(), relabel.end(), arvy::graph::NodeId{0});
  Rng fixed = stream(0, 0x5e10);
  shuffle(relabel, fixed);
  Rng rng = stream(seed, 0x5e1);
  constexpr std::size_t kVolleys = 8;
  constexpr std::size_t kVolley = 8192;
  for (std::size_t b = 0; b < kVolleys; ++b) {
    Batch batch(kVolley);
    for (auto& r : batch) {
      r.object = objects.sample(rng);
      r.node = relabel[nodes.sample(rng)];
    }
    in.batches.push_back(std::move(batch));
  }
  return in;
}

ServiceInputs make_svc_switch_inputs(std::uint64_t seed) {
  ServiceInputs in;
  in.graph = ring_spec(512);
  in.objects = 4096;
  in.shards = 1;
  in.live = false;
  Rng rng = stream(seed, 0x5e2);
  constexpr std::size_t kBatch = 64;
  // Materialization: every object once, in a seeded order.
  std::vector<arvy::service::ObjectId> order(in.objects);
  std::iota(order.begin(), order.end(), arvy::service::ObjectId{0});
  shuffle(order, rng);
  for (std::size_t i = 0; i < order.size(); i += kBatch) {
    Batch batch;
    for (std::size_t k = i; k < std::min(order.size(), i + kBatch); ++k) {
      batch.push_back({order[k],
                       static_cast<arvy::graph::NodeId>(rng.below(in.graph.nodes)),
                       0});
    }
    in.touch.push_back(std::move(batch));
  }
  constexpr std::size_t kBatches = 64;
  for (std::size_t b = 0; b < kBatches; ++b) {
    Batch batch(kBatch);
    for (auto& r : batch) {
      r.object = rng.below(in.objects);
      r.node = static_cast<arvy::graph::NodeId>(rng.below(in.graph.nodes));
    }
    in.batches.push_back(std::move(batch));
  }
  return in;
}

ConcurrentInputs make_dir_concurrent_inputs(std::uint64_t seed) {
  ConcurrentInputs in;
  Rng graph_rng = stream(seed, 0xdc1);
  in.graph = geometric_spec(1024, 0.08, graph_rng);
  Rng rng = stream(seed, 0xdc2);
  constexpr std::size_t kRounds = 64;
  constexpr std::size_t kArrivals = 256;
  constexpr double kRate = 2.0;
  std::vector<arvy::graph::NodeId> nodes(in.graph.nodes);
  std::iota(nodes.begin(), nodes.end(), arvy::graph::NodeId{0});
  for (std::size_t r = 0; r < kRounds; ++r) {
    // Partial Fisher-Yates: the first kArrivals entries are distinct nodes.
    for (std::size_t i = 0; i < kArrivals; ++i) {
      std::swap(nodes[i], nodes[i + rng.below(nodes.size() - i)]);
    }
    std::vector<arvy::proto::TimedRequest> round(kArrivals);
    double t = 0.0;
    for (std::size_t i = 0; i < kArrivals; ++i) {
      t += -std::log(rng.unit()) / kRate;
      round[i] = {nodes[i], t};
    }
    in.rounds.push_back(std::move(round));
  }
  return in;
}

LiveInputs make_dir_live_inputs(std::uint64_t seed) {
  LiveInputs in;
  in.graph = grid_spec(16, 16);
  in.workers = 2;
  Rng rng = stream(seed, 0xd11);
  constexpr std::size_t kVolleys = 64;
  for (std::size_t k = 0; k < kVolleys; ++k) {
    // Alternate parity so consecutive volleys never share a node.
    std::vector<arvy::graph::NodeId> volley;
    for (std::size_t v = k % 2; v < in.graph.nodes; v += 2) {
      volley.push_back(static_cast<arvy::graph::NodeId>(v));
    }
    shuffle(volley, rng);
    in.volleys.push_back(std::move(volley));
  }
  return in;
}

}  // namespace perfbench
