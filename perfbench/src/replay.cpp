// Standalone layer replays: the same calls the service makes on its
// request path, driven directly so each can be timed on its own.
#include <concepts>
#include <cstring>
#include <unordered_map>

#include "graph/spanning_tree.hpp"
#include "proto/directory.hpp"
#include "proto/engine.hpp"
#include "runtime/ring_mailbox.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// The DirectoryService shard seam: an engine reused across objects by
// parking one object's tree and adopting the next.
template <typename Engine>
concept ParksObjects = requires(Engine& e, const Engine& ce,
                                arvy::proto::InitialConfig& cfg) {
  { ce.park_state(cfg) } -> std::convertible_to<bool>;
  e.adopt_state(cfg, std::uint64_t{1});
};

std::int64_t elapsed_ns(std::int64_t since) { return now_ns() - since; }

// The service's canonical initial tree for an object: what a standalone
// Directory resolves for slot 0, shortest-path trees from roots spread over
// the graph for the others (DirectoryService::build_canonical).
arvy::proto::InitialConfig canonical_tree(const arvy::graph::Graph& g,
                                          const arvy::Options& options,
                                          arvy::service::ObjectId object) {
  constexpr std::size_t kSpreadRoots = 32;
  const std::size_t n = g.node_count();
  const std::size_t roots = std::min(n, kSpreadRoots);
  const std::size_t j = object % roots;
  if (j == 0) return arvy::resolve_initial_config(g, options);
  const auto root = static_cast<arvy::graph::NodeId>((j * n) / roots);
  return arvy::proto::from_tree(arvy::graph::shortest_path_tree(g, root));
}

template <typename Engine>
SwitchReplay replay_switches(const arvy::graph::Graph& g,
                             const std::vector<Batch>& touch,
                             const std::vector<Batch>& pass,
                             std::size_t history_passes,
                             std::size_t max_objects, double budget_s,
                             std::uint64_t seed, Tracer* tracer) {
  SwitchReplay out;
  if constexpr (ParksObjects<Engine>) {
    using arvy::service::ObjectId;
    // A seeded uniform sample of the pass's distinct objects.
    std::vector<ObjectId> distinct;
    {
      std::unordered_map<ObjectId, bool> seen;
      for (const Batch& batch : pass) {
        for (const auto& r : batch) {
          if (seen.emplace(r.object, true).second) distinct.push_back(r.object);
        }
      }
    }
    Rng rng(seed ^ 0x7e91a7ULL);
    for (std::size_t i = 0; i < std::min(max_objects, distinct.size()); ++i) {
      std::swap(distinct[i], distinct[i + rng.below(distinct.size() - i)]);
    }
    distinct.resize(std::min(max_objects, distinct.size()));
    std::unordered_map<ObjectId, std::size_t> slot;
    for (std::size_t i = 0; i < distinct.size(); ++i) slot[distinct[i]] = i;
    auto restrict = [&](const std::vector<Batch>& batches) {
      std::vector<std::pair<std::size_t, arvy::graph::NodeId>> stream;
      for (const Batch& batch : batches) {
        for (const auto& r : batch) {
          const auto it = slot.find(r.object);
          if (it != slot.end()) stream.emplace_back(it->second, r.node);
        }
      }
      return stream;
    };
    const auto touched = restrict(touch);
    const auto stream = restrict(pass);
    if (stream.empty()) return out;

    arvy::Options options;
    options.policy = arvy::proto::PolicyKind::kIvy;
    const auto policy = arvy::resolve_policy(options);
    std::vector<arvy::proto::InitialConfig> rows;
    for (const ObjectId object : distinct) {
      rows.push_back(canonical_tree(g, options, object));
    }
    Engine engine(g, rows.front(), *policy);

    // Give each sampled object the request history the service gave it
    // (materialization, then every pass served so far), one object at a
    // time: per object the service runs exactly this sequence, so the
    // parked trees are the service's own.
    for (std::size_t obj = 0; obj < rows.size(); ++obj) {
      engine.adopt_state(rows[obj], obj + 1);
      auto serve = [&](const auto& requests) {
        for (const auto& [o, node] : requests) {
          if (o != obj) continue;
          engine.submit_queued(node);
          engine.run_until_idle();
        }
      };
      serve(touched);
      for (std::size_t k = 0; k < history_passes; ++k) serve(stream);
      (void)engine.park_state(rows[obj]);
    }

    const Tracer::NameId root = tracer ? tracer->intern("replay.proto") : 0;
    const Tracer::NameId park = tracer ? tracer->intern("proto.park") : 0;
    const Tracer::NameId adopt = tracer ? tracer->intern("proto.adopt") : 0;
    const Tracer::NameId dispatch = tracer ? tracer->intern("proto.dispatch") : 0;
    ScopedSpan root_span(tracer, root, 0);

    std::int64_t park_ns = 0;
    std::int64_t adopt_ns = 0;
    std::int64_t dispatch_ns = 0;
    std::uint64_t parks = 0;
    std::size_t current = rows.size();  // the seeding loop parked everything
    const std::int64_t start = now_ns();
    const auto budget_ns = static_cast<std::int64_t>(budget_s * 1e9);
    std::uint64_t request_id = 0;
    // The timed replay continues the service's sequence: the next passes.
    while (out.dispatches == 0 || elapsed_ns(start) < budget_ns) {
      for (const auto& [obj, node] : stream) {
        ++request_id;
        if (obj != current) {
          if (current != rows.size()) {
            ScopedSpan s(tracer, park, request_id);
            const std::int64_t t0 = now_ns();
            (void)engine.park_state(rows[current]);
            park_ns += elapsed_ns(t0);
            ++parks;
          }
          ScopedSpan s(tracer, adopt, request_id);
          const std::int64_t t0 = now_ns();
          engine.adopt_state(rows[obj], obj + 1);
          adopt_ns += elapsed_ns(t0);
          ++out.switches;
          current = obj;
        }
        ScopedSpan s(tracer, dispatch, request_id);
        const std::int64_t t0 = now_ns();
        engine.submit_queued(node);
        engine.run_until_idle();
        dispatch_ns += elapsed_ns(t0);
        ++out.dispatches;
      }
    }
    out.adopt_us = out.switches ? 1e-3 * static_cast<double>(adopt_ns) /
                                      static_cast<double>(out.switches)
                                : 0.0;
    out.park_us = parks ? 1e-3 * static_cast<double>(park_ns) /
                              static_cast<double>(parks)
                        : 0.0;
    out.dispatch_us = 1e-3 * static_cast<double>(dispatch_ns) /
                      static_cast<double>(out.dispatches);
  }
  return out;
}

}  // namespace

SwitchReplay replay_object_switches(const arvy::graph::Graph& g,
                                    const ServiceInputs& in,
                                    std::size_t history_passes,
                                    std::size_t max_objects, double budget_s,
                                    std::uint64_t seed, Tracer* tracer) {
  return replay_switches<arvy::proto::SimEngine>(
      g, in.touch, in.batches, history_passes, max_objects, budget_s, seed,
      tracer);
}

double replay_ring(const std::vector<Batch>& pass, std::size_t capacity,
                   std::size_t batch, double budget_s, Tracer* tracer) {
  arvy::runtime::RingMailbox ring(capacity, sizeof(arvy::service::ObjectRequest));
  const Tracer::NameId root = tracer ? tracer->intern("replay.ring") : 0;
  ScopedSpan root_span(tracer, root, 0);
  std::uint64_t frames = 0;
  std::uint64_t checksum = 0;
  std::uint64_t expected = 0;
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(budget_s * 1e9);
  while (now_ns() - start < budget_ns) {
    for (const Batch& b : pass) {
      for (std::size_t i = 0; i < b.size(); i += batch) {
        const std::size_t n = std::min(batch, b.size() - i);
        for (std::size_t k = 0; k < n; ++k) {
          const auto& request = b[i + k];
          expected += request.object;
          (void)ring.push([&request](std::byte* slot) {
            std::memcpy(slot, &request, sizeof(request));
          });
        }
        const std::size_t got = ring.acquire_batch(n);
        for (std::size_t k = 0; k < got; ++k) {
          arvy::service::ObjectRequest out;
          std::memcpy(&out, ring.batch_slot(k), sizeof(out));
          checksum += out.object;
        }
        ring.release_batch(got);
        frames += got;
      }
    }
  }
  const std::int64_t spent = now_ns() - start;
  if (checksum != expected) return -1.0;  // a lost or garbled frame
  return static_cast<double>(spent) / static_cast<double>(frames);
}

}  // namespace perfbench
