// svc-live and svc-switch: closed-loop batches through DirectoryService.
//
// One client thread submits a batch with submit_batch, waits for it with
// drain, then submits the next. svc-live runs kLive (one worker per shard);
// svc-switch runs kSim, where submit_batch processes the batch inline.
#include <chrono>
#include <cstdio>
#include <memory>

#include "graph/distance_oracle.hpp"
#include "opt.hpp"
#include "service/directory_service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using arvy::DirectoryService;

constexpr auto kDrainBudget = std::chrono::milliseconds(20'000);

struct Fixture {
  std::unique_ptr<arvy::graph::Graph> graph;
  std::unique_ptr<DirectoryService> service;
  double graph_ms = 0.0;
  bool warm_ok = true;
};

std::unique_ptr<Fixture> make_fixture(const ServiceInputs& in) {
  auto f = std::make_unique<Fixture>();
  const auto t0 = Clock::now();
  f->graph = std::make_unique<arvy::graph::Graph>(build_graph(in.graph));
  f->graph_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  arvy::Options options;
  options.policy = arvy::proto::PolicyKind::kIvy;
  // Fixed: it seeds the object -> shard placement, which is part of the
  // workload's definition, not of its inputs.
  options.seed = 1;
  f->service = std::make_unique<DirectoryService>(
      *f->graph, in.objects, in.shards, options,
      in.live ? arvy::ServiceMode::kLive : arvy::ServiceMode::kSim);
  // Warm-up: materialize objects, then one untimed pass of every batch.
  for (const auto* batches : {&in.touch, &in.batches}) {
    for (const Batch& b : *batches) {
      f->service->submit_batch(b);
      f->warm_ok = f->service->drain(kDrainBudget) && f->warm_ok;
    }
  }
  return f;
}

struct Phase {
  PhaseStats stats;
  arvy::proto::CostAccount cost;  // delta over the phase
};

Phase run_phase(DirectoryService& svc, const ServiceInputs& in,
                std::size_t reps, Tracer* tracer,
                std::vector<std::string>& failures) {
  const auto cost0 = svc.cost_snapshot();
  std::uint64_t satisfied = svc.satisfied_count();
  Phase p;
  p.stats = run_closed_loop(
      in.batches, reps, tracer,
      {"svc.batch", "service.submit_batch", "service.drain"},
      [&](const Batch& b, std::uint64_t) { svc.submit_batch(b); },
      [&](const Batch&, std::uint64_t) -> std::size_t {
        const bool drained = svc.drain(kDrainBudget);
        const std::uint64_t now = svc.satisfied_count();
        const std::uint64_t got = now - satisfied;
        satisfied = now;
        return drained ? got : 0;
      },
      failures);
  p.cost = cost_delta(svc.cost_snapshot(), cost0);
  return p;
}

// Share of requests that find another object seated on their shard, i.e.
// that pay one park + one adopt.
double switch_fraction(const DirectoryService& svc, const ServiceInputs& in) {
  std::vector<std::uint64_t> seated(in.shards, ~std::uint64_t{0});
  std::uint64_t switches = 0;
  std::uint64_t total = 0;
  for (int pass = 0; pass < 2; ++pass) {  // pass 0 only seats the objects
    for (const Batch& b : in.batches) {
      for (const auto& r : b) {
        const std::uint32_t shard = svc.route(r.object);
        if (pass == 1) {
          ++total;
          if (seated[shard] != r.object) ++switches;
        }
        seated[shard] = r.object;
      }
    }
  }
  return total ? static_cast<double>(switches) / static_cast<double>(total) : 0.0;
}

double route_ns(const DirectoryService& svc, const ServiceInputs& in,
                Tracer* tracer) {
  ScopedSpan span(tracer, tracer ? tracer->intern("replay.route") : 0, 0);
  std::uint64_t lookups = 0;
  std::uint64_t sink = 0;
  const std::int64_t t0 = now_ns();
  while (lookups < 4'000'000) {
    for (const Batch& b : in.batches) {
      for (const auto& r : b) sink += svc.route(r.object);
      lookups += b.size();
    }
  }
  const std::int64_t spent = now_ns() - t0;
  asm volatile("" : : "r"(sink) : "memory");
  return static_cast<double>(spent) / static_cast<double>(lookups);
}

}  // namespace

Outcome run_service_workload(const RunConfig& cfg) {
  const bool live = cfg.workload == "svc-live";
  Outcome out;

  const auto gen0 = Clock::now();
  const ServiceInputs in =
      live ? make_svc_live_inputs(cfg.seed) : make_svc_switch_inputs(cfg.seed);
  const double gen_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - gen0).count();

  std::vector<double> setup_s;
  auto fixture = timed_setups<Fixture>([&] { return make_fixture(in); },
                                       setup_s, cfg.trace);
  DirectoryService& svc = *fixture->service;
  if (!fixture->warm_ok) out.failures.push_back("warm-up did not drain");

  // Reference machine: one svc-live pass (8 volleys) ~0.26 s, one
  // svc-switch pass (64 batches) ~0.57 s.
  const std::size_t reps =
      plan_reps(phase_seconds(cfg), live ? 3.8 : 1.75, in.batches.size(),
                min_samples_for(90.0));

  const Phase plain = run_phase(svc, in, reps, nullptr, out.failures);
  out.attempted += plain.stats.requests;
  out.failed += plain.stats.failed;

  const arvy::graph::DistanceOracle oracle(*fixture->graph);
  const double pass_opt = service_pass_opt(oracle, in.batches);
  const double throughput = median(plain.stats.rep_rps);
  add_end_to_end(out, setup_s, plain.stats, plain.cost.total_distance(),
                 cost_ratio(plain.cost.total_distance(),
                            pass_opt * static_cast<double>(reps)));
  std::printf("workload %s: graph %s, %zu objects, %zu shard(s), %s, %zu "
              "batches/pass, %zu reps/phase, %zu set-ups\n",
              cfg.workload.c_str(), in.graph.name.c_str(), in.objects,
              in.shards, live ? "kLive" : "kSim", in.batches.size(), reps,
              setup_s.size());
  print_phase(plain.stats);

  Tracer tracer;
  if (cfg.trace) {
    const Phase traced = run_phase(svc, in, reps, &tracer, out.failures);
    out.attempted += traced.stats.requests;
    out.failed += traced.stats.failed;
    const PhaseStats& t = traced.stats;
    const double treq = static_cast<double>(t.requests);
    const double shards = static_cast<double>(in.shards);
    const double e2e_ns = 1e9 / throughput;
    const double route = route_ns(svc, in, &tracer);
    const double ring =
        live ? replay_ring(in.batches, 256, 16, 0.3, &tracer) : 0.0;
    if (ring < 0.0) out.fail_all("ring replay lost or garbled frames");
    // The service has served materialization, the warm-up pass and both
    // timed phases.
    const SwitchReplay sw = replay_object_switches(
        *fixture->graph, in, 1 + 2 * reps, 64, 0.5, cfg.seed, &tracer);
    const double switch_frac = switch_fraction(svc, in);
    const double shard_ns =
        1e3 * (switch_frac * (sw.adopt_us + sw.park_us) + sw.dispatch_us);
    // Serial: the benchmark runs on one CPU, so on svc-live the submitter
    // (route, ring) and the shards take turns.
    const double blocking_ns = route + ring + shard_ns;
    out.layers.add("service.route_ns", route, "ns");
    out.layers.add("service.submit_ns_per_req",
                   static_cast<double>(t.send_ns) / treq, "ns");
    out.layers.add("service.drain_ns_per_req",
                   static_cast<double>(t.wait_ns) / treq, "ns");
    out.layers.add("service.submitter_cpu_frac", t.submitter.cpu_s / t.wall_s,
                   "ratio");
    if (live) {
      out.layers.add("service.shard_cpu_frac",
                     (t.process.cpu_s - t.submitter.cpu_s) / (t.wall_s * shards),
                     "ratio");
    } else {
      out.layers.add("service.req_us", 1e-3 * static_cast<double>(t.send_ns) / treq,
                     "us");
    }
    out.layers.add("service.ctx_switches_per_batch",
                   static_cast<double>(t.process.ctx_switches) /
                       static_cast<double>(t.batch_ms.size()),
                   "count");
    out.layers.add("service.resident_objects",
                   static_cast<double>(svc.resident_objects()), "count");
    out.layers.add("service.resident_bytes",
                   static_cast<double>(svc.resident_bytes()), "bytes");
    out.layers.add("proto.adopt_us", sw.adopt_us, "us");
    out.layers.add("proto.park_us", sw.park_us, "us");
    out.layers.add("proto.dispatch_us", sw.dispatch_us, "us");
    add_cost_layers(out, traced.cost, t.requests);
    if (live) out.layers.add("runtime.ring_ns_per_frame", ring, "ns");
    out.layers.add("graph.setup_ms", fixture->graph_ms, "ms");
    out.layers.add("workload.gen_ms", gen_ms, "ms");
    out.layers.add("residual_ns_per_req", e2e_ns - blocking_ns, "ns");
    out.layers.add("trace.overhead_frac", median(t.rep_rps) / throughput - 1.0,
                   "ratio");
    std::printf("decomposition (ns/request): e2e %.1f = route %.1f + ring "
                "%.1f + shard work %.1f [switch share %.4f x (adopt %.3f + "
                "park %.3f us) + dispatch %.3f us] + residual %.1f\n",
                e2e_ns, route, ring, shard_ns, switch_frac, sw.adopt_us,
                sw.park_us, sw.dispatch_us, e2e_ns - blocking_ns);
  }

  // --- correctness after timing --------------------------------------------
  if (live) svc.shutdown();
  const auto last = last_requesters(in.batches);
  std::size_t wrong_holders = 0;
  for (const auto& [object, node] : last) {
    if (svc.holder(object) != node) ++wrong_holders;
  }
  if (wrong_holders > 0) {
    out.fail_all(std::to_string(wrong_holders) +
                 " objects not held by their last requester");
  }
  const auto check0 = Clock::now();
  const arvy::ServiceCheckReport check = svc.check_sampled(8, cfg.seed);
  const double check_us =
      std::chrono::duration<double, std::micro>(Clock::now() - check0).count();
  if (!check) out.fail_all("check_sampled: " + check.first_failure);
  if (check.objects_checked == 0) out.fail_all("check_sampled checked nothing");
  std::printf("checks: holders of %zu objects, check_sampled over %zu objects\n",
              last.size(), check.objects_checked);
  if (cfg.trace) {
    out.layers.add("verify.check_us",
                   check_us / static_cast<double>(std::max<std::size_t>(
                                  check.objects_checked, 1)),
                   "us");
    finish_trace(tracer, cfg, out);
  }
  return out;
}

}  // namespace perfbench
