// dir-concurrent and dir-live: the single-object facades.
//
// dir-concurrent drives arvy::Directory (the simulator) with rounds of timed
// arrivals through run_concurrent, under 5% find and token loss with
// retransmission. dir-live drives arvy::LiveDirectory (the threaded
// runtime) with volleys of acquires followed by drain.
#include <chrono>
#include <cstdio>
#include <memory>

#include "analysis/opt.hpp"
#include "opt.hpp"
#include "proto/directory.hpp"
#include "runtime/live_directory.hpp"
#include "verify/fault_tolerant.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr auto kDrainBudget = std::chrono::milliseconds(20'000);

// --- dir-concurrent ---------------------------------------------------------

using Round = std::vector<arvy::proto::TimedRequest>;

// Rounds whose OPT is summed for cost_ratio: a fixed prefix of the phase,
// since each round's lower bound is an O(k^2) metric MST.
constexpr std::size_t kOptRounds = 1024;

struct SimFixture {
  std::unique_ptr<arvy::graph::Graph> graph;
  std::unique_ptr<arvy::Directory> dir;
  Round scratch;  // the round being run, re-timed to the current clock
  double graph_ms = 0.0;
  bool warm_ok = true;

  void retime(const Round& round) {
    const double base = dir->inspect().bus().now();
    for (std::size_t i = 0; i < round.size(); ++i) {
      scratch[i] = {round[i].node, base + round[i].at};
    }
  }

  // Runs the re-timed round; returns how many of its requests are
  // satisfied. Its ledger records are the last ones (one per arrival), so
  // the count costs O(round) where Directory::satisfied_count() would
  // rescan the whole ledger.
  std::size_t run_scratch() {
    dir->run_concurrent(scratch);
    const auto& records = dir->requests();
    std::size_t satisfied = 0;
    for (std::size_t i = records.size() - scratch.size(); i < records.size();
         ++i) {
      if (records[i].satisfied_at.has_value()) ++satisfied;
    }
    return satisfied;
  }
};

arvy::Options concurrent_options(std::uint64_t seed) {
  arvy::Options options;
  options.policy = arvy::proto::PolicyKind::kIvy;
  options.seed = seed;
  options.faults.drop_find = 0.05;
  options.faults.drop_token = 0.05;
  options.retry.rto = 4.0;
  options.retry.backoff = 2.0;
  return options;
}

std::unique_ptr<SimFixture> make_sim_fixture(const ConcurrentInputs& in,
                                             std::uint64_t seed) {
  auto f = std::make_unique<SimFixture>();
  const auto t0 = Clock::now();
  f->graph = std::make_unique<arvy::graph::Graph>(build_graph(in.graph));
  f->dir = std::make_unique<arvy::Directory>(*f->graph, concurrent_options(seed));
  f->dir->oracle().prewarm_all();
  f->graph_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  f->scratch.resize(in.rounds.front().size());
  for (const Round& round : in.rounds) {
    f->retime(round);
    f->warm_ok = f->run_scratch() == round.size() && f->warm_ok;
  }
  return f;
}

struct SimPhase {
  PhaseStats stats;
  std::size_t first_record = 0;  // ledger index of the phase's first request
  arvy::proto::CostAccount cost;          // delta over the phase
  arvy::proto::CostAccount cost_at_mark;  // delta over the first mark rounds
  arvy::faults::FaultStats faults;        // delta over the phase
};

SimPhase run_sim_phase(SimFixture& f, const ConcurrentInputs& in,
                       std::size_t reps, std::size_t mark_rounds,
                       Tracer* tracer, std::vector<std::string>& failures) {
  SimPhase p;
  p.first_record = f.dir->requests().size();
  const auto cost0 = f.dir->cost_snapshot();
  const auto faults0 = f.dir->fault_stats();
  p.stats = run_closed_loop(
      in.rounds, reps, tracer, {"dir.round", "sim.retime", "sim.run_concurrent"},
      [&](const Round& round, std::uint64_t) { f.retime(round); },
      [&](const Round&, std::uint64_t id) {
        const std::size_t got = f.run_scratch();
        if (id == mark_rounds) {
          p.cost_at_mark = cost_delta(f.dir->cost_snapshot(), cost0);
        }
        return got;
      },
      failures);
  p.cost = cost_delta(f.dir->cost_snapshot(), cost0);
  const auto faults1 = f.dir->fault_stats();
  p.faults.drops = faults1.drops - faults0.drops;
  p.faults.retries = faults1.retries - faults0.retries;
  p.faults.permanent_losses = faults1.permanent_losses - faults0.permanent_losses;
  p.faults.overhead_distance =
      faults1.overhead_distance - faults0.overhead_distance;
  return p;
}

// --- dir-live ---------------------------------------------------------------

using Volley = std::vector<arvy::graph::NodeId>;

struct LiveFixture {
  std::unique_ptr<arvy::graph::Graph> graph;
  std::unique_ptr<arvy::LiveDirectory> dir;
  double graph_ms = 0.0;
  bool warm_ok = true;
};

std::unique_ptr<LiveFixture> make_live_fixture(const LiveInputs& in,
                                               std::uint64_t seed) {
  auto f = std::make_unique<LiveFixture>();
  const auto t0 = Clock::now();
  f->graph = std::make_unique<arvy::graph::Graph>(build_graph(in.graph));
  f->graph_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  arvy::Options options;
  options.policy = arvy::proto::PolicyKind::kIvy;
  options.seed = seed;
  options.workers = in.workers;
  f->dir = std::make_unique<arvy::LiveDirectory>(*f->graph, options);
  for (const Volley& volley : in.volleys) {
    for (const arvy::graph::NodeId v : volley) f->dir->acquire(v);
    f->warm_ok = f->dir->drain(kDrainBudget) && f->warm_ok;
  }
  return f;
}

struct LivePhase {
  PhaseStats stats;
  arvy::proto::CostAccount cost;  // delta over the phase
};

LivePhase run_live_phase(LiveFixture& f, const LiveInputs& in, std::size_t reps,
                         Tracer* tracer, std::vector<std::string>& failures) {
  const Tracer::NameId acquire_span =
      tracer ? tracer->intern("runtime.acquire") : 0;
  std::uint64_t request_id = 0;
  std::uint64_t satisfied = f.dir->satisfied_count();
  LivePhase p;
  const auto cost0 = f.dir->cost_snapshot();
  p.stats = run_closed_loop(
      in.volleys, reps, tracer, {"dir.volley", "runtime.acquires", "runtime.drain"},
      [&](const Volley& volley, std::uint64_t) {
        for (const arvy::graph::NodeId v : volley) {
          ScopedSpan span(tracer, acquire_span, ++request_id);
          f.dir->acquire(v);
        }
      },
      [&](const Volley&, std::uint64_t) -> std::size_t {
        const bool drained = f.dir->drain(kDrainBudget);
        const std::uint64_t now = f.dir->satisfied_count();
        const std::uint64_t got = now - satisfied;
        satisfied = now;
        return drained ? got : 0;
      },
      failures);
  p.cost = cost_delta(f.dir->cost_snapshot(), cost0);
  return p;
}

}  // namespace

Outcome run_dir_concurrent(const RunConfig& cfg) {
  Outcome out;
  const auto gen0 = Clock::now();
  const ConcurrentInputs in = make_dir_concurrent_inputs(cfg.seed);
  const double gen_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - gen0).count();

  std::vector<double> setup_s;
  auto fixture = timed_setups<SimFixture>(
      [&] { return make_sim_fixture(in, cfg.seed); }, setup_s, cfg.trace);
  SimFixture& f = *fixture;
  if (!f.warm_ok) out.failures.push_back("warm-up left requests unsatisfied");
  const std::size_t oracle_rows = f.dir->oracle().cached_rows();
  const std::optional<arvy::graph::NodeId> holder0 = f.dir->holder();

  // Reference machine: one pass (64 rounds of 256 arrivals) ~62 ms.
  const std::size_t reps = plan_reps(phase_seconds(cfg), 16.0, in.rounds.size(),
                                     min_samples_for(90.0));
  const std::size_t round_size = in.rounds.front().size();
  const std::size_t rounds = reps * in.rounds.size();
  const std::size_t opt_rounds = std::min(rounds, kOptRounds);

  const SimPhase plain =
      run_sim_phase(f, in, reps, opt_rounds, nullptr, out.failures);
  out.attempted += plain.stats.requests;
  out.failed += plain.stats.failed;

  // OPT of the first opt_rounds rounds: each round's burst lower bound from
  // the token's position when the round starts, read back from the ledger.
  const auto& records = f.dir->requests();
  const std::vector<arvy::graph::NodeId> holders =
      holders_after_groups(records, plain.first_record, round_size, rounds);
  if (!holder0) out.fail_all("no token holder before timing");
  if (f.dir->holder() != holders.back()) {
    out.fail_all("token not at the last satisfied requester after timing");
  }
  double opt = 0.0;
  std::vector<arvy::graph::NodeId> requesters(round_size);
  for (std::size_t r = 0; r < opt_rounds && holder0; ++r) {
    const Round& round = in.rounds[r % in.rounds.size()];
    for (std::size_t i = 0; i < round_size; ++i) requesters[i] = round[i].node;
    const arvy::graph::NodeId start = r == 0 ? *holder0 : holders[r - 1];
    opt += arvy::analysis::opt_burst_lower_bound(f.dir->oracle(), start,
                                                 requesters);
  }
  std::vector<double> latency;
  latency.reserve(plain.stats.requests);
  for (std::size_t i = plain.first_record;
       i < plain.first_record + plain.stats.requests; ++i) {
    const auto& rec = records[i];
    if (rec.satisfied_at) latency.push_back(*rec.satisfied_at - rec.submitted);
  }
  const Percentile lat50 = percentile(latency, 50.0);
  const Percentile lat99 = percentile(latency, 99.0);

  const double throughput = median(plain.stats.rep_rps);
  add_end_to_end(out, setup_s, plain.stats, plain.cost.total_distance(),
                 cost_ratio(plain.cost_at_mark.total_distance(), opt));
  std::printf("workload %s: graph %s (%zu edges), Ivy, drop 5%% find + 5%% "
              "token, retry rto 4 backoff 2, %zu rounds/pass of %zu arrivals, "
              "%zu reps/phase, %zu set-ups\n",
              cfg.workload.c_str(), in.graph.name.c_str(), in.graph.edges.size(),
              in.rounds.size(), round_size, reps, setup_s.size());
  print_phase(plain.stats);
  std::printf("  sim_latency_p50 = %s sim-time samples=%zu beyond=%zu\n",
              format_number(lat50.value).c_str(), lat50.samples, lat50.beyond);
  std::printf("  sim_latency_p99 = %s sim-time samples=%zu beyond=%zu\n",
              format_number(lat99.value).c_str(), lat99.samples, lat99.beyond);
  std::printf("  cost_ratio covers the first %zu rounds (OPT = sum of burst "
              "lower bounds %s)\n",
              opt_rounds, format_number(opt).c_str());

  Tracer tracer;
  if (cfg.trace) {
    std::uint64_t deliveries = 0;
    std::size_t in_flight_peak = 0;
    const arvy::Directory& dir = *f.dir;
    f.dir->on_message([&](const arvy::MessageEvent&) {
      ++deliveries;
      in_flight_peak =
          std::max(in_flight_peak, dir.inspect().bus().in_flight_count());
    });
    const SimPhase traced = run_sim_phase(f, in, reps, 0, &tracer, out.failures);
    f.dir->on_message(nullptr);
    out.attempted += traced.stats.requests;
    out.failed += traced.stats.failed;
    const double treq = static_cast<double>(traced.stats.requests);
    add_cost_layers(out, traced.cost, traced.stats.requests);
    out.layers.add("sim.deliveries_per_req",
                   static_cast<double>(deliveries) / treq, "1/req");
    out.layers.add("sim.ns_per_delivery",
                   static_cast<double>(traced.stats.wait_ns) /
                       static_cast<double>(std::max<std::uint64_t>(deliveries, 1)),
                   "ns");
    out.layers.add("sim.in_flight_peak", static_cast<double>(in_flight_peak),
                   "count");
    out.layers.add("sim.latency_p50", lat50.value, "sim-time");
    out.layers.add("sim.latency_p99", lat99.value, "sim-time");
    out.layers.add("faults.drops_per_req",
                   static_cast<double>(traced.faults.drops) / treq, "1/req");
    out.layers.add("faults.retries_per_req",
                   static_cast<double>(traced.faults.retries) / treq, "1/req");
    out.layers.add("faults.overhead_distance_per_req",
                   traced.faults.overhead_distance / treq, "distance");
    out.layers.add("graph.setup_ms", f.graph_ms, "ms");
    out.layers.add("graph.oracle_rows", static_cast<double>(oracle_rows),
                   "count");
    out.layers.add("workload.gen_ms", gen_ms, "ms");
    out.layers.add("trace.overhead_frac",
                   median(traced.stats.rep_rps) / throughput - 1.0, "ratio");
  }

  // --- correctness after timing --------------------------------------------
  const auto check = arvy::verify::check_all_relaxed(*f.dir);
  if (!check) out.fail_all("check_all_relaxed: " + check.detail);
  const auto live = arvy::verify::audit_liveness_relaxed(*f.dir);
  if (!live) out.fail_all("audit_liveness_relaxed: " + live.detail);
  const auto fs = f.dir->fault_stats();
  if (fs.drops != fs.retries + fs.permanent_losses) {
    out.fail_all("fault accounting: drops != retries + permanent_losses");
  }
  if (fs.drops == 0) out.fail_all("fault plan injected no drops");
  std::printf("checks: check_all_relaxed, audit_liveness_relaxed over %zu "
              "requests, drops %llu = retries %llu + losses %llu\n",
              records.size(), static_cast<unsigned long long>(fs.drops),
              static_cast<unsigned long long>(fs.retries),
              static_cast<unsigned long long>(fs.permanent_losses));
  if (cfg.trace) finish_trace(tracer, cfg, out);
  return out;
}

Outcome run_dir_live(const RunConfig& cfg) {
  Outcome out;
  const auto gen0 = Clock::now();
  const LiveInputs in = make_dir_live_inputs(cfg.seed);
  const double gen_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - gen0).count();

  std::vector<double> setup_s;
  auto fixture = timed_setups<LiveFixture>(
      [&] { return make_live_fixture(in, cfg.seed); }, setup_s, cfg.trace);
  LiveFixture& f = *fixture;
  if (!f.warm_ok) out.failures.push_back("warm-up did not drain");

  // Reference machine: one pass (64 volleys of 128) ~27 ms.
  const std::size_t reps = plan_reps(phase_seconds(cfg), 36.0, in.volleys.size(),
                                     min_samples_for(90.0));

  const LivePhase plain = run_live_phase(f, in, reps, nullptr, out.failures);
  out.attempted += plain.stats.requests;
  out.failed += plain.stats.failed;

  // OPT per volley: the token must visit every requester, so the metric MST
  // over the requesters alone bounds any order of serving them from below.
  const arvy::graph::DistanceOracle oracle(*f.graph);
  double pass_opt = 0.0;
  for (const Volley& volley : in.volleys) {
    pass_opt +=
        arvy::analysis::opt_burst_lower_bound(oracle, volley.front(), volley);
  }
  const double throughput = median(plain.stats.rep_rps);
  add_end_to_end(out, setup_s, plain.stats, plain.cost.total_distance(),
                 cost_ratio(plain.cost.total_distance(),
                            pass_opt * static_cast<double>(reps)));
  std::printf("workload %s: graph %s, Ivy, %zu workers + submitter, %zu "
              "volleys/pass of %zu, %zu reps/phase, %zu set-ups\n",
              cfg.workload.c_str(), in.graph.name.c_str(), in.workers,
              in.volleys.size(), in.volleys.front().size(), reps,
              setup_s.size());
  print_phase(plain.stats);

  Tracer tracer;
  if (cfg.trace) {
    const LivePhase traced = run_live_phase(f, in, reps, &tracer, out.failures);
    const PhaseStats& t = traced.stats;
    out.attempted += t.requests;
    out.failed += t.failed;
    const double volleys = static_cast<double>(t.batch_ms.size());
    const auto& acquires = tracer.totals(tracer.intern("runtime.acquire"));
    add_cost_layers(out, traced.cost, t.requests);
    out.layers.add("runtime.acquire_ns",
                   static_cast<double>(acquires.total_ns) /
                       static_cast<double>(std::max<std::uint64_t>(acquires.count, 1)),
                   "ns");
    out.layers.add("runtime.drain_us_per_batch",
                   1e-3 * static_cast<double>(t.wait_ns) / volleys, "us");
    out.layers.add("runtime.ctx_switches_per_batch",
                   static_cast<double>(t.process.ctx_switches) / volleys, "count");
    out.layers.add("runtime.worker_cpu_frac",
                   (t.process.cpu_s - t.submitter.cpu_s) /
                       (t.wall_s * static_cast<double>(in.workers)),
                   "ratio");
    out.layers.add("graph.setup_ms", f.graph_ms, "ms");
    out.layers.add("workload.gen_ms", gen_ms, "ms");
    out.layers.add("trace.overhead_frac", median(t.rep_rps) / throughput - 1.0,
                   "ratio");
  }

  // --- correctness after timing --------------------------------------------
  f.dir->shutdown();
  std::size_t holders = 0;
  std::size_t outstanding = 0;
  for (arvy::graph::NodeId v = 0; v < f.graph->node_count(); ++v) {
    if (f.dir->node(v).holds_token()) ++holders;
    if (f.dir->node(v).outstanding().has_value()) ++outstanding;
  }
  if (holders != 1) {
    out.fail_all(std::to_string(holders) + " token holders after shutdown");
  }
  if (outstanding != 0) {
    out.fail_all(std::to_string(outstanding) + " requests still outstanding");
  }
  if (f.dir->satisfied_count() != f.dir->submitted_count()) {
    out.fail_all("satisfied_count != submitted_count");
  }
  std::printf("checks: one token holder, no outstanding request, %llu of %llu "
              "satisfied\n",
              static_cast<unsigned long long>(f.dir->satisfied_count()),
              static_cast<unsigned long long>(f.dir->submitted_count()));
  if (cfg.trace) finish_trace(tracer, cfg, out);
  return out;
}

}  // namespace perfbench
