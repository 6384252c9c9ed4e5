// The four workloads and what they share: run configuration, the outcome a
// workload hands back to main, and the timing plan.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "proto/engine.hpp"
#include "inputs.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_path;  // Chrome trace-event JSON, written when tracing
};

struct Outcome {
  std::uint64_t attempted = 0;  // requests sent in timed phases
  std::uint64_t failed = 0;     // requests in failed batches (or all, below)
  std::vector<std::string> failures;  // every failed correctness check
  bool all_failed = false;            // a check that invalidates the run
  Report e2e;                         // untraced end-to-end metrics
  Report layers;                      // traced per-layer metrics

  [[nodiscard]] bool correct() const noexcept { return failures.empty(); }
  // A failed check on the run's final state invalidates every request.
  void fail_all(std::string why) {
    failures.push_back(std::move(why));
    all_failed = true;
  }
};

// --seconds sets the amount of work, not a deadline: a timed phase runs a
// fixed number of repetitions of the workload's batch list, calibrated so
// that one phase takes about that long on the reference machine (see
// README.md). Fixed counts make every count, and every deterministic cost,
// repeat exactly for a seed. At least `min_batches` batches run, so the
// reported percentiles always have ten samples beyond them.
[[nodiscard]] inline std::size_t plan_reps(double seconds,
                                           double reps_per_second,
                                           std::size_t batches_per_rep,
                                           std::size_t min_batches) {
  const auto wanted =
      static_cast<std::size_t>(std::llround(seconds * reps_per_second));
  const std::size_t floor_reps =
      (min_batches + batches_per_rep - 1) / batches_per_rep;
  return std::max({wanted, floor_reps, std::size_t{1}});
}

// Seconds of work per timed phase: a traced run splits --seconds between
// its untraced and its traced phase, so both kinds of run take as long.
[[nodiscard]] inline double phase_seconds(const RunConfig& cfg) {
  return cfg.trace ? cfg.seconds / 2.0 : static_cast<double>(cfg.seconds);
}

// Batch percentiles are medians over windows of this many consecutive
// batches: the least for which a window's p90 has ten samples beyond it.
inline constexpr std::size_t kWindow = 100;

// Repeats `make` (which returns the constructed, warmed-up fixture) until at
// least three set-ups and `min_total_s` seconds have been spent, or
// `max_count` set-ups ran; returns the last fixture and appends each set-up
// time. With `once` set a single set-up runs (traced runs, which do not
// report setup_s).
template <typename Fixture, typename Make>
std::unique_ptr<Fixture> timed_setups(Make&& make, std::vector<double>& times,
                                      bool once, double min_total_s = 1.5,
                                      std::size_t max_count = 9) {
  std::unique_ptr<Fixture> kept;
  double total = 0.0;
  for (std::size_t k = 0;; ++k) {
    kept.reset();  // tear-down is not part of set-up
    const auto t0 = Clock::now();
    kept = make();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    times.push_back(s);
    total += s;
    if (once) break;
    if (k + 1 >= max_count || (k + 1 >= 3 && total >= min_total_s)) break;
  }
  return kept;
}

// --- the closed loop every workload runs -----------------------------------

struct PhaseStats {
  std::vector<double> batch_ms;  // per batch: send until complete
  std::vector<double> rep_rps;   // per pass: requests / wall seconds
  std::uint64_t requests = 0;
  std::uint64_t satisfied = 0;
  std::uint64_t failed = 0;
  std::int64_t send_ns = 0;  // inside the calls that send batches
  std::int64_t wait_ns = 0;   // inside the calls that complete them
  double wall_s = 0.0;
  Usage process;    // whole process, delta over the phase
  Usage submitter;  // the client thread, delta over the phase
};

// Span names of one batch: the batch, its send step and its wait step.
struct PhaseSpans {
  const char* batch;
  const char* send;
  const char* wait;
};

// Runs `reps` passes over `batches`, one batch at a time. `send(b, id)`
// hands batch `b` to the program; `wait(b, id)` waits for it and returns
// how many of its requests are satisfied. A batch with fewer satisfied
// requests than its size fails, whole. Spans are recorded when `tracer` is
// set.
template <typename Batches, typename Send, typename Wait>
PhaseStats run_closed_loop(const Batches& batches, std::size_t reps,
                           Tracer* tracer, const PhaseSpans& names,
                           Send&& send, Wait&& wait,
                           std::vector<std::string>& failures) {
  const Tracer::NameId batch_span = tracer ? tracer->intern(names.batch) : 0;
  const Tracer::NameId send_span = tracer ? tracer->intern(names.send) : 0;
  const Tracer::NameId wait_span = tracer ? tracer->intern(names.wait) : 0;
  PhaseStats p;
  p.batch_ms.reserve(reps * batches.size());
  const Usage proc0 = process_usage();
  const Usage thread0 = thread_usage();
  std::uint64_t id = 0;
  const std::int64_t phase0 = now_ns();
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const std::int64_t rep0 = now_ns();
    std::uint64_t rep_requests = 0;
    for (const auto& b : batches) {
      ++id;
      const std::int64_t t0 = now_ns();
      if (tracer) {
        tracer->begin_at(batch_span, id, t0);
        tracer->begin_at(send_span, id, t0);
      }
      send(b, id);
      const std::int64_t t1 = now_ns();
      if (tracer) {
        tracer->end_at(t1);
        tracer->begin_at(wait_span, id, t1);
      }
      const std::size_t got = wait(b, id);
      const std::int64_t t2 = now_ns();
      if (tracer) {
        tracer->end_at(t2);
        tracer->end_at(t2);
      }
      p.send_ns += t1 - t0;
      p.wait_ns += t2 - t1;
      p.batch_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
      p.requests += b.size();
      p.satisfied += got;
      rep_requests += b.size();
      if (got != b.size()) {
        p.failed += b.size();
        failures.push_back("batch " + std::to_string(id) + ": " +
                           std::to_string(got) + " of " +
                           std::to_string(b.size()) + " satisfied");
      }
    }
    const double rep_s = static_cast<double>(now_ns() - rep0) / 1e9;
    p.rep_rps.push_back(static_cast<double>(rep_requests) / rep_s);
  }
  p.wall_s = static_cast<double>(now_ns() - phase0) / 1e9;
  const Usage proc1 = process_usage();
  const Usage thread1 = thread_usage();
  p.process = {proc1.cpu_s - proc0.cpu_s, proc1.ctx_switches - proc0.ctx_switches};
  p.submitter = {thread1.cpu_s - thread0.cpu_s,
                 thread1.ctx_switches - thread0.ctx_switches};
  return p;
}

// --- shared reporting (workloads.cpp) ---------------------------------------

[[nodiscard]] arvy::proto::CostAccount cost_delta(
    const arvy::proto::CostAccount& after,
    const arvy::proto::CostAccount& before);

// The end-to-end metrics of an untraced phase (and its batch tail, which
// the traced run reports as tail.batch_p90_ms).
void add_end_to_end(Outcome& out, const std::vector<double>& setup_s,
                    const PhaseStats& plain, double distance, double ratio);

// proto.finds_per_req, proto.tokens_per_req, proto.max_visited.
void add_cost_layers(Outcome& out, const arvy::proto::CostAccount& cost,
                     std::uint64_t requests);

// batch_p90_ms, failed_frac and the quantiles of batch times and pass
// rates.
void print_phase(const PhaseStats& plain);

// Span totals, the trace file, and where it went.
void finish_trace(const Tracer& tracer, const RunConfig& cfg, Outcome& out);

Outcome run_service_workload(const RunConfig& cfg);  // svc-live, svc-switch
Outcome run_dir_concurrent(const RunConfig& cfg);
Outcome run_dir_live(const RunConfig& cfg);

// --- standalone layer replays (replay.cpp) ----------------------------------

struct SwitchReplay {
  double adopt_us = 0.0;
  double park_us = 0.0;
  double dispatch_us = 0.0;
  std::uint64_t switches = 0;
  std::uint64_t dispatches = 0;
};

// Replays the service's object switches on a standalone SimEngine (Ivy):
// a seeded sample of up to `max_objects` of the pass's objects gets the
// request history the service gave it (materialization plus
// `history_passes` passes, from the service's canonical trees), so the
// parked trees are the workload's own; then the pass restricted to the
// sample is replayed for about `budget_s`, timing park_state, adopt_state
// and dispatch (submit_queued + run_until_idle) separately. All zeros when
// the engine has no park/adopt seam.
[[nodiscard]] SwitchReplay replay_object_switches(const arvy::graph::Graph& g,
                                                  const ServiceInputs& in,
                                                  std::size_t history_passes,
                                                  std::size_t max_objects,
                                                  double budget_s,
                                                  std::uint64_t seed,
                                                  Tracer* tracer);

// ns per frame of push + acquire_batch + release_batch on a standalone
// `capacity`-slot ring of ObjectRequest frames, draining `batch` at a time.
[[nodiscard]] double replay_ring(const std::vector<Batch>& pass,
                                 std::size_t capacity, std::size_t batch,
                                 double budget_s, Tracer* tracer);

}  // namespace perfbench
