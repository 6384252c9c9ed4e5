// arvy_perfbench: the repository benchmark (see README.md).
//
//   arvy_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE]
//
// Prints a readable report, then as the last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones (a layer a workload
// does not cross reads 0). Exits 1 when any correctness check fails.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::Outcome;
using perfbench::Report;
using perfbench::RunConfig;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end and per_layer lists.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_rps", "1/s"},
    {"batch_p50_ms", "ms"},
    {"distance_per_req", "distance"},
    {"cost_ratio", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"service.route_ns", "ns"},
    {"service.submit_ns_per_req", "ns"},
    {"service.drain_ns_per_req", "ns"},
    {"service.submitter_cpu_frac", "ratio"},
    {"service.shard_cpu_frac", "ratio"},
    {"service.ctx_switches_per_batch", "count"},
    {"service.req_us", "us"},
    {"service.resident_objects", "count"},
    {"service.resident_bytes", "bytes"},
    {"proto.adopt_us", "us"},
    {"proto.park_us", "us"},
    {"proto.dispatch_us", "us"},
    {"proto.finds_per_req", "1/req"},
    {"proto.tokens_per_req", "1/req"},
    {"proto.max_visited", "count"},
    {"sim.deliveries_per_req", "1/req"},
    {"sim.ns_per_delivery", "ns"},
    {"sim.in_flight_peak", "count"},
    {"sim.latency_p50", "sim-time"},
    {"sim.latency_p99", "sim-time"},
    {"faults.drops_per_req", "1/req"},
    {"faults.retries_per_req", "1/req"},
    {"faults.overhead_distance_per_req", "distance"},
    {"runtime.ring_ns_per_frame", "ns"},
    {"runtime.acquire_ns", "ns"},
    {"runtime.drain_us_per_batch", "us"},
    {"runtime.ctx_switches_per_batch", "count"},
    {"runtime.worker_cpu_frac", "ratio"},
    {"graph.setup_ms", "ms"},
    {"graph.oracle_rows", "count"},
    {"verify.check_us", "us"},
    {"workload.gen_ms", "ms"},
    {"residual_ns_per_req", "ns"},
    {"trace.overhead_frac", "ratio"},
    {"tail.batch_p90_ms", "ms"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "arvy_perfbench: %s\n"
               "usage: arvy_perfbench --workload "
               "svc-live|svc-switch|dir-concurrent|dir-live --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        cfg.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        cfg.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        cfg.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-out") {
        cfg.trace_path = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (cfg.seconds < 1 || cfg.seconds > 600) usage("--seconds out of range");
  return cfg;
}

// Orders a workload's metrics by the canonical list; a missing per-layer
// metric reads 0 (the workload does not cross that layer), a missing
// end-to-end metric is a benchmark bug.
Report canonical(const Report& got, const MetricSpec* specs, std::size_t count,
                 bool zero_fill, Outcome& out) {
  Report r;
  for (std::size_t i = 0; i < count; ++i) {
    const perfbench::Metric* m = got.find(specs[i].name);
    if (m == nullptr) {
      if (!zero_fill) out.fail_all(std::string("metric missing: ") + specs[i].name);
      r.add(specs[i].name, 0.0, specs[i].unit);
    } else {
      perfbench::Metric copy = *m;
      copy.unit = specs[i].unit;
      if (copy.samples > 0) {
        const perfbench::Percentile p{copy.value, copy.samples, copy.beyond};
        if (!p.reportable()) {
          out.fail_all(std::string("too few samples beyond ") + specs[i].name);
        }
        r.add(copy.name, p, copy.unit);
      } else {
        r.add(copy.name, copy.value, copy.unit);
      }
    }
  }
  return r;
}

// Confines the process, and every thread it starts later, to the last CPU
// it may run on. The live workloads run three threads that hand work to
// each other many times per batch. Left free, the scheduler spreads them
// over idle CPUs, and how long each hand-off waits for an idle CPU to wake
// decides the throughput: unpinned, it moved by 2x between runs, and on two
// CPUs by up to 40%. On one CPU a hand-off is a context switch, and the
// throughput holds within a few percent.
void pin_to_last_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t chosen;
    CPU_ZERO(&chosen);
    CPU_SET(cpu, &chosen);
    if (sched_setaffinity(0, sizeof(chosen), &chosen) == 0) {
      std::printf("cpu: %d of %d allowed\n", cpu, CPU_COUNT(&allowed));
    }
    return;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig cfg = parse(argc, argv);
  pin_to_last_cpu();
  Outcome out;
  try {
    if (cfg.workload == "svc-live" || cfg.workload == "svc-switch") {
      out = perfbench::run_service_workload(cfg);
    } else if (cfg.workload == "dir-concurrent") {
      out = perfbench::run_dir_concurrent(cfg);
    } else if (cfg.workload == "dir-live") {
      out = perfbench::run_dir_live(cfg);
    } else {
      usage(("unknown workload " + cfg.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "arvy_perfbench: %s\n", e.what());
    return 1;
  }

  const Report e2e = canonical(out.e2e, kEndToEnd, std::size(kEndToEnd),
                               /*zero_fill=*/false, out);
  e2e.print("end-to-end (untraced):");
  Report layers;
  if (cfg.trace) {
    layers = canonical(out.layers, kPerLayer, std::size(kPerLayer),
                       /*zero_fill=*/true, out);
    layers.print("per-layer (traced; 0 = not on this workload's path):");
  }
  constexpr std::size_t kMaxPrinted = 20;
  for (std::size_t i = 0; i < out.failures.size() && i < kMaxPrinted; ++i) {
    std::printf("CHECK FAILED: %s\n", out.failures[i].c_str());
  }
  if (out.failures.size() > kMaxPrinted) {
    std::printf("CHECK FAILED: ... %zu more\n", out.failures.size() - kMaxPrinted);
  }
  if (out.all_failed) out.failed = out.attempted;
  std::printf("%s\n", perfbench::result_json(out.correct(), out.attempted,
                                             out.failed,
                                             cfg.trace ? layers : e2e)
                          .c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}
