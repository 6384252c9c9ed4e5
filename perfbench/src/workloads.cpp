#include "workloads.hpp"

#include <cstdio>

namespace perfbench {

arvy::proto::CostAccount cost_delta(const arvy::proto::CostAccount& after,
                                    const arvy::proto::CostAccount& before) {
  arvy::proto::CostAccount d = after;
  d.find_distance -= before.find_distance;
  d.token_distance -= before.token_distance;
  d.find_messages -= before.find_messages;
  d.token_messages -= before.token_messages;
  return d;  // max_visited_length stays the running maximum
}

void add_end_to_end(Outcome& out, const std::vector<double>& setup_s,
                    const PhaseStats& plain, double distance, double ratio) {
  const auto satisfied = static_cast<double>(plain.satisfied);
  out.e2e.add("setup_s", median(setup_s), "s");
  out.e2e.add("throughput_rps", median(plain.rep_rps), "1/s");
  out.e2e.add("batch_p50_ms", windowed_percentile(plain.batch_ms, 50.0, kWindow),
              "ms");
  out.e2e.add("distance_per_req", satisfied > 0 ? distance / satisfied : 0.0,
              "distance");
  out.e2e.add("cost_ratio", ratio, "ratio");
  out.e2e.add("peak_rss_mb", peak_rss_mb(), "MB");
  // The batch tail is printed on every run but carries no bound: on
  // dir-concurrent round times are bimodal, and the share of fast rounds
  // changes from run to run by more than any bound allows (README.md).
  out.layers.add("tail.batch_p90_ms",
                 windowed_percentile(plain.batch_ms, 90.0, kWindow), "ms");
}

void add_cost_layers(Outcome& out, const arvy::proto::CostAccount& cost,
                     std::uint64_t requests) {
  const auto n = static_cast<double>(std::max<std::uint64_t>(requests, 1));
  out.layers.add("proto.finds_per_req",
                 static_cast<double>(cost.find_messages) / n, "1/req");
  out.layers.add("proto.tokens_per_req",
                 static_cast<double>(cost.token_messages) / n, "1/req");
  out.layers.add("proto.max_visited",
                 static_cast<double>(cost.max_visited_length), "count");
}

void print_phase(const PhaseStats& plain) {
  const Percentile p90 = windowed_percentile(plain.batch_ms, 90.0, kWindow);
  std::printf("  batch_p90_ms = %s ms samples=%zu beyond=%zu (no bound)\n",
              format_number(p90.value).c_str(), p90.samples, p90.beyond);
  const double frac = plain.requests ? static_cast<double>(plain.failed) /
                                           static_cast<double>(plain.requests)
                                     : 0.0;
  std::printf("  failed_frac = %s (%llu of %llu)\n", format_number(frac).c_str(),
              static_cast<unsigned long long>(plain.failed),
              static_cast<unsigned long long>(plain.requests));
  std::printf("  batch_ms %s\n  pass_rps %s\n",
              quantile_line(plain.batch_ms).c_str(),
              quantile_line(plain.rep_rps).c_str());
}

void finish_trace(const Tracer& tracer, const RunConfig& cfg, Outcome& out) {
  tracer.print_totals();
  if (!cfg.trace_path.empty() && !tracer.write_chrome(cfg.trace_path)) {
    out.fail_all("cannot write trace file " + cfg.trace_path);
  }
  std::printf("trace: %zu spans kept, %llu over the cap -> %s\n",
              tracer.records().size(),
              static_cast<unsigned long long>(tracer.dropped()),
              cfg.trace_path.c_str());
}

}  // namespace perfbench
