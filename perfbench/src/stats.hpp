// Measurement helpers shared by every workload: clocks, percentiles,
// getrusage deltas and the metric report the run prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// A nearest-rank percentile of a sample. `beyond` counts the samples ranked
// strictly above the reported one; a percentile is only reportable when at
// least ten samples lie beyond it (otherwise it is a statement about a
// handful of outliers, not about the distribution).
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;

  [[nodiscard]] bool reportable() const noexcept { return beyond >= 10; }
};

inline constexpr std::size_t kMinSamplesBeyond = 10;

// p in (0, 100]. Rank = ceil(p/100 * n), 1-based; an empty sample gives a
// zero, unreportable percentile.
[[nodiscard]] Percentile percentile(std::vector<double> values, double p);

// The median, over consecutive windows of `window` samples, of each
// window's p-th percentile (a trailing partial window is dropped unless it
// is the only one). Robust to a slow stretch of the run, where a single
// percentile over the whole run is not. `samples` is the total count and
// `beyond` the smallest per-window count beyond the window's percentile.
[[nodiscard]] Percentile windowed_percentile(const std::vector<double>& values,
                                             double p, std::size_t window);

// Smallest sample size for which the p-th percentile is reportable.
[[nodiscard]] std::size_t min_samples_for(double p);

[[nodiscard]] double median(std::vector<double> values);

// "p10 .. p25 .. p50 .. p75 .. p90 .. p99 .." of a sample, for the report.
[[nodiscard]] std::string quantile_line(const std::vector<double>& values);

// CPU seconds and context switches, for the whole process or the calling
// thread (RUSAGE_THREAD).
struct Usage {
  double cpu_s = 0.0;
  std::int64_t ctx_switches = 0;  // voluntary + involuntary
};
[[nodiscard]] Usage process_usage();
[[nodiscard]] Usage thread_usage();
[[nodiscard]] double peak_rss_mb();

// One printed metric. `samples`/`beyond` are set for percentiles only.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

// The metrics of one run, printed as readable lines and as the final JSON
// object (the last line of standard output).
class Report {
 public:
  void add(std::string name, double value, std::string unit);
  void add(std::string name, const Percentile& p, std::string unit,
           double scale = 1.0);
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const Metric* find(const std::string& name) const;

  // "  name = value unit [n=.. beyond=..]" lines under a heading.
  void print(const std::string& heading) const;

 private:
  std::vector<Metric> metrics_;
};

// Formats a double with every significant digit (round-trippable).
[[nodiscard]] std::string format_number(double value);

// {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const Report& metrics);

}  // namespace perfbench
