#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

Percentile percentile(std::vector<double> values, double p) {
  if (!(p > 0.0 && p <= 100.0)) throw std::invalid_argument("percentile p");
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  out.value = values[rank - 1];
  out.beyond = values.size() - rank;
  return out;
}

Percentile windowed_percentile(const std::vector<double>& values, double p,
                               std::size_t window) {
  if (window == 0) throw std::invalid_argument("windowed_percentile window");
  if (values.size() < 2 * window) return percentile(values, p);
  std::vector<double> per_window;
  std::size_t beyond = values.size();
  for (std::size_t start = 0; start + window <= values.size(); start += window) {
    const Percentile w = percentile(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(start),
                            values.begin() +
                                static_cast<std::ptrdiff_t>(start + window)),
        p);
    per_window.push_back(w.value);
    beyond = std::min(beyond, w.beyond);
  }
  return Percentile{median(std::move(per_window)), values.size(), beyond};
}

std::size_t min_samples_for(double p) {
  for (std::size_t n = 1;; ++n) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (n - std::max<std::size_t>(rank, 1) >= kMinSamplesBeyond) return n;
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::string quantile_line(const std::vector<double>& values) {
  std::string out;
  for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "p%g %.4g  ", p, percentile(values, p).value);
    out += buf;
  }
  return out;
}

namespace {

Usage usage_of(int who) {
  rusage ru{};
  getrusage(who, &ru);
  Usage out;
  out.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                         ru.ru_stime.tv_usec);
  out.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  return out;
}

}  // namespace

Usage process_usage() { return usage_of(RUSAGE_SELF); }
Usage thread_usage() { return usage_of(RUSAGE_THREAD); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::add(std::string name, double value, std::string unit) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), 0, 0});
}

void Report::add(std::string name, const Percentile& p, std::string unit,
                 double scale) {
  metrics_.push_back(Metric{std::move(name), p.value * scale, std::move(unit),
                            p.samples, p.beyond});
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::print(const std::string& heading) const {
  std::printf("%s\n", heading.c_str());
  for (const Metric& m : metrics_) {
    if (m.samples > 0) {
      std::printf("  %-34s %-14s %-9s samples=%zu beyond=%zu\n",
                  m.name.c_str(), format_number(m.value).c_str(),
                  m.unit.c_str(), m.samples, m.beyond);
    } else {
      std::printf("  %-34s %-14s %s\n", m.name.c_str(),
                  format_number(m.value).c_str(), m.unit.c_str());
    }
  }
}

std::string format_number(double value) {
  if (!std::isfinite(value)) throw std::domain_error("non-finite metric");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Report& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.metrics()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + format_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
