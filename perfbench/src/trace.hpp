// In-memory span recorder for the traced run.
//
// Spans are taken from the benchmark's own code, around each call into a
// layer's public functions (the program itself is not instrumented). All
// spans of a run are opened and closed on the one benchmark thread, so an
// explicit stack gives every span its parent. Per-name totals (count, total
// and self time) are kept for every span; the span records themselves are
// kept up to a cap and written at exit as Chrome trace-event JSON, which any
// trace viewer (chrome://tracing, Perfetto) opens.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

class Tracer {
 public:
  using NameId = std::uint32_t;

  struct Span {
    NameId name = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  // index of the parent record, -1 for roots
    std::uint64_t id = 0;      // batch or request id
  };

  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;  // total minus the time child spans cover
  };

  explicit Tracer(std::size_t max_records = 100'000);

  // Registers a span name (idempotent); do this before timing starts.
  NameId intern(const std::string& name);

  void begin(NameId name, std::uint64_t id) { begin_at(name, id, now_ns()); }
  void end() { end_at(now_ns()); }
  // Explicit timestamps, for callers that already read the clock.
  void begin_at(NameId name, std::uint64_t id, std::int64_t at);
  void end_at(std::int64_t at);

  [[nodiscard]] const Totals& totals(NameId name) const {
    return totals_[name];
  }
  [[nodiscard]] const std::vector<Span>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  // Writes the kept records as {"traceEvents": [...]} ("X" complete events,
  // microsecond timestamps relative to the first span).
  [[nodiscard]] bool write_chrome(const std::string& path) const;

  // "  name count total_ms self_ms" lines, one per span name.
  void print_totals() const;

 private:
  struct Open {
    NameId name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int64_t record;  // -1 when over the cap
    std::uint64_t id;
  };

  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Span> records_;
  std::vector<Open> stack_;
  std::size_t max_records_;
  std::uint64_t dropped_ = 0;
};

// RAII span that is a no-op when the tracer is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Tracer::NameId name, std::uint64_t id)
      : tracer_(tracer) {
    if (tracer_) tracer_->begin(name, id);
  }
  ~ScopedSpan() {
    if (tracer_) tracer_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
