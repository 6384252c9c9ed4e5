#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer(std::size_t max_records) : max_records_(max_records) {
  records_.reserve(max_records_);
  stack_.reserve(16);
}

Tracer::NameId Tracer::intern(const std::string& name) {
  for (NameId i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  totals_.emplace_back();
  return static_cast<NameId>(names_.size() - 1);
}

void Tracer::begin_at(NameId name, std::uint64_t id, std::int64_t at) {
  std::int64_t record = -1;
  if (records_.size() < max_records_) {
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().record;
    records_.push_back(Span{name, at, at, parent, id});
    record = static_cast<std::int64_t>(records_.size() - 1);
  } else {
    ++dropped_;
  }
  stack_.push_back(Open{name, at, 0, record, id});
}

void Tracer::end_at(std::int64_t at) {
  if (stack_.empty()) throw std::logic_error("Tracer::end without begin");
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = at - open.start_ns;
  Totals& t = totals_[open.name];
  ++t.count;
  t.total_ns += duration;
  t.self_ns += duration - open.child_ns;
  if (open.record >= 0) {
    records_[static_cast<std::size_t>(open.record)].end_ns = at;
  }
  if (!stack_.empty()) stack_.back().child_ns += duration;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Span& s = records_[i];
    char line[320];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                  "\"parent\": %lld, \"id\": %llu}}%s\n",
                  names_[s.name].c_str(),
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.id),
                  i + 1 == records_.size() ? "" : ",");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Tracer::print_totals() const {
  std::printf("spans (count, total ms, self ms):\n");
  for (NameId i = 0; i < names_.size(); ++i) {
    const Totals& t = totals_[i];
    if (t.count == 0) continue;
    std::printf("  %-28s %10llu %12.3f %12.3f\n", names_[i].c_str(),
                static_cast<unsigned long long>(t.count),
                static_cast<double>(t.total_ns) / 1e6,
                static_cast<double>(t.self_ns) / 1e6);
  }
}

}  // namespace perfbench
