// Tests of the benchmark's own helpers: percentiles and their sample rule,
// seeded input generation, OPT / cost_ratio accounting, the span recorder
// and the result line. Run with `python3 perfbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/distance_oracle.hpp"
#include "opt.hpp"
#include "analysis/opt.hpp"
#include "service/directory_service.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)
#define CHECK_NEAR(a, b) check(std::fabs((a) - (b)) < 1e-9, #a " == " #b, __LINE__)

using namespace perfbench;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the helper must not assume sorted input
}

void test_percentile_rule() {
  const Percentile p50 = percentile(one_to(100), 50.0);
  CHECK_NEAR(p50.value, 50.0);
  CHECK(p50.samples == 100 && p50.beyond == 50 && p50.reportable());

  // p90 needs ten samples beyond it: 100 samples is the least that works.
  const Percentile p90 = percentile(one_to(100), 90.0);
  CHECK_NEAR(p90.value, 90.0);
  CHECK(p90.beyond == 10 && p90.reportable());
  const Percentile p90_short = percentile(one_to(99), 90.0);
  CHECK(p90_short.beyond == 9 && !p90_short.reportable());

  const Percentile p99 = percentile(one_to(1000), 99.0);
  CHECK_NEAR(p99.value, 990.0);
  CHECK(p99.beyond == 10 && p99.reportable());
  CHECK(!percentile(one_to(999), 99.0).reportable());

  CHECK(min_samples_for(50.0) == 20);
  CHECK(min_samples_for(90.0) == 100);
  CHECK(min_samples_for(99.0) == 1000);

  const Percentile empty = percentile({}, 50.0);
  CHECK(empty.samples == 0 && !empty.reportable());

  // Windowed: 300 samples, the middle window slow; the median of the
  // three windows' p90s ignores it where a plain p90 would not.
  std::vector<double> runs;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 100; ++i) runs.push_back(w == 1 ? 10.0 * i : i);
  }
  const Percentile windowed = windowed_percentile(runs, 90.0, 100);
  CHECK_NEAR(windowed.value, 90.0);
  CHECK(windowed.samples == 300 && windowed.beyond == 10);
  CHECK(percentile(runs, 90.0).value > 90.0);
  // Fewer than two windows: a plain percentile.
  CHECK_NEAR(windowed_percentile(one_to(150), 50.0, 100).value, 75.0);

  CHECK_NEAR(median({3.0, 1.0, 2.0}), 2.0);
  CHECK_NEAR(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

void test_plan_reps() {
  CHECK(plan_reps(10, 1.7, 64, 100) == 17);
  CHECK(plan_reps(1, 0.5, 64, 100) == 2);  // floor: 100 batches
  CHECK(plan_reps(1, 0.1, 1000, 10) == 1);
}

bool same_batches(const std::vector<Batch>& a, const std::vector<Batch>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t k = 0; k < a[i].size(); ++k) {
      if (a[i][k].object != b[i][k].object || a[i][k].node != b[i][k].node) {
        return false;
      }
    }
  }
  return true;
}

bool same_graph(const GraphSpec& a, const GraphSpec& b) {
  if (a.nodes != b.nodes || a.edges.size() != b.edges.size()) return false;
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    if (a.edges[i].a != b.edges[i].a || a.edges[i].b != b.edges[i].b ||
        a.edges[i].weight != b.edges[i].weight) {
      return false;
    }
  }
  return true;
}

bool same_rounds(const ConcurrentInputs& a, const ConcurrentInputs& b) {
  if (a.rounds.size() != b.rounds.size()) return false;
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    if (a.rounds[r].size() != b.rounds[r].size()) return false;
    for (std::size_t i = 0; i < a.rounds[r].size(); ++i) {
      if (a.rounds[r][i].node != b.rounds[r][i].node ||
          a.rounds[r][i].at != b.rounds[r][i].at) {
        return false;
      }
    }
  }
  return true;
}

void test_seeded_inputs() {
  for (auto make : {make_svc_live_inputs, make_svc_switch_inputs}) {
    const ServiceInputs a = make(7);
    const ServiceInputs b = make(7);
    const ServiceInputs c = make(8);
    CHECK(same_batches(a.batches, b.batches) && same_batches(a.touch, b.touch));
    CHECK(same_graph(a.graph, b.graph));
    CHECK(!same_batches(a.batches, c.batches));
  }
  {
    const ConcurrentInputs a = make_dir_concurrent_inputs(7);
    const ConcurrentInputs b = make_dir_concurrent_inputs(7);
    const ConcurrentInputs c = make_dir_concurrent_inputs(8);
    CHECK(same_graph(a.graph, b.graph) && same_rounds(a, b));
    CHECK(!same_graph(a.graph, c.graph) && !same_rounds(a, c));
    // Distinct nodes within a round, arrival times increasing.
    bool distinct = true;
    bool sorted = true;
    for (const auto& round : a.rounds) {
      std::vector<bool> seen(a.graph.nodes, false);
      for (std::size_t i = 0; i < round.size(); ++i) {
        distinct = distinct && !seen[round[i].node];
        seen[round[i].node] = true;
        sorted = sorted && (i == 0 || round[i - 1].at < round[i].at);
      }
    }
    CHECK(distinct && sorted);
    CHECK(build_graph(a.graph).is_connected());
  }
  {
    const LiveInputs a = make_dir_live_inputs(7);
    const LiveInputs b = make_dir_live_inputs(7);
    const LiveInputs c = make_dir_live_inputs(8);
    CHECK(a.volleys == b.volleys && a.volleys != c.volleys);
    bool alternating = true;
    for (std::size_t k = 0; k < a.volleys.size(); ++k) {
      for (const auto v : a.volleys[k]) alternating = alternating && v % 2 == k % 2;
    }
    CHECK(alternating);
  }
}

// Ring of 6 nodes (unit edges), two objects. One pass:
//   (obj 0 @ 3), (obj 1 @ 1) | (obj 0 @ 5), (obj 0 @ 5)
// After an identical earlier pass, object 0 sits at 5 and object 1 at 1.
// OPT for object 0: 5 -> 3 -> 5 -> 5 = 2 + 2 + 0 = 4; object 1: 1 -> 1 = 0.
void test_opt_accounting() {
  const GraphSpec spec = ring_spec(6);
  const arvy::graph::Graph ring = build_graph(spec);
  const arvy::graph::DistanceOracle oracle(ring);
  const std::vector<Batch> pass = {{{0, 3, 0}, {1, 1, 0}}, {{0, 5, 0}, {0, 5, 0}}};

  const auto last = last_requesters(pass);
  CHECK(last.at(0) == 5 && last.at(1) == 1);
  CHECK_NEAR(service_pass_opt(oracle, pass), 4.0);
  CHECK_NEAR(cost_ratio(10.0, 2 * 4.0), 1.25);
  CHECK_NEAR(cost_ratio(3.0, 0.0), 0.0);

  // The service itself: after a warm-up pass, each timed pass of Ivy costs
  // at least OPT, and each object ends at its last requester.
  arvy::Options options;
  options.policy = arvy::proto::PolicyKind::kIvy;
  arvy::DirectoryService svc(ring, 2, 1, options, arvy::ServiceMode::kSim);
  for (const Batch& b : pass) svc.submit_batch(b);
  const double before = svc.cost_snapshot().total_distance();
  for (const Batch& b : pass) svc.submit_batch(b);
  CHECK(svc.drain());
  const double pass_cost = svc.cost_snapshot().total_distance() - before;
  CHECK(pass_cost >= 4.0);
  CHECK(svc.holder(0) == 5u && svc.holder(1) == 1u);
  // Ivy on this pass, worked by hand: the warm-up pass left 3 pointing
  // straight at 5, so the request at 3 pays find 3->5 and token 5->3
  // (2 + 2); Ivy then points 5 at 3, so the request at 5 pays 2 + 2 back;
  // the repeat at 5 and object 1's request at its holder are free.
  CHECK_NEAR(pass_cost, 8.0);
  CHECK_NEAR(cost_ratio(pass_cost, service_pass_opt(oracle, pass)), 2.0);

  // Burst lower bound: token at 0, requesters {2, 4}: the metric MST over
  // {0, 2, 4} on the 6-ring has two edges of length 2.
  const std::vector<arvy::graph::NodeId> burst = {2, 4};
  CHECK_NEAR(arvy::analysis::opt_burst_lower_bound(oracle, 0, burst), 4.0);
  // Token-free form used for dir-live: MST over the requesters alone.
  CHECK_NEAR(arvy::analysis::opt_burst_lower_bound(oracle, burst.front(), burst),
             2.0);

  // Token position after each group: the node satisfied last.
  std::vector<arvy::proto::RequestRecord> records(4);
  const arvy::graph::NodeId nodes[] = {1, 2, 3, 4};
  const std::uint64_t order[] = {2, 1, 3, 4};
  for (std::size_t i = 0; i < 4; ++i) {
    records[i].node = nodes[i];
    records[i].satisfaction_index = order[i];
  }
  const auto holders = holders_after_groups(records, 0, 2, 2);
  CHECK(holders.size() == 2 && holders[0] == 1 && holders[1] == 4);
}

void test_tracer() {
  Tracer t(2);
  const auto a = t.intern("a");
  const auto b = t.intern("b");
  CHECK(t.intern("a") == a);
  t.begin_at(a, 1, 0);
  t.begin_at(b, 1, 10);
  t.end_at(40);
  t.begin_at(b, 2, 50);  // over the cap of two records
  t.end_at(60);
  t.end_at(100);
  CHECK(t.totals(a).count == 1 && t.totals(a).total_ns == 100);
  CHECK(t.totals(a).self_ns == 60);  // 100 minus children 30 + 10
  CHECK(t.totals(b).count == 2 && t.totals(b).self_ns == 40);
  CHECK(t.records().size() == 2 && t.dropped() == 1);
  CHECK(t.records()[1].parent == 0 && t.records()[0].parent == -1);
}

void test_result_line() {
  Report r;
  r.add("latency_ms", 1.25, "ms");
  const std::string line = result_json(true, 10, 0, r);
  CHECK(line ==
        "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
        "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}");
  CHECK(format_number(0.1) == "0.1");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_plan_reps();
  test_seeded_inputs();
  test_opt_accounting();
  test_tracer();
  test_result_line();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
