// runtime::EventCount: the lost-wakeup argument, checked two ways.
//
// 1. Exhaustively, on a model. Every sequentially consistent interleaving of
//    1-2 producers (publish; fence + phase load; maybe wake) against the
//    consumer's park loop (drain; announce; fence; re-scan; locked re-check;
//    wait) is enumerated by a breadth-first search over the model's states,
//    in the style of tools/arvy_explore. The seq_cst fences are what make the
//    real execution sequentially consistent on the phase word and the
//    channel, so under them the model is the protocol. The property: no
//    terminal state leaves the consumer asleep while published work is
//    unconsumed. The timed backstop is deliberately absent from the model -
//    the protocol must not need it. Two seeded bugs (the re-scan moved
//    before the announcement; the wait taken without the locked re-check)
//    must each produce a counterexample, so the search demonstrably reaches
//    the schedules that matter.
// 2. On the real class: the same race forced deterministically from inside
//    the consumer's re-scan, and a multi-producer ping-pong storm with
//    timed ceilings, so the TSan leg sees every park/wake edge.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "runtime/event_count.hpp"

namespace {

using arvy::runtime::EventCount;

// --- the model --------------------------------------------------------------

enum class Variant {
  kCorrect,               // the EventCount::run protocol
  kRescanBeforeAnnounce,  // seeded bug: re-scan, then announce
  kNoLockedRecheck,       // seeded bug: wait without re-reading the phase
};

enum Phase : std::uint8_t { kRunning, kPreparing, kNotified };

// Consumer program counter. kRescan and kAnnounce trade places in the
// kRescanBeforeAnnounce variant (see consumer_step).
enum Consumer : std::uint8_t {
  kDrain,
  kAnnounce,
  kFence,
  kRescan,
  kLockedRecheck,
  kWaiting,  // blocked on the condition variable
  kResume,
  kExited,
};

// Producer program counter; one round per published item.
enum Producer : std::uint8_t {
  kPublish,
  kFenceAndLoad,
  kWakeLocked,  // lock; phase = kNotified; unlock
  kWakeNotify,  // notify_one
  kDone,
};

// The stopper models shutdown: it starts once every producer is done, raises
// the stop flag, and wakes unconditionally (EventCount::wake).
enum Stopper : std::uint8_t {
  kIdle,
  kRaise,
  kStopLocked,
  kStopNotify,
  kStopped,
};

constexpr std::size_t kMaxProducers = 2;

struct State {
  std::uint8_t phase = kRunning;
  std::uint8_t published = 0;
  std::uint8_t consumed = 0;
  bool stopping = false;
  std::uint8_t consumer = kDrain;
  std::uint8_t stopper = kIdle;
  std::array<std::uint8_t, kMaxProducers> producer{};
  std::array<std::uint8_t, kMaxProducers> rounds{};  // items published so far

  [[nodiscard]] std::uint64_t key() const {
    std::uint64_t k = 0;
    const auto push = [&k](std::uint64_t v) { k = k * 16 + v; };
    push(phase);
    push(published);
    push(consumed);
    push(stopping ? 1 : 0);
    push(consumer);
    push(stopper);
    for (std::size_t p = 0; p < kMaxProducers; ++p) {
      push(producer[p]);
      push(rounds[p]);
    }
    return k;
  }
};

struct ModelConfig {
  std::size_t producers = 1;
  int items = 1;      // items each producer publishes
  bool stop = false;  // run the shutdown stopper after the producers
  Variant variant = Variant::kCorrect;
};

struct ModelReport {
  std::size_t terminals = 0;
  std::size_t parked_terminals = 0;  // consumer asleep with nothing pending
  std::size_t violations = 0;
  std::string counterexample;  // the first violating schedule
};

class Enumerator {
 public:
  explicit Enumerator(ModelConfig config) : config_(config) {}

  // Breadth-first, so the first counterexample is a shortest schedule.
  ModelReport run() {
    State start;
    for (std::size_t p = config_.producers; p < kMaxProducers; ++p) {
      start.producer[p] = kDone;
    }
    std::deque<State> frontier{start};
    parent_.emplace(start.key(), Edge{start.key(), ""});
    while (!frontier.empty()) {
      const State s = frontier.front();
      frontier.pop_front();
      bool moved = false;
      const auto visit = [&](const State& next, std::string label) {
        moved = true;
        if (parent_.emplace(next.key(), Edge{s.key(), std::move(label)})
                .second) {
          frontier.push_back(next);
        }
      };
      State next = s;
      if (consumer_step(next)) visit(next, "consumer:" + consumer_name(s));
      for (std::size_t p = 0; p < config_.producers; ++p) {
        next = s;
        if (producer_step(next, p)) {
          visit(next, "producer" + std::to_string(p) + ":" +
                          producer_name(s.producer[p]));
        }
      }
      next = s;
      if (stopper_step(next)) visit(next, "stopper");
      if (!moved) check_terminal(s);
    }
    return report_;
  }

 private:
  struct Edge {
    std::uint64_t from;
    std::string label;
  };

  void check_terminal(const State& s) {
    ++report_.terminals;
    // The only blocking state is kWaiting; every other consumer pc can step.
    const bool lost_work = s.consumed != s.published;
    const bool lost_stop = config_.stop && s.consumer != kExited;
    if (!lost_work && !lost_stop) {
      if (s.consumer == kWaiting) ++report_.parked_terminals;
      return;
    }
    if (report_.violations++ > 0) return;
    std::vector<std::string> steps;
    for (std::uint64_t key = s.key();;) {
      const Edge& edge = parent_.at(key);
      if (edge.from == key) break;  // the start state
      steps.push_back(edge.label);
      key = edge.from;
    }
    for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
      report_.counterexample += *it + "\n";
    }
    report_.counterexample += lost_work ? "=> asleep with unconsumed work"
                                        : "=> asleep through shutdown";
  }

  bool has_work(const State& s) const { return s.published != s.consumed; }

  bool consumer_step(State& s) const {
    const bool buggy_order = config_.variant == Variant::kRescanBeforeAnnounce;
    switch (s.consumer) {
      case kDrain:
        if (has_work(s)) {
          s.consumed = s.published;  // drain() reports progress: loop again
        } else {
          s.consumer = buggy_order ? kRescan : kAnnounce;
        }
        return true;
      case kAnnounce:
        s.phase = kPreparing;
        s.consumer = kFence;
        return true;
      case kFence:  // a no-op under sequential consistency
        s.consumer = buggy_order ? kLockedRecheck : kRescan;
        return true;
      case kRescan:
        if (has_work(s)) {
          s.phase = kRunning;
          s.consumer = kDrain;
        } else if (s.stopping) {
          s.phase = kRunning;
          s.consumer = kExited;
        } else {
          s.consumer = buggy_order ? kAnnounce : kLockedRecheck;
        }
        return true;
      case kLockedRecheck: {
        const bool recheck = config_.variant != Variant::kNoLockedRecheck;
        const bool still_preparing = !recheck || s.phase == kPreparing;
        s.consumer = still_preparing && !s.stopping ? kWaiting : kResume;
        return true;
      }
      case kWaiting:
        return false;  // only a notify moves it
      case kResume:
        s.phase = kRunning;
        s.consumer = kDrain;
        return true;
      default:
        return false;  // kExited
    }
  }

  bool producer_step(State& s, std::size_t p) const {
    const auto finish_round = [&] {
      s.producer[p] = s.rounds[p] < config_.items ? kPublish : kDone;
    };
    switch (s.producer[p]) {
      case kPublish:
        ++s.published;
        ++s.rounds[p];
        s.producer[p] = kFenceAndLoad;
        return true;
      case kFenceAndLoad:
        if (s.phase != kRunning) {
          s.producer[p] = kWakeLocked;
        } else {
          finish_round();
        }
        return true;
      case kWakeLocked:
        s.phase = kNotified;
        s.producer[p] = kWakeNotify;
        return true;
      case kWakeNotify:
        if (s.consumer == kWaiting) s.consumer = kResume;
        finish_round();
        return true;
      default:
        return false;  // kDone
    }
  }

  bool stopper_step(State& s) const {
    if (!config_.stop) return false;
    switch (s.stopper) {
      case kIdle:
        for (std::size_t p = 0; p < config_.producers; ++p) {
          if (s.producer[p] != kDone) return false;
        }
        s.stopper = kRaise;
        return true;
      case kRaise:
        s.stopping = true;
        s.stopper = kStopLocked;
        return true;
      case kStopLocked:
        s.phase = kNotified;
        s.stopper = kStopNotify;
        return true;
      case kStopNotify:
        if (s.consumer == kWaiting) s.consumer = kResume;
        s.stopper = kStopped;
        return true;
      default:
        return false;
    }
  }

  static std::string consumer_name(const State& s) {
    static constexpr std::array<const char*, 8> kNames = {
        "drain", "announce", "fence",  "rescan", "locked-recheck",
        "wait",  "resume",   "exited"};
    return kNames[s.consumer];
  }

  static std::string producer_name(std::uint8_t pc) {
    static constexpr std::array<const char*, 5> kNames = {
        "publish", "fence+load-phase", "wake-locked", "wake-notify", "done"};
    return kNames[pc];
  }

  ModelConfig config_;
  ModelReport report_;
  std::map<std::uint64_t, Edge> parent_;  // every reached state's BFS edge
};

TEST(EventCountModel, NoLostWakeupInAnyInterleaving) {
  for (std::size_t producers = 1; producers <= kMaxProducers; ++producers) {
    for (int items = 1; items <= 2; ++items) {
      for (const bool stop : {false, true}) {
        const ModelReport report =
            Enumerator({producers, items, stop, Variant::kCorrect}).run();
        SCOPED_TRACE("producers=" + std::to_string(producers) +
                     " items=" + std::to_string(items) +
                     " stop=" + std::to_string(stop));
        EXPECT_EQ(report.violations, 0u) << report.counterexample;
        EXPECT_GT(report.terminals, 0u);
        if (!stop) {
          // The consumer really sleeps in some schedules, so the search
          // covers park/wake races, not only a spinning consumer.
          EXPECT_GT(report.parked_terminals, 0u);
        }
      }
    }
  }
}

TEST(EventCountModel, RescanBeforeAnnounceLosesAWakeup) {
  // The publish lands between the early re-scan and the announcement: the
  // producer still reads kRunning and skips the wake.
  const ModelReport report =
      Enumerator({1, 1, false, Variant::kRescanBeforeAnnounce}).run();
  EXPECT_GT(report.violations, 0u);
  EXPECT_NE(report.counterexample.find("asleep with unconsumed work"),
            std::string::npos)
      << report.counterexample;
}

TEST(EventCountModel, WaitWithoutLockedRecheckLosesAWakeup) {
  // The wake's notify_one lands between the re-scan and the wait, when
  // nobody is waiting yet; without re-reading kNotified the consumer sleeps.
  const ModelReport report =
      Enumerator({1, 1, false, Variant::kNoLockedRecheck}).run();
  EXPECT_GT(report.violations, 0u);
  EXPECT_NE(report.counterexample.find("asleep with unconsumed work"),
            std::string::npos)
      << report.counterexample;
}

// --- the real class -------------------------------------------------------

// Ceiling for every wait: a passing run takes well under a second even under
// TSan; the ceiling only turns a liveness regression into a failure.
constexpr std::chrono::seconds kCeiling{120};

TEST(EventCount, NotifyRacingTheRescanCancelsThePark) {
  // The race of the seeded-bug models, forced on the real class without
  // threads: has_work() publishes and notifies from inside the re-scan,
  // then reports the scan as empty, as a scan that began just before the
  // publish would. In the protocol the re-scan runs after the announcement,
  // so the notify wakes, the locked re-check sees it, and the consumer
  // drains again at once. With the re-scan moved before the announcement,
  // or the locked re-check dropped, every round sleeps out the backstop.
  constexpr int kRounds = 20;
  constexpr std::chrono::milliseconds kBackstop{2};
  EventCount events;
  int published = 0;
  int drained = 0;
  int slow_rounds = 0;
  auto published_at = std::chrono::steady_clock::now();
  events.run(
      [&] {
        if (drained == published) return false;
        if (std::chrono::steady_clock::now() - published_at >= kBackstop) {
          ++slow_rounds;
        }
        drained = published;
        return true;
      },
      [&] {
        if (published < kRounds && published == drained) {
          ++published;
          events.notify();
          published_at = std::chrono::steady_clock::now();
        }
        return false;  // the stale scan
      },
      [&] { return published == kRounds && drained == published; });
  EXPECT_EQ(drained, kRounds);
  // A round can be slow by preemption; all of them only by a lost wakeup.
  EXPECT_LT(slow_rounds, kRounds);
}

TEST(EventCount, MultiProducerPingPongStorm) {
  // Each producer publishes one item, notifies, and waits for the consumer's
  // acknowledgement before the next, so the consumer runs dry and parks
  // between most rounds: every round is a park/wake race.
  constexpr std::size_t kProducers = 3;
  constexpr std::uint64_t kRounds = 2000;
  EventCount events;
  std::array<std::atomic<std::uint64_t>, kProducers> sent{};
  std::array<std::atomic<std::uint64_t>, kProducers> acked{};
  std::atomic<bool> stopping{false};
  std::uint64_t drained = 0;  // consumer thread only

  std::thread consumer([&] {
    events.run(
        [&] {
          bool any = false;
          for (std::size_t p = 0; p < kProducers; ++p) {
            const std::uint64_t s = sent[p].load(std::memory_order_acquire);
            const std::uint64_t a = acked[p].load(std::memory_order_relaxed);
            if (s != a) {
              drained += s - a;
              acked[p].store(s, std::memory_order_release);
              any = true;
            }
          }
          return any;
        },
        [&] {
          for (std::size_t p = 0; p < kProducers; ++p) {
            if (sent[p].load(std::memory_order_acquire) !=
                acked[p].load(std::memory_order_relaxed)) {
              return true;
            }
          }
          return false;
        },
        [&] { return stopping.load(std::memory_order_acquire); });
  });

  std::vector<std::thread> producers;
  std::atomic<int> timeouts{0};
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const auto deadline = std::chrono::steady_clock::now() + kCeiling;
      for (std::uint64_t r = 1; r <= kRounds; ++r) {
        sent[p].store(r, std::memory_order_release);
        events.notify();
        while (acked[p].load(std::memory_order_acquire) < r) {
          if (std::chrono::steady_clock::now() > deadline) {
            timeouts.fetch_add(1);
            return;
          }
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_EQ(timeouts.load(), 0) << "a producer's item was never drained";

  // Let the consumer park, then stop it: the unconditional wake must get a
  // sleeping consumer out of run().
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stopping.store(true, std::memory_order_release);
  events.wake();
  consumer.join();
  EXPECT_EQ(drained, kProducers * kRounds);
}

TEST(EventCount, StopDrainsWorkPublishedBeforeIt) {
  // Work published before the stop flag is drained before run() returns,
  // whether the consumer was parked or busy when the flag went up.
  for (int round = 0; round < 50; ++round) {
    EventCount events;
    std::atomic<std::uint64_t> sent{0};
    std::atomic<bool> stopping{false};
    std::uint64_t drained = 0;
    std::thread consumer([&] {
      events.run(
          [&] {
            const std::uint64_t s = sent.load(std::memory_order_acquire);
            if (s == drained) return false;
            drained = s;
            return true;
          },
          [&] { return sent.load(std::memory_order_acquire) != drained; },
          [&] { return stopping.load(std::memory_order_acquire); });
    });
    for (std::uint64_t i = 1; i <= 8; ++i) {
      sent.store(i, std::memory_order_release);
      events.notify();
    }
    stopping.store(true, std::memory_order_release);
    events.wake();
    consumer.join();
    EXPECT_EQ(drained, 8u);
  }
}

}  // namespace
