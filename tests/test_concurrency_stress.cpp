// Concurrency stress tests, designed to run under ThreadSanitizer.
//
// The unit tests elsewhere check the runtime's functional behaviour; these
// tests exist to hand TSan (and the lock-rank checker) as many genuinely
// racy schedules as possible: many producers against one consumer on the
// overflow Mailbox and the RingMailbox, request storms against a full
// ActorSystem, and repeated construct/storm/shutdown churn to shake the
// join/close ordering. They
// assert functional outcomes too, but their real assertion is "zero
// sanitizer reports" -- the TSan CI job runs exactly this binary.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "proto/policies.hpp"
#include "runtime/actor_system.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/ring_mailbox.hpp"
#include "support/lock_rank.hpp"
#include "support/rng.hpp"

namespace {

using namespace arvy;
using graph::NodeId;

// Generous ceiling for waits: a passing run finishes in milliseconds; the
// timeout only matters when a liveness regression would otherwise hang ctest.
constexpr std::chrono::milliseconds kWaitCeiling{120000};

TEST(MailboxStress, ManyProducersOneConsumerFifo) {
  // The overflow valve's real shape: many spilling workers, one draining
  // owner. Each producer's items must come out in its own push order.
  constexpr int kProducers = 8;
  constexpr int kItemsPerProducer = 2000;
  constexpr int kTotal = kProducers * kItemsPerProducer;
  runtime::Mailbox<int> box;

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kItemsPerProducer; ++i) {
        EXPECT_TRUE(box.try_push(p * kItemsPerProducer + i));
      }
    });
  }

  std::int64_t sum = 0;
  int count = 0;
  std::vector<int> last(static_cast<std::size_t>(kProducers), -1);
  const auto deadline = std::chrono::steady_clock::now() + kWaitCeiling;
  while (count < kTotal && std::chrono::steady_clock::now() < deadline) {
    const auto item = box.try_pop();
    if (!item) {
      std::this_thread::yield();
      continue;
    }
    const auto producer = static_cast<std::size_t>(*item / kItemsPerProducer);
    EXPECT_GT(*item % kItemsPerProducer, last[producer]);
    last[producer] = *item % kItemsPerProducer;
    sum += *item;
    ++count;
  }
  for (auto& t : producers) t.join();

  EXPECT_EQ(count, kTotal);
  EXPECT_EQ(sum, static_cast<std::int64_t>(kTotal) * (kTotal - 1) / 2);
  EXPECT_EQ(box.try_pop(), std::nullopt);
}

TEST(MailboxStress, CloseRacesWithBlockedConsumers) {
  // close() lands while producers are still pushing and consumers polling:
  // every push that reported success must be popped exactly once, every
  // push after close must be refused. Repeat to sample many interleavings.
  for (int round = 0; round < 50; ++round) {
    runtime::Mailbox<int> box;
    std::atomic<int> accepted{0};
    std::atomic<int> popped{0};
    std::atomic<bool> producers_done{false};
    std::vector<std::thread> producers;
    for (int p = 0; p < 2; ++p) {
      producers.emplace_back([&box, &accepted] {
        for (int i = 0; i < 64; ++i) {
          if (box.try_push(i)) accepted.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::vector<std::thread> consumers;
    for (int c = 0; c < 3; ++c) {
      consumers.emplace_back([&box, &popped, &producers_done] {
        for (;;) {
          // Read the flag before polling: once it is set and the box reads
          // empty, nothing accepted can still be missing.
          const bool done = producers_done.load(std::memory_order_acquire);
          if (box.try_pop().has_value()) {
            popped.fetch_add(1, std::memory_order_relaxed);
          } else if (done) {
            return;
          } else {
            std::this_thread::yield();
          }
        }
      });
    }
    box.close();
    for (auto& t : producers) t.join();
    EXPECT_FALSE(box.try_push(-1));
    producers_done.store(true, std::memory_order_release);
    for (auto& t : consumers) t.join();
    EXPECT_EQ(popped.load(), accepted.load());
  }
}

// --- RingMailbox storms -----------------------------------------------------
//
// The ring carries opaque bytes; these storms use a single uint64 payload per
// slot so every frame is checkable. What TSan is being handed: the
// release/acquire pairing on per-slot sequence words under real contention,
// wrap-around slot reuse, and close racing both producers and a mid-batch
// consumer.

std::uint64_t read_slot_u64(const std::byte* slot) {
  std::uint64_t value = 0;
  std::memcpy(&value, slot, sizeof(value));
  return value;
}

TEST(RingMailboxStress, WrapAroundUnderMultiProducerContention) {
  // Capacity 8 with 4 producers x 5000 frames: thousands of full laps, so
  // every slot is recycled under contention and per-producer FIFO must
  // survive the wrap (tickets are claimed in program order and drained in
  // ticket order).
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 5000;
  runtime::RingMailbox ring(/*capacity=*/8, /*slot_bytes=*/sizeof(std::uint64_t));
  ASSERT_EQ(ring.capacity(), 8u);

  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t value = p * kPerProducer + i;
        ASSERT_TRUE(ring.push([value](std::byte* slot) {
          std::memcpy(slot, &value, sizeof(value));
        }));
      }
    });
  }

  std::uint64_t consumed = 0;
  std::uint64_t sum = 0;
  std::vector<std::uint64_t> last_seen(kProducers, 0);  // +1 encoded
  while (consumed < kProducers * kPerProducer) {
    const std::size_t batch = ring.acquire_batch(4);
    if (batch == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t k = 0; k < batch; ++k) {
      const std::uint64_t value = read_slot_u64(ring.batch_slot(k));
      const std::uint64_t p = value / kPerProducer;
      const std::uint64_t i = value % kPerProducer;
      ASSERT_LT(p, kProducers);
      // Per-producer FIFO: each producer's frames arrive in push order.
      ASSERT_EQ(last_seen[p], i) << "producer " << p << " reordered";
      last_seen[p] = i + 1;
      sum += value;
      ++consumed;
    }
    ring.release_batch(batch);
  }
  for (auto& t : producers) t.join();
  ring.close();

  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  EXPECT_EQ(consumed, kTotal);
  EXPECT_EQ(sum, kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(ring.approx_size(), 0u);
}

TEST(RingMailboxStress, FullRingReportsKFullAndBackpressures) {
  runtime::RingMailbox ring(/*capacity=*/4, /*slot_bytes=*/sizeof(std::uint64_t));
  auto fill = [](std::uint64_t value) {
    return [value](std::byte* slot) {
      std::memcpy(slot, &value, sizeof(value));
    };
  };
  // Deterministic part: exactly capacity slots fit, then kFull - and kFull
  // must not strand a ticket (slots drain and refill cleanly afterwards).
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.try_push(fill(i)), runtime::PushResult::kOk);
  }
  EXPECT_EQ(ring.try_push(fill(99)), runtime::PushResult::kFull);
  EXPECT_EQ(ring.try_push(fill(99)), runtime::PushResult::kFull);
  std::size_t batch = ring.acquire_batch(64);
  ASSERT_EQ(batch, 4u);
  for (std::size_t k = 0; k < batch; ++k) {
    EXPECT_EQ(read_slot_u64(ring.batch_slot(k)), k);
  }
  ring.release_batch(batch);
  EXPECT_EQ(ring.try_push(fill(4)), runtime::PushResult::kOk);

  // Concurrent part: a blocking producer against a deliberately slow
  // consumer; the bounded buffer must backpressure, never lose or corrupt.
  constexpr std::uint64_t kFrames = 3000;
  std::thread producer([&ring, &fill] {
    for (std::uint64_t i = 5; i < kFrames; ++i) {
      ASSERT_TRUE(ring.push(fill(i)));
    }
  });
  std::uint64_t expected = 4;
  while (expected < kFrames) {
    const std::size_t n = ring.acquire_batch(3);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(read_slot_u64(ring.batch_slot(k)), expected);
      ++expected;
    }
    ring.release_batch(n);
    if (expected % 512 < 3) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  producer.join();
  ring.close();
  EXPECT_FALSE(ring.push(fill(0)));
}

TEST(RingMailboxStress, CloseRacesMidBatchDrain) {
  // close() fires from the main thread while producers are pushing and the
  // consumer is mid-drain. Contract: every try_push that reported kOk before
  // the producers observed kClosed is drained (producers are joined before
  // the final sweep, so all successful publishes are visible), and nothing
  // is consumed twice.
  for (int round = 0; round < 20; ++round) {
    runtime::RingMailbox ring(/*capacity=*/16,
                              /*slot_bytes=*/sizeof(std::uint64_t));
    std::atomic<std::uint64_t> pushed{0};
    std::atomic<bool> producers_done{false};
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
      producers.emplace_back([&ring, &pushed] {
        for (std::uint64_t i = 0;; ++i) {
          const runtime::PushResult r = ring.try_push([i](std::byte* slot) {
            std::memcpy(slot, &i, sizeof(i));
          });
          if (r == runtime::PushResult::kClosed) return;
          if (r == runtime::PushResult::kOk) {
            pushed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    std::atomic<std::uint64_t> consumed{0};
    std::thread consumer([&ring, &consumed, &producers_done] {
      for (;;) {
        const std::size_t n = ring.acquire_batch(5);
        if (n > 0) {
          for (std::size_t k = 0; k < n; ++k) {
            (void)read_slot_u64(ring.batch_slot(k));
          }
          ring.release_batch(n);
          consumed.fetch_add(n, std::memory_order_relaxed);
          continue;
        }
        if (producers_done.load(std::memory_order_acquire) &&
            !ring.has_ready()) {
          return;
        }
        std::this_thread::yield();
      }
    });
    std::this_thread::sleep_for(std::chrono::microseconds(200 * (round % 4)));
    ring.close();
    for (auto& t : producers) t.join();
    producers_done.store(true, std::memory_order_release);
    consumer.join();
    EXPECT_EQ(consumed.load(), pushed.load());
  }
}

TEST(RingMailboxStress, TryPushAfterCloseReturnsFalseAndDrains) {
  runtime::RingMailbox ring(/*capacity=*/8, /*slot_bytes=*/sizeof(std::uint64_t));
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_EQ(ring.try_push([i](std::byte* slot) {
      std::memcpy(slot, &i, sizeof(i));
    }),
              runtime::PushResult::kOk);
  }
  ring.close();
  EXPECT_TRUE(ring.closed());
  // Producers observe the close on both entry points, with no UB and no
  // frame written.
  EXPECT_EQ(ring.try_push([](std::byte*) { FAIL() << "fill ran on closed"; }),
            runtime::PushResult::kClosed);
  EXPECT_FALSE(ring.push([](std::byte*) { FAIL() << "fill ran on closed"; }));
  // Close drains, then stops: the three published frames are still readable.
  const std::size_t batch = ring.acquire_batch(64);
  ASSERT_EQ(batch, 3u);
  for (std::size_t k = 0; k < batch; ++k) {
    EXPECT_EQ(read_slot_u64(ring.batch_slot(k)), k);
  }
  ring.release_batch(batch);
  EXPECT_FALSE(ring.has_ready());
  EXPECT_EQ(ring.acquire_batch(64), 0u);
}

TEST(LockRank, NoRankedLocksHeldOutsideCriticalSections) {
  runtime::Mailbox<int> box;
  EXPECT_TRUE(box.try_push(1));
  EXPECT_EQ(box.try_pop(), std::optional<int>{1});
  box.close();
  EXPECT_FALSE(box.try_push(2));
  // Every Mailbox operation must fully release the ranked mutex before
  // returning; a leak here would poison rank checks for the whole thread.
  EXPECT_EQ(support::detail::held_count(), 0u);
}

TEST(ActorSystemStress, RequestStormAllSatisfied) {
  // Distinct-node bursts back-to-back over a reordered, jittered runtime:
  // the model's only rule is one outstanding request per node, so each round
  // fires a batch across many nodes at once and waits for the cumulative
  // count before the next volley.
  constexpr NodeId kNodes = 10;
  const auto g = graph::make_ring(kNodes);
  auto policy = proto::make_policy(proto::PolicyKind::kIvy);
  Options options;
  options.seed = 101;
  options.reorder_mailboxes = true;
  options.max_jitter = std::chrono::microseconds(20);
  runtime::ActorSystem system(g, proto::ring_bridge_config(kNodes), *policy,
                              options);

  std::uint64_t expected = 0;
  support::Rng rng(7);
  for (int round = 0; round < 12; ++round) {
    std::set<NodeId> requesters;
    while (requesters.size() < 5) {
      requesters.insert(static_cast<NodeId>(rng.next_below(kNodes)));
    }
    for (NodeId v : requesters) system.request(v);
    expected += requesters.size();
    ASSERT_TRUE(system.wait_for_satisfied_for(expected, kWaitCeiling))
        << "liveness regression: stuck at " << system.satisfied_count()
        << " of " << expected;
  }
  system.shutdown();

  EXPECT_EQ(system.satisfied_count(), expected);
  std::size_t holders = 0;
  for (NodeId v = 0; v < kNodes; ++v) {
    holders += system.node(v).holds_token() ? 1u : 0u;
  }
  EXPECT_EQ(holders, 1u);
}

TEST(ActorSystemStress, ConstructStormShutdownChurn) {
  // Shutdown/join ordering under churn: build a system, satisfy a burst,
  // tear it down, repeat. Half the rounds shut down explicitly, half leave
  // it to the destructor, so both paths see traffic.
  const auto g = graph::make_grid(3, 3);
  auto policy = proto::make_policy(proto::PolicyKind::kArrow);
  for (int round = 0; round < 8; ++round) {
    Options options;
    options.seed = static_cast<std::uint64_t>(round) + 1;
    options.reorder_mailboxes = (round % 2 == 0);
    runtime::ActorSystem system(g, proto::from_tree(graph::bfs_tree(g, 4)),
                                *policy, options);
    for (NodeId v : {0u, 2u, 6u, 8u}) system.request(v);
    ASSERT_TRUE(system.wait_for_satisfied_for(4, kWaitCeiling));
    if (round % 2 == 0) {
      system.shutdown();
      EXPECT_TRUE(system.is_shut_down());
      EXPECT_EQ(system.satisfied_count(), 4u);
    }
    // Odd rounds: destructor runs shutdown with mailboxes quiescent.
  }
}

TEST(ActorSystemStress, ParkWakeChurnWithTinyRings) {
  // Targets the orderings the PR-9 atomic audit weakened on purpose: the
  // relaxed eventcount phase word behind the two seq_cst Dekker fences
  // (worker park vs producer wake), the release-only overflow_nonempty
  // flag, and the relaxed request/satisfied counters. Tiny rings force
  // overflow spills through the cold Mailbox valve, and deliberate idle
  // gaps between volleys force real park/wake cycles instead of a
  // saturated pipeline - exactly the schedules where a missing fence or a
  // too-weak store would lose a wakeup (deadlock) or a frame (count
  // mismatch). Run under TSan, this is the regression net for the
  // contract table in docs/ARCHITECTURE.md section 6.
  constexpr NodeId kNodes = 12;
  const auto g = graph::make_ring(kNodes);
  auto policy = proto::make_policy(proto::PolicyKind::kIvy);
  Options options;
  options.seed = 907;
  options.workers = 2;       // nodes share workers: cross-worker wakes
  options.ring_capacity = 2; // minimum: nearly every burst spills overflow
  options.batch_size = 4;
  runtime::ActorSystem system(g, proto::ring_bridge_config(kNodes), *policy,
                              options);

  // Several submitter threads fire distinct node ranges (one outstanding
  // request per node is the model's rule), sleeping between volleys so
  // workers drain fully and park before the next storm hits cold.
  constexpr int kRounds = 40;
  constexpr int kSubmitters = 3;
  static_assert(kNodes % kSubmitters == 0);
  constexpr NodeId kPerSubmitter = kNodes / kSubmitters;
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&system, s] {
      const auto base = static_cast<NodeId>(s) * kPerSubmitter;
      for (int round = 0; round < kRounds; ++round) {
        for (NodeId v = base; v < base + kPerSubmitter; ++v) {
          system.request(v);
        }
        const std::uint64_t target =
            static_cast<std::uint64_t>(round + 1) * kPerSubmitter *
            kSubmitters;
        // Wait for the cumulative cross-thread count, then go idle long
        // enough for every worker to park on the eventcount.
        ASSERT_TRUE(system.wait_for_satisfied_for(target, kWaitCeiling))
            << "liveness regression: stuck at " << system.satisfied_count()
            << " of " << target;
        if (round % 4 == s) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  system.shutdown();

  constexpr std::uint64_t kExpected =
      static_cast<std::uint64_t>(kRounds) * kNodes;
  EXPECT_EQ(system.satisfied_count(), kExpected);
  EXPECT_EQ(system.submitted_count(), kExpected);
  std::size_t holders = 0;
  for (NodeId v = 0; v < kNodes; ++v) {
    holders += system.node(v).holds_token() ? 1u : 0u;
  }
  EXPECT_EQ(holders, 1u);
}

TEST(ActorSystemStress, ConcurrentWaitersAllWake) {
  // Several threads block in wait_for_satisfied while requests trickle in;
  // every waiter must wake (no lost notifications in the CV protocol).
  constexpr NodeId kNodes = 8;
  const auto g = graph::make_ring(kNodes);
  auto policy = proto::make_policy(proto::PolicyKind::kBridge);
  Options options;
  options.seed = 31;
  runtime::ActorSystem system(g, proto::ring_bridge_config(kNodes), *policy,
                              options);

  constexpr std::uint64_t kTarget = 6;
  std::atomic<int> woke{0};
  std::vector<std::thread> waiters;
  for (int w = 0; w < 4; ++w) {
    waiters.emplace_back([&system, &woke] {
      system.wait_for_satisfied(kTarget);
      woke.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (NodeId v : {1u, 2u, 3u, 5u, 6u, 7u}) {
    system.request(v);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : waiters) t.join();
  EXPECT_EQ(woke.load(), 4);
  system.shutdown();
  EXPECT_GE(system.satisfied_count(), kTarget);
}

}  // namespace
