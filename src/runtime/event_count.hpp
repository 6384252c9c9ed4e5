// EventCount: the park/wake protocol of every single-consumer worker in the
// tree (ActorSystem's workers, DirectoryService's shard workers).
//
// A consumer drains work published by any number of producers through some
// lock-free channel (ring slots, an overflow flag) and sleeps when there is
// none; producers must never lock on the publish path. The protocol is the
// classic eventcount, a Dekker pairing between two seq_cst fences:
//
//    producer (notify)                   consumer (run, one park attempt)
//    --------                            --------
//    publish work                        phase = kPreparing   (seq_cst)
//    fence(seq_cst)                      fence(seq_cst)
//    phase != kRunning? -> wake()        has_work()? -> kRunning, drain again
//                                        lock; phase still kPreparing?
//                                          -> wait (2 ms backstop)
//
// Under the two fences one side always observes the other: either the
// consumer's re-scan sees the published work, or the producer's phase load
// sees kPreparing and takes the locking wake (store kNotified under the
// mutex, then notify_one). The locked re-check closes the remaining gap -
// a wake that lands between the re-scan and the wait has already replaced
// kPreparing by kNotified, so the consumer does not sleep on it. Every
// interleaving of both sides is enumerated in tests/test_event_count.cpp,
// together with the lost wakeup a re-scan moved before the announcement
// produces. The timed backstop bounds the damage of a protocol bug; it is
// not what makes the protocol correct.
//
// Only the phase word and the fences live here; the work itself is handed
// over by the caller's channel (the ring slots' release/acquire sequence
// words), which is also all TSan needs to see.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>

#include "support/hot.hpp"
#include "support/lock_rank.hpp"

namespace arvy::runtime {

class EventCount {
 public:
  // Producer side, called after the work is published: a fence plus a
  // relaxed phase load, locking only when the consumer parks or is about to.
  //
  // TSan cannot model standalone fences (GCC diagnoses them under
  // -fsanitize=thread). They only order the phase word against the caller's
  // channel, whose own atomics carry every data transfer TSan checks, and a
  // missed wake is bounded by the backstop, so ignoring them costs the
  // analysis nothing.
#if defined(__GNUC__) && !defined(__clang__) && defined(__SANITIZE_THREAD__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wtsan"
#endif
  ARVY_HOT void notify() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (phase_.load(std::memory_order_relaxed) != kRunning) wake();
  }
#if defined(__GNUC__) && !defined(__clang__) && defined(__SANITIZE_THREAD__)
#pragma GCC diagnostic pop
#endif

  // Unconditional wake: the shutdown path, after the caller raised the flag
  // its `stopping` predicate reads (the mutex handoff makes it visible to a
  // parked consumer).
  ARVY_COLD void wake();

  // The consumer loop: drain until drain() reports no progress, then park
  // as above. Returns once stopping() holds and has_work() does not, so
  // everything published before the stop is drained first. One thread only.
  void run(const std::function<bool()>& drain,
           const std::function<bool()>& has_work,
           const std::function<bool()>& stopping);

 private:
  enum Phase : std::uint32_t { kRunning = 0, kPreparing = 1, kNotified = 2 };
  static constexpr std::chrono::milliseconds kBackstop{2};

  // All ordering comes from the two fences, so the accesses stay relaxed
  // except the consumer's kPreparing announcement.
  std::atomic<std::uint32_t> phase_{kRunning};  // ARVY-ATOMIC(eventcount)
  support::RankedMutex mutex_{support::lock_rank::kWorker, "eventcount"};
  std::condition_variable_any cv_;
};

}  // namespace arvy::runtime
