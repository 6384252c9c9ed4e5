#include "runtime/event_count.hpp"

#include <mutex>

// Same note as EventCount::notify: TSan cannot model the fence in run().
#if defined(__GNUC__) && !defined(__clang__) && defined(__SANITIZE_THREAD__)
#pragma GCC diagnostic ignored "-Wtsan"
#endif

namespace arvy::runtime {

void EventCount::wake() {
  {
    std::lock_guard<support::RankedMutex> lock(mutex_);
    phase_.store(kNotified, std::memory_order_relaxed);
  }
  cv_.notify_one();
}

void EventCount::run(const std::function<bool()>& drain,
                     const std::function<bool()>& has_work,
                     const std::function<bool()>& stopping) {
  for (;;) {
    if (drain()) continue;

    // Announce, then re-scan: a producer that publishes after the re-scan
    // began sees kPreparing past its own fence and wakes us; one that
    // published before is caught by the re-scan.
    phase_.store(kPreparing, std::memory_order_seq_cst);
    // Store-load fence: the re-scan's loads must not be satisfied from
    // before the kPreparing store became visible (Dekker pairing with the
    // fence in notify).
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (has_work()) {
      phase_.store(kRunning, std::memory_order_relaxed);
      continue;
    }
    if (stopping()) {
      phase_.store(kRunning, std::memory_order_relaxed);
      return;  // drained and stopping
    }
    {
      std::unique_lock<support::RankedMutex> lock(mutex_);
      if (phase_.load(std::memory_order_relaxed) == kPreparing &&
          !stopping()) {
        cv_.wait_for(lock, kBackstop);
      }
    }
    phase_.store(kRunning, std::memory_order_relaxed);
  }
}

}  // namespace arvy::runtime
