// The unbounded overflow valve of the threaded runtime.
//
// A worker that finds a peer's RingMailbox full must not spin on it (it may
// be that ring's only drainer), so the frame is boxed into the peer's
// Mailbox instead; the owning worker drains it with try_pop before its next
// ring batch. A mutex-guarded deque is enough for a path that only runs when
// a ring overflows.
//
// Thread-safety contract (checked by tests/test_concurrency_stress.cpp
// under ThreadSanitizer):
//  - try_push / try_pop / close may be called from any thread;
//  - close is sticky: later try_push calls discard their item and return
//    false (the documented accepted loss of a non-quiescent shutdown), while
//    items pushed before close stay poppable;
//  - the internal mutex is rank-checked (support/lock_rank.hpp): holding a
//    mailbox lock while acquiring any lower-ranked lock aborts.
#pragma once

#include <deque>
#include <mutex>
#include <optional>

#include "support/lock_rank.hpp"

namespace arvy::runtime {

template <typename T>
class Mailbox {
 public:
  // Enqueues an item unless the box is closed; returns whether it did.
  [[nodiscard]] bool try_push(T item) {
    std::lock_guard<support::RankedMutex> lock(mutex_);
    if (closed_) return false;
    items_.push_back(std::move(item));
    return true;
  }

  // The oldest item, or nullopt when the box is currently empty (closed or
  // not). Never blocks.
  //
  // gcc 12 reports a bogus -Wuninitialized when T contains a std::variant:
  // the diagnostic points into the variant storage of the moved-FROM deque
  // slot, which items_.front() guarantees is alive (same false-positive
  // family as gcc PR 105593). Suppressed for this body only; clang compiles
  // it clean.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
  [[nodiscard]] std::optional<T> try_pop() {
    std::lock_guard<support::RankedMutex> lock(mutex_);
    if (items_.empty()) return std::nullopt;
    std::optional<T> item(std::move(items_.front()));
    items_.pop_front();
    return item;
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  void close() {
    std::lock_guard<support::RankedMutex> lock(mutex_);
    closed_ = true;
  }

 private:
  support::RankedMutex mutex_{support::lock_rank::kMailbox, "mailbox"};
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace arvy::runtime
