#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/time.h"

namespace erms::sim {

namespace detail {

/// Storage behind an EventQueue: callbacks live in a slot arena and an
/// indexed binary min-heap orders the pending ones by (time, seq). Each slot
/// records its heap position, so a cancel removes the entry in O(log n)
/// instead of leaving a tombstone. A slot's generation is bumped whenever it
/// is freed (fired, cancelled or cleared); handles carry the generation they
/// were issued with, so a stale handle never reaches a reused slot.
///
/// Held by shared_ptr in the queue and weak_ptr in handles: a handle that
/// outlives its queue finds the arena gone and does nothing.
struct EventArena {
  using Callback = std::function<void()>;
  static constexpr std::uint32_t kNotQueued = UINT32_MAX;

  struct Slot {
    Callback fn;
    std::uint32_t generation{0};
    std::uint32_t heap_pos{kNotQueued};
  };
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  [[nodiscard]] bool queued(std::uint32_t slot, std::uint32_t generation) const {
    return slot < slots.size() && slots[slot].generation == generation &&
           slots[slot].heap_pos != kNotQueued;
  }

  /// Take a slot from the free list (or grow the arena) and queue `fn` at
  /// (time, seq).
  std::uint32_t push(SimTime time, std::uint64_t seq, Callback fn);

  /// Unqueue the entry at heap position `pos` and free its slot. Returns the
  /// callback so the caller destroys (or runs) it only once the arena is
  /// consistent again: a callback's destructor may itself cancel or
  /// schedule events.
  Callback remove_at(std::size_t pos);

  std::vector<Slot> slots;
  std::vector<HeapEntry> heap;
  std::vector<std::uint32_t> free_slots;
};

}  // namespace detail

/// Handle to a scheduled event; lets the owner cancel it before it fires.
/// Holds {arena, slot, generation}: once the event fires or is cancelled the
/// slot's generation moves on, so the handle goes inert even if the slot is
/// reused by a later event, and it stays safe after the queue is destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not fired yet. Safe to call repeatedly, on a
  /// default-constructed handle, from inside another event's callback, or
  /// after the owning queue is gone.
  void cancel();

  /// True while the event is still pending (scheduled, not fired, not
  /// cancelled through another copy of the handle).
  [[nodiscard]] bool pending() const {
    const auto arena = arena_.lock();
    return arena != nullptr && arena->queued(slot_, generation_);
  }

 private:
  friend class EventQueue;
  EventHandle(std::weak_ptr<detail::EventArena> arena, std::uint32_t slot,
              std::uint32_t generation)
      : arena_(std::move(arena)), slot_(slot), generation_(generation) {}

  std::weak_ptr<detail::EventArena> arena_;
  std::uint32_t slot_{0};
  std::uint32_t generation_{0};
};

/// Time-ordered event queue. Ties are broken by insertion sequence (a fresh
/// seq per schedule), so (time, seq) is a strict total order and runs are
/// deterministic for a fixed seed. Cancelled events leave the heap at once.
class EventQueue {
 public:
  using Callback = detail::EventArena::Callback;

  EventQueue() : arena_(std::make_shared<detail::EventArena>()) {}

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` at absolute time `at`. Returns a cancellation handle.
  EventHandle schedule(SimTime at, Callback fn) {
    return schedule(at, reserve_seq(), std::move(fn));
  }

  /// Draw the next tie-break seq without scheduling anything. An event later
  /// scheduled with it sorts, among same-time events, after every event
  /// scheduled before this call and before every event scheduled after it.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedule `fn` at `at` with a seq from reserve_seq(). Each reserved seq
  /// may be used for at most one pending event.
  EventHandle schedule(SimTime at, std::uint64_t seq, Callback fn);

  [[nodiscard]] bool empty() const { return arena_->heap.empty(); }

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const { return arena_->heap.size(); }

  /// Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() const { return arena_->heap.front().time; }

  /// Pop and return the earliest pending event. Precondition: !empty().
  struct Fired {
    SimTime time;
    Callback fn;
  };
  Fired pop();

  /// Drop every pending event; their handles go inert.
  void clear();

 private:
  std::shared_ptr<detail::EventArena> arena_;
  std::uint64_t next_seq_{0};
};

}  // namespace erms::sim
