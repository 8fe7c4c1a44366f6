#include "sim/event_queue.h"

#include <cassert>
#include <utility>

namespace erms::sim {

namespace detail {

namespace {

bool before(const EventArena::HeapEntry& a, const EventArena::HeapEntry& b) {
  return a.time != b.time ? a.time < b.time : a.seq < b.seq;
}

/// Move `entry` up from `pos` to its place, updating every moved slot's
/// heap position.
void sift_up(EventArena& arena, std::size_t pos, EventArena::HeapEntry entry) {
  auto& heap = arena.heap;
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(entry, heap[parent])) {
      break;
    }
    heap[pos] = heap[parent];
    arena.slots[heap[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap[pos] = entry;
  arena.slots[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void sift_down(EventArena& arena, std::size_t pos, EventArena::HeapEntry entry) {
  auto& heap = arena.heap;
  const std::size_t n = heap.size();
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && before(heap[child + 1], heap[child])) {
      ++child;
    }
    if (!before(heap[child], entry)) {
      break;
    }
    heap[pos] = heap[child];
    arena.slots[heap[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = child;
  }
  heap[pos] = entry;
  arena.slots[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

}  // namespace

std::uint32_t EventArena::push(SimTime time, std::uint64_t seq, Callback fn) {
  auto slot = static_cast<std::uint32_t>(slots.size());
  if (!free_slots.empty()) {
    slot = free_slots.back();
    free_slots.pop_back();
  } else {
    assert(slots.size() < kNotQueued);
    slots.emplace_back();
  }
  slots[slot].fn = std::move(fn);
  heap.emplace_back();
  sift_up(*this, heap.size() - 1, HeapEntry{time, seq, slot});
  return slot;
}

EventArena::Callback EventArena::remove_at(std::size_t pos) {
  assert(pos < heap.size());
  const std::uint32_t slot = heap[pos].slot;
  const HeapEntry last = heap.back();
  heap.pop_back();
  if (pos < heap.size()) {
    // Refill the hole with the last entry; it may belong above or below.
    if (pos > 0 && before(last, heap[(pos - 1) / 2])) {
      sift_up(*this, pos, last);
    } else {
      sift_down(*this, pos, last);
    }
  }
  Slot& s = slots[slot];
  Callback fn = std::move(s.fn);
  s.fn = nullptr;
  // Generations wrap only after 2^32 reuses of one slot while a stale handle
  // to it is still held.
  ++s.generation;
  s.heap_pos = kNotQueued;
  free_slots.push_back(slot);
  return fn;
}

}  // namespace detail

void EventHandle::cancel() {
  const auto arena = arena_.lock();
  if (arena == nullptr) {
    return;
  }
  // Detach first: the dropped callback may own this very handle.
  arena_.reset();
  if (arena->queued(slot_, generation_)) {
    const EventQueue::Callback dropped = arena->remove_at(arena->slots[slot_].heap_pos);
  }
}

EventHandle EventQueue::schedule(SimTime at, std::uint64_t seq, Callback fn) {
  assert(seq < next_seq_);
  const std::uint32_t slot = arena_->push(at, seq, std::move(fn));
  return EventHandle{arena_, slot, arena_->slots[slot].generation};
}

EventQueue::Fired EventQueue::pop() {
  assert(!empty());
  const SimTime at = arena_->heap.front().time;
  return Fired{at, arena_->remove_at(0)};
}

void EventQueue::clear() {
  std::vector<Callback> dropped;
  dropped.reserve(arena_->heap.size());
  while (!arena_->heap.empty()) {
    dropped.push_back(arena_->remove_at(arena_->heap.size() - 1));
  }
}

}  // namespace erms::sim
