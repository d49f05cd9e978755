#include "src/sim/event_queue.h"

namespace newtos {

bool EventHandle::Cancel() {
  if (!pool_) {
    return false;
  }
  EventSlotPool::Slot& s = pool_->slot(index_);
  if (s.gen != gen_ || s.cancelled) {
    return false;  // already fired/discarded (slot recycled) or cancelled
  }
  s.cancelled = true;
  ++pool_->cancelled_queued;
  return true;
}

bool EventHandle::pending() const {
  if (!pool_) {
    return false;
  }
  const EventSlotPool::Slot& s = pool_->slot(index_);
  return s.gen == gen_ && !s.cancelled;
}

void EventQueue::Compact() {
  // Releases a cancelled entry's slot (which also clears `cancelled`).
  auto drop = [this](const Entry& e) {
    if (!pool_->slot(e.slot).cancelled) {
      return false;
    }
    pool_->Release(e.slot);
    return true;
  };
  uint32_t kept = 0;
  for (uint32_t i = 0; i < near_size_; ++i) {
    const Entry e = NearAt(i);
    if (!drop(e)) {
      NearAt(kept++) = e;
    }
  }
  near_size_ = kept;
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), drop), heap_.end());
  pool_->cancelled_queued = 0;
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::Clear() {
  for (uint32_t i = 0; i < near_size_; ++i) {
    pool_->Release(NearAt(i).slot);  // destroys the callback, clears `cancelled`
  }
  near_size_ = 0;
  for (const Entry& e : heap_) {
    pool_->Release(e.slot);
  }
  heap_.clear();
  pool_->cancelled_queued = 0;
}

void EventQueue::Reserve(size_t n) {
  heap_.reserve(n);
  pool_->Reserve(n);
}

void EventSlotPool::AddChunk() {
  // lint:allow(heap-new): a chunk of kChunkSlots slots, allocated only when the pool outgrows its high-water mark (Reserve() pre-allocates); chunks never move, so a firing callback can run in its slot
  chunks.emplace_back(new Slot[kChunkSlots]);
}

void EventSlotPool::Reserve(size_t n) {
  chunks.reserve((n + kChunkSlots - 1) / kChunkSlots);
  while (chunks.size() * kChunkSlots < n) {
    AddChunk();
  }
}

}  // namespace newtos
