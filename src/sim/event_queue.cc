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
  ++pool_->cancelled_in_heap;
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
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& e) {
                               if (!pool_->slot(e.slot).cancelled) {
                                 return false;
                               }
                               pool_->Release(e.slot);  // also clears `cancelled`
                               return true;
                             }),
              heap_.end());
  pool_->cancelled_in_heap = 0;
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::Clear() {
  for (const Entry& e : heap_) {
    pool_->Release(e.slot);  // destroys the callback, clears `cancelled`
  }
  heap_.clear();
  pool_->cancelled_in_heap = 0;
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
