#include "plinda/concurrent_space.h"

#include <utility>

namespace fpdm::plinda {

ConcurrentTupleSpace::ConcurrentTupleSpace(TupleSpace space)
    : space_(std::move(space)) {}

void ConcurrentTupleSpace::MarkMatchingLocked(
    const Tuple& tuple, std::vector<std::shared_ptr<Waiter>>* woken) {
  std::erase_if(parked_, [&](const std::shared_ptr<Waiter>& waiter) {
    if (!Matches(*waiter->tmpl, tuple)) return false;
    waiter->marked = true;
    woken->push_back(waiter);
    return true;
  });
}

void ConcurrentTupleSpace::Out(Tuple tuple) {
  std::vector<std::shared_ptr<Waiter>> woken;
  {
    std::lock_guard<std::mutex> lock(mu_);
    MarkMatchingLocked(tuple, &woken);
    space_.Out(std::move(tuple));
  }
  // Notifying after the unlock lets a woken waiter take the mutex at once
  // instead of blocking on it behind this thread.
  for (auto& waiter : woken) waiter->cv.notify_one();
}

void ConcurrentTupleSpace::OutBatch(std::vector<Tuple> tuples) {
  std::vector<std::shared_ptr<Waiter>> woken;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Tuple& tuple : tuples) {
      MarkMatchingLocked(tuple, &woken);
      space_.Out(std::move(tuple));
    }
  }
  for (auto& waiter : woken) waiter->cv.notify_one();
}

bool ConcurrentTupleSpace::TryIn(const Template& tmpl, Tuple* result) {
  std::lock_guard<std::mutex> lock(mu_);
  return space_.TryIn(tmpl, result);
}

bool ConcurrentTupleSpace::TryRd(const Template& tmpl, Tuple* result) {
  std::lock_guard<std::mutex> lock(mu_);
  return space_.TryRd(tmpl, result);
}

bool ConcurrentTupleSpace::WaitIn(const Template& tmpl, Tuple* result,
                                  bool remove, std::vector<Tuple>* more) {
  std::shared_ptr<Waiter> waiter;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (closed()) return false;
    if (remove ? space_.TryIn(tmpl, result) : space_.TryRd(tmpl, result)) {
      if (more != nullptr) {
        Tuple next;
        while (space_.TryIn(tmpl, &next)) more->push_back(std::move(next));
      }
      return true;
    }
    if (waiter == nullptr) {
      waiter = std::make_shared<Waiter>();
      waiter->tmpl = &tmpl;
    }
    waiter->marked = false;
    parked_.push_back(waiter);
    waiter->cv.wait(lock, [&] { return waiter->marked; });
  }
}

void ConcurrentTupleSpace::Close() {
  std::vector<std::shared_ptr<Waiter>> woken;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_.store(true, std::memory_order_release);
    for (auto& waiter : parked_) waiter->marked = true;
    woken.swap(parked_);
  }
  for (auto& waiter : woken) waiter->cv.notify_one();
}

size_t ConcurrentTupleSpace::size() {
  std::lock_guard<std::mutex> lock(mu_);
  return space_.size();
}

size_t ConcurrentTupleSpace::stalled() {
  std::lock_guard<std::mutex> lock(mu_);
  return parked_.size();
}

TupleSpace ConcurrentTupleSpace::TakeSpace() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(space_, TupleSpace());
}

}  // namespace fpdm::plinda
