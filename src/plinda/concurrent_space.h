#ifndef FPDM_PLINDA_CONCURRENT_SPACE_H_
#define FPDM_PLINDA_CONCURRENT_SPACE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "plinda/tuple.h"
#include "plinda/tuple_space.h"

namespace fpdm::plinda {

/// Thread-safe tuple space for ExecutionMode::kRealParallel: one TupleSpace
/// behind one mutex, so storage, sequencing and FIFO matching are exactly
/// the simulator's and the server's.
///
/// Blocking in/rd park in a list of waiters that the same mutex guards.
/// Out and OutBatch mark, under the lock, every parked waiter whose template
/// matches a tuple they add, and wake only the waiters they marked, after
/// releasing the lock. A marked waiter retries its in/rd and parks again if
/// another thread took the tuple first. Because a waiter parks only after
/// its match failed under the lock, a parked waiter that no Out has marked
/// has no match in the space: stalled() counts exactly those.
class ConcurrentTupleSpace {
 public:
  /// Takes over `space` with its tuples, sequence numbers and FIFO order.
  explicit ConcurrentTupleSpace(TupleSpace space = TupleSpace());

  ConcurrentTupleSpace(const ConcurrentTupleSpace&) = delete;
  ConcurrentTupleSpace& operator=(const ConcurrentTupleSpace&) = delete;

  /// Adds a tuple and wakes the waiters it matches (Linda `out`).
  void Out(Tuple tuple);

  /// Adds every tuple in order under one lock acquisition: matching order
  /// is identical to calling Out() in a loop.
  void OutBatch(std::vector<Tuple> tuples);

  /// Non-blocking in/rd (`inp` / `rdp`).
  bool TryIn(const Template& tmpl, Tuple* result);
  bool TryRd(const Template& tmpl, Tuple* result);

  /// Blocking in/rd: waits until a matching tuple exists (removing it when
  /// `remove`), or until Close() is called. Returns false only on close.
  /// With `more` (a drain; `remove` only), also removes every further match
  /// under the same lock and appends them to *more, oldest first.
  bool WaitIn(const Template& tmpl, Tuple* result, bool remove,
              std::vector<Tuple>* more = nullptr);

  /// Wakes every waiter and makes all current and future WaitIn calls
  /// return false. Used for deadlock cancellation.
  void Close();
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Total number of tuples in the space.
  size_t size();

  /// Parked waiters that no Out has marked since they parked. None of them
  /// has a match in the space, so when every live thread of a program is
  /// counted here, none can ever run again.
  size_t stalled();

  /// Moves the space out, leaving this one empty. Callers guarantee no
  /// concurrent users (used after the worker threads join).
  TupleSpace TakeSpace();

 private:
  struct Waiter {
    const Template* tmpl = nullptr;
    bool marked = false;
    std::condition_variable cv;
  };

  /// Unparks every waiter whose template matches `tuple`, marking it and
  /// appending it to `woken` for a notify after the lock is released.
  /// Requires mu_.
  void MarkMatchingLocked(const Tuple& tuple,
                          std::vector<std::shared_ptr<Waiter>>* woken);

  std::mutex mu_;
  TupleSpace space_;
  // Parked, unmarked waiters. Shared ownership lets a notifier reach a
  // waiter's condition variable after unlocking, even if the waiter has
  // already woken on its own and returned.
  std::vector<std::shared_ptr<Waiter>> parked_;
  std::atomic<bool> closed_{false};
};

}  // namespace fpdm::plinda

#endif  // FPDM_PLINDA_CONCURRENT_SPACE_H_
