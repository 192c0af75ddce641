#ifndef FPDM_PLINDA_SHARDED_SPACE_H_
#define FPDM_PLINDA_SHARDED_SPACE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "plinda/tuple.h"
#include "plinda/tuple_space.h"

namespace fpdm::plinda {

/// Thread-safe tuple space for ExecutionMode::kRealParallel: the
/// (arity, first-field-key) buckets of TupleSpace, split across N shards
/// with striped mutexes and per-shard condition variables.
///
/// A template whose first field is an actual value (or a formal int/double,
/// or the zero-arity template) can match tuples of exactly one bucket, so
/// its in/rd — including the blocking wait — touches only the shard that
/// bucket hashes to. Only formal-string-first templates take the cross-shard
/// slow path, which acquires every shard lock (in index order, so slow paths
/// cannot deadlock against each other) and waits on a global condition
/// variable.
///
/// Matching stays FIFO on a global out-order sequence, like TupleSpace: the
/// oldest matching tuple wins even when candidates span shards.
class ShardedTupleSpace {
 public:
  /// shard_count <= 0 picks a default based on hardware_concurrency.
  explicit ShardedTupleSpace(int shard_count = 0);

  ShardedTupleSpace(const ShardedTupleSpace&) = delete;
  ShardedTupleSpace& operator=(const ShardedTupleSpace&) = delete;

  /// Adds a tuple and wakes waiters that may match it (Linda `out`).
  void Out(Tuple tuple);

  /// Bulk out: inserts every tuple in order, taking each involved shard
  /// lock once instead of once per tuple. Sequence numbers are assigned in
  /// input order with the involved shard locks held, so matching order is
  /// identical to calling Out() in a loop.
  void OutBatch(std::vector<Tuple> tuples);

  /// Non-blocking in/rd (`inp` / `rdp`).
  bool TryIn(const Template& tmpl, Tuple* result);
  bool TryRd(const Template& tmpl, Tuple* result);

  /// Blocking in/rd: waits until a matching tuple exists (removing it when
  /// `remove`), or until Close() is called. Returns false only on close.
  bool WaitIn(const Template& tmpl, Tuple* result, bool remove);

  /// Wakes every waiter and makes all current and future WaitIn calls
  /// return false. Used for shutdown and deadlock cancellation.
  void Close();
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Number of matching tuples currently in the space.
  size_t CountMatches(const Template& tmpl);

  /// Total number of tuples across all shards.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Removes and returns every tuple in global FIFO order. Callers must
  /// guarantee no concurrent mutators (used after the worker threads join).
  std::vector<Tuple> TakeAllInOrder();

  /// --- deadlock-watchdog instrumentation (see Runtime::RunReal) ---
  /// Number of threads currently parked inside WaitIn.
  int waiters() const { return waiters_.load(std::memory_order_acquire); }
  /// Monotone counter bumped by every publish (Out). A watchdog that sees
  /// waiters == live_threads and an unchanged epoch across two observations
  /// is looking at a true deadlock: nobody can publish, nobody can wake.
  uint64_t publish_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }
  /// Telemetry: how many operations took the all-shard slow path.
  uint64_t cross_shard_ops() const {
    return cross_shard_ops_.load(std::memory_order_relaxed);
  }

 private:
  struct Stored {
    Tuple tuple;
    uint64_t sequence;
  };
  using Bucket = std::list<Stored>;
  using BucketMap = std::map<BucketKey, Bucket, BucketKeyLess>;

  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    BucketMap buckets;
    // Bumped under mu by every Out into this shard; the per-shard wait
    // predicate, so a shard-local waiter can never miss a publish.
    uint64_t generation = 0;
  };

  size_t ShardIndex(const BucketKeyView& key) const;

  /// Searches one shard (its mu held by the caller) for the oldest match;
  /// removes it when `remove`. Returns true on match.
  bool FindInShardLocked(Shard& shard, const Template& tmpl, Tuple* result,
                         bool remove);

  /// The cross-shard pass: locks every shard, finds the globally oldest
  /// match. Used by formal-string-first templates.
  bool FindAcrossShards(const Template& tmpl, Tuple* result, bool remove);

  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> next_sequence_{0};
  std::atomic<size_t> size_{0};
  std::atomic<bool> closed_{false};
  std::atomic<int> waiters_{0};
  std::atomic<uint64_t> epoch_{0};
  std::atomic<int> cross_waiters_{0};
  std::atomic<uint64_t> cross_shard_ops_{0};

  // Cross-shard waiters park here; Out bumps epoch_ and notifies under
  // global_mu_ (only when cross_waiters_ > 0), so the epoch check under
  // global_mu_ makes missed wakeups impossible.
  std::mutex global_mu_;
  std::condition_variable global_cv_;
};

}  // namespace fpdm::plinda

#endif  // FPDM_PLINDA_SHARDED_SPACE_H_
