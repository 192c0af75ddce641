#ifndef FPDM_PLINDA_TUPLE_SPACE_H_
#define FPDM_PLINDA_TUPLE_SPACE_H_

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "plinda/tuple.h"

namespace fpdm::plinda {

/// The bucket key of the tuple-space index: (arity, first-field string key).
/// Tuples whose first field is an actual string tag like "task" are indexed
/// under it; everything else shares the empty key of its arity.
using BucketKey = std::pair<size_t, std::string>;

/// Heterogeneous probe for BucketKey lookups: built from a string_view into
/// the template/tuple, so the hot TryIn/TryRd/CountMatches path allocates no
/// std::string per call.
using BucketKeyView = std::pair<size_t, std::string_view>;

/// Transparent (heterogeneous) ordering over BucketKey/BucketKeyView, so the
/// bucket index can be probed with a view without materializing a key.
struct BucketKeyLess {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    if (a.first != b.first) return a.first < b.first;
    return std::string_view(a.second) < std::string_view(b.second);
  }
};

/// Returns the bucket key of a tuple as a view into its first field (valid
/// while the tuple lives).
BucketKeyView BucketKeyFor(const Tuple& tuple);

/// Returns the single bucket key a template with an actual first field can
/// match, or nullopt-equivalent via `*single=false` when the first field is
/// formal (the template may match any bucket of its arity).
bool SingleBucketKeyFor(const Template& tmpl, BucketKeyView* key);

/// The associative shared memory of Linda, and the one storage and matching
/// engine of every backend. Not thread-safe by itself: the simulated NOW
/// runtime serializes all access (simulated processes run one at a time),
/// ExecutionMode::kRealParallel wraps it in ConcurrentTupleSpace (one mutex),
/// and the distributed server owns one on its single serve thread.
///
/// Matching is FIFO among matching tuples (oldest `out` wins), which keeps
/// the simulated executions deterministic.
class TupleSpace {
 public:
  TupleSpace() = default;

  // Copyable so transactions / checkpoints can snapshot it; movable so a
  // backend can take the space over with its sequence numbers intact.
  TupleSpace(const TupleSpace&) = default;
  TupleSpace& operator=(const TupleSpace&) = default;
  TupleSpace(TupleSpace&&) = default;
  TupleSpace& operator=(TupleSpace&&) = default;

  /// Adds a tuple (Linda `out`).
  void Out(Tuple tuple);

  /// Removes and returns the oldest matching tuple (`inp`). Returns false if
  /// no tuple matches.
  bool TryIn(const Template& tmpl, Tuple* result);

  /// Copies the oldest matching tuple without removing it (`rdp`).
  bool TryRd(const Template& tmpl, Tuple* result) const;

  /// Number of matching tuples currently in the space.
  size_t CountMatches(const Template& tmpl) const;

  /// Total number of tuples in the space.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Removes every tuple.
  void Clear();

  /// Removes and returns every tuple in FIFO (`out`) order: the server's
  /// TAKEALL, and the distributed supervisor's seeding of its server.
  std::vector<Tuple> TakeAllInOrder();

  /// Serializes the whole space (checkpoint-protected tuple space, §2.4.6).
  /// The encoding carries a self-describing header — magic, payload size,
  /// tuple count and a 64-bit FNV-1a checksum — so that Restore can reject
  /// any truncated or bit-flipped image instead of silently accepting a
  /// prefix that happens to end on a tuple boundary.
  std::string Checkpoint() const;

  /// Replaces the contents of the space with a checkpoint produced by
  /// Checkpoint(). Returns false (leaving the space empty) on corrupt,
  /// truncated or extended input; an empty string is not a valid checkpoint
  /// (Checkpoint() of an empty space emits a header).
  bool Restore(const std::string& checkpoint);

 private:
  struct Stored {
    Tuple tuple;
    uint64_t sequence;
  };

  // Tuples are bucketed by (arity, first-field string key) so that the common
  // case — templates whose first field is an actual string tag like "task" —
  // avoids scanning unrelated tuples. Tuples whose first field is not a
  // string live in the bucket with an empty key and are also consulted by
  // formal-first-field templates. The comparator is transparent: lookups
  // probe with BucketKeyView and never build a std::string.
  using Bucket = std::list<Stored>;
  using BucketMap = std::map<BucketKey, Bucket, BucketKeyLess>;

  // Calls `fn` on every bucket a template may match: exactly one when the
  // first field is an actual value; otherwise all buckets of that arity.
  template <typename Map, typename Fn>
  static void ForEachCandidateBucket(Map& buckets, const Template& tmpl,
                                     Fn&& fn);

  BucketMap buckets_;
  uint64_t next_sequence_ = 0;
  size_t size_ = 0;
};

}  // namespace fpdm::plinda

#endif  // FPDM_PLINDA_TUPLE_SPACE_H_
