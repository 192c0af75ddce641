#include "plinda/sharded_space.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <thread>

namespace fpdm::plinda {

namespace {

int DefaultShardCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned n = hw == 0 ? 8 : 2 * hw;
  return static_cast<int>(std::clamp(n, 4u, 64u));
}

}  // namespace

ShardedTupleSpace::ShardedTupleSpace(int shard_count) {
  const int n = shard_count > 0 ? shard_count : DefaultShardCount();
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

size_t ShardedTupleSpace::ShardIndex(const BucketKeyView& key) const {
  // Shared routing function (tuple_space.h): in-process shard striping uses
  // the same deterministic mix as the multi-server placement. Any hash works
  // semantically — matching is FIFO on a global sequence — but one function
  // means one place to reason about skew.
  return BucketStripeIndex(key, shards_.size());
}

void ShardedTupleSpace::Out(Tuple tuple) {
  const BucketKeyView key = BucketKeyFor(tuple);
  Shard& shard = *shards_[ShardIndex(key)];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    // Sequence assignment under the shard lock keeps every bucket list
    // sorted by sequence (two outs into one shard serialize here), which
    // FindInShardLocked's first-match-is-oldest scan relies on.
    const uint64_t seq = next_sequence_.fetch_add(1, std::memory_order_relaxed);
    auto it = shard.buckets.find(key);
    if (it == shard.buckets.end()) {
      it = shard.buckets
               .emplace(BucketKey{key.first, std::string(key.second)}, Bucket{})
               .first;
    }
    it->second.push_back(Stored{std::move(tuple), seq});
    ++shard.generation;
    size_.fetch_add(1, std::memory_order_release);
  }
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  shard.cv.notify_all();
  if (cross_waiters_.load(std::memory_order_seq_cst) > 0) {
    // Serialize with cross-shard waiters' epoch check (see WaitIn).
    std::lock_guard<std::mutex> g(global_mu_);
    global_cv_.notify_all();
  }
}

void ShardedTupleSpace::OutBatch(std::vector<Tuple> tuples) {
  if (tuples.empty()) return;
  if (tuples.size() == 1) {
    Out(std::move(tuples.front()));
    return;
  }
  // Which shards does this batch touch? Lock exactly those, in index order
  // (the same order FindAcrossShards uses, so no lock cycle is possible).
  std::vector<size_t> shard_of(tuples.size());
  std::vector<bool> involved(shards_.size(), false);
  for (size_t i = 0; i < tuples.size(); ++i) {
    shard_of[i] = ShardIndex(BucketKeyFor(tuples[i]));
    involved[shard_of[i]] = true;
  }
  std::vector<std::unique_lock<std::mutex>> locks;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (involved[s]) locks.emplace_back(shards_[s]->mu);
  }
  // With every involved shard locked, per-tuple sequence assignment in
  // input order keeps each bucket list sequence-sorted even against
  // concurrent single Outs (they serialize on their shard's lock).
  for (size_t i = 0; i < tuples.size(); ++i) {
    Shard& shard = *shards_[shard_of[i]];
    const BucketKeyView key = BucketKeyFor(tuples[i]);
    const uint64_t seq = next_sequence_.fetch_add(1, std::memory_order_relaxed);
    auto it = shard.buckets.find(key);
    if (it == shard.buckets.end()) {
      it = shard.buckets
               .emplace(BucketKey{key.first, std::string(key.second)}, Bucket{})
               .first;
    }
    it->second.push_back(Stored{std::move(tuples[i]), seq});
    ++shard.generation;
  }
  size_.fetch_add(tuples.size(), std::memory_order_release);
  locks.clear();
  epoch_.fetch_add(tuples.size(), std::memory_order_seq_cst);
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (involved[s]) shards_[s]->cv.notify_all();
  }
  if (cross_waiters_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> g(global_mu_);
    global_cv_.notify_all();
  }
}

bool ShardedTupleSpace::FindInShardLocked(Shard& shard, const Template& tmpl,
                                          Tuple* result, bool remove) {
  BucketMap::iterator best_bucket = shard.buckets.end();
  Bucket::iterator best_it;
  uint64_t best_seq = std::numeric_limits<uint64_t>::max();

  auto scan = [&](BucketMap::iterator bucket_it) {
    Bucket& bucket = bucket_it->second;
    for (auto it = bucket.begin(); it != bucket.end(); ++it) {
      if (it->sequence < best_seq && Matches(tmpl, it->tuple)) {
        best_seq = it->sequence;
        best_bucket = bucket_it;
        best_it = it;
        break;  // bucket list is sequence-sorted; first match is oldest
      }
    }
  };

  BucketKeyView key;
  if (SingleBucketKeyFor(tmpl, &key)) {
    auto it = shard.buckets.find(key);
    if (it != shard.buckets.end()) scan(it);
  } else {
    const BucketKeyView lo{tmpl.fields.size(), std::string_view()};
    for (auto it = shard.buckets.lower_bound(lo);
         it != shard.buckets.end() && it->first.first == tmpl.fields.size();
         ++it) {
      scan(it);
    }
  }
  if (best_bucket == shard.buckets.end()) return false;
  if (result != nullptr) {
    *result = remove ? std::move(best_it->tuple) : best_it->tuple;
  }
  if (remove) {
    best_bucket->second.erase(best_it);
    if (best_bucket->second.empty()) shard.buckets.erase(best_bucket);
    size_.fetch_sub(1, std::memory_order_release);
  }
  return true;
}

bool ShardedTupleSpace::FindAcrossShards(const Template& tmpl, Tuple* result,
                                         bool remove) {
  cross_shard_ops_.fetch_add(1, std::memory_order_relaxed);
  // Lock every shard in index order (slow paths can't deadlock each other;
  // fast paths take a single lock, so no cycle is possible).
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) locks.emplace_back(shard->mu);

  Shard* best_shard = nullptr;
  BucketMap::iterator best_bucket;
  Bucket::iterator best_it;
  uint64_t best_seq = std::numeric_limits<uint64_t>::max();
  const size_t arity = tmpl.fields.size();
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    const BucketKeyView lo{arity, std::string_view()};
    for (auto bucket_it = shard.buckets.lower_bound(lo);
         bucket_it != shard.buckets.end() && bucket_it->first.first == arity;
         ++bucket_it) {
      for (auto it = bucket_it->second.begin(); it != bucket_it->second.end();
           ++it) {
        if (it->sequence < best_seq && Matches(tmpl, it->tuple)) {
          best_seq = it->sequence;
          best_shard = &shard;
          best_bucket = bucket_it;
          best_it = it;
          break;
        }
      }
    }
  }
  if (best_shard == nullptr) return false;
  if (result != nullptr) {
    *result = remove ? std::move(best_it->tuple) : best_it->tuple;
  }
  if (remove) {
    best_bucket->second.erase(best_it);
    if (best_bucket->second.empty()) best_shard->buckets.erase(best_bucket);
    size_.fetch_sub(1, std::memory_order_release);
  }
  return true;
}

bool ShardedTupleSpace::TryIn(const Template& tmpl, Tuple* result) {
  BucketKeyView key;
  if (!SingleBucketKeyFor(tmpl, &key)) {
    return FindAcrossShards(tmpl, result, /*remove=*/true);
  }
  Shard& shard = *shards_[ShardIndex(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return FindInShardLocked(shard, tmpl, result, /*remove=*/true);
}

bool ShardedTupleSpace::TryRd(const Template& tmpl, Tuple* result) {
  BucketKeyView key;
  if (!SingleBucketKeyFor(tmpl, &key)) {
    return FindAcrossShards(tmpl, result, /*remove=*/false);
  }
  Shard& shard = *shards_[ShardIndex(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return FindInShardLocked(shard, tmpl, result, /*remove=*/false);
}

bool ShardedTupleSpace::WaitIn(const Template& tmpl, Tuple* result,
                               bool remove) {
  BucketKeyView key;
  if (SingleBucketKeyFor(tmpl, &key)) {
    // Fast path: every tuple this template can match lives in one bucket,
    // so both the search and the wait touch a single shard.
    Shard& shard = *shards_[ShardIndex(key)];
    std::unique_lock<std::mutex> lock(shard.mu);
    for (;;) {
      if (closed_.load(std::memory_order_acquire)) return false;
      if (FindInShardLocked(shard, tmpl, result, remove)) return true;
      const uint64_t gen = shard.generation;
      waiters_.fetch_add(1, std::memory_order_seq_cst);
      shard.cv.wait(lock, [&] {
        return closed_.load(std::memory_order_acquire) ||
               shard.generation != gen;
      });
      waiters_.fetch_sub(1, std::memory_order_seq_cst);
    }
  }
  // Slow path (formal string first field): search all shards; park on the
  // global condition variable between attempts. The epoch check under
  // global_mu_ closes the publish/wait race: any Out after the epoch read
  // makes the wait predicate true immediately.
  for (;;) {
    if (closed_.load(std::memory_order_acquire)) return false;
    const uint64_t e0 = epoch_.load(std::memory_order_seq_cst);
    if (FindAcrossShards(tmpl, result, remove)) return true;
    std::unique_lock<std::mutex> g(global_mu_);
    cross_waiters_.fetch_add(1, std::memory_order_seq_cst);
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    global_cv_.wait(g, [&] {
      return closed_.load(std::memory_order_acquire) ||
             epoch_.load(std::memory_order_seq_cst) != e0;
    });
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
    cross_waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

void ShardedTupleSpace::Close() {
  closed_.store(true, std::memory_order_seq_cst);
  // Taking each lock before notifying guarantees no waiter is between its
  // predicate check and its sleep when the notification fires.
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    ++shard->generation;
  }
  for (auto& shard : shards_) shard->cv.notify_all();
  { std::lock_guard<std::mutex> g(global_mu_); }
  global_cv_.notify_all();
}

size_t ShardedTupleSpace::CountMatches(const Template& tmpl) {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) locks.emplace_back(shard->mu);
  size_t count = 0;
  const size_t arity = tmpl.fields.size();
  for (auto& shard : shards_) {
    const BucketKeyView lo{arity, std::string_view()};
    for (auto it = shard->buckets.lower_bound(lo);
         it != shard->buckets.end() && it->first.first == arity; ++it) {
      for (const Stored& stored : it->second) {
        if (Matches(tmpl, stored.tuple)) ++count;
      }
    }
  }
  return count;
}

std::vector<Tuple> ShardedTupleSpace::TakeAllInOrder() {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& shard : shards_) locks.emplace_back(shard->mu);
  std::vector<std::pair<uint64_t, Tuple>> entries;
  entries.reserve(size());
  for (auto& shard : shards_) {
    for (auto& [key, bucket] : shard->buckets) {
      for (Stored& stored : bucket) {
        entries.emplace_back(stored.sequence, std::move(stored.tuple));
      }
    }
    shard->buckets.clear();
  }
  size_.store(0, std::memory_order_release);
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Tuple> tuples;
  tuples.reserve(entries.size());
  for (auto& [seq, tuple] : entries) tuples.push_back(std::move(tuple));
  return tuples;
}

}  // namespace fpdm::plinda
