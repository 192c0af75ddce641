#include "plinda/tuple_space.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

namespace fpdm::plinda {

BucketKeyView BucketKeyFor(const Tuple& tuple) {
  if (!tuple.fields.empty() && TypeOf(tuple.fields[0]) == ValueType::kString) {
    return {tuple.fields.size(),
            std::string_view(std::get<std::string>(tuple.fields[0]))};
  }
  return {tuple.fields.size(), std::string_view()};
}

bool SingleBucketKeyFor(const Template& tmpl, BucketKeyView* key) {
  const size_t arity = tmpl.fields.size();
  if (arity == 0) {
    *key = {0, std::string_view()};
    return true;
  }
  const TemplateField& first = tmpl.fields[0];
  if (!first.is_formal) {
    // An actual first field pins the bucket: the matching tuple's first
    // field equals it, so it is the string's bucket — or the empty-key
    // bucket, where every non-string-first tuple lives.
    *key = {arity, TypeOf(first.actual) == ValueType::kString
                       ? std::string_view(std::get<std::string>(first.actual))
                       : std::string_view()};
    return true;
  }
  if (first.formal_type != ValueType::kString) {
    // A formal int/double first field only matches non-string-first tuples,
    // which all live in the empty-key bucket.
    *key = {arity, std::string_view()};
    return true;
  }
  // Formal string first field: any bucket of this arity may match.
  return false;
}

void TupleSpace::Out(Tuple tuple) {
  const BucketKeyView key = BucketKeyFor(tuple);
  auto it = buckets_.find(key);
  if (it == buckets_.end()) {
    it = buckets_
             .emplace(BucketKey{key.first, std::string(key.second)}, Bucket{})
             .first;
  }
  it->second.push_back(Stored{std::move(tuple), next_sequence_++});
  ++size_;
}

template <typename Map, typename Fn>
void TupleSpace::ForEachCandidateBucket(Map& buckets, const Template& tmpl,
                                        Fn&& fn) {
  BucketKeyView key;
  if (SingleBucketKeyFor(tmpl, &key)) {
    auto it = buckets.find(key);
    if (it != buckets.end()) fn(it);
    return;
  }
  // Formal string first field: scan every bucket of this arity.
  const size_t arity = tmpl.fields.size();
  const BucketKeyView lo{arity, std::string_view()};
  for (auto it = buckets.lower_bound(lo);
       it != buckets.end() && it->first.first == arity;) {
    auto current = it++;  // fn may erase `current`
    fn(current);
  }
}

bool TupleSpace::TryIn(const Template& tmpl, Tuple* result) {
  BucketMap::iterator best_bucket = buckets_.end();
  Bucket::iterator best_it;
  uint64_t best_seq = std::numeric_limits<uint64_t>::max();
  ForEachCandidateBucket(buckets_, tmpl, [&](BucketMap::iterator bucket_it) {
    Bucket& bucket = bucket_it->second;
    for (auto it = bucket.begin(); it != bucket.end(); ++it) {
      if (it->sequence < best_seq && Matches(tmpl, it->tuple)) {
        best_seq = it->sequence;
        best_bucket = bucket_it;
        best_it = it;
        break;  // bucket is FIFO-ordered; first match is oldest in bucket
      }
    }
  });
  if (best_bucket == buckets_.end()) return false;
  if (result != nullptr) *result = std::move(best_it->tuple);
  best_bucket->second.erase(best_it);
  if (best_bucket->second.empty()) buckets_.erase(best_bucket);
  --size_;
  return true;
}

bool TupleSpace::TryRd(const Template& tmpl, Tuple* result) const {
  const Tuple* best = nullptr;
  uint64_t best_seq = std::numeric_limits<uint64_t>::max();
  ForEachCandidateBucket(
      buckets_, tmpl, [&](BucketMap::const_iterator bucket_it) {
        for (const Stored& stored : bucket_it->second) {
          if (stored.sequence < best_seq && Matches(tmpl, stored.tuple)) {
            best_seq = stored.sequence;
            best = &stored.tuple;
            break;
          }
        }
      });
  if (best == nullptr) return false;
  if (result != nullptr) *result = *best;
  return true;
}

size_t TupleSpace::CountMatches(const Template& tmpl) const {
  size_t count = 0;
  ForEachCandidateBucket(buckets_, tmpl,
                         [&](BucketMap::const_iterator bucket_it) {
                           for (const Stored& stored : bucket_it->second) {
                             if (Matches(tmpl, stored.tuple)) ++count;
                           }
                         });
  return count;
}

void TupleSpace::Clear() {
  buckets_.clear();
  size_ = 0;
}

std::vector<Tuple> TupleSpace::TakeAllInOrder() {
  std::vector<std::pair<uint64_t, Tuple>> entries;
  entries.reserve(size_);
  for (auto& [key, bucket] : buckets_) {
    for (Stored& stored : bucket) {
      entries.emplace_back(stored.sequence, std::move(stored.tuple));
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Tuple> tuples;
  tuples.reserve(entries.size());
  for (auto& [seq, tuple] : entries) tuples.push_back(std::move(tuple));
  Clear();
  return tuples;
}

namespace {

constexpr char kCheckpointMagic[] = "fpdmckpt1:";

}  // namespace

std::string TupleSpace::Checkpoint() const {
  // Tuples are written in global sequence order so that Restore reproduces
  // the FIFO matching order exactly.
  std::vector<const Stored*> all;
  all.reserve(size_);
  for (const auto& [key, bucket] : buckets_) {
    for (const Stored& stored : bucket) all.push_back(&stored);
  }
  std::sort(all.begin(), all.end(), [](const Stored* a, const Stored* b) {
    return a->sequence < b->sequence;
  });
  std::string payload;
  for (const Stored* stored : all) SerializeTuple(stored->tuple, &payload);
  // Header: magic, tuple count, payload bytes, FNV-1a of the payload. Every
  // strict prefix and every byte flip of the result fails at least one of
  // the header checks in Restore.
  char header[96];
  std::snprintf(header, sizeof(header), "%s%zu:%zu:%016llx:", kCheckpointMagic,
                all.size(), payload.size(),
                static_cast<unsigned long long>(Fnv1a64(payload)));
  return std::string(header) + payload;
}

bool TupleSpace::Restore(const std::string& checkpoint) {
  Clear();
  next_sequence_ = 0;
  const size_t magic_len = sizeof(kCheckpointMagic) - 1;
  if (checkpoint.compare(0, magic_len, kCheckpointMagic) != 0) return false;
  size_t pos = magic_len;
  auto parse_field = [&](size_t* value) {
    size_t v = 0;
    bool any = false;
    while (pos < checkpoint.size() && checkpoint[pos] >= '0' &&
           checkpoint[pos] <= '9') {
      v = v * 10 + static_cast<size_t>(checkpoint[pos] - '0');
      ++pos;
      any = true;
    }
    if (!any || pos >= checkpoint.size() || checkpoint[pos] != ':') {
      return false;
    }
    ++pos;
    *value = v;
    return true;
  };
  size_t count = 0, payload_bytes = 0;
  if (!parse_field(&count) || !parse_field(&payload_bytes)) return false;
  if (pos + 17 > checkpoint.size() || checkpoint[pos + 16] != ':') return false;
  uint64_t want_hash = 0;
  for (int i = 0; i < 16; ++i) {
    const char c = checkpoint[pos + static_cast<size_t>(i)];
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    want_hash = (want_hash << 4) | digit;
  }
  pos += 17;
  // The payload must span the rest of the string exactly: truncation and
  // trailing garbage both fail here.
  if (checkpoint.size() - pos != payload_bytes) return false;
  const std::string payload = checkpoint.substr(pos);
  if (Fnv1a64(payload) != want_hash) return false;
  size_t ppos = 0;
  size_t restored = 0;
  while (ppos < payload.size()) {
    Tuple tuple;
    if (!DeserializeTuple(payload, &ppos, &tuple)) {
      Clear();
      return false;
    }
    Out(std::move(tuple));
    ++restored;
  }
  if (restored != count) {
    Clear();
    return false;
  }
  return true;
}

}  // namespace fpdm::plinda
