#include "plinda/tuple_space.h"

#include <algorithm>
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

size_t BucketStripeIndex(const BucketKeyView& key, size_t n) {
  if (n <= 1) return 0;
  uint64_t h = Fnv1a64(key.second);
  h ^= key.first + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return static_cast<size_t>(h % n);
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

// Layout: magic, then three little-endian u64 words — checksum, tuple count,
// payload bytes — then the payload (the tuples' binary encodings). The
// checksum covers the count, the payload size and the payload.
constexpr std::string_view kCheckpointMagic = "fpdmckpt2:";
constexpr size_t kChecksumPos = kCheckpointMagic.size();
constexpr size_t kCountPos = kChecksumPos + 8;
constexpr size_t kPayloadBytesPos = kCountPos + 8;
constexpr size_t kCheckpointHeaderBytes = kPayloadBytesPos + 8;

void StoreU64(uint64_t v, char* p) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>(v >> (8 * i));
}

uint64_t LoadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

std::string TupleSpace::Checkpoint() const {
  std::string out;
  CheckpointInto(&out);
  return out;
}

void TupleSpace::CheckpointInto(std::string* out) const {
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
  // The header is reserved up front and patched once the payload is in
  // place, so the tuples are encoded straight into `out`.
  const size_t base = out->size();
  out->append(kCheckpointMagic);
  out->resize(base + kCheckpointHeaderBytes);
  for (const Stored* stored : all) SerializeTuple(stored->tuple, out);
  char* header = out->data() + base;
  StoreU64(all.size(), header + kCountPos);
  StoreU64(out->size() - base - kCheckpointHeaderBytes,
           header + kPayloadBytesPos);
  StoreU64(Checksum64(std::string_view(*out).substr(base + kCountPos)),
           header + kChecksumPos);
}

bool TupleSpace::Restore(std::string_view checkpoint) {
  Clear();
  next_sequence_ = 0;
  if (checkpoint.size() < kCheckpointHeaderBytes ||
      checkpoint.substr(0, kCheckpointMagic.size()) != kCheckpointMagic) {
    return false;
  }
  const char* header = checkpoint.data();
  const uint64_t want_checksum = LoadU64(header + kChecksumPos);
  const uint64_t count = LoadU64(header + kCountPos);
  const uint64_t payload_bytes = LoadU64(header + kPayloadBytesPos);
  // The payload must span the rest of the input exactly: truncation and
  // trailing garbage both fail here, before the checksum pass.
  const std::string_view payload = checkpoint.substr(kCheckpointHeaderBytes);
  if (payload.size() != payload_bytes) return false;
  if (Checksum64(checkpoint.substr(kCountPos)) != want_checksum) return false;
  size_t pos = 0;
  uint64_t restored = 0;
  while (pos < payload.size()) {
    Tuple tuple;
    if (!DeserializeTuple(payload, &pos, &tuple)) {
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
