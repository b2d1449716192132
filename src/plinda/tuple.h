#ifndef FPDM_PLINDA_TUPLE_H_
#define FPDM_PLINDA_TUPLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace fpdm::plinda {

/// A field value in a tuple. PLinda tuples are sequences of typed values;
/// we support the three types the data mining templates need. Structured
/// payloads (patterns, continuations) are carried as encoded strings.
using Value = std::variant<int64_t, double, std::string>;

enum class ValueType { kInt, kDouble, kString };

/// Returns the runtime type tag of a value.
ValueType TypeOf(const Value& value);

/// A tuple: an ordered sequence of typed values ("generative" shared memory
/// entity, Carriero & Gelernter).
struct Tuple {
  std::vector<Value> fields;

  bool operator==(const Tuple& other) const { return fields == other.fields; }
};

/// One field of a template: either an actual (a concrete value that must be
/// equal in a matching tuple) or a formal (a typed wildcard, the `?x` of
/// Linda, which binds to the tuple's value).
struct TemplateField {
  bool is_formal = false;
  ValueType formal_type = ValueType::kInt;  // meaningful when is_formal
  Value actual;                             // meaningful when !is_formal

  static TemplateField Actual(Value value);
  static TemplateField Formal(ValueType type);
};

/// A template (anti-tuple): what `in`/`rd` match against.
struct Template {
  std::vector<TemplateField> fields;
};

/// True when `tuple` matches `tmpl`: same arity, actuals equal, formals
/// type-compatible.
bool Matches(const Template& tmpl, const Tuple& tuple);

// --- Convenience constructors -------------------------------------------

/// Builds a tuple from values, e.g. MakeTuple("task", 3, pattern_string).
template <typename... Args>
Tuple MakeTuple(Args&&... args) {
  Tuple t;
  (t.fields.push_back(Value(std::forward<Args>(args))), ...);
  return t;
}

/// Template field helpers: use `A(v)` for actuals and `F(type)` for formals,
/// e.g. MakeTemplate(A("result"), F(ValueType::kString), F(ValueType::kDouble)).
inline TemplateField A(Value value) {
  return TemplateField::Actual(std::move(value));
}
inline TemplateField F(ValueType type) { return TemplateField::Formal(type); }

template <typename... Args>
Template MakeTemplate(Args&&... args) {
  Template t;
  (t.fields.push_back(std::forward<Args>(args)), ...);
  return t;
}

// --- Accessors -----------------------------------------------------------

/// Typed field accessors; abort (assert) on type mismatch. Benchmarks and
/// templates always know the shape of the tuples they exchange.
int64_t GetInt(const Tuple& tuple, size_t index);
double GetDouble(const Tuple& tuple, size_t index);
const std::string& GetString(const Tuple& tuple, size_t index);

// --- Serialization -------------------------------------------------------
//
// One binary codec carries tuples and templates everywhere they leave the
// process: wire frames, WAL records, server snapshots and tuple-space
// checkpoints. Byte layout:
//
//   tuple    := varint(arity) value*
//   value    := 'i' zigzag-varint(int64)
//             | 'd' 8 bytes: the IEEE-754 bit pattern, little-endian
//             | 's' varint(length) bytes
//   template := varint(arity) field*
//   field    := 'A' value | 'F' ('i' | 'd' | 's')
//
// A varint is unsigned LEB128 (7 bits per byte, low group first, high bit
// set on every byte but the last; at most 10 bytes). Zigzag maps signed to
// unsigned so small negative ints stay short: 0, -1, 1, -2 -> 0, 1, 2, 3.

/// Appends the binary encoding of `tuple` to `out`.
void SerializeTuple(const Tuple& tuple, std::string* out);

/// Parses one tuple starting at *pos; advances *pos. Returns false on
/// malformed input: an unknown tag, a varint longer than 10 bytes or
/// overflowing 64 bits, or an arity or string length that the remaining
/// bytes cannot hold (rejected before anything is allocated for it). Takes
/// a view so wire decoders can parse tuples in place out of a received
/// frame without copying the bytes first.
bool DeserializeTuple(std::string_view data, size_t* pos, Tuple* tuple);

/// Appends the binary encoding of a template (anti-tuple): actuals use the
/// tuple value encoding, formals carry only a type tag.
void SerializeTemplate(const Template& tmpl, std::string* out);

/// Parses one template starting at *pos; advances *pos. Same rejection
/// rules and in-place reason as DeserializeTuple.
bool DeserializeTemplate(std::string_view data, size_t* pos, Template* tmpl);

/// 64-bit FNV-1a hash, one byte per step. This is the bucket-placement hash
/// (BucketStripeIndex, behind net::PlacementIndex): changing it moves
/// tuples between shard servers.
uint64_t Fnv1a64(std::string_view data);

/// Checksum of WAL records, server snapshots and tuple-space checkpoints:
/// FNV-1a taken a 64-bit little-endian word per step (h ^= word; h *=
/// prime), then the tail bytes one per step, then the length. Each step is
/// a bijection of the state for a fixed input and injective in the input
/// for a fixed state, so a corruption confined to one step's input (one
/// word or one tail byte), in particular any single-byte change, always
/// changes the result.
uint64_t Checksum64(std::string_view data);

/// Human-readable rendering for logs and test failures.
std::string ToString(const Tuple& tuple);

/// Human-readable rendering of a template; formals print as ?int / ?double /
/// ?string. Used by the runtime's deadlock diagnostics.
std::string ToString(const Template& tmpl);

}  // namespace fpdm::plinda

#endif  // FPDM_PLINDA_TUPLE_H_
