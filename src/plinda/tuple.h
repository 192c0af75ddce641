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

/// A template of all actuals, matching exactly `tuple`. Replaying a logged
/// removal with it takes the oldest tuple equal to the logged one, which is
/// the tuple the original in removed: the oldest equal duplicate is also the
/// oldest match of the original template.
Template ExactTemplate(const Tuple& tuple);

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

/// Appends a portable textual encoding of the tuple to `out` (used by the
/// checkpoint-protected tuple space).
void SerializeTuple(const Tuple& tuple, std::string* out);

/// Parses one tuple starting at *pos; advances *pos. Returns false on
/// malformed input. Takes a view so wire decoders can parse tuples in place
/// out of a received frame without copying the bytes first.
bool DeserializeTuple(std::string_view data, size_t* pos, Tuple* tuple);

/// Appends a portable textual encoding of a template (anti-tuple): actuals
/// use the tuple value encoding, formals carry only a type tag. Used by the
/// wire protocol of the distributed tuple-space server.
void SerializeTemplate(const Template& tmpl, std::string* out);

/// Parses one template starting at *pos; advances *pos. Returns false on
/// malformed input. Takes a view for the same in-place reason as
/// DeserializeTuple.
bool DeserializeTemplate(std::string_view data, size_t* pos, Template* tmpl);

/// 64-bit FNV-1a hash, used for checkpoint and WAL checksums.
uint64_t Fnv1a64(std::string_view data);

/// Human-readable rendering for logs and test failures.
std::string ToString(const Tuple& tuple);

/// Human-readable rendering of a template; formals print as ?int / ?double /
/// ?string. Used by the runtime's deadlock diagnostics.
std::string ToString(const Template& tmpl);

}  // namespace fpdm::plinda

#endif  // FPDM_PLINDA_TUPLE_H_
