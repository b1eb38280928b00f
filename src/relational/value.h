#ifndef LIPSTICK_RELATIONAL_VALUE_H_
#define LIPSTICK_RELATIONAL_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "relational/schema.h"

namespace lipstick {

class Bag;
class Tuple;
using BagPtr = std::shared_ptr<const Bag>;
using TuplePtr = std::shared_ptr<const Tuple>;

/// Opaque provenance annotation attached to each tuple: a node id in a
/// ProvenanceGraph. The relational layer treats it as an uninterpreted
/// 64-bit handle; kNoProvenance means tracking is off for this tuple.
using ProvAnnotation = uint64_t;
inline constexpr ProvAnnotation kNoProvenance = 0;

/// A dynamically-typed value of the nested relational model: null, scalar,
/// nested bag, or nested tuple.
class Value {
 public:
  struct NullT {};

  Value() : repr_(NullT{}) {}
  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Repr(b)); }
  static Value Int(int64_t v) { return Value(Repr(v)); }
  static Value Double(double v) { return Value(Repr(v)); }
  static Value String(std::string s) { return Value(Repr(std::move(s))); }
  static Value OfBag(BagPtr bag) { return Value(Repr(std::move(bag))); }
  static Value OfTuple(TuplePtr t) { return Value(Repr(std::move(t))); }

  bool is_null() const { return std::holds_alternative<NullT>(repr_); }
  bool is_bool() const { return std::holds_alternative<bool>(repr_); }
  bool is_int() const { return std::holds_alternative<int64_t>(repr_); }
  bool is_double() const { return std::holds_alternative<double>(repr_); }
  bool is_numeric() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(repr_); }
  bool is_bag() const { return std::holds_alternative<BagPtr>(repr_); }
  bool is_tuple() const { return std::holds_alternative<TuplePtr>(repr_); }

  bool bool_value() const { return std::get<bool>(repr_); }
  int64_t int_value() const { return std::get<int64_t>(repr_); }
  double double_value() const { return std::get<double>(repr_); }
  const std::string& string_value() const {
    return std::get<std::string>(repr_);
  }
  const BagPtr& bag() const { return std::get<BagPtr>(repr_); }
  const TuplePtr& tuple() const { return std::get<TuplePtr>(repr_); }

  /// Numeric value widened to double (int or double fields).
  double AsDouble() const {
    return is_int() ? static_cast<double>(int_value()) : double_value();
  }

  /// Total order over values: first by kind, then by content. Bags compare
  /// as sorted multisets (deep, potentially expensive; used by DISTINCT /
  /// ORDER / group keys, which in practice are scalar).
  int Compare(const Value& other) const;
  bool Equals(const Value& other) const { return Compare(other) == 0; }

  /// Deep content hash, consistent with Equals.
  size_t Hash() const;

  std::string ToString() const;

 private:
  using Repr =
      std::variant<NullT, bool, int64_t, double, std::string, BagPtr, TuplePtr>;
  explicit Value(Repr repr) : repr_(std::move(repr)) {}

  Repr repr_;
};

inline bool operator==(const Value& a, const Value& b) { return a.Equals(b); }
inline bool operator!=(const Value& a, const Value& b) { return !a.Equals(b); }

/// An ordered list of values; field names live in the companion Schema.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t size() const { return values_.size(); }
  const Value& at(size_t i) const { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }
  std::vector<Value>& mutable_values() { return values_; }

  void Append(Value v) { values_.push_back(std::move(v)); }

  int Compare(const Tuple& other) const;
  bool Equals(const Tuple& other) const { return Compare(other) == 0; }
  size_t Hash() const;

  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

/// A tuple paired with its provenance annotation (a graph node id).
struct AnnotatedTuple {
  Tuple tuple;
  ProvAnnotation annot = kNoProvenance;

  AnnotatedTuple() = default;
  AnnotatedTuple(Tuple t, ProvAnnotation a) : tuple(std::move(t)), annot(a) {}
};

/// An unordered bag (multiset) of annotated tuples — the Pig Latin relation
/// payload. Duplicate tuples are physically retained, each with its own
/// annotation, preserving bag semantics.
class Bag {
 public:
  Bag() = default;
  explicit Bag(std::vector<AnnotatedTuple> tuples)
      : tuples_(std::move(tuples)) {}

  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  const AnnotatedTuple& at(size_t i) const { return tuples_[i]; }
  const std::vector<AnnotatedTuple>& tuples() const { return tuples_; }
  std::vector<AnnotatedTuple>& mutable_tuples() { return tuples_; }

  void Add(Tuple t, ProvAnnotation a = kNoProvenance) {
    tuples_.emplace_back(std::move(t), a);
  }
  void Add(AnnotatedTuple t) { tuples_.push_back(std::move(t)); }
  void Reserve(size_t n) { tuples_.reserve(n); }

  /// Multiset equality on tuple contents (annotations ignored); order-
  /// insensitive. Used heavily by tests.
  bool ContentEquals(const Bag& other) const;

  /// Deterministic content string: tuples sorted, annotations omitted.
  std::string ToString() const;

  std::vector<AnnotatedTuple>::const_iterator begin() const {
    return tuples_.begin();
  }
  std::vector<AnnotatedTuple>::const_iterator end() const {
    return tuples_.end();
  }

 private:
  std::vector<AnnotatedTuple> tuples_;
};

/// A named relation: schema + bag of annotated tuples.
struct Relation {
  std::string name;
  SchemaPtr schema;
  Bag bag;

  Relation() = default;
  Relation(std::string n, SchemaPtr s) : name(std::move(n)), schema(std::move(s)) {}
  Relation(std::string n, SchemaPtr s, Bag b)
      : name(std::move(n)), schema(std::move(s)), bag(std::move(b)) {}

  std::string ToString() const;
};

}  // namespace lipstick

#endif  // LIPSTICK_RELATIONAL_VALUE_H_
