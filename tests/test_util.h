#ifndef LIPSTICK_TESTS_TEST_UTIL_H_
#define LIPSTICK_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "pig/interpreter.h"
#include "pig/parser.h"
#include "provenance/graph.h"
#include "provenance/snapshot.h"
#include "relational/value.h"

namespace lipstick::testing {

/// Materializes a traversal span (ParentsOf / ChildrenOf / parents()) for
/// gtest container matchers.
inline std::vector<NodeId> ToVec(std::span<const NodeId> ids) {
  return std::vector<NodeId>(ids.begin(), ids.end());
}

/// A read snapshot of `graph`, sealed or not: the queries that need the
/// children index check sealing themselves and report kInvalidArgument.
inline GraphSnapshot Snap(const ProvenanceGraph& graph) {
  return GraphSnapshot::CaptureForParents(graph);
}

/// EXPECT that a Status/Result is OK, printing the message otherwise.
#define LIPSTICK_EXPECT_OK(expr)                        \
  do {                                                  \
    auto _st = (expr);                                  \
    EXPECT_TRUE(_st.ok()) << _st.ToString();            \
  } while (0)

#define LIPSTICK_ASSERT_OK(expr)                        \
  do {                                                  \
    auto _st = (expr);                                  \
    ASSERT_TRUE(_st.ok()) << _st.ToString();            \
  } while (0)

/// Shorthand value constructors for test literals.
inline Value I(int64_t v) { return Value::Int(v); }
inline Value D(double v) { return Value::Double(v); }
inline Value S(const std::string& v) { return Value::String(v); }
inline Value B(bool v) { return Value::Bool(v); }

/// Builds a tuple from values.
inline Tuple T(std::vector<Value> values) { return Tuple(std::move(values)); }

/// Builds a flat schema from (name, type) pairs.
inline SchemaPtr MakeSchema(
    std::initializer_list<std::pair<std::string, FieldType>> fields) {
  std::vector<Field> fs;
  for (const auto& [name, type] : fields) fs.emplace_back(name, type);
  return Schema::Make(std::move(fs));
}

/// Builds a relation with auto-annotated tuples (annotations left empty).
inline Relation MakeRelation(const std::string& name, SchemaPtr schema,
                             std::vector<Tuple> tuples) {
  Relation rel(name, std::move(schema));
  for (Tuple& t : tuples) rel.bag.Add(std::move(t));
  return rel;
}

/// Parses and runs `source` against the given environment; returns the
/// relation bound to `result_name`.
inline Result<Relation> RunPig(const std::string& source,
                               pig::Environment* env,
                               const std::string& result_name,
                               const pig::UdfRegistry* udfs = nullptr,
                               ShardWriter* writer = nullptr) {
  static const pig::UdfRegistry* kEmpty = new pig::UdfRegistry();
  LIPSTICK_ASSIGN_OR_RETURN(pig::Program program,
                            pig::ParseProgram(source));
  pig::Interpreter interp(udfs != nullptr ? udfs : kEmpty);
  LIPSTICK_RETURN_IF_ERROR(interp.Run(program, env, writer));
  LIPSTICK_ASSIGN_OR_RETURN(const Relation* rel, env->Lookup(result_name));
  return *rel;
}

/// Collects one column of a bag as values (by field index).
inline std::vector<Value> Column(const Bag& bag, size_t idx) {
  std::vector<Value> out;
  for (const AnnotatedTuple& t : bag) out.push_back(t.tuple.at(idx));
  return out;
}

}  // namespace lipstick::testing

#endif  // LIPSTICK_TESTS_TEST_UTIL_H_
