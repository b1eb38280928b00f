#include <gtest/gtest.h>

#include <functional>

#include "common/rng.h"
#include "common/str_util.h"
#include "pig/interpreter.h"
#include "pig/parser.h"
#include "pig/udf.h"
#include "reference_join.h"
#include "test_util.h"

namespace lipstick::pig {
namespace {

using ::lipstick::testing::B;
using ::lipstick::testing::Column;
using ::lipstick::testing::D;
using ::lipstick::testing::I;
using ::lipstick::testing::MakeRelation;
using ::lipstick::testing::MakeSchema;
using ::lipstick::testing::RunPig;
using ::lipstick::testing::S;
using ::lipstick::testing::T;

class EvalTest : public ::testing::Test {
 protected:
  EvalTest() {
    env_.Bind("Cars",
              MakeRelation("Cars",
                           MakeSchema({{"CarId", FieldType::Int()},
                                       {"Model", FieldType::String()}}),
                           {T({I(1), S("Accord")}), T({I(2), S("Civic")}),
                            T({I(3), S("Civic")})}));
    env_.Bind("Requests",
              MakeRelation("Requests",
                           MakeSchema({{"UserId", FieldType::String()},
                                       {"BidId", FieldType::Int()},
                                       {"Model", FieldType::String()}}),
                           {T({S("P1"), I(1), S("Civic")})}));
  }

  pig::Environment env_;
};

TEST_F(EvalTest, ForEachProjection) {
  auto rel = RunPig("M = FOREACH Cars GENERATE Model;", &env_, "M");
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(rel->schema->ToString(), "(Model:chararray)");
  EXPECT_EQ(rel->bag.size(), 3u);  // bag semantics keep duplicates
  EXPECT_EQ(rel->bag.ToString(), "{('Accord'),('Civic'),('Civic')}");
}

TEST_F(EvalTest, ForEachComputedFieldsAndNaming) {
  auto rel = RunPig(
      "X = FOREACH Cars GENERATE CarId * 10 AS Big, CarId, $1;", &env_, "X");
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(rel->schema->field(0).name, "Big");
  EXPECT_EQ(rel->schema->field(1).name, "CarId");
  EXPECT_EQ(rel->schema->field(2).name, "Model");  // $1 inherits source name
  EXPECT_EQ(Column(rel->bag, 0)[0].int_value(), 10);
}

TEST_F(EvalTest, FilterSelectsMatching) {
  auto rel =
      RunPig("C = FILTER Cars BY Model == 'Civic';", &env_, "C");
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(rel->bag.size(), 2u);
  auto none = RunPig("N = FILTER Cars BY CarId > 100;", &env_, "N");
  EXPECT_EQ(none->bag.size(), 0u);
}

TEST_F(EvalTest, FilterConditionMustBeBoolean) {
  auto rel = RunPig("C = FILTER Cars BY CarId + 1;", &env_, "C");
  EXPECT_EQ(rel.status().code(), StatusCode::kTypeError);
}

TEST_F(EvalTest, GroupNestsTuples) {
  auto rel = RunPig("G = GROUP Cars BY Model;", &env_, "G");
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(rel->bag.size(), 2u);  // Accord, Civic
  // Schema: group key + bag named after the input relation.
  EXPECT_EQ(rel->schema->field(0).name, "group");
  EXPECT_EQ(rel->schema->field(1).name, "Cars");
  EXPECT_EQ(rel->schema->field(1).type.kind(), FieldType::Kind::kBag);
  for (const AnnotatedTuple& t : rel->bag) {
    if (t.tuple.at(0).string_value() == "Civic") {
      EXPECT_EQ(t.tuple.at(1).bag()->size(), 2u);
    } else {
      EXPECT_EQ(t.tuple.at(1).bag()->size(), 1u);
    }
  }
}

TEST_F(EvalTest, GroupAllMakesOneGroup) {
  auto rel = RunPig(
      "G = GROUP Cars ALL;\n"
      "N = FOREACH G GENERATE group, COUNT(Cars) AS n;",
      &env_, "N");
  LIPSTICK_ASSERT_OK(rel.status());
  ASSERT_EQ(rel->bag.size(), 1u);
  EXPECT_EQ(rel->bag.at(0).tuple.at(0).string_value(), "all");
  EXPECT_EQ(rel->bag.at(0).tuple.at(1).int_value(), 3);
}

TEST_F(EvalTest, GroupByMultipleKeysProducesTupleKey) {
  auto rel = RunPig("G = GROUP Cars BY (Model, CarId);", &env_, "G");
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(rel->bag.size(), 3u);
  EXPECT_TRUE(rel->bag.at(0).tuple.at(0).is_tuple());
}

TEST_F(EvalTest, CogroupCombinesInputs) {
  auto rel = RunPig("C = COGROUP Cars BY Model, Requests BY Model;", &env_,
                    "C");
  LIPSTICK_ASSERT_OK(rel.status());
  // Groups: Accord (1 car, 0 requests), Civic (2 cars, 1 request).
  ASSERT_EQ(rel->bag.size(), 2u);
  for (const AnnotatedTuple& t : rel->bag) {
    if (t.tuple.at(0).string_value() == "Civic") {
      EXPECT_EQ(t.tuple.at(1).bag()->size(), 2u);
      EXPECT_EQ(t.tuple.at(2).bag()->size(), 1u);
    } else {
      EXPECT_EQ(t.tuple.at(1).bag()->size(), 1u);
      EXPECT_EQ(t.tuple.at(2).bag()->size(), 0u);
    }
  }
}

TEST_F(EvalTest, JoinMatchesAndQualifiesFields) {
  auto rel =
      RunPig("J = JOIN Cars BY Model, Requests BY Model;", &env_, "J");
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(rel->bag.size(), 2u);  // two Civics x one request
  EXPECT_TRUE(rel->schema->FindField("Cars::CarId").has_value());
  EXPECT_TRUE(rel->schema->FindField("Requests::UserId").has_value());
  // Unqualified "Model" is ambiguous after the join.
  EXPECT_FALSE(rel->schema->FindField("Model").has_value());
}

TEST_F(EvalTest, JoinOnMultipleKeys) {
  env_.Bind("L", MakeRelation("L",
                              MakeSchema({{"a", FieldType::Int()},
                                          {"b", FieldType::Int()}}),
                              {T({I(1), I(2)}), T({I(1), I(3)})}));
  env_.Bind("R", MakeRelation("R",
                              MakeSchema({{"c", FieldType::Int()},
                                          {"d", FieldType::Int()}}),
                              {T({I(1), I(2)}), T({I(2), I(2)})}));
  auto rel = RunPig("J = JOIN L BY (a, b), R BY (c, d);", &env_, "J");
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(rel->bag.size(), 1u);
}

TEST_F(EvalTest, JoinProducesCrossProductPerKey) {
  env_.Bind("Dup", MakeRelation("Dup",
                                MakeSchema({{"Model", FieldType::String()}}),
                                {T({S("Civic")}), T({S("Civic")})}));
  auto rel = RunPig("J = JOIN Cars BY Model, Dup BY Model;", &env_, "J");
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(rel->bag.size(), 4u);  // 2 civic cars x 2 dup rows
}

TEST_F(EvalTest, CrossProduct) {
  auto rel = RunPig("X = CROSS Cars, Requests;", &env_, "X");
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(rel->bag.size(), 3u);
  EXPECT_TRUE(rel->schema->FindField("Cars::CarId").has_value());
  // Cross with an empty relation is empty.
  env_.Bind("E", MakeRelation("E", MakeSchema({{"x", FieldType::Int()}}), {}));
  auto empty = RunPig("X = CROSS Cars, E;", &env_, "X");
  EXPECT_EQ(empty->bag.size(), 0u);
}

TEST_F(EvalTest, UnionKeepsDuplicates) {
  auto rel = RunPig("U = UNION Cars, Cars;", &env_, "U");
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(rel->bag.size(), 6u);
}

TEST_F(EvalTest, UnionRequiresCompatibleSchemas) {
  auto rel = RunPig("U = UNION Cars, Requests;", &env_, "U");
  EXPECT_EQ(rel.status().code(), StatusCode::kTypeError);
}

TEST_F(EvalTest, DistinctRemovesDuplicates) {
  auto rel = RunPig(
      "M = FOREACH Cars GENERATE Model;\n"
      "DM = DISTINCT M;",
      &env_, "DM");
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(rel->bag.size(), 2u);
}

TEST_F(EvalTest, OrderBySortsStably) {
  auto rel = RunPig("O = ORDER Cars BY Model, CarId DESC;", &env_, "O");
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(rel->bag.at(0).tuple.at(1).string_value(), "Accord");
  EXPECT_EQ(rel->bag.at(1).tuple.at(0).int_value(), 3);  // Civic, id desc
  EXPECT_EQ(rel->bag.at(2).tuple.at(0).int_value(), 2);
}

TEST_F(EvalTest, LimitTruncates) {
  auto rel = RunPig(
      "O = ORDER Cars BY CarId;\n"
      "L = LIMIT O 2;",
      &env_, "L");
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(rel->bag.size(), 2u);
  auto all = RunPig("L2 = LIMIT Cars 99;", &env_, "L2");
  EXPECT_EQ(all->bag.size(), 3u);
}

TEST_F(EvalTest, AggregatesOverGroups) {
  auto rel = RunPig(
      "G = GROUP Cars BY Model;\n"
      "A = FOREACH G GENERATE group AS Model, COUNT(Cars) AS n,"
      "    MIN(Cars.CarId) AS lo, MAX(Cars.CarId) AS hi,"
      "    SUM(Cars.CarId) AS total, AVG(Cars.CarId) AS mean;",
      &env_, "A");
  LIPSTICK_ASSERT_OK(rel.status());
  for (const AnnotatedTuple& t : rel->bag) {
    if (t.tuple.at(0).string_value() == "Civic") {
      EXPECT_EQ(t.tuple.at(1).int_value(), 2);
      EXPECT_EQ(t.tuple.at(2).int_value(), 2);
      EXPECT_EQ(t.tuple.at(3).int_value(), 3);
      EXPECT_EQ(t.tuple.at(4).int_value(), 5);
      EXPECT_DOUBLE_EQ(t.tuple.at(5).double_value(), 2.5);
    }
  }
}

TEST_F(EvalTest, AggregateOverEmptyBag) {
  env_.Bind("E", MakeRelation("E", MakeSchema({{"x", FieldType::Int()}}), {}));
  auto rel = RunPig(
      "C = COGROUP Cars BY Model, E BY x;\n"
      "A = FOREACH C GENERATE group, COUNT(E) AS n, SUM(E.x) AS s,"
      "    MIN(E.x) AS lo;",
      &env_, "A");
  LIPSTICK_ASSERT_OK(rel.status());
  for (const AnnotatedTuple& t : rel->bag) {
    EXPECT_EQ(t.tuple.at(1).int_value(), 0);   // COUNT {} = 0
    EXPECT_EQ(t.tuple.at(2).int_value(), 0);   // SUM {} = 0
    EXPECT_TRUE(t.tuple.at(3).is_null());      // MIN {} = null
  }
}

TEST_F(EvalTest, AggregatesSkipNulls) {
  env_.Bind("R", MakeRelation("R",
                              MakeSchema({{"k", FieldType::Int()},
                                          {"x", FieldType::Int()}}),
                              {T({I(1), I(1)}), T({I(1), Value::Null()}),
                               T({I(1), I(3)}), T({I(2), Value::Null()})}));
  auto rel = RunPig(
      "G = GROUP R BY k;\n"
      "A = FOREACH G GENERATE group AS k, AVG(R.x) AS mean, SUM(R.x) AS s,"
      "    MIN(R.x) AS lo, MAX(R.x) AS hi, COUNT(R) AS n;",
      &env_, "A");
  LIPSTICK_ASSERT_OK(rel.status());
  ASSERT_EQ(rel->bag.size(), 2u);
  for (const AnnotatedTuple& t : rel->bag) {
    if (t.tuple.at(0).int_value() == 1) {
      // AVG divides by the two non-null values, not by the three tuples.
      EXPECT_DOUBLE_EQ(t.tuple.at(1).double_value(), 2.0);
      EXPECT_EQ(t.tuple.at(2).int_value(), 4);
      EXPECT_EQ(t.tuple.at(3).int_value(), 1);
      EXPECT_EQ(t.tuple.at(4).int_value(), 3);
      EXPECT_EQ(t.tuple.at(5).int_value(), 3);
    } else {
      // All null: no average, minimum or maximum; the sum stays 0.
      EXPECT_TRUE(t.tuple.at(1).is_null());
      EXPECT_EQ(t.tuple.at(2).int_value(), 0);
      EXPECT_TRUE(t.tuple.at(3).is_null());
      EXPECT_TRUE(t.tuple.at(4).is_null());
      EXPECT_EQ(t.tuple.at(5).int_value(), 1);
    }
  }
}

TEST_F(EvalTest, AggregateTypeErrors) {
  auto r1 = RunPig("A = FOREACH Cars GENERATE COUNT(CarId);", &env_, "A");
  EXPECT_EQ(r1.status().code(), StatusCode::kTypeError);  // not a bag
  auto r2 = RunPig(
      "G = GROUP Cars BY Model;\n"
      "A = FOREACH G GENERATE SUM(Cars) AS s;",
      &env_, "A");
  EXPECT_EQ(r2.status().code(), StatusCode::kTypeError);  // 2-attribute bag
  auto r3 = RunPig(
      "G = GROUP Cars BY Model;\n"
      "A = FOREACH G GENERATE SUM(Cars.Model) AS s;",
      &env_, "A");
  EXPECT_EQ(r3.status().code(), StatusCode::kTypeError);  // non-numeric
}

TEST_F(EvalTest, ArithmeticSemantics) {
  env_.Bind("One",
            MakeRelation("One", MakeSchema({{"x", FieldType::Int()}}),
                         {T({I(7)})}));
  auto rel = RunPig(
      "A = FOREACH One GENERATE x + 1 AS a, x - 1 AS b, x * 2 AS c,"
      "    x / 2 AS d, x % 2 AS e, x / 2.0 AS f, -x AS g, x / 0 AS z;",
      &env_, "A");
  LIPSTICK_ASSERT_OK(rel.status());
  const Tuple& t = rel->bag.at(0).tuple;
  EXPECT_EQ(t.at(0).int_value(), 8);
  EXPECT_EQ(t.at(1).int_value(), 6);
  EXPECT_EQ(t.at(2).int_value(), 14);
  EXPECT_EQ(t.at(3).int_value(), 3);  // Pig int division
  EXPECT_EQ(t.at(4).int_value(), 1);
  EXPECT_DOUBLE_EQ(t.at(5).double_value(), 3.5);
  EXPECT_EQ(t.at(6).int_value(), -7);
  EXPECT_TRUE(t.at(7).is_null());  // division by zero -> null
}

TEST_F(EvalTest, ComparisonAndLogic) {
  auto rel = RunPig(
      "A = FILTER Cars BY (CarId >= 2 AND CarId <= 3) OR Model == 'Accord';",
      &env_, "A");
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(rel->bag.size(), 3u);
  auto ne = RunPig("N = FILTER Cars BY Model != 'Civic';", &env_, "N");
  EXPECT_EQ(ne->bag.size(), 1u);
}

TEST_F(EvalTest, FlattenExpandsNestedBags) {
  auto rel = RunPig(
      "G = GROUP Cars BY Model;\n"
      "F = FOREACH G GENERATE group AS Model, FLATTEN(Cars);",
      &env_, "F");
  LIPSTICK_ASSERT_OK(rel.status());
  // Flatten restores one row per car, with the group key prefixed.
  EXPECT_EQ(rel->bag.size(), 3u);
  EXPECT_EQ(rel->schema->num_fields(), 3u);  // Model, CarId, Model
  // FLATTEN of an empty bag eliminates the tuple.
  env_.Bind("E", MakeRelation("E", MakeSchema({{"x", FieldType::Int()}}), {}));
  auto empty = RunPig(
      "C = COGROUP Cars BY Model, E BY x;\n"
      "F = FOREACH C GENERATE group, FLATTEN(E);",
      &env_, "F");
  LIPSTICK_ASSERT_OK(empty.status());
  EXPECT_EQ(empty->bag.size(), 0u);
}

TEST_F(EvalTest, UdfScalarAndBag) {
  UdfRegistry udfs;
  LIPSTICK_ASSERT_OK(udfs.Register(
      "Twice",
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::Int(args[0].int_value() * 2);
      },
      FieldType::Int()));
  auto rel = RunPig("A = FOREACH Cars GENERATE Twice(CarId) AS d;", &env_,
                    "A", &udfs);
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(Column(rel->bag, 0)[2].int_value(), 6);
}

TEST_F(EvalTest, UdfReturningBagWithFlatten) {
  UdfRegistry udfs;
  SchemaPtr out_schema = MakeSchema({{"v", FieldType::Int()}});
  LIPSTICK_ASSERT_OK(udfs.Register(
      "Explode",
      pig::UdfEntry{[](const std::vector<Value>& args) -> Result<Value> {
                      auto bag = std::make_shared<Bag>();
                      for (int64_t i = 0; i < args[0].int_value(); ++i) {
                        bag->Add(Tuple({Value::Int(i)}));
                      }
                      return Value::OfBag(bag);
                    },
                    [out_schema](const std::vector<FieldType>&) {
                      return Result<FieldType>(FieldType::Bag(out_schema));
                    }}));
  auto rel = RunPig("A = FOREACH Cars GENERATE FLATTEN(Explode(CarId));",
                    &env_, "A", &udfs);
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(rel->bag.size(), 1u + 2u + 3u);
}

TEST_F(EvalTest, UnknownFunctionAndRelationErrors) {
  auto r1 = RunPig("A = FOREACH Cars GENERATE Nope(CarId);", &env_, "A");
  EXPECT_EQ(r1.status().code(), StatusCode::kTypeError);
  auto r2 = RunPig("A = FILTER Ghost BY true;", &env_, "A");
  EXPECT_EQ(r2.status().code(), StatusCode::kExecutionError);
  auto r3 = RunPig("A = FOREACH Cars GENERATE Price;", &env_, "A");
  EXPECT_FALSE(r3.ok());
}

TEST_F(EvalTest, TypeErrorsKeepTheirStatusCodes) {
  // A field that does not resolve is kNotFound, in either operand.
  auto r1 = RunPig("A = FOREACH Cars GENERATE Price;", &env_, "A");
  EXPECT_EQ(r1.status().code(), StatusCode::kNotFound);
  auto r2 = RunPig("A = FOREACH Cars GENERATE CarId + Price;", &env_, "A");
  EXPECT_EQ(r2.status().code(), StatusCode::kNotFound);
  // A UDF whose return_type fails keeps the code it failed with.
  UdfRegistry udfs;
  LIPSTICK_ASSERT_OK(udfs.Register(
      "Inc",
      pig::UdfEntry{
          [](const std::vector<Value>& args) -> Result<Value> {
            return Value::Int(args[0].int_value() + 1);
          },
          [](const std::vector<FieldType>& args) -> Result<FieldType> {
            if (args.size() == 1 && args[0].kind() == FieldType::Kind::kInt) {
              return FieldType::Int();
            }
            return Status::InvalidArgument("Inc takes one int");
          }}));
  auto r3 = RunPig("A = FOREACH Cars GENERATE Inc(Model);", &env_, "A", &udfs);
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r3.status().message(),
            "line 1:27: bad call to UDF 'Inc': Inc takes one int");
  LIPSTICK_EXPECT_OK(
      RunPig("A = FOREACH Cars GENERATE Inc(CarId);", &env_, "A", &udfs)
          .status());
  // Every other expression error is a type error.
  auto r4 = RunPig("A = FOREACH Cars GENERATE Model + 1;", &env_, "A");
  EXPECT_EQ(r4.status().code(), StatusCode::kTypeError);
}

TEST_F(EvalTest, RebindingAccumulatesState) {
  auto rel = RunPig(
      "N = FOREACH Cars GENERATE CarId;\n"
      "N = UNION N, N;\n"
      "N = UNION N, N;\n",
      &env_, "N");
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(rel->bag.size(), 12u);
}

TEST_F(EvalTest, AnalyzeProgramInfersSchemas) {
  std::map<std::string, SchemaPtr> schemas;
  schemas["Cars"] = MakeSchema(
      {{"CarId", FieldType::Int()}, {"Model", FieldType::String()}});
  auto program = ParseProgram(
      "G = GROUP Cars BY Model;\n"
      "A = FOREACH G GENERATE group AS Model, COUNT(Cars) AS n;");
  LIPSTICK_ASSERT_OK(program.status());
  auto result = AnalyzeProgram(*program, schemas, nullptr);
  LIPSTICK_ASSERT_OK(result.status());
  EXPECT_EQ(result->at("A")->ToString(), "(Model:chararray, n:int)");
  EXPECT_EQ(result->at("G")->field(1).type.kind(), FieldType::Kind::kBag);
}

TEST_F(EvalTest, AnalyzeProgramDetectsErrorsWithoutData) {
  std::map<std::string, SchemaPtr> schemas;
  schemas["Cars"] = MakeSchema({{"CarId", FieldType::Int()}});
  auto program = ParseProgram("A = FOREACH Cars GENERATE Missing;");
  LIPSTICK_ASSERT_OK(program.status());
  EXPECT_FALSE(AnalyzeProgram(*program, schemas, nullptr).ok());
}

TEST_F(EvalTest, MultipleFlattensCrossProduct) {
  // Two FLATTENed bags in one GENERATE expand to their cross product.
  auto rel = RunPig(
      "GC = GROUP Cars BY Model;\n"
      "GR = GROUP Requests BY Model;\n"
      "J = JOIN GC BY group, GR BY group;\n"
      "F = FOREACH J GENERATE FLATTEN(Cars), FLATTEN(Requests);",
      &env_, "F");
  LIPSTICK_ASSERT_OK(rel.status());
  // Civic: 2 cars x 1 request = 2 rows; Accord group has no request.
  EXPECT_EQ(rel->bag.size(), 2u);
  EXPECT_EQ(rel->schema->num_fields(), 5u);
}

TEST_F(EvalTest, ThreeWayJoin) {
  env_.Bind("Colors",
            MakeRelation("Colors",
                         MakeSchema({{"Model", FieldType::String()},
                                     {"Color", FieldType::String()}}),
                         {T({S("Civic"), S("red")}),
                          T({S("Civic"), S("blue")})}));
  auto rel = RunPig(
      "J = JOIN Cars BY Model, Requests BY Model, Colors BY Model;", &env_,
      "J");
  LIPSTICK_ASSERT_OK(rel.status());
  // 2 civic cars x 1 request x 2 colors.
  EXPECT_EQ(rel->bag.size(), 4u);
  EXPECT_EQ(rel->schema->num_fields(), 2u + 3u + 2u);
}

/// ------------------ JOIN vs the nested-loop reference -------------------

/// A random JOIN input (id, k, m, x) over small domains, so keys repeat.
/// About one k and one x in eight is null. A `double_key` input holds k as
/// a double: a whole number, which equals the int, or now and then a .5
/// that matches nothing.
Relation RandomJoinInput(const std::string& name, bool double_key,
                         size_t size, Rng* rng) {
  Relation rel(name, MakeSchema({{"id", FieldType::Int()},
                                 {"k", double_key ? FieldType::Double()
                                                  : FieldType::Int()},
                                 {"m", FieldType::Int()},
                                 {"x", FieldType::Int()}}));
  for (size_t i = 0; i < size; ++i) {
    Value k;
    if (rng->Uniform(0, 7) != 0) {
      int64_t v = rng->Uniform(0, 4);
      k = double_key
              ? D(static_cast<double>(v) + (rng->Uniform(0, 5) == 0 ? 0.5 : 0))
              : I(v);
    }
    Value x = rng->Uniform(0, 7) == 0 ? Value() : I(rng->Uniform(0, 14));
    rel.bag.Add(T({I(static_cast<int64_t>(i)), k, I(rng->Uniform(0, 1)), x}));
  }
  return rel;
}

/// One way to key a join input: its Pig BY expression and the same key
/// computed directly.
struct JoinKeyForm {
  std::string pig;
  std::function<testing::JoinKey(const Tuple&)> key;
};

TEST(JoinReferenceTest, MatchesNestedLoopInOrderWithProvenance) {
  const JoinKeyForm by_k{"k", [](const Tuple& t) {
                           return testing::JoinKey{t.at(1)};
                         }};
  const JoinKeyForm by_k_m{"(k, m)", [](const Tuple& t) {
                             return testing::JoinKey{t.at(1), t.at(2)};
                           }};
  // Pig's int division truncates like C++'s, and null stays null.
  const JoinKeyForm by_expr{"(x - 1) / 3", [](const Tuple& t) {
                              testing::JoinKey key(1);
                              const Value& x = t.at(3);
                              if (!x.is_null()) {
                                key[0] = I((x.int_value() - 1) / 3);
                              }
                              return key;
                            }};
  // Per case, each input's key form (all of one arity).
  const std::vector<std::vector<const JoinKeyForm*>> key_sets = {
      {&by_k, &by_k},
      {&by_k_m, &by_k_m},
      {&by_expr, &by_k},
      {&by_k, &by_k, &by_k},
      {&by_k_m, &by_k_m, &by_k_m},
      {&by_k, &by_expr, &by_k},
  };
  // Input sizes: each input in turn the smallest, a tie, and an empty
  // input in every position.
  const std::vector<std::vector<size_t>> size_sets2 = {
      {3, 17}, {17, 3}, {9, 9}, {0, 12}, {12, 0}, {0, 0}};
  const std::vector<std::vector<size_t>> size_sets3 = {
      {2, 11, 14}, {11, 2, 14}, {11, 14, 2}, {7, 7, 9},
      {0, 8, 9},   {8, 0, 9},   {8, 9, 0}};
  const char* names[] = {"A", "B", "C"};

  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (const auto& forms : key_sets) {
      const auto& size_sets = forms.size() == 2 ? size_sets2 : size_sets3;
      for (const auto& sizes : size_sets) {
        SCOPED_TRACE(StrCat("seed ", seed, ", key ", forms[0]->pig, " x",
                            forms.size(), ", sizes ", sizes[0], "/",
                            sizes[1], sizes.size() > 2 ? "/" : "",
                            sizes.size() > 2 ? StrCat(sizes[2]) : ""));
        Rng rng(seed * 1000 + sizes[0] * 31 + sizes[1]);
        std::vector<Relation> inputs;
        std::vector<std::vector<testing::JoinKey>> keys(forms.size());
        std::vector<std::string> clauses;
        for (size_t in = 0; in < forms.size(); ++in) {
          // B holds k as a double, so int and double keys meet.
          inputs.push_back(
              RandomJoinInput(names[in], in == 1, sizes[in], &rng));
          for (const AnnotatedTuple& t : inputs.back().bag) {
            keys[in].push_back(forms[in]->key(t.tuple));
          }
          clauses.push_back(StrCat(names[in], " BY ", forms[in]->pig));
        }
        const std::string query =
            StrCat("J = JOIN ", Join(clauses, ", "), ";");
        std::vector<testing::JoinRow> rows = testing::ReferenceJoin(keys);

        // Untracked: the reference's tuples, in its order.
        pig::Environment env;
        for (const Relation& rel : inputs) env.Bind(rel.name, rel);
        auto plain = RunPig(query, &env, "J");
        LIPSTICK_ASSERT_OK(plain.status());
        ASSERT_EQ(plain->bag.size(), rows.size()) << query;
        for (size_t r = 0; r < rows.size(); ++r) {
          Tuple expected;
          for (size_t in = 0; in < rows[r].size(); ++in) {
            for (const Value& v : inputs[in].bag.at(rows[r][in]).tuple.values()) {
              expected.Append(v);
            }
          }
          ASSERT_EQ(plain->bag.at(r).tuple.ToString(), expected.ToString())
              << query << " row " << r;
        }

        // Tracked: every input tuple carries its own token; each output
        // tuple is a · node over the matched tuples' tokens in input
        // order, and node ids rise along the output.
        ProvenanceGraph graph;
        ShardWriter writer = graph.writer();
        pig::Environment tracked_env;
        std::vector<std::vector<NodeId>> tokens(inputs.size());
        for (size_t in = 0; in < inputs.size(); ++in) {
          const Relation& rel = inputs[in];
          Relation annotated(rel.name, rel.schema);
          for (size_t i = 0; i < rel.bag.size(); ++i) {
            tokens[in].push_back(writer.Token(StrCat(rel.name, i)));
            annotated.bag.Add(rel.bag.at(i).tuple, tokens[in].back());
          }
          tracked_env.Bind(rel.name, std::move(annotated));
        }
        auto tracked = RunPig(query, &tracked_env, "J", nullptr, &writer);
        LIPSTICK_ASSERT_OK(tracked.status());
        ASSERT_EQ(tracked->bag.size(), rows.size());
        NodeId last = 0;
        for (size_t r = 0; r < rows.size(); ++r) {
          const AnnotatedTuple& t = tracked->bag.at(r);
          EXPECT_EQ(t.tuple.ToString(), plain->bag.at(r).tuple.ToString());
          ASSERT_NE(t.annot, kNoProvenance);
          EXPECT_EQ(graph.node(t.annot).label(), NodeLabel::kTimes);
          std::vector<NodeId> expected_parents;
          for (size_t in = 0; in < rows[r].size(); ++in) {
            expected_parents.push_back(tokens[in][rows[r][in]]);
          }
          EXPECT_EQ(testing::ToVec(graph.ParentsOf(t.annot)),
                    expected_parents)
              << query << " row " << r;
          EXPECT_GT(t.annot, last) << query << " row " << r;
          last = t.annot;
        }
      }
    }
  }
}

TEST_F(EvalTest, GroupOfGroupNesting) {
  // Grouping a grouped relation: the nested bag itself contains bags.
  auto rel = RunPig(
      "G = GROUP Cars BY Model;\n"
      "C = FOREACH G GENERATE group AS Model, COUNT(Cars) AS n;\n"
      "G2 = GROUP C BY n;\n"
      "S = FOREACH G2 GENERATE group AS n, COUNT(C) AS models;",
      &env_, "S");
  LIPSTICK_ASSERT_OK(rel.status());
  // Counts: Accord->1 car, Civic->2 cars; so one model each per count.
  EXPECT_EQ(rel->bag.ToString(), "{(1,1),(2,1)}");
}

TEST_F(EvalTest, OrderByQualifiedFieldAfterJoin) {
  auto rel = RunPig(
      "J = JOIN Cars BY Model, Requests BY Model;\n"
      "O = ORDER J BY Cars::CarId DESC;",
      &env_, "O");
  LIPSTICK_ASSERT_OK(rel.status());
  ASSERT_EQ(rel->bag.size(), 2u);
  EXPECT_EQ(rel->bag.at(0).tuple.at(0).int_value(), 3);
  EXPECT_EQ(rel->bag.at(1).tuple.at(0).int_value(), 2);
}

TEST_F(EvalTest, PositionalRefsInFilter) {
  auto rel = RunPig("F = FILTER Cars BY $0 > 1 AND $1 == 'Civic';", &env_,
                    "F");
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(rel->bag.size(), 2u);
}

TEST_F(EvalTest, LimitZeroAndNegativeLimitParse) {
  auto rel = RunPig("L = LIMIT Cars 0;", &env_, "L");
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(rel->bag.size(), 0u);
}

TEST_F(EvalTest, StringComparisonOrdering) {
  auto rel = RunPig("F = FILTER Cars BY Model < 'B';", &env_, "F");
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(rel->bag.size(), 1u);  // only 'Accord'
}

TEST_F(EvalTest, SplitRoutesTuples) {
  auto rel = RunPig(
      "SPLIT Cars INTO Accords IF Model == 'Accord',"
      " Civics IF Model == 'Civic', LowIds IF CarId <= 2;",
      &env_, "Civics");
  LIPSTICK_ASSERT_OK(rel.status());
  EXPECT_EQ(rel->bag.size(), 2u);
  // A tuple can land in several targets (car 2 is a Civic with a low id)
  // or none; SPLIT copies, it does not partition.
  EXPECT_EQ(env_.Lookup("Accords").value()->bag.size(), 1u);
  EXPECT_EQ(env_.Lookup("LowIds").value()->bag.size(), 2u);
}

TEST_F(EvalTest, SplitErrors) {
  auto not_bool = RunPig("SPLIT Cars INTO A IF CarId, B IF true;", &env_,
                         "A");
  EXPECT_EQ(not_bool.status().code(), StatusCode::kTypeError);
  EXPECT_FALSE(ParseProgram("SPLIT Cars INTO A IF true;").ok());  // 1 target
  EXPECT_FALSE(ParseProgram("SPLIT Cars A IF true, B IF false;").ok());
  // "split" still works as a plain relation name on the left of '='.
  auto program = ParseProgram("split = FILTER Cars BY true;");
  LIPSTICK_ASSERT_OK(program.status());
  // SPLIT statements print and reparse.
  auto roundtrip =
      ParseProgram("SPLIT Cars INTO A IF CarId > 1, B IF CarId <= 1;");
  LIPSTICK_ASSERT_OK(roundtrip.status());
  auto again = ParseProgram(roundtrip->ToString());
  LIPSTICK_ASSERT_OK(again.status());
  EXPECT_EQ(roundtrip->ToString(), again->ToString());
}

TEST_F(EvalTest, IsNullPredicate) {
  env_.Bind("N", MakeRelation("N",
                              MakeSchema({{"a", FieldType::Int()},
                                          {"b", FieldType::Int()}}),
                              {T({I(1), Value::Null()}), T({I(2), I(5)})}));
  auto nulls = RunPig("R = FILTER N BY b IS NULL;", &env_, "R");
  LIPSTICK_ASSERT_OK(nulls.status());
  ASSERT_EQ(nulls->bag.size(), 1u);
  EXPECT_EQ(nulls->bag.at(0).tuple.at(0).int_value(), 1);
  auto non_nulls = RunPig("R = FILTER N BY b IS NOT NULL;", &env_, "R");
  LIPSTICK_ASSERT_OK(non_nulls.status());
  ASSERT_EQ(non_nulls->bag.size(), 1u);
  EXPECT_EQ(non_nulls->bag.at(0).tuple.at(0).int_value(), 2);
  // Printing round-trips.
  auto program = ParseProgram("R = FILTER N BY b IS NOT NULL;");
  LIPSTICK_ASSERT_OK(program.status());
  EXPECT_EQ(program->statements[0].condition->ToString(), "b IS NOT NULL");
  // Analysis: IS NULL of a bag is rejected.
  auto bad = RunPig(
      "G = GROUP N BY a;\nR = FILTER G BY N IS NULL;", &env_, "R");
  EXPECT_EQ(bad.status().code(), StatusCode::kTypeError);
}

TEST_F(EvalTest, PaperExample23DealerBidQuery) {
  // The running example of the paper (Example 2.3): state of Mdealer1 and
  // the bid-phase query, checked against the intermediate tables printed
  // in the paper.
  pig::Environment env;
  env.Bind("Cars", MakeRelation("Cars",
                                MakeSchema({{"CarId", FieldType::String()},
                                            {"Model", FieldType::String()}}),
                                {T({S("C1"), S("Accord")}),
                                 T({S("C2"), S("Civic")}),
                                 T({S("C3"), S("Civic")})}));
  env.Bind("SoldCars",
           MakeRelation("SoldCars",
                        MakeSchema({{"CarId", FieldType::String()},
                                    {"BidId", FieldType::String()}}),
                        {}));
  env.Bind("Requests",
           MakeRelation("Requests",
                        MakeSchema({{"UserId", FieldType::String()},
                                    {"BidId", FieldType::String()},
                                    {"Model", FieldType::String()}}),
                        {T({S("P1"), S("B1"), S("Civic")})}));
  const char* query = R"PIG(
ReqModel = FOREACH Requests GENERATE Model;
Inventory0 = JOIN Cars BY Model, ReqModel BY Model;
Inventory = FOREACH Inventory0 GENERATE Cars::CarId AS CarId,
                                        Cars::Model AS Model;
SoldInventory = JOIN Inventory BY CarId, SoldCars BY CarId;
CarsByModel = GROUP Inventory BY Model;
SoldByModel = GROUP SoldInventory BY Inventory::CarId;
NumCarsByModel = FOREACH CarsByModel
    GENERATE group AS Model, COUNT(Inventory) AS NumAvail;
)PIG";
  auto rel = RunPig(query, &env, "NumCarsByModel");
  LIPSTICK_ASSERT_OK(rel.status());

  // Paper: Inventory = {(C2,Civic),(C3,Civic)}.
  EXPECT_EQ(env.Lookup("Inventory").value()->bag.ToString(),
            "{('C2','Civic'),('C3','Civic')}");
  // Paper: SoldInventory is empty.
  EXPECT_EQ(env.Lookup("SoldInventory").value()->bag.size(), 0u);
  // Paper: NumCarsByModel = {(Civic, 2)}.
  EXPECT_EQ(rel->bag.ToString(), "{('Civic',2)}");
}

}  // namespace
}  // namespace lipstick::pig
