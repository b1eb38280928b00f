#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <typeinfo>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/timer.h"

namespace lipstick {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::NotFound("field x").WithContext("module dealer");
  EXPECT_EQ(s.ToString(), "NotFound: module dealer: field x");
  // WithContext on OK is a no-op.
  EXPECT_TRUE(Status::OK().WithContext("ctx").ok());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kParseError,
        StatusCode::kTypeError, StatusCode::kExecutionError,
        StatusCode::kIOError, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(7), 7);
}

Result<int> Doubler(Result<int> in) {
  LIPSTICK_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(Doubler(21).value(), 42);
  EXPECT_EQ(Doubler(Status::Internal("x")).status().code(),
            StatusCode::kInternal);
}

TEST(StrUtilTest, StrCat) {
  EXPECT_EQ(StrCat("a", 1, "-", 2.5), "a1-2.5");
  EXPECT_EQ(StrCat(), "");
}

/// What streaming `v` into a std::ostringstream prints: StrCat's contract.
template <typename T>
std::string Streamed(const T& v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

template <typename T>
void ExpectIntegerWidthMatchesStream() {
  using L = std::numeric_limits<T>;
  for (T v : {T{0}, T{1}, static_cast<T>(-1), L::min(), L::max()}) {
    EXPECT_EQ(StrCat(v), Streamed(v)) << typeid(T).name();
    std::string bracketed = "<";
    bracketed.append(Streamed(v)).append(">");
    EXPECT_EQ(StrCat("<", v, ">"), bracketed);
  }
}

TEST(StrUtilTest, StrCatPrintsWhatAStreamPrints) {
  // Characters print as characters, whatever their signedness.
  for (char c : {'a', '\0', '\x7f', '\xff'}) {
    EXPECT_EQ(StrCat(c), Streamed(c));
  }
  const signed char sc = -3;
  const unsigned char uc = 200;
  const uint8_t u8 = 'z';
  EXPECT_EQ(StrCat(sc), Streamed(sc));
  EXPECT_EQ(StrCat(uc), Streamed(uc));
  EXPECT_EQ(StrCat(u8), "z");
  EXPECT_EQ(StrCat(true, false), "10");
  ExpectIntegerWidthMatchesStream<short>();
  ExpectIntegerWidthMatchesStream<unsigned short>();
  ExpectIntegerWidthMatchesStream<int>();
  ExpectIntegerWidthMatchesStream<unsigned int>();
  ExpectIntegerWidthMatchesStream<long>();
  ExpectIntegerWidthMatchesStream<unsigned long>();
  ExpectIntegerWidthMatchesStream<long long>();
  ExpectIntegerWidthMatchesStream<unsigned long long>();
  ExpectIntegerWidthMatchesStream<int16_t>();
  ExpectIntegerWidthMatchesStream<uint32_t>();
  ExpectIntegerWidthMatchesStream<int64_t>();
  ExpectIntegerWidthMatchesStream<uint64_t>();
  ExpectIntegerWidthMatchesStream<size_t>();
  for (double d : {0.1, 1e-7, 1e300, -2.5, 0.0,
                   std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(StrCat(d), Streamed(d));
    EXPECT_EQ(StrCat(static_cast<float>(d)), Streamed(static_cast<float>(d)));
  }
  const char* cstr = "c-string";
  const char array[] = "array";
  char buffer[8] = {'b', 'u', 'f', '\0', 'x'};
  const std::string str = "string";
  const std::string_view view("view-not-nul-terminated", 4);
  EXPECT_EQ(StrCat(cstr, array, buffer, str, view),
            "c-stringarraybufstringview");
  EXPECT_EQ(StrCat(std::string(), std::string_view(), ""), "");
  const Status st = Status::NotFound("x");
  std::string bracketed = "[";
  bracketed.append(Streamed(st)).append("]");
  EXPECT_EQ(StrCat("[", st, "]"), bracketed);
  enum Unscoped { kSeven = 7 };
  EXPECT_EQ(StrCat(kSeven), Streamed(kSeven));
  // A name past the small-string buffer comes out whole.
  EXPECT_EQ(StrCat("dealer1.Cars", "[", 1234, "]"), "dealer1.Cars[1234]");
}

TEST(StrUtilTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  std::vector<std::string> parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StrUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("FOREACH"), "foreach");
  EXPECT_EQ(ToUpper("count"), "COUNT");
  EXPECT_TRUE(StartsWith("Lipstick", "Lip"));
  EXPECT_FALSE(StartsWith("Lip", "Lipstick"));
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, PickCoversAllElements) {
  Rng rng(13);
  std::vector<int> items{1, 2, 3, 4};
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Pick(items));
  EXPECT_EQ(seen.size(), items.size());
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(1);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());  // scaled views agree
}

}  // namespace
}  // namespace lipstick
