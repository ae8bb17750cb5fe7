// JSON number codec differential (common/json.h). The codec is the wire
// format of both daemons, the checkpoint payload and the trace format, so
// its number path has a fixed contract:
//   - printing gives exactly the bytes of printf "%.0f" (integral values
//     below 1e15) or "%.17g" (everything else), in the C locale;
//   - parsing gives exactly the bits of strtod on the same token, accepts
//     what strtod accepts (a leading '+' included) and rejects non-finite
//     results.
// The prediction daemon's end-to-end reply check builds its expected text
// with the same dump_json_compact, so a format drift would pass it; this
// test compares against the C library directly.
#include "common/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace flaml {
namespace {

constexpr std::size_t kRandomCases = 1000000;

std::string printf_form(const char* format, double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, x);
  return buf;
}

// The reference printer: the snprintf formats the codec must reproduce.
std::string reference_number(double x) {
  const bool integral = x == std::floor(x) && std::fabs(x) < 1e15;
  return printf_form(integral ? "%.0f" : "%.17g", x);
}

std::string dump_number(double x) {
  return dump_json_compact(JsonValue::make_number(x));
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

double strtod_exact(const std::string& text) {
  char* end = nullptr;
  const double x = std::strtod(text.c_str(), &end);
  EXPECT_EQ(*end, '\0') << text;
  return x;
}

std::vector<double> edge_values() {
  const double two53 = 9007199254740992.0;
  std::vector<double> v = {
      0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.1, 1.0 / 3.0, 2.5, -2.5, 1e-7,
      123456.789, 1e15 - 1, 1e15, 1e15 + 1, -(1e15 - 1), -1e15,
      999999999999999.5, two53, two53 + 2, -two53, 1e16, 1e17, 1e21, 1e22,
      1e300, 1e-300, DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(DBL_MIN, 0.0), -std::nextafter(DBL_MIN, 0.0),
      std::nextafter(1e15, 0.0), std::nextafter(1e15, 2e15),
      std::nextafter(1.0, 2.0), std::nextafter(1.0, 0.0)};
  for (int e = -1074; e <= 1023; e += 7) v.push_back(std::ldexp(1.0, e));
  return v;
}

// Finite doubles from uniformly random bit patterns: every exponent and
// sign appears, subnormals included.
std::vector<double> random_bit_patterns(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> v;
  v.reserve(n);
  while (v.size() < n) {
    const double x = std::bit_cast<double>(rng());
    if (std::isfinite(x)) v.push_back(x);
  }
  return v;
}

// Integral and near-integral values around the integer branch's 1e15
// cut-over: random bit patterns rarely land there.
std::vector<double> scaled_integers(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> digits(-(1ll << 53), 1ll << 53);
  std::uniform_int_distribution<int> scale(0, 18);
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(digits(rng)) /
                     std::pow(10.0, static_cast<double>(scale(rng)));
    v.push_back(x);
  }
  return v;
}

void expect_prints_like_printf(const std::vector<double>& values) {
  std::size_t mismatches = 0;
  for (double x : values) {
    const std::string got = dump_number(x);
    const std::string want = reference_number(x);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << "bits 0x" << std::hex << bits(x) << ": codec printed '"
                    << got << "', printf printed '" << want << "'";
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

void expect_parses_like_strtod(const std::vector<double>& values) {
  std::size_t mismatches = 0;
  for (double x : values) {
    for (const std::string& text :
         {reference_number(x), printf_form("%.9g", x)}) {
      const std::uint64_t got = bits(parse_json(text).number);
      const std::uint64_t want = bits(strtod_exact(text));
      if (got != want && ++mismatches <= 10) {
        ADD_FAILURE() << "'" << text << "': codec parsed bits 0x" << std::hex
                      << got << ", strtod 0x" << want;
      }
    }
    // Printing then parsing gives the value back, bit for bit.
    if (bits(parse_json(dump_number(x)).number) != bits(x) && ++mismatches <= 10) {
      ADD_FAILURE() << "round trip changed bits 0x" << std::hex << bits(x);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonNumber, PrintsEdgesLikePrintf) {
  expect_prints_like_printf(edge_values());
  EXPECT_EQ(dump_number(0.0), "0");
  EXPECT_EQ(dump_number(-0.0), "-0");
  EXPECT_EQ(dump_number(1e15 - 1), "999999999999999");
  EXPECT_EQ(dump_number(1e15), "1000000000000000");
  EXPECT_EQ(dump_number(0.1), "0.10000000000000001");
  EXPECT_EQ(dump_number(DBL_MAX), "1.7976931348623157e+308");
  EXPECT_EQ(dump_number(std::numeric_limits<double>::denorm_min()),
            "4.9406564584124654e-324");
}

TEST(JsonNumber, PrintsRandomBitPatternsLikePrintf) {
  expect_prints_like_printf(random_bit_patterns(kRandomCases, 0x5eed));
}

TEST(JsonNumber, PrintsScaledIntegersLikePrintf) {
  expect_prints_like_printf(scaled_integers(kRandomCases / 4, 0x1e15));
}

TEST(JsonNumber, ParsesEdgesLikeStrtod) { expect_parses_like_strtod(edge_values()); }

TEST(JsonNumber, ParsesRandomBitPatternsLikeStrtod) {
  expect_parses_like_strtod(random_bit_patterns(kRandomCases, 0xba5e));
}

TEST(JsonNumber, ParsesScaledIntegersLikeStrtod) {
  expect_parses_like_strtod(scaled_integers(kRandomCases / 4, 0x2e15));
}

TEST(JsonNumber, EdgeTokensKeepTheirMeaning) {
  // Accepted through the strtod fallback: from_chars rejects these.
  EXPECT_EQ(bits(parse_json("+5").number), bits(5.0));
  EXPECT_EQ(bits(parse_json("1e-400").number), bits(0.0));
  EXPECT_EQ(bits(parse_json("-1e-400").number), bits(-0.0));
  const double subnormal = parse_json("4e-320").number;
  EXPECT_EQ(std::fpclassify(subnormal), FP_SUBNORMAL);
  EXPECT_EQ(bits(subnormal), bits(strtod_exact("4e-320")));
  // Plain forms, in place inside a document.
  const JsonValue array = parse_json("[0,-0,1.5,-2e3,.5,5.,1E2,1e+2,1e-2]");
  const std::vector<double> want = {0.0, -0.0, 1.5, -2e3, 0.5, 5.0, 100.0, 100.0, 0.01};
  ASSERT_EQ(array.array.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(bits(array.array[i].number), bits(want[i])) << i;
  }
  // Long and exactly-halfway tokens round like strtod.
  for (const std::string& text :
       {std::string("9007199254740993"), std::string("9007199254740995"),
        std::string("0.1000000000000000055511151231257827021181583404541015625"),
        std::string("2.4703282292062327208828439643411068618252990130716238221279284e-324"),
        std::string("1.7976931348623158079372897140530341507993413271003782693617377e308"),
        "0." + std::string(400, '0') + "1e400", "1" + std::string(300, '0') + "e-300"}) {
    EXPECT_EQ(bits(parse_json(text).number), bits(strtod_exact(text))) << text;
  }
  // Rejected: non-finite results and malformed tokens.
  for (const char* text : {"1e400", "-1e400", "1e", "-", "1.2.3", "--5", "1e+",
                           "[1,-]", "{\"a\":1e999}"}) {
    EXPECT_THROW(parse_json(text), std::runtime_error) << text;
  }
}

TEST(JsonNumber, RejectionMessagesNameTheToken) {
  const auto message = [](const std::string& text) {
    try {
      parse_json(text);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message("1.2.3"), "JSON parse error at offset 5: malformed number '1.2.3'");
  EXPECT_EQ(message("[--5]"), "JSON parse error at offset 4: malformed number '--5'");
  EXPECT_EQ(message("-"), "JSON parse error at offset 1: malformed number '-'");
  EXPECT_EQ(message("1e400"), "JSON numbers must be finite");
  EXPECT_EQ(message("[x]"), "JSON parse error at offset 1: expected a value");
}

}  // namespace
}  // namespace flaml
