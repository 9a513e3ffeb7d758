#include "knobs/knob.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "knobs/catalog.h"

namespace dbtune {
namespace {

TEST(KnobTest, ContinuousBasics) {
  Knob k = Knob::Continuous("ratio", 0.0, 100.0, 75.0);
  EXPECT_EQ(k.type(), KnobType::kContinuous);
  EXPECT_FALSE(k.is_categorical());
  EXPECT_DOUBLE_EQ(k.default_value(), 75.0);
  EXPECT_DOUBLE_EQ(k.Encode(50.0), 0.5);
  EXPECT_DOUBLE_EQ(k.Decode(0.25), 25.0);
}

TEST(KnobTest, ContinuousEncodeDecodeRoundTrip) {
  Knob k = Knob::Continuous("x", -5.0, 5.0, 0.0);
  for (double v : {-5.0, -1.25, 0.0, 3.75, 5.0}) {
    EXPECT_NEAR(k.Decode(k.Encode(v)), v, 1e-12);
  }
}

TEST(KnobTest, LogScaleEncodeDecode) {
  Knob k = Knob::Continuous("size", 1.0, 1024.0, 32.0, /*log_scale=*/true);
  EXPECT_NEAR(k.Encode(32.0), 0.5, 1e-12);  // 32 = sqrt(1 * 1024)
  EXPECT_NEAR(k.Decode(0.5), 32.0, 1e-9);
  EXPECT_DOUBLE_EQ(k.Encode(1.0), 0.0);
  EXPECT_DOUBLE_EQ(k.Encode(1024.0), 1.0);
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Log-scaled knobs cache log(min) and log(max) - log(min) at build time;
// Encode/Decode must stay bitwise equal to the formula that calls
// std::log on the bounds per value.
TEST(KnobTest, CachedLogBoundsMatchUncachedFormulaBitwise) {
  const ConfigurationSpace space = MySqlKnobCatalog();
  size_t log_knobs = 0;
  for (size_t i = 0; i < space.dimension(); ++i) {
    const Knob& k = space.knob(i);
    if (!k.log_scale()) continue;
    ++log_knobs;
    const double lo = k.min();
    const double hi = k.max();
    for (double u : {-0.1, 0.0, 1e-9, 0.25, 0.5, 1.0 - 1e-9, 1.0, 1.1}) {
      double v = std::exp(std::log(lo) +
                          std::clamp(u, 0.0, 1.0) *
                              (std::log(hi) - std::log(lo)));
      if (k.type() == KnobType::kInteger) v = std::round(v);
      v = std::clamp(v, lo, hi);
      EXPECT_EQ(Bits(k.Decode(u)), Bits(v)) << k.name() << " u = " << u;
    }
    for (double f : {0.0, 1e-9, 0.3, 0.5, 0.77, 1.0}) {
      const double value = k.Clip(lo + f * (hi - lo));
      const double e = (std::log(value) - std::log(lo)) /
                       (std::log(hi) - std::log(lo));
      EXPECT_EQ(Bits(k.Encode(value)), Bits(e)) << k.name() << " f = " << f;
    }
  }
  EXPECT_GT(log_knobs, 0u);
}

TEST(KnobTest, IntegerRoundsOnDecode) {
  Knob k = Knob::Integer("count", 0, 10, 5);
  EXPECT_EQ(k.type(), KnobType::kInteger);
  const double v = k.Decode(0.449);
  EXPECT_DOUBLE_EQ(v, std::round(v));
  EXPECT_GE(v, 0.0);
  EXPECT_LE(v, 10.0);
}

TEST(KnobTest, IntegerClipRounds) {
  Knob k = Knob::Integer("count", 0, 10, 5);
  EXPECT_DOUBLE_EQ(k.Clip(3.6), 4.0);
  EXPECT_DOUBLE_EQ(k.Clip(-2.0), 0.0);
  EXPECT_DOUBLE_EQ(k.Clip(99.0), 10.0);
}

TEST(KnobTest, CategoricalEncodeDecodeAllCategories) {
  Knob k = Knob::Categorical("mode", {"a", "b", "c"}, 1);
  EXPECT_TRUE(k.is_categorical());
  EXPECT_EQ(k.num_categories(), 3u);
  EXPECT_DOUBLE_EQ(k.default_value(), 1.0);
  for (size_t c = 0; c < 3; ++c) {
    const double unit = k.Encode(static_cast<double>(c));
    EXPECT_GE(unit, 0.0);
    EXPECT_LE(unit, 1.0);
    EXPECT_DOUBLE_EQ(k.Decode(unit), static_cast<double>(c));
  }
}

TEST(KnobTest, CategoricalDecodeCoversUniformly) {
  Knob k = Knob::Categorical("mode", {"a", "b"}, 0);
  EXPECT_DOUBLE_EQ(k.Decode(0.0), 0.0);
  EXPECT_DOUBLE_EQ(k.Decode(0.49), 0.0);
  EXPECT_DOUBLE_EQ(k.Decode(0.51), 1.0);
  EXPECT_DOUBLE_EQ(k.Decode(1.0), 1.0);
}

TEST(KnobTest, IsValid) {
  Knob k = Knob::Integer("count", 1, 8, 4);
  EXPECT_TRUE(k.IsValid(1));
  EXPECT_TRUE(k.IsValid(8));
  EXPECT_FALSE(k.IsValid(0));
  EXPECT_FALSE(k.IsValid(9));
  EXPECT_FALSE(k.IsValid(std::nan("")));
}

TEST(KnobTest, DecodeClampsOutOfRangeUnit) {
  Knob k = Knob::Continuous("x", 0.0, 1.0, 0.5);
  EXPECT_DOUBLE_EQ(k.Decode(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(k.Decode(1.5), 1.0);
}

TEST(KnobTest, TypeNames) {
  EXPECT_STREQ(KnobTypeName(KnobType::kContinuous), "continuous");
  EXPECT_STREQ(KnobTypeName(KnobType::kInteger), "integer");
  EXPECT_STREQ(KnobTypeName(KnobType::kCategorical), "categorical");
}

// Property sweep: encode/decode round trip over knob variants.
class KnobRoundTripTest : public ::testing::TestWithParam<Knob> {};

TEST_P(KnobRoundTripTest, DecodeEncodeIsIdempotent) {
  const Knob& k = GetParam();
  for (int i = 0; i <= 20; ++i) {
    const double unit = static_cast<double>(i) / 20.0;
    const double native = k.Decode(unit);
    EXPECT_TRUE(k.IsValid(native)) << k.name() << " unit=" << unit;
    // Decoding the re-encoded value must be a fixed point.
    EXPECT_NEAR(k.Decode(k.Encode(native)), native, 1e-9) << k.name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, KnobRoundTripTest,
    ::testing::Values(
        Knob::Continuous("lin", 0.0, 10.0, 5.0),
        Knob::Continuous("neg", -3.0, 3.0, 0.0),
        Knob::Continuous("log", 0.5, 512.0, 16.0, true),
        Knob::Integer("int", 0, 100, 50),
        Knob::Integer("int_log", 1, 1 << 20, 64, true),
        Knob::Categorical("cat2", {"off", "on"}, 0),
        Knob::Categorical("cat5", {"a", "b", "c", "d", "e"}, 2)),
    [](const ::testing::TestParamInfo<Knob>& info) {
      return info.param.name();
    });

}  // namespace
}  // namespace dbtune
