#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "util/simd.h"

namespace rstlab::simd {
namespace {

TEST(SimdLevelTest, LanesAndNames) {
  EXPECT_EQ(SimdLanes(SimdLevel::kScalar), 1u);
  EXPECT_EQ(SimdLanes(SimdLevel::kLanes4), 4u);
  EXPECT_EQ(SimdLanes(SimdLevel::kLanes8), 8u);
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kLanes4), "lanes4");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kLanes8), "lanes8");
}

TEST(SimdLevelTest, ParseSpellings) {
  EXPECT_EQ(ParseSimdLevelName("off"), SimdLevel::kScalar);
  EXPECT_EQ(ParseSimdLevelName("scalar"), SimdLevel::kScalar);
  EXPECT_EQ(ParseSimdLevelName("1"), SimdLevel::kScalar);
  EXPECT_EQ(ParseSimdLevelName("4"), SimdLevel::kLanes4);
  EXPECT_EQ(ParseSimdLevelName("lanes4"), SimdLevel::kLanes4);
  EXPECT_EQ(ParseSimdLevelName("8"), SimdLevel::kLanes8);
  EXPECT_EQ(ParseSimdLevelName("lanes8"), SimdLevel::kLanes8);
  // Unknown spellings and "auto" degrade to hardware detection, never
  // to an abort — a stale env var must not brick a bench run.
  EXPECT_EQ(ParseSimdLevelName("auto"), DetectSimdLevel());
  EXPECT_EQ(ParseSimdLevelName("bogus"), DetectSimdLevel());
}

TEST(SimdLevelTest, EnvResolution) {
  ASSERT_EQ(setenv("RSTLAB_SIMD", "off", 1), 0);
  EXPECT_EQ(ResolveSimdLevel(), SimdLevel::kScalar);
  ASSERT_EQ(setenv("RSTLAB_SIMD", "4", 1), 0);
  EXPECT_EQ(ResolveSimdLevel(), SimdLevel::kLanes4);
  ASSERT_EQ(unsetenv("RSTLAB_SIMD"), 0);
  EXPECT_EQ(ResolveSimdLevel(), DetectSimdLevel());
}

TEST(U64x2Test, ArithmeticPrimitives) {
  const std::uint64_t a_vals[2] = {5, (std::uint64_t{1} << 32) - 1};
  const std::uint64_t b_vals[2] = {7, 3};
  const U64x2 a = Load2(a_vals);
  const U64x2 b = Load2(b_vals);
  EXPECT_EQ(Lane0(Add(a, b)), 12u);
  EXPECT_EQ(Lane1(Add(a, b)), (std::uint64_t{1} << 32) + 2);
  EXPECT_EQ(Lane0(Sub(b, Dup(2))), 5u);
  EXPECT_EQ(Lane0(ShiftLeftOne(a)), 10u);
  EXPECT_EQ(Lane1(ShiftRight(a, 16)), 0xffffu);
  EXPECT_EQ(Lane0(And(a, Dup(1))), 1u);
  // Low-32 x low-32 full product: (2^32-1)*3 needs the full 64 bits.
  EXPECT_EQ(Lane1(MulLo32(a, b)), ((std::uint64_t{1} << 32) - 1) * 3);
}

TEST(U64x2Test, CondSubAndSelect) {
  const std::uint64_t v_vals[2] = {10, 3};
  const U64x2 v = Load2(v_vals);
  const U64x2 m = Dup(7);
  EXPECT_EQ(Lane0(CondSub(v, m)), 3u);  // 10 >= 7 subtracts
  EXPECT_EQ(Lane1(CondSub(v, m)), 3u);  // 3 < 7 unchanged
  const std::uint64_t c_vals[2] = {1, 0};
  const U64x2 picked = Select01(Load2(c_vals), Dup(111), Dup(222));
  EXPECT_EQ(Lane0(picked), 111u);
  EXPECT_EQ(Lane1(picked), 222u);
}

TEST(U64x2Test, ShoupMulmodAgainstReference) {
  // The exact 32-bit Shoup multiplication the batch kernels build on:
  // for w < p < 2^31, a < 2^32, one conditional subtraction of
  // a*w - ((a * floor(w<<32 / p)) >> 32) * p lands in [0, p).
  const std::uint64_t p = 2147483629;  // largest prime below 2^31
  std::uint64_t a = 1;
  std::uint64_t w = 912391239;
  const std::uint64_t wsh = (w << 32) / p;
  for (int i = 0; i < 2000; ++i) {
    a = (a * 2862933555777941757ULL + 3037000493ULL) % p;
    const std::uint64_t q = ((a * wsh) >> 32);
    std::uint64_t t = a * w - q * p;
    if (t >= p) t -= p;
    const unsigned __int128 exact =
        static_cast<unsigned __int128>(a) * w % p;
    ASSERT_EQ(t, static_cast<std::uint64_t>(exact)) << a;
  }
}

}  // namespace
}  // namespace rstlab::simd
