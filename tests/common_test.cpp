// Unit tests for src/common: errors, math helpers, RNG, table, tensor.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/tensor.h"

namespace nsflow {
namespace {

TEST(ErrorTest, CheckThrowsWithExpressionAndLocation) {
  try {
    NSF_CHECK_MSG(1 == 2, "context message");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("common_test.cpp"), std::string::npos);
    EXPECT_NE(what.find("context message"), std::string::npos);
  }
}

TEST(ErrorTest, CheckPassesOnTrue) {
  EXPECT_NO_THROW(NSF_CHECK(2 + 2 == 4));
}

TEST(ErrorTest, HierarchyIsCatchableAsError) {
  EXPECT_THROW(throw ParseError("x"), Error);
  EXPECT_THROW(throw InfeasibleError("x"), Error);
}

TEST(MathUtilTest, CeilDiv) {
  EXPECT_EQ(CeilDiv<std::int64_t>(10, 3), 4);
  EXPECT_EQ(CeilDiv<std::int64_t>(9, 3), 3);
  EXPECT_EQ(CeilDiv<std::int64_t>(1, 3), 1);
  EXPECT_EQ(CeilDiv<std::int64_t>(0, 3), 0);
}

TEST(MathUtilTest, RoundUp) {
  EXPECT_EQ(RoundUp<std::int64_t>(10, 8), 16);
  EXPECT_EQ(RoundUp<std::int64_t>(16, 8), 16);
}

TEST(MathUtilTest, FloorLog2) {
  EXPECT_EQ(FloorLog2(1), 0);
  EXPECT_EQ(FloorLog2(2), 1);
  EXPECT_EQ(FloorLog2(1023), 9);
  EXPECT_EQ(FloorLog2(1024), 10);
}

TEST(MathUtilTest, IsPowerOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(48));
}

TEST(MathUtilTest, ModIsEuclidean) {
  EXPECT_EQ(Mod(5, 3), 2);
  EXPECT_EQ(Mod(-1, 3), 2);
  EXPECT_EQ(Mod(-3, 3), 0);
  EXPECT_EQ(Mod(0, 7), 0);
}

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(3);
  const auto sample = rng.SampleWithoutReplacement(20, 10);
  ASSERT_EQ(sample.size(), 10u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const auto v : sample) {
    EXPECT_LT(v, 20u);
  }
}

TEST(RngTest, SampleWithoutReplacementRejectsOversample) {
  Rng rng(3);
  EXPECT_THROW(rng.SampleWithoutReplacement(3, 4), CheckError);
}

TEST(RngTest, GaussianHasRoughlyCorrectMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.Gaussian(2.0, 3.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(RngTest, WordsMatchStdMt19937_64) {
  // The block engine must emit the std engine's word sequence exactly,
  // across many refills and for edge seeds.
  constexpr int kDraws = 10'000'000;
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7},
        std::uint64_t{42}, std::uint64_t{0x5f3759df}, ~std::uint64_t{0}}) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    int first_mismatch = -1;
    for (int i = 0; i < kDraws && first_mismatch < 0; ++i) {
      if (rng.Word() != reference()) {
        first_mismatch = i;
      }
    }
    EXPECT_EQ(first_mismatch, -1) << "seed " << seed;
  }
}

TEST(RngTest, DistributionsMatchStdBitForBit) {
  // Every draw kind, interleaved, against the std distributions on a std
  // engine: Uniform is spelled out in rng.h, the rest are std
  // distributions on the block engine — both must stay in lockstep.
  for (const std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{42}}) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 200'000; ++i) {
      ASSERT_EQ(Bits(rng.Uniform()),
                Bits(std::uniform_real_distribution<double>(0.0, 1.0)(
                    reference)))
          << i;
      ASSERT_EQ(Bits(rng.Uniform(-2.5, 7.25)),
                Bits(std::uniform_real_distribution<double>(-2.5, 7.25)(
                    reference)))
          << i;
      ASSERT_EQ(rng.UniformInt(-3, 1000),
                std::uniform_int_distribution<std::int64_t>(-3, 1000)(
                    reference))
          << i;
      ASSERT_EQ(Bits(rng.Gaussian(2.0, 3.0)),
                Bits(std::normal_distribution<double>(2.0, 3.0)(reference)))
          << i;
      ASSERT_EQ(rng.Bernoulli(0.3),
                std::bernoulli_distribution(0.3)(reference))
          << i;
    }
  }
}

// A generator that yields one fixed word, to feed the uniform transform
// chosen inputs through libstdc++'s generate_canonical.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() const { return word; }
  result_type word;
};

double CanonicalOf(std::uint64_t word) {
  FixedWord generator{word};
  return std::generate_canonical<double, 53>(generator);
}

TEST(RngTest, UnitTransformMatchesGenerateCanonicalOnEdgeWords) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  const double below_one = std::nextafter(1.0, 0.0);
  EXPECT_EQ(Bits(Rng::UnitFromWord(0)), Bits(0.0));
  EXPECT_EQ(Bits(Rng::UnitFromWord(kMax)), Bits(below_one));
  // Words from 2^64 - 2^10 up (the tie included) round to 2^64, i.e. to
  // 1.0 before the clamp; the word just below rounds down to 2^64 - 2^11,
  // which scales to the same largest double below 1.
  const std::uint64_t rounds_up = kMax - (std::uint64_t{1} << 10) + 1;
  EXPECT_EQ(static_cast<double>(rounds_up), 0x1p64);
  EXPECT_EQ(static_cast<double>(rounds_up - 1), 0x1p64 - 0x1p11);
  EXPECT_EQ(Bits(Rng::UnitFromWord(rounds_up)), Bits(below_one));
  EXPECT_EQ(Bits(Rng::UnitFromWord(rounds_up - 1)), Bits(below_one));
  std::vector<std::uint64_t> words = {0,
                                      1,
                                      2,
                                      kMax,
                                      kMax - 1,
                                      rounds_up,
                                      rounds_up - 1,
                                      rounds_up - 2,
                                      std::uint64_t{1} << 53,
                                      (std::uint64_t{1} << 53) + 1,
                                      std::uint64_t{1} << 63,
                                      (std::uint64_t{1} << 63) - 1,
                                      (std::uint64_t{1} << 63) + 1,
                                      0xffffffffull,
                                      0x100000000ull};
  // Every low-12-bit pattern (the bits rounding looks at) under random
  // high bits, including ties to even.
  std::mt19937_64 high_bits(5);
  for (std::uint64_t low = 0; low < 4096; ++low) {
    for (int k = 0; k < 16; ++k) {
      words.push_back((high_bits() & ~std::uint64_t{0xfff}) | low);
    }
    words.push_back(~std::uint64_t{0xfff} | low);
  }
  for (const std::uint64_t word : words) {
    const double unit = Rng::UnitFromWord(word);
    ASSERT_EQ(Bits(unit), Bits(CanonicalOf(word))) << std::hex << word;
    ASSERT_GE(unit, 0.0);
    ASSERT_LT(unit, 1.0);
    FixedWord generator{word};
    ASSERT_EQ(Bits(unit * (3.5 - -1.25) + -1.25),
              Bits(std::uniform_real_distribution<double>(-1.25, 3.5)(
                  generator)))
        << std::hex << word;
  }
}

TEST(TableTest, RendersAlignedColumns) {
  TablePrinter table({"Device", "Runtime"});
  table.AddRow({"TX2", "23.90"});
  table.AddRow({"NSFlow", "1.00"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| Device"), std::string::npos);
  EXPECT_NE(out.find("| TX2"), std::string::npos);
  EXPECT_NE(out.find("| NSFlow"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, RejectsWrongArity) {
  TablePrinter table({"A", "B"});
  EXPECT_THROW(table.AddRow({"only one"}), CheckError);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Percent(0.345, 1), "34.5%");
  EXPECT_EQ(TablePrinter::Bytes(2.0 * 1024.0 * 1024.0), "2.00 MB");
  EXPECT_EQ(TablePrinter::Bytes(512.0), "512.00 B");
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(t.at(i), 0.0f);
  }
}

TEST(TensorTest, ShapeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f, 3.0f}), CheckError);
}

TEST(TensorTest, At2) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.at2(0, 0), 1.0f);
  EXPECT_EQ(t.at2(1, 2), 6.0f);
  t.at2(1, 0) = 9.0f;
  EXPECT_EQ(t.at(3), 9.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.Reshaped({3, 2});
  EXPECT_EQ(r.dim(0), 3);
  EXPECT_EQ(r.at2(2, 1), 6.0f);
  EXPECT_THROW(t.Reshaped({4, 2}), CheckError);
}

TEST(TensorTest, ArithmeticHelpers) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {4, 5, 6});
  EXPECT_FLOAT_EQ(a.Dot(b), 32.0f);
  EXPECT_FLOAT_EQ(b.MaxAbs(), 6.0f);
  a += b;
  EXPECT_EQ(a.at(0), 5.0f);
  a *= 2.0f;
  EXPECT_EQ(a.at(2), 18.0f);
  EXPECT_NEAR(Tensor({2}, {3, 4}).Norm(), 5.0f, 1e-6);
}

TEST(MatMulTest, MatchesHandComputedProduct) {
  const Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at2(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at2(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at2(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at2(1, 1), 154.0f);
}

TEST(MatMulTest, IdentityIsNeutral) {
  Rng rng(5);
  Tensor a({4, 4});
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    a.at(i) = static_cast<float>(rng.Gaussian());
  }
  Tensor eye({4, 4});
  for (int i = 0; i < 4; ++i) {
    eye.at2(i, i) = 1.0f;
  }
  EXPECT_EQ(MatMul(a, eye), a);
}

TEST(MatMulTest, RejectsMismatchedInner) {
  EXPECT_THROW(MatMul(Tensor({2, 3}), Tensor({4, 2})), CheckError);
}

}  // namespace
}  // namespace nsflow
