#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/memory.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"
#include "common/timer.h"

namespace relmax {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("k must be positive");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "k must be positive");
  EXPECT_EQ(st.ToString(), "InvalidArgument: k must be positive");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = Status::NotFound("missing");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::vector<int>> result = std::vector<int>{1, 2, 3};
  ASSERT_TRUE(result.ok());
  std::vector<int> v = std::move(result).value();
  EXPECT_EQ(v.size(), 3u);
}

Status HelperThatPropagates(bool fail) {
  RELMAX_RETURN_IF_ERROR(fail ? Status::Internal("inner") : Status::Ok());
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(HelperThatPropagates(false).ok());
  EXPECT_EQ(HelperThatPropagates(true).code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.Next() == b.Next();
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleIsRoughlyUniform) {
  Rng rng(99);
  const int kBuckets = 10;
  const int kDraws = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<int>(rng.NextDouble() * kBuckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RngTest, NextUint64RespectsBound) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t x = rng.NextUint64(17);
    EXPECT_LT(x, 17u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 17u);  // all residues hit
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const int64_t x = rng.NextInt(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(hits / static_cast<double>(kDraws), 0.3, 0.01);
}

TEST(RngTest, BernoulliDegenerateEndpoints) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, GaussianMomentsReasonable) {
  Rng rng(321);
  const int kDraws = 50000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kDraws;
  const double var = sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += parent.Next() == child.Next();
  EXPECT_LT(equal, 3);
}

// ---------------------------------------------------------------- Table

TEST(TableTest, RendersAlignedColumns) {
  TablePrinter t({"Method", "Gain"});
  t.AddRow({"BE", "0.33"});
  t.AddRow({"HillClimbing", "0.31"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| Method       | Gain |"), std::string::npos);
  EXPECT_NE(s.find("| BE           | 0.33 |"), std::string::npos);
  EXPECT_NE(s.find("| HillClimbing | 0.31 |"), std::string::npos);
}

TEST(TableTest, FmtDouble) {
  EXPECT_EQ(Fmt(0.3333333, 2), "0.33");
  EXPECT_EQ(Fmt(1.0, 3), "1.000");
  EXPECT_EQ(Fmt(static_cast<int64_t>(12345)), "12345");
}

// ---------------------------------------------------------------- Flags

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=0.5", "--count", "7", "--verbose"};
  Flags flags = Flags::Parse(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.0), 0.5);
  EXPECT_EQ(flags.GetInt("count", 0), 7);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetInt("missing", 13), 13);
  EXPECT_EQ(flags.GetString("missing", "d"), "d");
  EXPECT_TRUE(flags.Has("alpha"));
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsTest, EnvironmentFallback) {
  setenv("RELMAX_FROM_ENV", "21", 1);
  const char* argv[] = {"prog"};
  Flags flags = Flags::Parse(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("from-env", 0), 21);
  unsetenv("RELMAX_FROM_ENV");
}

TEST(FlagsTest, AcceptsWholeNumbers) {
  const char* argv[] = {"prog", "--neg=-7", "--plus=+3", "--sci=1e-3",
                        "--big=9223372036854775807"};
  Flags flags = Flags::Parse(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("neg", 0), -7);
  EXPECT_EQ(flags.GetInt("plus", 0), 3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("sci", 0.0), 1e-3);
  EXPECT_EQ(flags.GetInt("big", 0), INT64_MAX);
}

TEST(FlagsDeathTest, MalformedIntExitsTwo) {
  for (const char* value :
       {"abc", "12x", "", " 7", "1.5", "0x10", "9223372036854775808"}) {
    const std::string arg = std::string("--count=") + value;
    const char* argv[] = {"prog", arg.c_str()};
    const Flags flags = Flags::Parse(2, const_cast<char**>(argv));
    EXPECT_EXIT(flags.GetInt("count", 0), testing::ExitedWithCode(2),
                "prog: --count expects a 64-bit integer")
        << "value '" << value << "'";
  }
}

TEST(FlagsDeathTest, MalformedDoubleExitsTwo) {
  for (const char* value : {"abc", "0.5x", "", "1e999", "nan", "inf"}) {
    const std::string arg = std::string("--alpha=") + value;
    const char* argv[] = {"prog", arg.c_str()};
    const Flags flags = Flags::Parse(2, const_cast<char**>(argv));
    EXPECT_EXIT(flags.GetDouble("alpha", 0.0), testing::ExitedWithCode(2),
                "prog: --alpha expects a finite number")
        << "value '" << value << "'";
  }
}

TEST(FlagsDeathTest, MalformedEnvironmentValueExitsTwo) {
  setenv("RELMAX_FROM_ENV", "21x", 1);
  const char* argv[] = {"prog"};
  const Flags flags = Flags::Parse(1, const_cast<char**>(argv));
  EXPECT_EXIT(flags.GetInt("from-env", 0), testing::ExitedWithCode(2),
              "--from-env expects a 64-bit integer, got '21x'");
  unsetenv("RELMAX_FROM_ENV");
}

// ---------------------------------------------------------------- Timer/mem

TEST(TimerTest, ElapsedIsMonotonic) {
  WallTimer timer;
  const double t1 = timer.ElapsedSeconds();
  const double t2 = timer.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
}

TEST(MemoryTest, RssIsPositiveOnLinux) {
  EXPECT_GT(CurrentRssBytes(), 0u);
  EXPECT_GE(PeakRssBytes(), CurrentRssBytes() / 2);
  EXPECT_NEAR(BytesToGiB(1ull << 30), 1.0, 1e-12);
}

}  // namespace
}  // namespace relmax
