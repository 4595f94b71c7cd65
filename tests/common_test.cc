/**
 * @file
 * Tests for the common substrate: error macros, RNG, statistics, the
 * exponential-decay fitter, and the dense complex matrix.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/fit.h"
#include "common/inline_vector.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "common/status.h"

namespace xtalk {
namespace {

TEST(ErrorMacros, RequireThrowsErrorWithMessage)
{
    try {
        XTALK_REQUIRE(1 == 2, "the answer is " << 42);
        FAIL() << "expected throw";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("the answer is 42"),
                  std::string::npos);
    }
}

TEST(ErrorMacros, AssertThrowsInternalError)
{
    EXPECT_THROW(XTALK_ASSERT(false, "broken"), InternalError);
}

TEST(InlineVector, StaysInPlaceUpToItsCapacityThenSpills)
{
    InlineVector<int, 2> v;
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.capacity(), 2u);
    v.push_back(7);
    v.push_back(8);
    EXPECT_FALSE(v.spilled());
    v.push_back(9);
    EXPECT_TRUE(v.spilled());
    EXPECT_GE(v.capacity(), 3u);
    for (int i = 10; i < 1000; ++i) {
        v.push_back(i);
    }
    ASSERT_EQ(v.size(), 993u);
    EXPECT_EQ(v[1], 8);
    EXPECT_EQ(v[992], 999);
    int expected = 7;
    for (int x : v) {
        EXPECT_EQ(x, expected++);
    }
    // An element of the vector itself, pushed across a spill.
    InlineVector<int, 2> w{4, 5};
    w.push_back(w[0]);
    EXPECT_EQ(w, (InlineVector<int, 2>{4, 5, 4}));
    w.clear();
    EXPECT_TRUE(w.empty());
}

TEST(InlineVector, CopyMoveAndAssignKeepTheElements)
{
    const std::vector<double> source{0.5, -1.25, 3.0, 4.5, 6.0};
    const InlineVector<double, 3> small{0.5, -1.25};
    const InlineVector<double, 3> large(source.begin(), source.end());
    ASSERT_TRUE(large.spilled());
    EXPECT_TRUE(std::equal(large.begin(), large.end(), source.begin(),
                           source.end()));

    for (const InlineVector<double, 3>* original : {&small, &large}) {
        InlineVector<double, 3> copy(*original);
        EXPECT_EQ(copy, *original);
        // Copies own their elements.
        copy[0] = 99.0;
        EXPECT_NE(copy, *original);
        EXPECT_EQ((*original)[0], 0.5);

        InlineVector<double, 3> donor(*original);
        InlineVector<double, 3> moved(std::move(donor));
        EXPECT_EQ(moved, *original);
        EXPECT_TRUE(donor.empty());  // NOLINT(bugprone-use-after-move)
        EXPECT_FALSE(donor.spilled());

        // Every pairing of small and spilled sides.
        for (const InlineVector<double, 3>* other : {&small, &large}) {
            InlineVector<double, 3> assigned(*other);
            assigned = *original;
            EXPECT_EQ(assigned, *original);
            InlineVector<double, 3> move_assigned(*other);
            InlineVector<double, 3> temporary(*original);
            move_assigned = std::move(temporary);
            EXPECT_EQ(move_assigned, *original);
        }
        InlineVector<double, 3> self(*original);
        const InlineVector<double, 3>& alias = self;
        self = alias;
        EXPECT_EQ(self, *original);
    }

    InlineVector<double, 3> listed(large);
    listed = {1.0, 2.0};
    EXPECT_EQ(listed, (InlineVector<double, 3>{1.0, 2.0}));
    EXPECT_NE(small, large);
    EXPECT_NE(small, (InlineVector<double, 3>{0.5}));
    EXPECT_EQ((InlineVector<double, 3>{}), (InlineVector<double, 3>{}));
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.Next(), b.Next());
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += a.Next() == b.Next();
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.Uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeWithoutBias)
{
    Rng rng(9);
    std::vector<int> histogram(7, 0);
    for (int i = 0; i < 70000; ++i) {
        ++histogram[rng.UniformInt(7)];
    }
    for (int count : histogram) {
        EXPECT_NEAR(count, 10000, 500);
    }
}

TEST(Rng, NormalHasUnitVariance)
{
    Rng rng(11);
    RunningStats stats;
    for (int i = 0; i < 20000; ++i) {
        stats.Add(rng.Normal());
    }
    EXPECT_NEAR(stats.mean(), 0.0, 0.03);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i) {
        hits += rng.Bernoulli(0.3);
    }
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, DiscreteRespectsWeights)
{
    Rng rng(15);
    std::vector<int> histogram(3, 0);
    for (int i = 0; i < 30000; ++i) {
        ++histogram[rng.Discrete({1.0, 2.0, 1.0})];
    }
    EXPECT_NEAR(histogram[1], 15000, 600);
    EXPECT_THROW(rng.Discrete({0.0, 0.0}), Error);
    EXPECT_THROW(rng.Discrete({-1.0, 2.0}), Error);
}

TEST(Rng, ShuffleIsAPermutation)
{
    Rng rng(17);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto shuffled = v;
    rng.Shuffle(shuffled);
    std::multiset<int> a(v.begin(), v.end());
    std::multiset<int> b(shuffled.begin(), shuffled.end());
    EXPECT_EQ(a, b);
}

TEST(Rng, ForkProducesIndependentStream)
{
    // A child stream is forked by seed derivation, never by drawing
    // from the parent.
    Rng a(19);
    Rng child(DeriveSeed(19, 0));
    EXPECT_NE(a.Next(), child.Next());
}

TEST(Statistics, BasicAggregates)
{
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
    EXPECT_DOUBLE_EQ(Median(xs), 2.5);
    EXPECT_DOUBLE_EQ(Min(xs), 1.0);
    EXPECT_DOUBLE_EQ(Max(xs), 4.0);
    EXPECT_NEAR(StdDev(xs), std::sqrt(5.0 / 3.0), 1e-12);
    EXPECT_NEAR(GeoMean(xs), std::pow(24.0, 0.25), 1e-12);
}

TEST(Statistics, EdgeCases)
{
    EXPECT_THROW(Mean({}), Error);
    EXPECT_THROW(GeoMean({1.0, 0.0}), Error);
    EXPECT_DOUBLE_EQ(StdDev({5.0}), 0.0);
    EXPECT_DOUBLE_EQ(Median({3.0}), 3.0);
}

TEST(Statistics, RunningStatsMatchesBatch)
{
    Rng rng(21);
    RunningStats stats;
    std::vector<double> xs;
    for (int i = 0; i < 500; ++i) {
        const double x = rng.Uniform(0.0, 10.0);
        xs.push_back(x);
        stats.Add(x);
    }
    EXPECT_NEAR(stats.mean(), Mean(xs), 1e-9);
    EXPECT_NEAR(stats.stddev(), StdDev(xs), 1e-9);
}

TEST(Fit, RecoversCleanExponential)
{
    const double a = 0.72, p = 0.93, b = 0.25;
    std::vector<double> ms, ys;
    for (int m : {1, 2, 4, 8, 16, 32, 64}) {
        ms.push_back(m);
        ys.push_back(a * std::pow(p, m) + b);
    }
    const DecayFit fit = FitExponentialDecay(ms, ys);
    ASSERT_TRUE(fit.ok);
    EXPECT_NEAR(fit.p, p, 1e-3);
    EXPECT_NEAR(fit.a, a, 1e-2);
    EXPECT_NEAR(fit.b, b, 1e-2);
}

class FitNoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(FitNoiseSweep, RobustToGaussianNoise)
{
    const double noise = GetParam();
    Rng rng(23);
    const double a = 0.7, p = 0.9, b = 0.27;
    std::vector<double> ms, ys;
    for (int rep = 0; rep < 4; ++rep) {
        for (int m : {1, 3, 6, 10, 16, 26, 40}) {
            ms.push_back(m);
            ys.push_back(a * std::pow(p, m) + b + rng.Normal(0.0, noise));
        }
    }
    const DecayFit fit = FitExponentialDecay(ms, ys);
    ASSERT_TRUE(fit.ok);
    EXPECT_NEAR(fit.p, p, 0.05 + noise);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, FitNoiseSweep,
                         ::testing::Values(0.0, 0.005, 0.02, 0.05));

TEST(Fit, RejectsDegenerateInputs)
{
    EXPECT_FALSE(FitExponentialDecay({1, 2}, {0.5, 0.4}).ok);
    EXPECT_FALSE(FitExponentialDecay({1, 1, 1, 2, 2, 2},
                                     {0.5, 0.5, 0.5, 0.4, 0.4, 0.4})
                     .ok);
    EXPECT_THROW(FitExponentialDecay({1, 2, 3}, {0.5}), Error);
}

TEST(Fit, ErrorPerCliffordFormula)
{
    // r = (d-1)/d * (1-p); two qubits: d = 4.
    EXPECT_NEAR(ErrorPerCliffordFromDecay(1.0, 2), 0.0, 1e-12);
    EXPECT_NEAR(ErrorPerCliffordFromDecay(0.9, 2), 0.075, 1e-12);
    EXPECT_NEAR(ErrorPerCliffordFromDecay(0.9, 1), 0.05, 1e-12);
}

TEST(Matrix, MultiplyAndIdentity)
{
    const Matrix h{{1 / std::sqrt(2.0), 1 / std::sqrt(2.0)},
                   {1 / std::sqrt(2.0), -1 / std::sqrt(2.0)}};
    EXPECT_TRUE((h * h).EqualsUpToPhase(Matrix::Identity(2), 1e-12));
    EXPECT_TRUE(h.IsUnitary());
}

TEST(Matrix, KroneckerProductShapeAndValues)
{
    const Matrix x{{0, 1}, {1, 0}};
    const Matrix z{{1, 0}, {0, -1}};
    const Matrix xz = x.Kron(z);
    EXPECT_EQ(xz.rows(), 4u);
    EXPECT_EQ(xz.cols(), 4u);
    EXPECT_EQ(xz(0, 2), Complex(1, 0));
    EXPECT_EQ(xz(1, 3), Complex(-1, 0));
    EXPECT_EQ(xz(0, 0), Complex(0, 0));
}

TEST(Matrix, TraceAndDagger)
{
    const Matrix m{{Complex(1, 2), Complex(3, 0)},
                   {Complex(0, 1), Complex(5, -2)}};
    EXPECT_EQ(m.Trace(), Complex(6, 0));
    const Matrix md = m.Dagger();
    EXPECT_EQ(md(0, 0), Complex(1, -2));
    EXPECT_EQ(md(1, 0), Complex(3, 0));
    EXPECT_EQ(md(0, 1), Complex(0, -1));
}

TEST(Matrix, SolveLinearSystemRoundTrip)
{
    Matrix a{{Complex(2, 0), Complex(1, 1), Complex(0, 0)},
             {Complex(0, 1), Complex(3, 0), Complex(1, 0)},
             {Complex(1, 0), Complex(0, 0), Complex(4, -1)}};
    const std::vector<Complex> x_true{Complex(1, 1), Complex(-2, 0),
                                      Complex(0.5, -0.5)};
    std::vector<Complex> b(3, Complex(0, 0));
    for (size_t i = 0; i < 3; ++i) {
        for (size_t j = 0; j < 3; ++j) {
            b[i] += a(i, j) * x_true[j];
        }
    }
    const auto x = SolveLinearSystem(a, b);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_NEAR(std::abs(x[i] - x_true[i]), 0.0, 1e-9);
    }
}

TEST(Matrix, SolveRejectsSingular)
{
    Matrix a{{1, 2}, {2, 4}};
    EXPECT_THROW(SolveLinearSystem(a, {Complex(1, 0), Complex(2, 0)}),
                 Error);
}

TEST(Matrix, EqualsUpToPhase)
{
    const Matrix x{{0, 1}, {1, 0}};
    const Complex phase = std::polar(1.0, 0.7);
    const Matrix rotated = x * phase;
    EXPECT_TRUE(x.EqualsUpToPhase(rotated, 1e-12));
    const Matrix z{{1, 0}, {0, -1}};
    EXPECT_FALSE(x.EqualsUpToPhase(z, 1e-12));
    // Different magnitude is never equal up to phase.
    EXPECT_FALSE(x.EqualsUpToPhase(x * Complex(2.0, 0.0), 1e-12));
}

// The exit-code / wire-status contract every frontend shares. Scripts,
// CI jobs, and the service protocol all depend on these exact values;
// changing any row is a breaking change to the public interface.
TEST(Status, ExitCodeAndWireNameTableIsPinned)
{
    const struct {
        StatusCode code;
        int exit_code;
        const char* name;
    } kTable[] = {
        {StatusCode::kOk, 0, "ok"},
        {StatusCode::kIoError, 1, "io_error"},
        {StatusCode::kError, 2, "error"},
        {StatusCode::kInternal, 3, "internal"},
        {StatusCode::kRejected, 2, "rejected"},
        {StatusCode::kTimeout, 2, "timeout"},
    };
    for (const auto& row : kTable) {
        EXPECT_EQ(ExitCodeFor(row.code), row.exit_code) << row.name;
        EXPECT_STREQ(StatusName(row.code), row.name);
        StatusCode parsed;
        ASSERT_TRUE(ParseStatusName(row.name, &parsed)) << row.name;
        EXPECT_EQ(parsed, row.code) << row.name;
    }
    StatusCode parsed;
    EXPECT_FALSE(ParseStatusName("no-such-status", &parsed));
    EXPECT_FALSE(ParseStatusName("OK", &parsed));  // Case-sensitive.
}

TEST(Status, ClassifyExceptionMapsTheHierarchy)
{
    EXPECT_EQ(ClassifyException(InternalError("invariant broken")),
              StatusCode::kInternal);
    EXPECT_EQ(ClassifyException(Error("bad input")), StatusCode::kError);
    EXPECT_EQ(ClassifyException(std::runtime_error("disk on fire")),
              StatusCode::kIoError);
}

}  // namespace
}  // namespace xtalk
