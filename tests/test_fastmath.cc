/**
 * @file
 * The runtime's own exp, log and erf (common/fastmath.h), which define
 * the Exp, Log and Erf ops for both kernel engines: accuracy against
 * libm over wide sampled ranges, the exact values at the edges (±0,
 * ±inf, NaN, subnormals, the overflow and underflow thresholds), and
 * the bitwise equality of erf's branchy and select forms.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "common/fastmath.h"

namespace diffuse {
namespace {

constexpr int kSamples = 1 << 20;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();

/** Steps between two finite doubles of the same sign, or between
 * signed zeros and their neighbours (the bit patterns are ordered). */
std::uint64_t
ulpDistance(double a, double b)
{
    auto ordered = [](double d) {
        std::int64_t i = std::bit_cast<std::int64_t>(d);
        return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
    };
    std::int64_t x = ordered(a), y = ordered(b);
    return x > y ? std::uint64_t(x) - std::uint64_t(y)
                 : std::uint64_t(y) - std::uint64_t(x);
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** `kSamples` inputs uniform in [lo, hi], log-uniform if `logScale`. */
std::vector<double>
samples(double lo, double hi, bool logScale, std::uint64_t seed)
{
    std::mt19937_64 gen(seed);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::vector<double> out(kSamples);
    for (double &x : out) {
        double t = u(gen);
        x = logScale ? std::exp(std::log(lo) +
                                t * (std::log(hi) - std::log(lo)))
                     : lo + t * (hi - lo);
    }
    return out;
}

/** `f` stays within `ulps` of `ref` over `xs`; reports the worst. */
template <typename F, typename R>
void
expectWithinUlps(const std::vector<double> &xs, F f, R ref,
                 std::uint64_t ulps, const char *what)
{
    std::uint64_t worst = 0;
    double at = 0.0;
    for (double x : xs) {
        std::uint64_t d = ulpDistance(f(x), ref(x));
        if (d > worst) {
            worst = d;
            at = x;
        }
    }
    EXPECT_LE(worst, ulps) << what << ": " << worst << " ulp at "
                           << std::hexfloat << at;
}

TEST(FastMath, ExpWithinOneUlpOfLibm)
{
    auto f = [](double x) { return fastExp(x); };
    auto ref = [](double x) { return std::exp(x); };
    // The whole finite range, subnormal results included, and the
    // range Black-Scholes discounting lands in.
    expectWithinUlps(samples(-745.5, 709.9, false, 1), f, ref, 1,
                     "exp on [-745.5, 709.9]");
    expectWithinUlps(samples(-20.0, 5.0, false, 2), f, ref, 1,
                     "exp on [-20, 5]");
}

TEST(FastMath, LogWithinOneUlpOfLibm)
{
    auto f = [](double x) { return fastLog(x); };
    auto ref = [](double x) { return std::log(x); };
    expectWithinUlps(samples(1e-300, 1e300, true, 3), f, ref, 1,
                     "log on [1e-300, 1e300]");
    // Around 1, where log's result loses its leading bits.
    expectWithinUlps(samples(0.999, 1.001, false, 4), f, ref, 1,
                     "log on [0.999, 1.001]");
}

TEST(FastMath, ExpEdgeValues)
{
    EXPECT_TRUE(sameBits(fastExp(0.0), 1.0));
    EXPECT_TRUE(sameBits(fastExp(-0.0), 1.0));
    EXPECT_TRUE(sameBits(fastExp(kDenormMin), 1.0));
    EXPECT_TRUE(sameBits(fastExp(kInf), kInf));
    EXPECT_TRUE(sameBits(fastExp(-kInf), 0.0));
    EXPECT_TRUE(std::isnan(fastExp(kNan)));
    // Overflow: exp(709.78) is the largest finite result's binade.
    EXPECT_TRUE(std::isfinite(fastExp(709.78)));
    EXPECT_LE(ulpDistance(fastExp(709.78), std::exp(709.78)), 1u);
    EXPECT_TRUE(sameBits(fastExp(709.79), kInf));
    // Underflow: half the smallest subnormal lies at -745.1332.
    EXPECT_TRUE(sameBits(fastExp(-745.13), kDenormMin));
    EXPECT_TRUE(sameBits(fastExp(-745.14), 0.0));
    // Subnormal results round once.
    for (double x : {-708.4, -744.0}) {
        EXPECT_LT(fastExp(x), std::numeric_limits<double>::min()) << x;
        EXPECT_LE(ulpDistance(fastExp(x), std::exp(x)), 1u) << x;
    }
}

TEST(FastMath, LogEdgeValues)
{
    EXPECT_TRUE(sameBits(fastLog(0.0), -kInf));
    EXPECT_TRUE(sameBits(fastLog(-0.0), -kInf));
    EXPECT_TRUE(sameBits(fastLog(kInf), kInf));
    EXPECT_TRUE(sameBits(fastLog(1.0), 0.0));
    for (double x : {-kInf, -1.0, -1e-310, kNan})
        EXPECT_TRUE(std::isnan(fastLog(x))) << x;
    // Subnormal inputs, the smallest included.
    for (double x : {kDenormMin, 2.2e-308, 1e-310})
        EXPECT_LE(ulpDistance(fastLog(x), std::log(x)), 1u) << x;
    EXPECT_LE(ulpDistance(fastLog(std::numeric_limits<double>::max()),
                          std::log(std::numeric_limits<double>::max())),
              1u);
}

TEST(FastMath, ErfWithinFiveUlpOfLibm)
{
    std::vector<double> xs = samples(-7.0, 7.0, false, 5);
    expectWithinUlps(xs, [](double x) { return fastErf(x); },
                     [](double x) { return std::erf(x); }, 5,
                     "erf on [-7, 7]");
    for (double x : xs) {
        if (std::fabs(x) > 6.0)
            ASSERT_TRUE(sameBits(fastErf(x), x < 0.0 ? -1.0 : 1.0)) << x;
    }
    EXPECT_TRUE(sameBits(fastErf(0.0), 0.0));
    EXPECT_TRUE(sameBits(fastErf(-0.0), -0.0));
    EXPECT_TRUE(sameBits(fastErf(kInf), 1.0));
    EXPECT_TRUE(sameBits(fastErf(-kInf), -1.0));
    EXPECT_TRUE(std::isnan(fastErf(kNan)));
}

/** The two erf forms evaluate each range with the same helper, so
 * they must agree to the bit everywhere, edges and NaN included. */
TEST(FastMath, ErfSelectFormEqualsBranchyForm)
{
    std::vector<double> xs = samples(-8.0, 8.0, false, 6);
    int ranges[4] = {0, 0, 0, 0};
    for (double x : xs) {
        double y = std::fabs(x);
        ranges[y <= 0.46875 ? 0 : y <= 4.0 ? 1 : y <= 6.0 ? 2 : 3]++;
    }
    for (int r = 0; r < 4; r++)
        EXPECT_GT(ranges[r], 10000) << "erf range " << r;
    for (double b : {0.46875, 4.0, 6.0}) {
        for (double s : {1.0, -1.0}) {
            xs.push_back(s * b);
            xs.push_back(std::nextafter(s * b, 0.0));
            xs.push_back(std::nextafter(s * b, s * kInf));
        }
    }
    for (double x : {0.0, -0.0, kInf, -kInf, kNan, -kNan, kDenormMin,
                     -kDenormMin, 2.2e-308, 1e-17, -1e-17})
        xs.push_back(x);
    for (double x : xs) {
        ASSERT_TRUE(sameBits(fastErf(x), fastErfSelect(x)))
            << std::hexfloat << x << ": " << fastErf(x) << " vs "
            << fastErfSelect(x);
    }
}

} // namespace
} // namespace diffuse
