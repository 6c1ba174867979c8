/**
 * @file
 * exp, log and erf as the runtime defines them, for BOTH kernel
 * execution engines.
 *
 * The executor's numerical contract is that the tape VM matches the
 * scalar oracle bitwise. Both therefore call the functions here, and
 * what these compute IS the semantics of the Exp, Log and Erf ops:
 * libm is not consulted. fastExp, fastLog and fastErfSelect have no
 * branch on their argument (selects only, both arms computed), so a
 * strip loop that inlines them vectorizes where the target has masked
 * operations (the VM's AVX-512 copy, kernel/exec.cc). Only IEEE basic
 * operations and exact integer bit manipulation are used, in a fixed
 * order, so a vectorized loop returns exactly the bits scalar code
 * returns, as long as the compiler contracts nothing into fused
 * multiply-adds; exec.cc, the engines' translation unit, forbids
 * contraction.
 *
 * Accuracy: fastExp and fastLog are within 1 ulp of a correctly
 * rounded libm, and give libm's values at ±0, ±inf, NaN, on subnormal
 * inputs and results and at the overflow and underflow thresholds
 * (except that the log of a negative is +NaN). fastErf is within 5
 * ulp of std::erf. tests/test_fastmath.cc checks all of it.
 *
 * fastErf follows W. J. Cody's rational-approximation scheme (the
 * SPECFUN CALERF coefficients; "Rational Chebyshev approximation for
 * the error function", Math. Comp. 23, 1969), over his three ranges,
 * with the two-step exp(-x*x) splitting collapsed to one fastExp. It
 * comes in two forms built from the same per-range helpers: fastErf
 * evaluates only the range its argument needs (scalar code: the
 * oracle and the VM's baseline copy), fastErfSelect evaluates all
 * three and selects one (vector code: the VM's AVX-512 copy). A range
 * computes the same operations in both, so the forms return equal
 * bits.
 */

#ifndef DIFFUSE_COMMON_FASTMATH_H
#define DIFFUSE_COMMON_FASTMATH_H

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

/** Inlined into every caller, so a strip loop vectorizes through it. */
#define DIFFUSE_FASTMATH_INLINE [[gnu::always_inline]] inline

namespace diffuse {

/**
 * exp(x). Cody–Waite reduction x = n ln2 + r, |r| <= ln2/2, with ln 2
 * split so that n * ln2Hi is exact, then a degree-13 Taylor
 * polynomial for exp(r). 2^n is built by integer shifts as two normal
 * factors, so a subnormal result rounds once.
 */
DIFFUSE_FASTMATH_INLINE double
fastExp(double x)
{
    // Outside [-746, 710] the result is 0 or +inf; the clamp keeps n
    // in range. NaN fails both comparisons and passes through.
    double xc = x < -746.0 ? -746.0 : x;
    xc = xc > 710.0 ? 710.0 : xc;
    // n = round(x / ln2): adding 1.5 * 2^52 rounds to an integer and
    // leaves n in the sum's low bits.
    const double shifter = 0x1.8p52;
    double t = xc * 0x1.71547652b82fep0 + shifter;
    double n = t - shifter;
    double r = (xc - n * 0x1.62e42feep-1) - n * 0x1.a39ef35793c76p-33;
    double p = 0x1.6124613a86d09p-33;
    p = p * r + 0x1.1eed8eff8d898p-29;
    p = p * r + 0x1.ae64567f544e4p-26;
    p = p * r + 0x1.27e4fb7789f5cp-22;
    p = p * r + 0x1.71de3a556c734p-19;
    p = p * r + 0x1.a01a01a01a01ap-16;
    p = p * r + 0x1.a01a01a01a01ap-13;
    p = p * r + 0x1.6c16c16c16c17p-10;
    p = p * r + 0x1.1111111111111p-7;
    p = p * r + 0x1.5555555555555p-5;
    p = p * r + 0x1.5555555555555p-3;
    p = p * r + 0.5;
    p = p * r + 1.0;
    p = p * r + 1.0;
    // The clamp keeps n in [-1076, 1024], so both halves of it are
    // normal exponents. Unsigned arithmetic: a NaN's bits are garbage
    // here but never undefined, and p is already NaN.
    std::uint64_t k = std::bit_cast<std::uint64_t>(t) -
                      std::bit_cast<std::uint64_t>(shifter);
    std::uint64_t k1 =
        std::uint64_t(std::int64_t(k) >> 1); // floor(n / 2)
    std::uint64_t k2 = k - k1;
    double s1 = std::bit_cast<double>((k1 + 1023) << 52);
    double s2 = std::bit_cast<double>((k2 + 1023) << 52);
    return p * s1 * s2;
}

/**
 * log(x), fdlibm's scheme: x = 2^k m with m in [sqrt(1/2), sqrt(2)),
 * log(m) = 2s + s^3 R(s^2) with s = (m - 1)/(m + 1) and R the Lg1–Lg7
 * polynomial. Subnormals are scaled by 2^54 first. Every select acts
 * on doubles (the exponent stays a double) and both arms are computed
 * first, which is what lets GCC vectorize the loop.
 */
DIFFUSE_FASTMATH_INLINE double
fastLog(double x)
{
    double scaled = x * 0x1p54;
    double xs = x < 0x1p-1022 ? scaled : x;
    double kAdjust = x < 0x1p-1022 ? -54.0 : 0.0;
    // Shift the exponent so that k counts from sqrt(1/2), then put the
    // mantissa back over sqrt(1/2)'s exponent. k is read as a double
    // from 2^52 + k's biased bits, which is exact and, unlike an
    // integer conversion, lets the loop vectorize.
    std::uint64_t ix = std::bit_cast<std::uint64_t>(xs) +
                       (std::uint64_t(0x3ff00000 - 0x3fe6a09e) << 32);
    double k = std::bit_cast<double>((ix >> 52) | 0x4330000000000000ull) -
               (0x1p52 + 1023.0) + kAdjust;
    double m = std::bit_cast<double>((ix & 0x000fffffffffffffull) +
                                     (std::uint64_t(0x3fe6a09e) << 32));
    double f = m - 1.0;
    double hfsq = 0.5 * f * f;
    double s = f / (2.0 + f);
    double z = s * s;
    double w = z * z;
    double t1 = w * (3.999999999940941908e-01 +
                     w * (2.222219843214978396e-01 +
                          w * 1.531383769920937332e-01));
    double t2 = z * (6.666666666666735130e-01 +
                     w * (2.857142874366239149e-01 +
                          w * (1.818357216161805012e-01 +
                               w * 1.479819860511658591e-01)));
    double rr = t2 + t1;
    double out = s * (hfsq + rr) + k * 1.90821492927058770002e-10 -
                 hfsq + f + k * 6.93147180369123816490e-01;
    const double inf = std::numeric_limits<double>::infinity();
    double nan = x + x;
    out = x < 0.0 ? std::numeric_limits<double>::quiet_NaN() : out;
    out = x == 0.0 ? -inf : out;
    out = x == inf ? inf : out;
    return x != x ? nan : out;
}

namespace fastmath_detail {

/** erf(x) for |x| = y <= 0.46875: x P(x^2)/Q(x^2). */
DIFFUSE_FASTMATH_INLINE double
erfSmall(double x, double y)
{
    double z = y > 1.11e-16 ? y * y : 0.0;
    double num = 1.85777706184603153e-1 * z;
    double den = z;
    num = (num + 3.16112374387056560e+0) * z;
    den = (den + 2.36012909523441209e+1) * z;
    num = (num + 1.13864154151050156e+2) * z;
    den = (den + 2.44024637934444173e+2) * z;
    num = (num + 3.77485237685302021e+2) * z;
    den = (den + 1.28261652607737228e+3) * z;
    return x * (num + 3.20937758913846947e+3) /
           (den + 2.84423683343917062e+3);
}

/** erfc(y) for 0.46875 < y <= 4, given e = exp(-y^2):
 * e P(y)/Q(y). */
DIFFUSE_FASTMATH_INLINE double
erfcMid(double y, double e)
{
    double num = 2.15311535474403846e-8 * y;
    double den = y;
    num = (num + 5.64188496988670089e-1) * y;
    den = (den + 1.57449261107098347e+1) * y;
    num = (num + 8.88314979438837594e+0) * y;
    den = (den + 1.17693950891312499e+2) * y;
    num = (num + 6.61191906371416295e+1) * y;
    den = (den + 5.37181101862009858e+2) * y;
    num = (num + 2.98635138197400131e+2) * y;
    den = (den + 1.62138957456669019e+3) * y;
    num = (num + 8.81952221241769090e+2) * y;
    den = (den + 3.29079923573345963e+3) * y;
    num = (num + 1.71204761263407058e+3) * y;
    den = (den + 4.36261909014324716e+3) * y;
    num = (num + 2.05107837782607147e+3) * y;
    den = (den + 3.43936767414372164e+3) * y;
    return e * (num + 1.23033935479799725e+3) /
           (den + 1.23033935480374942e+3);
}

/** erfc(y) for 4 < y <= 6, given e = exp(-y^2):
 * e/y (1/sqrt(pi) - P(1/y^2)/Q(1/y^2)/y^2). */
DIFFUSE_FASTMATH_INLINE double
erfcTail(double y, double e)
{
    double z = 1.0 / (y * y);
    double num = 1.63153871373020978e-2 * z;
    double den = z;
    num = (num + 3.05326634961232344e-1) * z;
    den = (den + 2.56852019228982242e+0) * z;
    num = (num + 3.60344899949804439e-1) * z;
    den = (den + 1.87295284992346047e+0) * z;
    num = (num + 1.25781726111229246e-1) * z;
    den = (den + 5.27905102951428412e-1) * z;
    num = (num + 1.60837851487422766e-2) * z;
    den = (den + 6.05183413124413191e-2) * z;
    double rat = z * (num + 6.58749161529837803e-4) /
                 (den + 2.33520497626869185e-3);
    return e / y * (5.6418958354775628695e-1 - rat);
}

/** erf(x) from r = erfc(|x|). */
DIFFUSE_FASTMATH_INLINE double
erfFromErfc(double x, double r)
{
    double e = (0.5 - r) + 0.5;
    return x < 0.0 ? -e : e;
}

/** erf(x) for |x| > 6, where erfc(|x|) < 3e-17, and for NaN. */
DIFFUSE_FASTMATH_INLINE double
erfBeyond(double x)
{
    double one = x < 0.0 ? -1.0 : 1.0;
    return x != x ? x + x : one;
}

} // namespace fastmath_detail

/** erf(x), evaluating only the range x needs. */
DIFFUSE_FASTMATH_INLINE double
fastErf(double x)
{
    using namespace fastmath_detail;
    double y = std::fabs(x);
    if (y <= 0.46875)
        return erfSmall(x, y);
    if (y <= 6.0) {
        double e = fastExp(-y * y);
        if (y <= 4.0)
            return erfFromErfc(x, erfcMid(y, e));
        return erfFromErfc(x, erfcTail(y, e));
    }
    return erfBeyond(x);
}

/** erf(x), evaluating every range and selecting one: equal to
 * fastErf bit for bit, and branch-free. */
DIFFUSE_FASTMATH_INLINE double
fastErfSelect(double x)
{
    using namespace fastmath_detail;
    double y = std::fabs(x);
    double e = fastExp(-y * y);
    double small = erfSmall(x, y);
    double mid = erfFromErfc(x, erfcMid(y, e));
    double tail = erfFromErfc(x, erfcTail(y, e));
    double beyond = erfBeyond(x);
    double out = y <= 6.0 ? (y <= 4.0 ? mid : tail) : beyond;
    return y <= 0.46875 ? small : out;
}

} // namespace diffuse

#endif // DIFFUSE_COMMON_FASTMATH_H
