/**
 * @file
 * Randomized fusion-equivalence fuzzer: the differential oracle for
 * the whole execution stack.
 *
 * A seeded generator builds random op DAGs over cunumeric-mini —
 * element-wise chains, scalar-coefficient ops, shifted slices
 * (aliasing views), writes through views (including shifted
 * self-copies whose sequential point order is observable), reductions
 * fed back as scalar coefficients, matvecs, array destruction and
 * mid-stream fences — and replays the *identical* program under every
 * execution configuration: fused/unfused x scalar-oracle/vector x
 * workers 1/8 x ranks 1/4. Every live array must be **bitwise**
 * identical to the reference configuration (unfused, scalar
 * interpreter, one worker, one rank).
 *
 * Each FusionFuzz test takes its seed count as its parameter: the
 * `Seeds` instantiation runs 8 seeds in tier-1, and the disabled
 * `DISABLED_Seeds` instantiation runs 1,000, which the `fuzz_slow`
 * and `fuzz_reuse` ctest entries enable. A second suite locks the
 * same property on the real applications (stencil, Black-Scholes,
 * Jacobi, CG, BiCGSTAB, GMG).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "common/rng.h"
#include "cunumeric/ndarray.h"
#include "solvers/solvers.h"
#include "sparse/csr.h"

namespace diffuse {
namespace {

using num::Context;
using num::NDArray;

/** One execution configuration under test. */
struct Config
{
    bool fused;
    bool scalarExec;
    int workers;
    int ranks;
    /** Trace-memoized window replay (core/trace.h); the reference
     * configuration keeps it off — DIFFUSE_TRACE=0 is the oracle. */
    int trace = 0;

    std::string
    label() const
    {
        return std::string(fused ? "fused" : "unfused") +
               (scalarExec ? "/scalar" : "/vector") + "/w" +
               std::to_string(workers) + "/r" + std::to_string(ranks) +
               "/t" + std::to_string(trace);
    }
};

/** Scoped DIFFUSE_SCALAR_EXEC override. */
struct ScalarGuard
{
    explicit ScalarGuard(bool scalar)
    {
        if (scalar)
            setenv("DIFFUSE_SCALAR_EXEC", "1", 1);
        else
            unsetenv("DIFFUSE_SCALAR_EXEC");
    }
    ~ScalarGuard() { unsetenv("DIFFUSE_SCALAR_EXEC"); }
};

/** Raw bits of a double vector (bitwise comparison: NaN-safe, -0.0
 * distinguished — the oracle is *bit* equality, not ==). */
std::vector<std::uint64_t>
bits(const std::vector<double> &v)
{
    std::vector<std::uint64_t> out(v.size());
    std::memcpy(out.data(), v.data(), v.size() * sizeof(double));
    return out;
}

// ---------------------------------------------------------------------
// Random-program fuzzer
// ---------------------------------------------------------------------

/**
 * Run the seed's program in `rt` and return the bits of every live
 * array. Every random decision depends only on `seed`, so each
 * configuration replays the identical op DAG.
 */
std::vector<std::vector<std::uint64_t>>
runProgramBody(DiffuseRuntime &rt, std::uint64_t seed)
{
    Context ctx(rt);

    Rng rng(seed);
    const coord_t n = 24 + coord_t(rng.below(41)); // 24..64
    std::vector<NDArray> pool;
    for (int i = 0; i < 3; i++) {
        pool.push_back(
            ctx.random(n, seed ^ (0x9e3779b9ULL * std::uint64_t(i + 1)),
                       -1.0, 1.0));
    }

    auto pick = [&]() -> NDArray & {
        return pool[std::size_t(rng.below(pool.size()))];
    };

    int steps = 14 + int(rng.below(12));
    for (int s = 0; s < steps; s++) {
        // Operands are picked in statements of their own: argument
        // evaluation order is compiler-dependent, and the generator
        // must make the same decisions in every configuration.
        switch (rng.below(12)) {
          case 0: {
            NDArray &a = pick();
            NDArray &b = pick();
            pool.push_back(ctx.add(a, b));
            break;
          }
          case 1: {
            NDArray &a = pick();
            NDArray &b = pick();
            pool.push_back(ctx.sub(a, b));
            break;
          }
          case 2: {
            NDArray &a = pick();
            NDArray &b = pick();
            pool.push_back(ctx.mul(a, b));
            break;
          }
          case 3: {
            bool use_max = rng.below(2) == 0;
            NDArray &a = pick();
            NDArray &b = pick();
            pool.push_back(use_max ? ctx.maximum(a, b)
                                   : ctx.minimum(a, b));
            break;
          }
          case 4: {
            NDArray &a = pick();
            double sc = rng.uniform(-2.0, 2.0);
            NDArray &b = pick();
            pool.push_back(ctx.axpy(a, sc, b));
            break;
          }
          case 5: {
            switch (rng.below(4)) {
              case 0:
                pool.push_back(
                    ctx.addScalar(pick(), rng.uniform(-1.0, 1.0)));
                break;
              case 1:
                pool.push_back(
                    ctx.mulScalar(rng.uniform(-1.5, 1.5), pick()));
                break;
              case 2:
                pool.push_back(ctx.neg(pick()));
                break;
              default:
                pool.push_back(ctx.abs(pick()));
                break;
            }
            break;
          }
          case 6:
            // Bounded nonlinearities (erf maps into [-1, 1]; sqrt of
            // abs stays finite).
            pool.push_back(rng.below(2) == 0
                               ? ctx.erf(pick())
                               : ctx.sqrt(ctx.abs(pick())));
            break;
          case 7: {
            // Sliced op: t = a[o1:o1+L] + b[o2:o2+L], then written
            // into a view of an existing array (aliasing write).
            coord_t len = 4 + coord_t(rng.below(std::uint64_t(n - 8)));
            coord_t o1 = coord_t(rng.below(std::uint64_t(n - len + 1)));
            coord_t o2 = coord_t(rng.below(std::uint64_t(n - len + 1)));
            coord_t o3 = coord_t(rng.below(std::uint64_t(n - len + 1)));
            NDArray &a = pick();
            NDArray &b = pick();
            NDArray t =
                ctx.add(a.slice(o1, o1 + len), b.slice(o2, o2 + len));
            NDArray &dst = pick();
            ctx.assign(dst.slice(o3, o3 + len), t);
            break;
          }
          case 8: {
            // Shifted self-copy: the sequential point order is
            // observable through the aliasing views (the canonical-
            // escalation path under sharding).
            NDArray &a = pick();
            if (rng.below(2) == 0)
                ctx.assign(a.slice(1, n), a.slice(0, n - 1));
            else
                ctx.assign(a.slice(0, n - 1), a.slice(1, n));
            break;
          }
          case 9: {
            // Reduction fed back as a scalar coefficient.
            NDArray &a = pick();
            NDArray &b = pick();
            NDArray alpha = rng.below(2) == 0 ? ctx.dot(a, b)
                                              : ctx.sum(a);
            switch (rng.below(3)) {
              case 0:
                pool.push_back(ctx.axpyS(a, alpha, b));
                break;
              case 1:
                pool.push_back(ctx.axmyS(a, alpha, b));
                break;
              default:
                pool.push_back(ctx.aypxS(a, alpha, b));
                break;
            }
            break;
          }
          case 10:
            ctx.fill(pick(), rng.uniform(-1.0, 1.0));
            break;
          default:
            // Mid-stream synchronization: flushes exercise fences and
            // scalar read-back forces an implicit store fence.
            if (rng.below(2) == 0)
                rt.flushWindow();
            else
                (void)ctx.value(ctx.sum(pick()));
            break;
        }
        // Keep the pool bounded; dropping arrays exercises store
        // destruction (including deferred zombie destruction).
        while (pool.size() > 8)
            pool.erase(pool.begin() +
                       std::ptrdiff_t(rng.below(pool.size())));
    }

    rt.flushWindow();
    std::vector<std::vector<std::uint64_t>> out;
    out.reserve(pool.size());
    for (const NDArray &a : pool)
        out.push_back(bits(ctx.toHost(a)));
    return out;
}

/** Fresh-runtime wrapper around runProgramBody. */
std::vector<std::vector<std::uint64_t>>
runProgram(std::uint64_t seed, const Config &cfg)
{
    ScalarGuard guard(cfg.scalarExec);
    DiffuseOptions o;
    o.fusionEnabled = cfg.fused;
    o.mode = rt::ExecutionMode::Real;
    o.workers = cfg.workers;
    o.ranks = cfg.ranks;
    o.trace = cfg.trace;
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4), o);
    return runProgramBody(rt, seed);
}

/** The FusionFuzz tests' parameter: how many seeds each runs. */
class FusionFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(FusionFuzz, AllConfigurationsBitwiseEqual)
{
    const int seeds = GetParam();
    const Config reference{false, true, 1, 1, 0};
    const Config variants[] = {
        {true, false, 1, 1, 1},  // the production configuration
        {true, false, 8, 1, 1},  // + sharded workers
        {true, false, 1, 4, 1},  // + distributed shards
        {true, false, 8, 4, 1},  // workers x ranks
        {false, false, 1, 4, 1}, // unfused over shards
        {true, true, 8, 4, 1},   // scalar oracle over shards
        {true, false, 8, 4, 0},  // trace kill switch over the rest
    };
    for (int s = 0; s < seeds; s++) {
        std::uint64_t seed = 0xD1FFu + std::uint64_t(s) * 7919;
        auto expect = runProgram(seed, reference);
        for (const Config &cfg : variants) {
            auto got = runProgram(seed, cfg);
            ASSERT_EQ(got.size(), expect.size())
                << "seed " << seed << " config " << cfg.label();
            for (std::size_t i = 0; i < got.size(); i++) {
                ASSERT_EQ(got[i], expect[i])
                    << "seed " << seed << " config " << cfg.label()
                    << " array " << i;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fault dimension: the same seeded DAGs under injected faults. Trace
// faults, the one transparently-degrading kind (trace → analyzed
// path), must stay bitwise-identical with no error surfaced; exchange
// faults fail the session like kernel faults do. A hard kernel fault
// must surface structurally, and after resetAfterError() a clean
// re-run of the whole program in the same runtime must be
// bitwise-identical to a never-faulted run.
// ---------------------------------------------------------------------

TEST_P(FusionFuzz, TransparentFaultsKeepBitwiseEquality)
{
    const int seeds = GetParam();
    const Config production{true, false, 8, 4, 1};
    const unsigned transparent = 1u << unsigned(rt::FaultKind::Trace);
    for (int s = 0; s < seeds; s++) {
        std::uint64_t seed = 0xFA17 + std::uint64_t(s) * 7919;
        auto expect = runProgram(seed, production);
        DiffuseOptions o;
        o.mode = rt::ExecutionMode::Real;
        o.workers = production.workers;
        o.ranks = production.ranks;
        o.trace = production.trace;
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4), o);
        // 5% ambient rate on the degrading kind only.
        rt.low().faults().configure(seed, 500, transparent);
        auto got = runProgramBody(rt, seed);
        ASSERT_EQ(got, expect) << "seed " << seed;
        EXPECT_FALSE(rt.failed()) << "seed " << seed;
    }
}

TEST_P(FusionFuzz, HardFaultRecoveryRerunsBitwise)
{
    const int seeds = GetParam();
    const Config production{true, false, 8, 4, 1};
    for (int s = 0; s < seeds; s++) {
        std::uint64_t seed = 0xDEAD + std::uint64_t(s) * 7919;
        auto expect = runProgram(seed, production);
        DiffuseOptions o;
        o.mode = rt::ExecutionMode::Real;
        o.workers = production.workers;
        o.ranks = production.ranks;
        o.trace = production.trace;
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4), o);
        // Fusion can collapse a whole program into very few fused
        // kernels (sometimes a single one), so the only skip that is
        // guaranteed to land for every generated program is 0: at
        // least one kernel must retire to produce the consumed sums.
        rt.low().faults().armOneShot(rt::FaultKind::Kernel, /*skip=*/0);
        bool threw = false;
        try {
            (void)runProgramBody(rt, seed);
        } catch (const DiffuseError &e) {
            threw = true;
            EXPECT_EQ(e.code(), ErrorCode::KernelFault)
                << "seed " << seed;
            rt.resetAfterError();
        }
        ASSERT_TRUE(threw) << "seed " << seed;
        ASSERT_FALSE(rt.failed()) << "seed " << seed;
        auto got = runProgramBody(rt, seed);
        ASSERT_EQ(got, expect) << "seed " << seed;
    }
}

// ---------------------------------------------------------------------
// Trace-replay fuzzing: a seeded loop body executed repeatedly in one
// runtime must replay from the trace cache bitwise-identically to the
// DIFFUSE_TRACE=0 oracle
// ---------------------------------------------------------------------

DiffuseOptions
loopProgramOptions(std::uint64_t seed, int trace)
{
    DiffuseOptions o;
    o.mode = rt::ExecutionMode::Real;
    o.trace = trace;
    o.ranks = int(1 + seed % 3); // 1..3: exercise exchange replay too
    return o;
}

/**
 * Run a seeded loop body `reps` times in `rt` and return the bits of
 * the persistent arrays. The op list is drawn once per seed, so every
 * repetition submits an isomorphic event stream (with loop-variant
 * scalar coefficients) — the steady state the trace layer exists for.
 */
std::vector<std::vector<std::uint64_t>>
runLoopBody(DiffuseRuntime &rt, std::uint64_t seed)
{
    Context ctx(rt);

    Rng rng(seed);
    const coord_t n = 24 + coord_t(rng.below(17));
    NDArray a = ctx.random(n, seed ^ 0x5eedULL, -1.0, 1.0);
    NDArray b = ctx.random(n, seed ^ 0xfeedULL, -1.0, 1.0);

    const int steps = 6 + int(rng.below(6));
    std::vector<int> ops;
    std::vector<double> coef;
    for (int s = 0; s < steps; s++) {
        ops.push_back(int(rng.below(6)));
        coef.push_back(rng.uniform(-1.0, 1.0));
    }

    for (int rep = 0; rep < 3; rep++) {
        for (int s = 0; s < steps; s++) {
            switch (ops[std::size_t(s)]) {
              case 0: {
                NDArray t = ctx.add(a, b);
                ctx.assign(a, t);
                break;
              }
              case 1: {
                NDArray t = ctx.mulScalar(coef[std::size_t(s)], b);
                ctx.assign(b, t);
                break;
              }
              case 2: {
                // Loop-variant coefficient: replay must rebind it.
                NDArray t = ctx.axpy(
                    a, coef[std::size_t(s)] / double(rep + 1), b);
                ctx.assign(a, t);
                break;
              }
              case 3:
                ctx.assign(a.slice(1, n), b.slice(0, n - 1));
                break;
              case 4: {
                NDArray alpha = ctx.dot(a, b);
                NDArray t = ctx.axpyS(a, alpha, b);
                ctx.assign(b, t);
                break;
              }
              default:
                (void)ctx.value(ctx.sum(a)); // mid-body flush
                break;
            }
        }
        rt.flushWindow();
    }
    return {bits(ctx.toHost(a)), bits(ctx.toHost(b))};
}

/** Fresh-runtime wrapper around runLoopBody (the historical shape).
 * `replays_out` accumulates replayed epochs. */
std::vector<std::vector<std::uint64_t>>
runLoopProgram(std::uint64_t seed, int trace,
               std::uint64_t *replays_out)
{
    DiffuseRuntime rt(rt::MachineConfig::withGpus(4),
                      loopProgramOptions(seed, trace));
    auto out = runLoopBody(rt, seed);
    if (replays_out)
        *replays_out += rt.fusionStats().traceEpochsReplayed;
    return out;
}

TEST_P(FusionFuzz, RepeatedBodiesReplayBitwise)
{
    const int seeds = GetParam();
    std::uint64_t replays = 0;
    for (int s = 0; s < seeds; s++) {
        std::uint64_t seed = 0x7ace + std::uint64_t(s) * 7919;
        auto expect = runLoopProgram(seed, /*trace=*/0, nullptr);
        auto got = runLoopProgram(seed, /*trace=*/1, &replays);
        ASSERT_EQ(got, expect) << "seed " << seed;
    }
    // Repetition two and three of every seed hit the cache; across
    // the whole run replays must have happened.
    EXPECT_GT(replays, 0u);
}

// ---------------------------------------------------------------------
// Shared-cache dimension (core/context.h): two sequential sessions
// over the same seeded DAG must be bitwise-identical to one
// fresh-runtime run, with the second session fully reusing the
// first's compiled plans and trace epochs
// ---------------------------------------------------------------------

TEST_P(FusionFuzz, SharedCacheSessionsBitwiseEqualAndFullyReused)
{
    const int seeds = GetParam();
    for (int s = 0; s < seeds; s++) {
        std::uint64_t seed = 0x5ca1e + std::uint64_t(s) * 7919;
        DiffuseOptions o = loopProgramOptions(seed, /*trace=*/1);
        // Sharing is what this test asserts: pin it against the
        // DIFFUSE_SHARED_CACHE=0 environment matrix.
        o.sharedCache = 1;

        // One fresh, isolated runtime: the reference.
        std::vector<std::vector<std::uint64_t>> expect;
        {
            DiffuseRuntime iso(rt::MachineConfig::withGpus(4), o);
            expect = runLoopBody(iso, seed);
        }

        auto ctx = SharedContext::create(rt::MachineConfig::withGpus(4));
        auto s1 = ctx->createSession(o);
        auto got1 = runLoopBody(*s1, seed);
        ASSERT_EQ(got1, expect) << "seed " << seed << " session 1";

        int plans = ctx->compiler().stats().plansLowered;
        std::uint64_t misses = ctx->memo().stats().misses;
        std::uint64_t hits = ctx->memo().stats().hits;

        auto s2 = ctx->createSession(o);
        auto got2 = runLoopBody(*s2, seed);
        ASSERT_EQ(got2, expect) << "seed " << seed << " session 2";

        // Full reuse: the second session lowered no plans, never
        // missed the memoizer, captured no new epochs — every window
        // that took the analyzed path hit, and repeated windows
        // replayed from the epochs session 1 stored.
        EXPECT_EQ(ctx->compiler().stats().plansLowered, plans)
            << "seed " << seed;
        EXPECT_EQ(ctx->memo().stats().misses, misses)
            << "seed " << seed;
        EXPECT_GE(ctx->memo().stats().hits, hits) << "seed " << seed;
        EXPECT_EQ(s2->fusionStats().traceEpochsCaptured, 0u)
            << "seed " << seed;
        EXPECT_GT(s2->fusionStats().traceEpochsReplayed, 0u)
            << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionFuzz, ::testing::Values(8));
// The long configuration: disabled in tier-1, enabled by the
// `fuzz_slow` and `fuzz_reuse` ctest entries.
INSTANTIATE_TEST_SUITE_P(DISABLED_Seeds, FusionFuzz,
                         ::testing::Values(1000));

// ---------------------------------------------------------------------
// Application determinism: every app, bitwise, ranks 1 vs 4 and
// workers 1 vs 8
// ---------------------------------------------------------------------

DiffuseOptions
appOpts(int workers, int ranks)
{
    DiffuseOptions o;
    o.mode = rt::ExecutionMode::Real;
    o.workers = workers;
    o.ranks = ranks;
    return o;
}

template <typename Run>
void
expectAppDeterminism(Run &&run)
{
    auto expect = run(appOpts(1, 1));
    const int cases[][2] = {{8, 1}, {1, 4}, {8, 4}};
    for (const auto &c : cases) {
        auto got = run(appOpts(c[0], c[1]));
        ASSERT_EQ(bits(got), bits(expect))
            << "workers " << c[0] << " ranks " << c[1];
    }
}

TEST(AppDeterminism, Stencil)
{
    expectAppDeterminism([](const DiffuseOptions &o) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4), o);
        Context ctx(rt);
        apps::Stencil app(ctx, 48);
        for (int i = 0; i < 3; i++) {
            app.step();
            rt.flushWindow();
        }
        return ctx.toHost(app.grid());
    });
}

TEST(AppDeterminism, BlackScholes)
{
    expectAppDeterminism([](const DiffuseOptions &o) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4), o);
        Context ctx(rt);
        apps::BlackScholes app(ctx, 64);
        app.step();
        rt.flushWindow();
        std::vector<double> out = ctx.toHost(app.call());
        std::vector<double> put = ctx.toHost(app.put());
        out.insert(out.end(), put.begin(), put.end());
        return out;
    });
}

TEST(AppDeterminism, Jacobi)
{
    expectAppDeterminism([](const DiffuseOptions &o) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4), o);
        Context ctx(rt);
        apps::Jacobi app(ctx, 64);
        for (int i = 0; i < 3; i++) {
            app.step();
            rt.flushWindow();
        }
        return ctx.toHost(app.x());
    });
}

TEST(AppDeterminism, Cg)
{
    expectAppDeterminism([](const DiffuseOptions &o) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4), o);
        Context ctx(rt);
        sp::SparseContext sctx(ctx);
        solvers::SolverContext sol(ctx, sctx);
        sp::CsrMatrix a = sctx.poisson2d(8, 8);
        NDArray b = ctx.zeros(64, 1.0);
        double rs = 0.0;
        NDArray x = sol.cg(a, b, 12, &rs);
        std::vector<double> out = ctx.toHost(x);
        out.push_back(rs);
        return out;
    });
}

TEST(AppDeterminism, Bicgstab)
{
    expectAppDeterminism([](const DiffuseOptions &o) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4), o);
        Context ctx(rt);
        sp::SparseContext sctx(ctx);
        solvers::SolverContext sol(ctx, sctx);
        sp::CsrMatrix a = sctx.poisson2d(8, 8);
        NDArray b = ctx.zeros(64, 1.0);
        double rs = 0.0;
        NDArray x = sol.bicgstab(a, b, 8, &rs);
        std::vector<double> out = ctx.toHost(x);
        out.push_back(rs);
        return out;
    });
}

TEST(AppDeterminism, Gmg)
{
    expectAppDeterminism([](const DiffuseOptions &o) {
        DiffuseRuntime rt(rt::MachineConfig::withGpus(4), o);
        Context ctx(rt);
        sp::SparseContext sctx(ctx);
        solvers::SolverContext sol(ctx, sctx);
        solvers::GmgHierarchy h = sol.buildHierarchy1d(64, 3);
        NDArray b = ctx.zeros(64, 1.0);
        double rs = 0.0;
        NDArray x = sol.gmgPcg(h, b, 6, &rs);
        std::vector<double> out = ctx.toHost(x);
        out.push_back(rs);
        return out;
    });
}

} // namespace
} // namespace diffuse
