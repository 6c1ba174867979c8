/**
 * @file
 * Serving-layer benchmark: many client sessions, one SharedContext
 * (src/core/context.{h,cc}).
 *
 * Measures what the session layer exists for — amortizing fusion
 * analysis, kernel compilation and trace capture across sessions:
 *
 *  1. cold vs warm session bring-up: wall-clock for a fresh session
 *     to run the canonical solver-flavored loop body, first against
 *     an empty context (compiles + captures) and then as the N-th
 *     session (pure cache hits + trace replay), plus the per-session
 *     plans-lowered count (0 in steady state);
 *  2. shared vs isolated concurrent serving: T threads each running
 *     sessions of the same workload, with process-shared caches
 *     against the DIFFUSE_SHARED_CACHE=0 oracle (every session
 *     recompiling privately);
 *  3. failure domains: the same warm body with the fault injector
 *     disarmed (`fault:off` — comparing this label across commits
 *     measures the fault-free cost of the error-tracking layer),
 *     under ambient trace faults (`fault:transparent` — each one
 *     sends a replay back to the analyzed path), and the recovery
 *     latency after a hard injected kernel fault (`fault:recover` —
 *     resetAfterError() plus a clean re-run of the whole body). All
 *     three time only the body (and the reset) in a session opened
 *     before the clock starts, interleaved rep by rep, so their
 *     ratios compare like scopes under like host conditions.
 */

#include <thread>

#include "harness.h"

#include "core/context.h"
#include "runtime/fault.h"

namespace {

using namespace diffuse;
using bench::measureWall;
using bench::WallMetric;
using num::Context;
using num::NDArray;

DiffuseOptions
servingOpts(int shared_cache)
{
    DiffuseOptions o;
    o.mode = rt::ExecutionMode::Real;
    o.sharedCache = shared_cache;
    return o;
}

/** The per-session workload: a CG-flavored loop body, `reps`
 * flushed repetitions. */
void
runSessionBody(DiffuseRuntime &rt, int reps, coord_t n)
{
    Context ctx(rt);
    NDArray x = ctx.random(n, 0xC0FFEE, -1.0, 1.0);
    NDArray r = ctx.random(n, 0xF00D, -1.0, 1.0);
    NDArray p = ctx.add(x, r);
    for (int i = 0; i < reps; i++) {
        NDArray alpha = ctx.dot(r, r);
        NDArray q = ctx.mulScalar(0.5, p);
        NDArray x2 = ctx.axpyS(x, alpha, p);
        ctx.assign(x, x2);
        NDArray r2 = ctx.axmyS(r, alpha, q);
        ctx.assign(r, r2);
        NDArray beta = ctx.dot(r, r);
        NDArray p2 = ctx.aypxS(p, beta, r);
        ctx.assign(p, p2);
        rt.flushWindow();
    }
    (void)ctx.value(ctx.sum(x));
}

} // namespace

int
main()
{
    const bool smoke = bench::smokeMode();
    const coord_t n = smoke ? 1 << 12 : 1 << 16;
    const int reps = smoke ? 6 : 20;
    const int warm_sessions = smoke ? 8 : 32;
    const int threads = 4;
    const int sessions_per_thread = smoke ? 4 : 8;
    rt::MachineConfig machine = rt::MachineConfig::withGpus(4);

    std::printf("# serving_sessions — multi-session serving over one "
                "SharedContext\n");
    std::printf("# machine: %s\n", machine.toString().c_str());

    // ---- 1. Cold vs warm session bring-up ---------------------------
    {
        auto ctx = SharedContext::create(machine);
        WallMetric cold = measureWall(
            "session:cold", 1, double(n) * reps, 0.0, [&] {
                auto s = ctx->createSession(servingOpts(1));
                runSessionBody(*s, reps, n);
            });
        int plans_cold = ctx->compiler().stats().plansLowered;

        for (int i = 0; i < warm_sessions - 2; i++) {
            auto s = ctx->createSession(servingOpts(1));
            runSessionBody(*s, reps, n);
        }
        int plans_before_warm = ctx->compiler().stats().plansLowered;
        WallMetric warm = measureWall(
            "session:warm", 1, double(n) * reps, 0.0, [&] {
                auto s = ctx->createSession(servingOpts(1));
                runSessionBody(*s, reps, n);
            });
        int plans_warm = ctx->compiler().stats().plansLowered -
                         plans_before_warm;

        bench::printWallHeader();
        bench::printWallRow(cold);
        bench::printWallRow(warm);
        std::printf("# plans lowered: cold session %d, warm session %d "
                    "(steady state compiles nothing)\n",
                    plans_cold, plans_warm);
        std::printf("# cold/warm bring-up ratio: %.2fx\n\n",
                    cold.minSeconds / warm.minSeconds);
        if (plans_warm != 0) {
            std::fprintf(stderr, "serving_sessions: warm session "
                                 "lowered %d plans, expected 0\n",
                         plans_warm);
            return 1;
        }
    }

    // ---- 2. Shared vs isolated concurrent serving -------------------
    for (int shared : {1, 0}) {
        auto ctx = SharedContext::create(machine);
        std::string label = std::string("concurrent:") +
                            (shared ? "shared" : "isolated");
        double total_elems =
            double(n) * reps * threads * sessions_per_thread;
        WallMetric m = measureWall(label, smoke ? 2 : 3, total_elems,
                                   0.0, [&] {
            std::vector<std::thread> pool;
            pool.reserve(std::size_t(threads));
            for (int t = 0; t < threads; t++) {
                pool.emplace_back([&] {
                    for (int s = 0; s < sessions_per_thread; s++) {
                        auto session =
                            ctx->createSession(servingOpts(shared));
                        runSessionBody(*session, reps, n);
                    }
                });
            }
            for (std::thread &th : pool)
                th.join();
        });
        bench::printWallRow(m);
    }
    std::printf("# %d threads x %d sessions each; shared caches "
                "compile once process-wide, isolated sessions "
                "recompile per session\n",
                threads, sessions_per_thread);

    // ---- 3. Failure domains: overhead, degradation, recovery --------
    {
        auto ctx = SharedContext::create(machine);
        // Warm the shared caches so all three series measure steady
        // state, not compilation.
        {
            auto s = ctx->createSession(servingOpts(1));
            runSessionBody(*s, reps, n);
        }
        const int frep = smoke ? 3 : 5;
        const double elems = double(n) * reps;
        const unsigned transparent = 1u << unsigned(rt::FaultKind::Trace);
        std::uint64_t degraded_traces = 0;
        // All three series time the same scope: the body (plus the
        // reset, for recovery) in a session created and readied just
        // before the clock starts, so session bring-up and teardown
        // never count. They interleave rep by rep, so a host whose
        // speed drifts during the run skews all three alike.
        std::vector<double> times[3];
        auto timed = [&](int series, auto &&fn) {
            auto t0 = std::chrono::steady_clock::now();
            fn();
            auto t1 = std::chrono::steady_clock::now();
            times[series].push_back(
                std::chrono::duration<double>(t1 - t0).count());
        };
        for (int r = 0; r < frep; r++) {
            // Injector disarmed (the default): every per-task failure
            // check, poison lookup and session-state latch still
            // runs, so this label tracked across commits is the
            // fault-free overhead of the error-tracking layer.
            auto clean = ctx->createSession(servingOpts(1));
            timed(0, [&] { runSessionBody(*clean, reps, n); });

            // Ambient trace faults: each aborts a replay to the
            // analyzed path and recaptures, absorbed by the
            // degradation ladder — results identical, only slower.
            auto ambient = ctx->createSession(servingOpts(1));
            ambient->low().faults().configure(42, 1000, transparent);
            timed(1, [&] { runSessionBody(*ambient, reps, n); });
            degraded_traces = ambient->fusionStats().traceAborts;

            // Recovery latency: arm one hard kernel fault and let it
            // surface as a structured error, then time
            // resetAfterError() plus a clean re-run of the whole body
            // — the cost a serving layer pays to bring a failed
            // session back instead of tearing it down.
            auto failed = ctx->createSession(servingOpts(1));
            failed->low().faults().armOneShot(rt::FaultKind::Kernel, 4);
            bool faulted = false;
            try {
                runSessionBody(*failed, reps, n);
            } catch (const DiffuseError &) {
                faulted = true;
            }
            if (!faulted || !failed->failed()) {
                std::fprintf(stderr, "serving_sessions: armed kernel "
                                     "fault did not surface\n");
                return 1;
            }
            timed(2, [&] {
                failed->resetAfterError();
                failed->low().faults().configure(1, 0, ~0u); // disarm
                runSessionBody(*failed, reps, n);
            });
        }
        WallMetric off =
            bench::wallMetric("fault:off", times[0], elems, 0.0);
        WallMetric degraded =
            bench::wallMetric("fault:transparent", times[1], elems, 0.0);
        WallMetric recover =
            bench::wallMetric("fault:recover", times[2], elems, 0.0);

        std::printf("\n");
        bench::printWallHeader();
        bench::printWallRow(off);
        bench::printWallRow(degraded);
        bench::printWallRow(recover);
        std::printf("# ambient faults absorbed: %llu trace recaptures "
                    "(results bitwise-identical)\n",
                    (unsigned long long)degraded_traces);
        std::printf("# degraded/clean slowdown: %.2fx; recovery vs "
                    "clean body: %.2fx\n",
                    degraded.medianSeconds / off.medianSeconds,
                    recover.medianSeconds / off.medianSeconds);
    }

    return 0;
}
