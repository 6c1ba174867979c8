/**
 * @file
 * Paper Fig 10a: Black-Scholes weak scaling, fused vs unfused.
 * Expected shape: fused throughput roughly flat and several times the
 * unfused line; the gap widens with scale as per-task runtime
 * overheads grow (paper: 10.7x at 128 GPUs).
 *
 * The Real-mode wall-clock section measures the kernel executor on
 * the fused Black-Scholes body (transcendental-heavy, fully fusible):
 * scalar oracle (DIFFUSE_SCALAR_EXEC=1) vs. the strip-mined vector
 * executor on the same build, one 1-worker row per copy of the VM's
 * strip loop this CPU runs (kir::forceVmCopy), so the baseline copy's
 * cost shows on any host. DIFFUSE_BENCH_SMOKE=1 runs only this
 * section at CI size.
 */

#include <memory>

#include "harness.h"
#include "kernel/exec.h"

namespace {

using namespace bench;

WallMetric
measureBs(const std::string &label, int workers, bool scalar, coord_t n,
          int steps, int reps)
{
    ScalarExecGuard guard(scalar);
    DiffuseOptions o;
    o.mode = rt::ExecutionMode::Real;
    o.workers = workers;
    DiffuseRuntime rt(rt::MachineConfig::withGpus(8), o);
    num::Context ctx(rt);
    apps::BlackScholes app(ctx, n); // n options per gpu, 8 gpus
    // Warm up past window growth so steady state is one fused group
    // per step (and the memoized plan is hot).
    for (int i = 0; i < 5; i++) {
        app.step();
        rt.flushWindow();
    }
    double elems = double(n) * 8.0 * double(steps); // options priced
    // Fused body traffic: read S, K, T; write call, put.
    double bytes = elems * 8.0 * 5.0;
    return measureWall(label, reps, elems, bytes, [&] {
        for (int i = 0; i < steps; i++)
            app.step();
        rt.flushWindow();
    });
}

} // namespace

int
main()
{
    using namespace bench;
    const bool smoke = smokeMode();

    if (!smoke) {
        const coord_t n_per_gpu = coord_t(1) << 26;
        sweepFusedUnfused(
            "Fig 10a", "Black-Scholes weak scaling (higher is better)",
            [&](DiffuseRuntime &rt, int) {
                auto ctx = std::make_shared<num::Context>(rt);
                auto app = std::make_shared<apps::BlackScholes>(
                    *ctx, n_per_gpu);
                return [ctx, app] { app->step(); };
            });
    }

    // Sized so the per-piece working set stays cache-resident: at
    // DRAM-bound sizes both engines converge on the memory wall and
    // the comparison measures bandwidth, not the executor.
    const coord_t n = smoke ? coord_t(1) << 14 : coord_t(1) << 15;
    const int steps = smoke ? 4 : 8;
    const int reps = smoke ? 5 : 7;
    std::printf("# Real-mode wall clock — scalar oracle vs. vector "
                "executor (%lld options, %d steps/rep)\n", (long long)n,
                steps);
    printWallHeader();
    WallMetric scalar_w1 = measureBs("scalar_w1", 1, true, n, steps,
                                     reps);
    printWallRow(scalar_w1);
    // One row per copy of the strip loop, each forced in turn; the
    // default copy (the widest this CPU runs) is the one compared.
    const kir::VmCopy chosen = kir::vmCopy();
    WallMetric vector_w1;
    for (kir::VmCopy copy : {kir::VmCopy::Baseline, kir::VmCopy::Avx512}) {
        if (!kir::vmCopySupported(copy))
            continue;
        kir::forceVmCopy(copy);
        WallMetric m = measureBs(std::string("vector_w1 ") +
                                     kir::vmCopyName(copy),
                                 1, false, n, steps, reps);
        printWallRow(m);
        if (copy == chosen)
            vector_w1 = m;
    }
    kir::forceVmCopy(chosen);
    WallMetric vector_w8 = measureBs("vector_w8", 8, false, n, steps,
                                     reps);
    printWallRow(vector_w8);
    // Speedups from the least-disturbed rep: on busy hosts the median
    // absorbs scheduler noise that hits both series at random.
    std::printf("# vector (%s) vs scalar (1 worker): %.2fx\n",
                kir::vmCopyName(chosen),
                scalar_w1.minSeconds / vector_w1.minSeconds);
    std::printf("# vector 8 vs 1 workers:      %.2fx\n",
                vector_w1.minSeconds / vector_w8.minSeconds);
    return 0;
}
