/**
 * @file
 * The paper's §2 motivating claim: "Diffuse speeds this program up by
 * four times" — the 5-point stencil of Fig 1 (FUSED_ADD_MULT + COPY
 * instead of five element-wise tasks and their temporaries).
 *
 * Besides the simulated weak-scaling sweep, the binary measures the
 * Real-mode wall clock of the kernel executor itself: the scalar
 * interpreter (DIFFUSE_SCALAR_EXEC=1 oracle) at 1 worker against the
 * strip-mined vector executor at 1 and 8 workers. Results are
 * bit-identical across all three configurations; only the speed
 * differs.
 * DIFFUSE_BENCH_SMOKE=1 skips the sweep and shrinks the wall-clock
 * section to CI size.
 */

#include <cmath>
#include <memory>

#include "harness.h"

namespace {

using namespace bench;

/**
 * Steady-state stencil throughput: 8-point index tasks over an
 * (n+2)^2 grid. Warmup covers allocation, compilation and plan
 * lowering; each rep then times `steps` full steps.
 */
WallMetric
measureStencil(const std::string &label, int workers, bool scalar,
               coord_t n, int steps, int reps)
{
    ScalarExecGuard guard(scalar);
    DiffuseOptions o;
    o.mode = rt::ExecutionMode::Real;
    o.workers = workers;
    DiffuseRuntime rt(rt::MachineConfig::withGpus(8), o);
    num::Context ctx(rt);
    apps::Stencil app(ctx, n);
    // Warm up past window growth: steady state fuses each step into
    // FUSED_ADD_MULT + COPY with a hot memoized plan.
    for (int i = 0; i < 4; i++) {
        app.step();
        rt.flushWindow();
    }
    // Per step: read 5 shifted views + write the temp + copy back.
    double elems = double(n) * double(n) * double(steps);
    double bytes = elems * 8.0 * 3.0;
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
        const coord_t n0 = 6144; // grid edge at 1 GPU (square grid, so
                                 // weak scaling grows the edge as sqrt P)
        sweepFusedUnfused(
            "Fig 1 (motivation)",
            "5-point stencil weak scaling (paper SS2 claims ~4x)",
            [&](DiffuseRuntime &rt, int gpus) {
                coord_t n =
                    coord_t(double(n0) * std::sqrt(double(gpus)));
                auto ctx = std::make_shared<num::Context>(rt);
                auto app = std::make_shared<apps::Stencil>(*ctx, n);
                return [ctx, app] { app->step(); };
            });
    }

    const coord_t n = smoke ? 256 : 1024;
    const int steps = smoke ? 2 : 4;
    const int reps = smoke ? 5 : 7;
    std::printf("# Real-mode wall clock — scalar oracle vs. vector "
                "executor (grid %lld^2, %d steps/rep)\n",
                (long long)n, steps);
    printWallHeader();
    WallMetric scalar_w1 =
        measureStencil("scalar_w1", 1, true, n, steps, reps);
    printWallRow(scalar_w1);
    WallMetric vector_w1 =
        measureStencil("vector_w1", 1, false, n, steps, reps);
    printWallRow(vector_w1);
    WallMetric vector_w8 =
        measureStencil("vector_w8", 8, false, n, steps, reps);
    printWallRow(vector_w8);
    // Speedups from the least-disturbed rep: on busy hosts the median
    // absorbs scheduler noise that hits both series at random.
    std::printf("# vector vs scalar (1 worker): %.2fx\n",
                scalar_w1.minSeconds / vector_w1.minSeconds);
    std::printf("# vector 8 vs 1 workers:      %.2fx\n",
                vector_w1.minSeconds / vector_w8.minSeconds);
    return 0;
}
