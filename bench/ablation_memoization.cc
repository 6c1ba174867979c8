/**
 * @file
 * Ablation (paper §5.2/§7: "memoization is a requirement for a
 * practical implementation"): cumulative compile work with and
 * without the analysis/kernel cache over repeated CG iterations —
 * extended with the trace layer (core/trace.h), which memoizes the
 * remaining per-window submission work (fusion analysis, memo
 * encoding, lowering, exchange planning, hazard analysis) on top of
 * the memoizer's per-group caching.
 */

#include <memory>

#include "harness.h"

int
main()
{
    using namespace bench;
    std::printf("# Ablation — memoization of fusion analysis, code "
                "generation, plan lowering and whole-window traces "
                "(8 GPUs, 20 CG iterations)\n");
    std::printf("%-5s %-6s %9s %9s %9s %8s %8s %13s %13s\n",
                "memo", "trace", "hits", "misses", "plans", "tr-hit",
                "tr-miss", "submit(us/w)", "replay(us/w)");
    bool traced_hit = false;
    for (bool memo : {true, false}) {
        for (int trace : {1, 0}) {
            DiffuseOptions o = simOptions(true);
            o.memoization = memo;
            o.trace = trace;
            DiffuseRuntime rt(rt::MachineConfig::withGpus(8), o);
            num::Context ctx(rt);
            sp::SparseContext sctx(ctx);
            solvers::SolverContext sol(ctx, sctx);
            coord_t rows = (coord_t(1) << 20) * 8;
            sp::CsrMatrix a = sctx.poisson2d(4096, rows / 4096);
            num::NDArray b = ctx.zeros(rows, 1.0);
            rt.flushWindow();
            for (int i = 0; i < 20; i++) {
                sol.cg(a, b, 1);
                rt.flushWindow();
            }
            const FusionStats &fs = rt.fusionStats();
            double planned_per =
                1e6 * fs.plannedSubmitSeconds /
                double(std::max<std::uint64_t>(
                    1, fs.flushes - fs.traceEpochsReplayed));
            double replay_per =
                1e6 * fs.replaySubmitSeconds /
                double(std::max<std::uint64_t>(
                    1, fs.traceEpochsReplayed));
            traced_hit =
                traced_hit || fs.traceEpochsReplayed > 0;
            std::printf(
                "%-5s %-6s %9llu %9llu %9d %8llu %8llu %13.1f "
                "%13.1f\n",
                memo ? "on" : "off", trace ? "on" : "off",
                (unsigned long long)rt.memoStats().hits,
                (unsigned long long)rt.memoStats().misses,
                rt.compilerStats().plansLowered,
                (unsigned long long)fs.traceEpochsReplayed,
                // Aborted windows recapture, so captured counts every
                // planner-analyzed window once.
                (unsigned long long)fs.traceEpochsCaptured,
                planned_per, trace ? replay_per : 0.0);
        }
    }
    std::printf(
        "# expectation: with memoization compile work (codegen AND "
        "executable-plan lowering) is constant; without, it grows "
        "with iterations.\n"
        "# with tracing, steady-state windows replay (tr-hit > 0) "
        "and their per-window submission time drops below the "
        "analyzed path's — while results stay bit-identical "
        "(DIFFUSE_TRACE=0 is the oracle).\n"
        "# memo hit counters stop moving under replay: the trace "
        "sits above the memoizer.\n\n");
    if (!traced_hit) {
        std::fprintf(stderr, "ablation_memoization: expected trace "
                             "replays in steady state\n");
        return 1;
    }
    return 0;
}
