/**
 * @file
 * The JIT compiler driver: composes generated task bodies, runs the
 * optimization pipeline, and accounts compilation time (paper §6.3 and
 * §7.2). Wall time of our own passes is measured; a synthetic backend
 * cost models the MLIR→LLVM→PTX lowering we do not perform (see
 * DESIGN.md substitutions).
 */

#ifndef DIFFUSE_KERNEL_COMPILER_H
#define DIFFUSE_KERNEL_COMPILER_H

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "kernel/exec.h"
#include "kernel/ir.h"
#include "kernel/passes.h"
#include "kernel/plan.h"

namespace diffuse {
namespace kir {

/**
 * An executable kernel plus its compilation record. The executable
 * plan (strip-mined vector tapes, see plan.h) is lowered once here and
 * shared by every instantiation: a memoized group hit reuses the same
 * plan pointer, so neither codegen nor plan lowering re-runs.
 */
struct CompiledKernel
{
    KernelFunction fn;
    PipelineStats pipeline;
    CompileCost cost;
    std::shared_ptr<const ExecutablePlan> plan;
};

/** Aggregate compilation statistics for a whole run. */
struct CompilerStats
{
    /** Kernels compiled, each with its executable plan (memo hits
     * skip both). */
    int plansLowered = 0;
    double measuredSeconds = 0.0;
    double modeledSeconds = 0.0;
    int loopsFused = 0;
    int localsEliminated = 0;
};

/**
 * Compiles kernel functions. Owns no cache: callers (the memoizer)
 * decide reuse policy. Compilation itself is a pure function of the
 * input IR; the stats record is mutex-guarded, so one compiler may
 * serve several sessions compiling concurrently (core/context.h) —
 * read stats() only from quiescent points (no compile in flight).
 */
class JitCompiler
{
  public:
    /**
     * Compile a single-task kernel: the generated body is optimized
     * directly (no composition).
     */
    std::shared_ptr<CompiledKernel> compileSingle(KernelFunction fn);

    /**
     * Compile a fused kernel from task parts. Parameters mirror
     * kir::compose().
     */
    std::shared_ptr<CompiledKernel>
    compileFused(const std::string &name,
                 std::span<const KernelFunction *const> parts,
                 std::span<const std::vector<int>> buffer_maps,
                 std::span<const std::vector<int>> scalar_maps,
                 std::vector<BufferInfo> fused_buffers, int num_args,
                 int num_scalars);

    /** Snapshot under the stats mutex: safe to call while another
     * session's compile is in flight. */
    CompilerStats
    stats() const
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        return stats_;
    }

  private:
    std::shared_ptr<CompiledKernel> finish(KernelFunction fn,
                                           double wall_start);

    mutable std::mutex statsMutex_;
    CompilerStats stats_;
};

/** Monotonic wall-clock seconds. */
double wallSeconds();

} // namespace kir
} // namespace diffuse

#endif // DIFFUSE_KERNEL_COMPILER_H
