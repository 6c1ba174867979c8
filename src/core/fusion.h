/**
 * @file
 * The distributed task-fusion algorithm (paper §4.2): greedy
 * identification of the longest fusible prefix of the task window,
 * fused-task construction with privilege promotion, and temporary
 * store elimination (paper §5.1, Definition 4).
 */

#ifndef DIFFUSE_CORE_FUSION_H
#define DIFFUSE_CORE_FUSION_H

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/constraints.h"
#include "core/index_task.h"
#include "core/store.h"
#include "kernel/compiler.h"
#include "kernel/registry.h"

namespace diffuse {

/**
 * A schedulable unit: one original task or one fused task.
 *
 * Groups are designed to be reusable artifacts rather than one-shot
 * planner output: the kernel is shared (memo hits and trace replays
 * alias it), and everything store-specific lives in `task.args` /
 * `temps`, so a group re-instantiates against fresh stores by id
 * substitution alone (Memoizer::instantiate; the trace layer applies
 * the same parameterization to the *lowered* form in
 * rt::ProgramOp).
 */
struct ExecutionGroup
{
    IndexTask task;
    std::shared_ptr<kir::CompiledKernel> kernel;
    /** Stores demoted to task-local allocations by this group. */
    std::vector<StoreId> temps;
    /** Number of source tasks this group replaces. */
    int sourceTasks = 1;
    bool fused = false;
};

/** Ablation/configuration switches for the planner. */
struct PlannerOptions
{
    /** Eliminate temporary stores into task-local buffers (§5.1). */
    bool tempElimination = true;
    /**
     * Run the kernel optimization pipeline (loop fusion etc., §6).
     * Off = task fusion only, the Sundram et al. baseline the paper
     * discusses in §7: tasks concatenate but kernels stay separate.
     */
    bool kernelOptimization = true;
};

/**
 * Plans fusible groups out of task windows. Stateless between calls
 * apart from the compiler it drives.
 */
class FusionPlanner
{
  public:
    FusionPlanner(const kir::Registry &registry,
                  kir::JitCompiler &compiler, const StoreTable &stores,
                  PlannerOptions options)
        : registry_(registry), compiler_(compiler), stores_(stores),
          options_(options)
    {}

    /**
     * Length of the longest fusible prefix of `window` (>= 1 whenever
     * the window is non-empty). `block_out`, when non-null, receives
     * the constraint that stopped the prefix.
     */
    int findPrefix(std::span<const IndexTask> window,
                   FusionBlock *block_out) const;

    /**
     * Build the fused group for `prefix` (length >= 2).
     *
     * @param live_after Returns true when the application or a pending
     *        task beyond the prefix may still observe the store —
     *        conditions (2) and (3) of Definition 4.
     */
    ExecutionGroup
    buildFused(std::span<const IndexTask> prefix,
               const std::function<bool(StoreId)> &live_after);

    /** Generator signature for a stand-alone task. */
    kir::GenSignature signatureFor(const IndexTask &task) const;

    /** Build a single-task group (no fusion), compiling its kernel. */
    ExecutionGroup buildSingle(const IndexTask &task);

    const PlannerOptions &options() const { return options_; }

    /**
     * Does partition `part` of a store cover the whole store? Used by
     * Definition 4's covered-write condition. Exact for None; for
     * Tiling computed from disjoint tile volumes over the launch
     * domain.
     */
    static bool covers(const PartitionDesc &part, const Rect &shape,
                       const Rect &launch_domain);

  private:
    const kir::Registry &registry_;
    kir::JitCompiler &compiler_;
    const StoreTable &stores_;
    PlannerOptions options_;
};

} // namespace diffuse

#endif // DIFFUSE_CORE_FUSION_H
