/**
 * @file
 * Memoization of fusion analysis and code generation (paper §5.2).
 *
 * Task groups are canonicalized by renaming store ids to their
 * first-use order — the De-Bruijn-style representation of Fig 7 that
 * makes memoization robust to store renaming (alpha-equivalence).
 * The cached plan records the fused argument template over canonical
 * slots, the eliminated temporaries, and the compiled kernel; on a hit
 * the plan is re-instantiated against the current window's stores and
 * no analysis or compilation runs.
 *
 * The key also encodes each store's liveness-beyond-the-group bit,
 * because temporary elimination (Definition 4) depends on it: two
 * textually isomorphic groups with different liveness must not share
 * a plan.
 *
 * The canonical, store-id-parameterized form this cache introduces
 * (slots + re-instantiation) is also the representation the trace
 * layer (core/trace.h) builds on: trace replay extends the same
 * alpha-equivalence from one group to a whole flushed window, and
 * from the planner's output to the runtime's (pieces, exchange
 * plans, hazard edges, timings). A trace hit therefore sits *above*
 * this cache — replayed windows do not consult it, and its hit
 * counters intentionally stop moving in traced steady state.
 */

#ifndef DIFFUSE_CORE_MEMO_H
#define DIFFUSE_CORE_MEMO_H

#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/sharded_cache.h"
#include "core/fusion.h"
#include "core/index_task.h"
#include "core/store.h"

namespace diffuse {

/** A cached, canonical execution plan for a task group. */
struct CachedGroup
{
    int length = 0;
    bool fused = false;
    int sourceTasks = 1;
    std::string name;

    struct CArg
    {
        int slot = 0; ///< canonical store index (first-use order)
        PartitionDesc part;
        Privilege priv = Privilege::Read;
        ReductionOp redop = ReductionOp::Sum;
    };
    std::vector<CArg> args;
    std::vector<int> tempSlots;
    Rect launchDomain;
    std::shared_ptr<kir::CompiledKernel> kernel;
};

/**
 * Group-level memoization cache.
 *
 * A ShardedCache (common/sharded_cache.h), so one memoizer may be
 * shared by every session of a process (core/context.h): entries are
 * never erased — a returned plan pointer stays valid for the cache's
 * lifetime — and `getOrBuild()` builds a cold key under its shard
 * lock, so each unique group is planned and compiled exactly once
 * process-wide even when many sessions race on it (losers block
 * briefly, then hit).
 */
class Memoizer
{
  public:
    struct Stats
    {
        std::atomic<std::uint64_t> hits{0};
        std::atomic<std::uint64_t> misses{0};
        std::atomic<std::uint64_t> entries{0};
        /**
         * Executable plans lowered on behalf of this cache: one per
         * inserted group carrying a compiled kernel. A hit reuses the
         * cached kernel's plan pointer, so this stays constant in
         * steady state (no re-lowering) — and with a shared cache it
         * counts unique plans process-wide, not per session.
         */
        std::atomic<std::uint64_t> plansLowered{0};
    };

    /**
     * Canonical encoding of `prefix` under the given liveness.
     * @param slots_out Receives the store id of each canonical slot
     *        in first-use order (for plan re-instantiation).
     */
    std::string encode(std::span<const IndexTask> prefix,
                       const StoreTable &stores,
                       const std::function<bool(StoreId)> &live_after,
                       std::vector<StoreId> *slots_out) const;

    /**
     * The plan cached under `key`; on a miss `build` runs under the
     * key's shard lock and its result is cached. Counts one hit or
     * one miss. A throwing build caches nothing.
     */
    const CachedGroup *
    getOrBuild(const std::string &key,
               const std::function<CachedGroup()> &build);

    /** Convert an ExecutionGroup into its canonical cached form. */
    static CachedGroup canonicalize(const ExecutionGroup &group,
                                    std::span<const StoreId> slots);

    /** Instantiate a cached plan against concrete stores. */
    static ExecutionGroup instantiate(const CachedGroup &plan,
                                      std::span<const IndexTask> prefix,
                                      std::span<const StoreId> slots);

    const Stats &stats() const { return stats_; }

  private:
    ShardedCache<CachedGroup> plans_;
    Stats stats_;
};

} // namespace diffuse

#endif // DIFFUSE_CORE_MEMO_H
