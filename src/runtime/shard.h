/**
 * @file
 * Sharded distributed-memory execution (the "ranks" model).
 *
 * With DIFFUSE_RANKS > 1 the runtime stops executing every point task
 * against one shared allocation and instead materializes *per-rank
 * shard buffers*: launch-domain point p maps to rank p % ranks, and a
 * store's data lives wherever the last task wrote it — one rectangle
 * per writing point, in that point's rank's shard. Before a task can
 * run, every piece it reads must be resident in its rank's shard; the
 * ShardManager plans exactly which rectangles must be pulled from
 * which owner (found in the per-rank validity lists, rank by rank,
 * then in the canonical copy) and emits them as Copy tasks, which the
 * runtime schedules through the TaskStream under the same RAW/WAR/WAW
 * hazard machinery as compute tasks.
 *
 * This is legion-mini's analogue of Legion's instance mapping +
 * copy-materialization: the paper's fused-vs-unfused communication
 * volumes (Figures 10-12) become *measured* quantities — every copy
 * carries its byte count, split NVLink/IB by the rank -> node map —
 * instead of analytic guesses.
 *
 * Placement model ("who holds what"): for every element of a store,
 * the newest value is held by exactly one owner — either one rank's
 * shard (tracked as a disjoint valid-rectangle list per rank) or the
 * canonical host-replicated copy (valid-rectangle list `hostValid`).
 * Pulled ghost copies are additionally valid at their destination
 * until an overlapping write invalidates them everywhere else.
 * Pulls from the canonical copy are free (that data is resident on
 * every rank: initialization and post-collective broadcast results);
 * rank-to-rank pulls and gathers into the canonical copy are charged.
 *
 * Bitwise fidelity: copies move bytes verbatim and kernels run over
 * the same values in the same order as the single-allocation path.
 * Tasks whose cross-point aliasing makes the sequential point order
 * observable through the shared allocation (a written piece of one
 * point overlapping another point's accesses) fall back to binding
 * the canonical allocation, so ranks=4 stays bit-identical to
 * ranks=1. The fusion-equivalence fuzzer locks this in.
 */

#ifndef DIFFUSE_RUNTIME_SHARD_H
#define DIFFUSE_RUNTIME_SHARD_H

#include <cstddef>
#include <span>
#include <vector>

#include "common/geometry.h"
#include "common/types.h"
#include "runtime/buffer_pool.h"
#include "runtime/machine.h"
#include "runtime/task_stream.h"

namespace diffuse {
namespace rt {

/** A resolved view of one piece inside a rank's shard buffer. */
struct ShardView
{
    std::byte *base = nullptr; ///< piece origin (null without pointers)
    coord_t stride[2] = {0, 0}; ///< row/element strides (elements)
};

/**
 * Plans exchanges at submission (program order) over the placement
 * states the runtime keeps in its store records, and executes retired
 * Copy tasks. Inactive (transparent) when ranks == 1.
 */
class ShardManager
{
  public:
    struct Shard
    {
        Rect rect; ///< allocated bounding box (empty: no buffer yet)
        RawBuffer data;
        /** Disjoint rectangles currently holding up-to-date data. */
        std::vector<Rect> valid;
    };

    /** A store's placement state, kept in the store's record: its
     * shard buffers (one per rank) and its validity lists. */
    struct StoreState
    {
        StoreId id = INVALID_STORE;
        Rect shape;
        DType dtype = DType::F64;
        std::vector<Shard> shards; ///< one per rank
        /** Validity of the canonical (host-replicated) copy. */
        std::vector<Rect> hostValid;
    };

    /** Shard buffers come from, and return to, `buffers` (the
     * runtime's recycling pool, which must outlive this manager). */
    ShardManager(ExecutionMode mode, int ranks, BufferPool &buffers);

    int ranks() const { return ranks_; }
    bool active() const { return ranks_ > 1; }
    /** Launch-domain point to rank mapping. */
    int rankOf(int point) const { return point % ranks_; }

    /** Make `s` the state of a new store (a no-op when inactive): the
     * canonical copy owns everything, and no shard has a buffer. */
    void reset(StoreState &s, StoreId id, const Rect &shape,
               DType dtype);

    /** Return the shard buffers of a destroyed store to the pool. */
    void release(StoreState &s);

    /**
     * The host wrote the canonical copy (markInitialized, mutable
     * data pointers): the canonical copy becomes the sole owner of
     * everything.
     */
    void onHostWrite(StoreState &s);

    /**
     * Plan the exchanges `task` needs before it can run, appending
     * one CopyDesc per moved rectangle, and decide per argument
     * whether it binds a shard or the canonical allocation
     * (task.argCanonical). Runs at submission so the placement map
     * evolves in program order; the emitted copies must be submitted
     * to the stream *before* the task so hazards order them.
     * `states[i]` is argument i's store state.
     */
    void planTask(LaunchedTask &task, std::span<StoreState *const> states,
                  std::vector<CopyDesc> &copies);

    /**
     * Re-apply the placement-map mutations `planTask` makes for a
     * task whose exchanges were already planned and recorded (trace
     * replay): shard coverage growth, pulled-piece and gather
     * validity, and write effects — in the same order, but with no
     * owner scanning, since the recorded Copy tasks are resubmitted
     * verbatim. Only sound when the per-store placement state matches
     * the capture-time state; the trace layer validates that with
     * `stateSignature` before committing to a replay. `states[i]` is
     * argument i's store state (the task's store ids may be slots).
     */
    void replayTask(const LaunchedTask &task,
                    std::span<StoreState *const> states);

    /**
     * Order-sensitive digest of a store's placement state (validity
     * lists and shard bounding boxes, all that `planTask` reads of
     * it). Equal signatures mean `planTask` would plan the identical
     * exchanges.
     * Returns 0 when sharding is inactive.
     */
    std::uint64_t stateSignature(const StoreState &s) const;

    /**
     * Execute one retired Copy task of the store `s` (Real mode): the
     * verbatim memcpy between shard buffers and/or the canonical
     * allocation (`canonical` may be null when neither endpoint is
     * rank -1).
     */
    void executeCopy(StoreState &s, const CopyDesc &copy,
                     std::byte *canonical);

    /**
     * Pull every rectangle the canonical allocation is missing from
     * its owning shard (Real mode; host readback under a fence —
     * untimed marshalling, unlike the Copy tasks planTask emits).
     */
    void gatherToCanonical(StoreState &s, std::byte *canonical);

    /**
     * Resolve the shard view of `piece` of store `s` for launch point
     * `point`. Must only be called for arguments planTask marked
     * non-canonical (the shard covering the piece exists by then).
     */
    ShardView shardView(StoreState &s, int point, const Rect &piece,
                        bool with_pointer);

  private:
    /**
     * Remove `r` from every rectangle of `list` (exact subtract),
     * keeping the list's order: state signatures hash it in order.
     * Allocates nothing when `r` hits no entry.
     */
    void invalidate(std::vector<Rect> &list, const Rect &r);
    /** Add `r` to `list`, keeping entries disjoint. */
    void markValid(std::vector<Rect> &list, const Rect &r);
    /** The parts of `r` not covered by `list`. Allocates nothing when
     * `list` covers `r`. */
    static std::vector<Rect> uncovered(const std::vector<Rect> &list,
                                       const Rect &r);
    /** Does `list` cover all of `r`? Allocation-free: its entries are
     * disjoint, so they cover `r` exactly when their overlaps with it
     * add up to its volume. */
    static bool covers(const std::vector<Rect> &list, const Rect &r);

    /** Grow rank `rank`'s shard to cover `rect` (preserving data). The
     * grown buffer comes zero-filled from the pool; the old one
     * returns to it. */
    void ensureShardCovers(StoreState &s, int rank, const Rect &rect);

    /** Plan pulls making `piece` resident in `rank`'s shard. */
    void planPull(StoreState &s, int rank, const Rect &piece,
                  std::vector<CopyDesc> &copies);

    /** Plan gathers making the canonical copy fully valid. */
    void planGather(StoreState &s, std::vector<CopyDesc> &copies);

    /**
     * Apply `task`'s write and reduce effects to the placement map, in
     * argument (program) order. Shared by planTask and replayTask, so
     * a replayed task leaves the validity lists exactly as planning
     * did: state signatures hash them in order.
     */
    void applyWriteEffects(const LaunchedTask &task,
                           std::span<StoreState *const> states);

    ExecutionMode mode_;
    int ranks_;
    BufferPool &buffers_;
    /** invalidate()'s rebuilt tail, reused across calls. */
    std::vector<Rect> scratch_;
};

} // namespace rt
} // namespace diffuse

#endif // DIFFUSE_RUNTIME_SHARD_H
