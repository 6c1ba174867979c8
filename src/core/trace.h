/**
 * @file
 * Trace-memoized window replay (the paper's §5.2 memoization carried
 * to its logical end, in the spirit of Legion's tracing): the middle
 * layer hashes each flushed window's *event stream* — submitted tasks
 * (types, launch domains, partitions, privileges, store facts) and
 * application retain/release events of stores the epoch has already
 * seen (any other retain/release applies at once, outside the stream),
 * with store ids canonicalized to first-appearance slots — and, when
 * an epoch repeats, bypasses the fusion planner, constraint checker,
 * memo encoder, lowering and hazard analysis entirely: the epoch's
 * trace program (rt::TraceProgram: compiled kernels, promoted
 * privileges, expanded pieces, exchange Copy tasks, dependence edges,
 * cost-model timings, flattened in submission order) is replayed with
 * only the concrete store buffers and scalar values rebound.
 *
 * Correctness rests on three checks before a replay commits:
 *  1. the canonical event codes match position by position (this also
 *     pins window size, store shapes and dtypes);
 *  2. every store's submission-visible runtime state (coherence
 *     record + shard placement maps) matches its capture-time
 *     signature, so recorded exchanges and timings remain exact;
 *  3. every liveness bit temporary-store elimination consumed is
 *     revalidated against the replay window's application refcounts.
 * Any mismatch falls back to the analyzed path (and re-captures), so
 * DIFFUSE_TRACE=0 — which disables the layer outright — is a pure
 * differential oracle: results are bit-identical either way.
 */

#ifndef DIFFUSE_CORE_TRACE_H
#define DIFFUSE_CORE_TRACE_H

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/node_recycler.h"
#include "common/sharded_cache.h"
#include "core/constraints.h"
#include "core/index_task.h"
#include "core/store.h"
#include "runtime/runtime.h"

namespace diffuse {

/** Upper bound on events recorded per epoch (memory backstop). */
constexpr int kTraceMaxEvents = 4096;
/** Upper bound on cached epochs per TraceCache — per runtime when
 * isolated, process-wide when sessions share one (core/context.h). */
constexpr std::size_t kTraceMaxEntries = 64;
/**
 * Upper bound on coexisting state-signature variants of one code
 * stream: beyond it, a new capture replaces the coldest variant
 * instead of appending, so a stream whose entry state drifts every
 * repetition cannot fill the whole cache.
 *
 * Sized by FusionFuzz.SharedCacheSessionsBitwiseEqualAndFullyReused
 * at 1,000 seeds (Release). Foreign retains and
 * releases stay out of the code stream, so one stream carries the
 * variants of every entry state a request can meet:
 *
 *   cap   seeds failing full reuse (epochs the 2nd session captured)
 *   4     2 (seed 4647763: 3, seed 5716828: 2); results stay bitwise
 *   6     0
 *   8     0
 *   16    0
 */
constexpr std::size_t kTraceMaxVariants = 8;

/** One middle-layer event between two window flushes. */
enum class TraceEventKind : std::uint8_t {
    Submit,  ///< an index task entered the window
    Retain,  ///< the application took a store reference
    Release, ///< the application dropped a store reference
};

struct TraceEvent
{
    TraceEventKind kind = TraceEventKind::Submit;
    IndexTask task;                 ///< Submit only
    StoreId store = INVALID_STORE;  ///< Retain/Release only
};

/**
 * One liveness bit temporary elimination read during capture, for a
 * store whose in-window successors did *not* keep it alive — i.e. the
 * decision hinged on the application refcount, which replay must
 * re-check (the in-window component is implied by matching codes).
 */
struct TraceProbe
{
    int slot = 0;
    bool appLive = false;
};

/** One schedulable unit of a captured epoch. */
struct TraceUnit
{
    /** Its runtime submissions, in order (exchange Copies, then the
     * compute task): ops [opBegin, opEnd) of the epoch's program. */
    std::uint32_t opBegin = 0;
    std::uint32_t opEnd = 0;
    /** Window tasks this unit consumed. */
    int prefixLen = 1;
    /** Index of the event whose processing emitted the unit (== the
     * epoch's event count for flush-emitted units). */
    int endEvent = 0;
    FusionBlock block = FusionBlock::None;
    bool fused = false;
    std::uint32_t temps = 0;
    std::vector<TraceProbe> probes;
};

/** A fully captured epoch: the replayable planner/runtime output.
 * Immutable once stored (`replays` is the one exception, an atomic
 * gauge) — sessions sharing a cache replay one epoch concurrently. */
struct TraceEpoch
{
    /** Canonical per-event encodings (code 0 embeds the entry window
     * size and the session's planning fingerprint; each code embeds
     * shape/dtype facts of new slots). */
    std::vector<std::string> codes;
    /** Per-slot runtime state signature at first appearance. */
    std::vector<std::uint64_t> slotSigs;
    std::vector<TraceUnit> units;
    /** Every unit's submissions: the program the capture ran,
     * published as it ran. A session holds it until its next program
     * begins, so it outlives a cache replacement while its ops are in
     * flight. */
    std::shared_ptr<const rt::TraceProgram> program;
    int windowSizeAfter = 0;
    std::uint32_t growths = 0;
    std::atomic<std::uint64_t> replays{0};
};

/**
 * Incremental canonical encoder for one epoch's event stream. Store
 * ids map to slots in first-appearance order (the alpha-equivalence
 * of memo.h, extended across a whole epoch); each new slot's shape
 * and dtype are embedded at its introduction site, so two epochs with
 * identical code sequences agree on everything the planner reads.
 */
class EpochEncoder
{
  public:
    void reset(int window_size);

    /**
     * Planning fingerprint embedded in the first code: everything
     * outside the event stream that shapes the planner's and
     * runtime's output (planner options, worker and rank counts,
     * execution mode, task-registry identity). Sessions sharing one
     * cache only match epochs captured under identical planning
     * configuration. Set as the epoch's first code is built — the
     * registry half only settles once libraries have registered,
     * which is after the runtime constructor resets this encoder for
     * its first epoch.
     */
    void setSalt(std::uint64_t salt) { salt_ = salt; }

    /**
     * Encode one event into `code` (overwritten; its capacity is
     * reused). New stores are assigned slots and appended to
     * `new_stores` (callers snapshot their runtime state signatures
     * immediately — nothing in the epoch has touched them yet).
     */
    void encode(const TraceEvent &ev, const StoreTable &stores,
                std::vector<StoreId> *new_stores, std::string &code);

    /** Slot of a store, or -1 when it has not appeared this epoch. */
    int slotOf(StoreId id) const;

    /** Store id of each slot, in first-appearance order. */
    const std::vector<StoreId> &slots() const { return slots_; }

  private:
    int slotFor(StoreId id, const StoreTable &stores, std::string &code,
                std::vector<StoreId> *new_stores);

    using SlotMap = std::unordered_map<StoreId, int>;
    SlotMap slotOf_;
    /** reset() keeps the slot map's nodes for the next epoch. */
    NodeRecycler<SlotMap> slotNodes_{kTraceMaxEvents};
    std::vector<StoreId> slots_;
    int windowSize_ = 0;
    std::uint64_t salt_ = 0;
    bool first_ = true;
};

/**
 * The trace store — per runtime when isolated, shared by every
 * session of a process under core/context.h. Epochs are bucketed by
 * their first event code, so speculation starts with the (few)
 * candidates whose opening matches and narrows them as events arrive.
 *
 * The buckets are a ShardedCache (common/sharded_cache.h): each
 * store() runs under its bucket's shard lock, candidates() hands out
 * a snapshot of shared_ptr epochs (a replacement store() drops only
 * the cache's reference, so a session mid-speculation keeps its
 * candidate alive and replays it against its own, still-matching
 * state), and stored epochs are immutable.
 */
class TraceCache
{
  public:
    /**
     * Snapshot the candidate epochs whose stream opens with
     * `first_code` into `out` (cleared first). Returns whether the
     * bucket exists at all — an absent bucket in a full cache can
     * never admit a capture, an empty-looking present one can
     * (replacement of a stale epoch).
     */
    bool candidates(const std::string &first_code,
                    std::vector<std::shared_ptr<TraceEpoch>> *out) const;

    /**
     * Store a captured epoch. An existing epoch with the identical
     * code sequence is replaced (its state signatures or liveness
     * bits went stale); otherwise the epoch is appended, unless the
     * cache is full — then it is dropped, no bucket is created and
     * false is returned.
     */
    bool store(std::shared_ptr<TraceEpoch> epoch);

    std::size_t entries() const
    {
        return entries_.load(std::memory_order_relaxed);
    }

  private:
    using Bucket = std::vector<std::shared_ptr<TraceEpoch>>;

    ShardedCache<Bucket> buckets_;
    std::atomic<std::size_t> entries_{0};
};

} // namespace diffuse

#endif // DIFFUSE_CORE_TRACE_H
