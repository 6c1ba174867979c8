#include "runtime.h"

#include <algorithm>
#include <cstring>
#include <span>

#include "common/env.h"
#include "common/logging.h"

namespace diffuse {
namespace rt {

namespace {

/** Reserved layout key: valid everywhere. */
constexpr std::uint64_t REPLICATED_LAYOUT = 1;

/** rowMajorStrides with the store-layer failure message. */
void
storeStrides(const Rect &shape, coord_t strides[2])
{
    if (!rowMajorStrides(shape, strides))
        diffuse_panic("stores must be 1-D or 2-D, got %d-D",
                      shape.dim());
}

/** Does a charged Copy task (srcRank >= 0) cross nodes? It runs on
 * its destination's processor, its procHint. */
bool
crossesNodes(const MachineConfig &m, const LaunchedTask &t)
{
    return m.nodeOf(t.copy.srcRank % m.totalGpus()) !=
           m.nodeOf(t.procHint);
}

/** Do the pieces of two accesses overlap across distinct points? */
bool
crossPointOverlap(const std::vector<Rect> &a, const std::vector<Rect> &b)
{
    for (std::size_t p = 0; p < a.size(); p++) {
        if (a[p].empty())
            continue;
        for (std::size_t q = 0; q < b.size(); q++) {
            if (p == q)
                continue;
            if (!a[p].intersect(b[q]).empty())
                return true;
        }
    }
    return false;
}

} // namespace

LowRuntime::LowRuntime(const MachineConfig &machine, ExecutionMode mode,
                       int workers, int ranks,
                       std::shared_ptr<kir::WorkerPool> shared_pool)
    : machine_(machine), mode_(mode),
      // Simulated mode never runs point tasks: no worker threads.
      workers_(mode == ExecutionMode::Simulated
                   ? 1
                   : (workers > 0 ? workers
                                  : kir::WorkerPool::defaultWorkers())),
      pool_(std::move(shared_pool)),
      executors_(std::size_t(workers_)),
      workerBindings_(std::size_t(workers_)),
      buffers_(stats_),
      shards_(mode,
              ranks > 0 ? ranks : envInt("DIFFUSE_RANKS", 1, 1, 4096),
              buffers_),
      stream_(machine)
{
    if (pool_ == nullptr)
        pool_ = std::make_shared<kir::WorkerPool>(workers_);
    else
        pool_->reserve(workers_);
    stream_.setRunner(this);
    memBudgetBytes_ =
        std::size_t(envInt("DIFFUSE_MEM_BUDGET", 0, 1, 1 << 20)) << 20;
    chunkOverride_ = envInt("DIFFUSE_CHUNK", 0, 0, 1 << 20);
    scalarOracle_ = kir::Executor::scalarForced();
}

StoreId
LowRuntime::createStore(const Point &shape, DType dtype, double init)
{
    StoreId id = nextStore_++;
    // A recycled record keeps its vectors' capacity: reset every field.
    StoreRec &store = storeNodes_.insert(stores_, id)->second;
    store.id = id;
    store.shape = Rect::fromShape(shape);
    store.dtype = dtype;
    store.init = init;
    store.lastWriteLayout = 0;
    store.lastWritePieces.clear();
    store.replicatedValid = true;
    store.pendingUses = 0;
    store.zombie = false;
    store.slotProgram = 0;
    shards_.reset(store.shard, id, store.shape, dtype);
    store.history.reset();
    return id;
}

bool
LowRuntime::writeCoversStore(const LowArg &arg, const StoreRec &store)
{
    if (arg.replicated)
        return true; // every point writes the whole store
    coord_t covered = 0;
    for (const Rect &piece : arg.pieces)
        covered += piece.intersect(store.shape).volume();
    // Disjoint pieces summing to the full volume tile the store
    // exactly; with any overlap the covered volume falls short.
    return covered == store.shape.volume() &&
           !crossPointOverlap(arg.pieces, arg.pieces);
}

void
LowRuntime::recycleAllocation(StoreRec &store)
{
    liveBytes_ -= store.data.size();
    buffers_.give(std::move(store.data));
}

void
LowRuntime::ensureAllocated(StoreRec &store, bool skip_init)
{
    if (!store.data.empty() || mode_ != ExecutionMode::Real)
        return;
    std::size_t n = std::size_t(store.shape.volume());
    std::size_t bytes = n * dtypeSize(store.dtype);
    if (faults_.enabled() && faults_.shouldFault(FaultKind::Alloc))
        throw DiffuseError(makeError(ErrorCode::AllocFailed,
                                     "injected allocation fault"));
    // A pool hit transfers pooled -> live: total memory is unchanged,
    // so the budget needs no check.
    if (memBudgetBytes_ != 0 && !buffers_.holds(bytes) &&
        liveBytes_ + buffers_.pooledBytes() + bytes > memBudgetBytes_) {
        // Memory pressure: drop the recycling pool (warm-page reuse is
        // a luxury) before giving up; only if live allocations alone
        // still exceed the budget does the allocation fail —
        // structurally, not as an OOM abort.
        buffers_.evictAll();
        if (liveBytes_ + bytes > memBudgetBytes_)
            throw DiffuseError(makeError(
                ErrorCode::MemBudgetExceeded,
                strprintf("allocation of %zu bytes would exceed "
                          "DIFFUSE_MEM_BUDGET (%zu live of %zu)",
                          bytes, liveBytes_, memBudgetBytes_)));
    }
    store.data = buffers_.take(bytes);
    liveBytes_ += bytes;
    stats_.storesMaterialized++;
    stats_.bytesMaterialized += double(store.data.size());
    if (skip_init)
        return;
    switch (store.dtype) {
      case DType::F64: {
        double *p = reinterpret_cast<double *>(store.data.data());
        std::fill(p, p + n, store.init);
        break;
      }
      case DType::I32: {
        auto *p = reinterpret_cast<std::int32_t *>(store.data.data());
        std::fill(p, p + n, std::int32_t(store.init));
        break;
      }
      case DType::I64: {
        auto *p = reinterpret_cast<std::int64_t *>(store.data.data());
        std::fill(p, p + n, std::int64_t(store.init));
        break;
      }
    }
}

void
LowRuntime::destroyStore(StoreId id)
{
    auto it = stores_.find(id);
    if (it == stores_.end())
        // User misuse (double destroy, stale id): recoverable — the
        // runtime's own state is untouched, so report it structurally
        // instead of aborting every session in the process.
        throw DiffuseError(makeError(
            ErrorCode::StoreError,
            strprintf("destroy of unknown store %llu (double destroy?)",
                      (unsigned long long)id),
            std::string(), id));
    if (it->second.pendingUses > 0) {
        // In-flight tasks still reference the allocation: defer the
        // release until the last of them retires.
        if (!it->second.zombie) {
            it->second.zombie = true;
            zombies_++;
        }
        return;
    }
    destroyRecord(it);
}

void
LowRuntime::destroyRecord(StoreMap::iterator it)
{
    StoreRec &r = it->second;
    recycleAllocation(r);
    shards_.release(r.shard);
    poisoned_.erase(r.id);
    storeNodes_.erase(stores_, it);
}

LowRuntime::StoreRec &
LowRuntime::rec(StoreId id)
{
    auto it = stores_.find(id);
    diffuse_assert(it != stores_.end(), "unknown store %llu",
                   (unsigned long long)id);
    return it->second;
}

const LowRuntime::StoreRec &
LowRuntime::rec(StoreId id) const
{
    auto it = stores_.find(id);
    diffuse_assert(it != stores_.end(), "unknown store %llu",
                   (unsigned long long)id);
    return it->second;
}

std::span<LowRuntime::StoreRec *const>
LowRuntime::resolveArgs(const LaunchedTask &task,
                        std::vector<StoreRec *> &out)
{
    out.clear();
    for (const LowArg &arg : task.args)
        out.push_back(slotRecs_[std::size_t(arg.store)]);
    return out;
}

void
LowRuntime::beginOpenProgram()
{
    diffuse_assert(stream_.pending() == 0,
                   "an epoch's program begins on a drained stream");
    if (open_ == nullptr)
        open_ = std::make_shared<TraceProgram>();
    else
        open_->ops.clear(); // discard the uncaptured predecessor
    program_ = open_;
    openNumber_++;
    slotRecs_.clear();
    programScalars_.clear();
    stream_.beginProgram(*open_);
}

std::uint32_t
LowRuntime::slotOf(StoreRec &r)
{
    if (r.slotProgram != openNumber_) {
        r.slotProgram = openNumber_;
        r.slot = std::uint32_t(slotRecs_.size());
        slotRecs_.push_back(&r);
        stream_.addSlot(r.id, r.history);
    }
    return r.slot;
}

void
LowRuntime::appendOp(LaunchedTask task, TaskTiming timing)
{
    ProgramOp &op = open_->ops.emplace_back();
    // A program op's scalars live in the run's scalar block.
    op.scalarBegin = std::uint32_t(programScalars_.size());
    op.scalarCount = std::uint32_t(task.scalars.size());
    programScalars_.insert(programScalars_.end(), task.scalars.begin(),
                           task.scalars.end());
    task.scalars.clear();
    op.task = std::move(task);
    op.timing = std::move(timing);
    count(op);
    stream_.submitAnalyzed(op);
}

void
LowRuntime::count(const ProgramOp &op)
{
    const LaunchedTask &t = op.task;
    const TaskTiming &tm = op.timing;
    if (t.kind == TaskKind::Copy) {
        // Its CopyDesc decides which kind of exchange it is.
        const CopyDesc &c = t.copy;
        stats_.copyTasks++;
        if (c.srcRank < 0) {
            stats_.hostPulls++; // free: resident everywhere
            return;
        }
        (c.dstRank < 0 ? stats_.gathers : stats_.rankCopies)++;
        (crossesNodes(machine_, t) ? stats_.bytesInterNode
                                   : stats_.bytesIntraNode) += c.bytes;
        stats_.exchangeBytes += c.bytes;
        stats_.commTime += tm.pointSeconds[0];
        return;
    }
    stats_.indexTasks++;
    stats_.pointTasks += std::uint64_t(t.numPoints);
    stats_.bytesHbm += tm.hbmBytes;
    stats_.bytesIntraNode += tm.intraNodeBytes;
    stats_.bytesInterNode += tm.interNodeBytes;
    stats_.commTime += tm.commSeconds;
    stats_.computeTime += tm.computeSeconds;
    // A reduction over several points combines in a collective.
    for (const LowArg &arg : t.args) {
        if (t.numPoints > 1 && privReduces(arg.priv))
            stats_.collectives++;
    }
    stats_.overheadTime +=
        tm.analysisSeconds + machine_.launchOverhead * t.numPoints;
    stats_.collectiveTime += tm.collectiveSeconds;
}

void
LowRuntime::releaseOp(ProgramOp &op)
{
    op.task = LaunchedTask();
    op.timing = TaskTiming();
    op.deps = std::vector<std::uint32_t>();
}

std::span<ShardManager::StoreState *const>
LowRuntime::shardStates(std::span<StoreRec *const> recs)
{
    shardArgs_.clear();
    for (StoreRec *r : recs)
        shardArgs_.push_back(&r->shard);
    return shardArgs_;
}

std::byte *
LowRuntime::hostData(StoreId id, DType dtype, const char *type_name)
{
    if (hostAccessObserver_)
        hostAccessObserver_(id);
    stream_.waitStore(id);
    throwIfPoisoned(id);
    StoreRec &r = rec(id);
    if (r.dtype != dtype)
        throw DiffuseError(makeError(
            ErrorCode::InvalidArgument,
            strprintf("store %llu is not %s", (unsigned long long)id,
                      type_name),
            std::string(), id));
    ensureAllocated(r);
    if (r.data.empty())
        throw DiffuseError(makeError(
            ErrorCode::StoreError,
            strprintf("store %llu has no allocation (Simulated mode?)",
                      (unsigned long long)id),
            std::string(), id));
    // Host readback/write-through: pull every shard-resident
    // rectangle into the canonical allocation, then treat the mutable
    // pointer as a host write (the canonical copy becomes the owner).
    shards_.gatherToCanonical(r.shard, r.data.data());
    shards_.onHostWrite(r.shard);
    return r.data.data();
}

double *
LowRuntime::dataF64(StoreId id)
{
    return reinterpret_cast<double *>(hostData(id, DType::F64, "f64"));
}

std::int32_t *
LowRuntime::dataI32(StoreId id)
{
    return reinterpret_cast<std::int32_t *>(
        hostData(id, DType::I32, "i32"));
}

std::int64_t *
LowRuntime::dataI64(StoreId id)
{
    return reinterpret_cast<std::int64_t *>(
        hostData(id, DType::I64, "i64"));
}

void
LowRuntime::markInitialized(StoreId id)
{
    if (hostAccessObserver_)
        hostAccessObserver_(id);
    stream_.waitStore(id);
    // A host-side (re)initialization redefines every element: the
    // store is healthy again even if an earlier failure poisoned it.
    clearPoison(id);
    StoreRec &r = rec(id);
    r.replicatedValid = true;
    r.lastWriteLayout = 0;
    r.lastWritePieces.clear();
    shards_.onHostWrite(r.shard);
}

double
LowRuntime::commSecondsFor(const LowArg &arg, const StoreRec &store,
                           int p, int num_points, TaskTiming &timing)
{
    if (store.replicatedValid || store.lastWriteLayout == 0)
        return 0.0; // valid everywhere (initial or post-collective)
    if (arg.layoutKey == store.lastWriteLayout)
        return 0.0; // same distributed view: data already local

    const Rect &read_piece =
        arg.replicated ? store.shape : arg.pieces[std::size_t(p)];
    if (read_piece.empty() && !arg.replicated)
        return 0.0;

    double esize = double(dtypeSize(store.dtype));
    int same_points =
        int(store.lastWritePieces.size()) == num_points ? 1 : 0;
    double intra_bytes = 0.0, inter_bytes = 0.0;
    int intra_srcs = 0, inter_srcs = 0;
    int my_node = machine_.nodeOf(p % machine_.totalGpus());
    for (std::size_t q = 0; q < store.lastWritePieces.size(); q++) {
        // A writer piece colocated with this point holds data locally.
        if (same_points && int(q) == p)
            continue;
        Rect overlap = read_piece.intersect(store.lastWritePieces[q]);
        coord_t vol = overlap.volume();
        if (vol == 0)
            continue;
        int src_node = machine_.nodeOf(int(q) % machine_.totalGpus());
        if (src_node == my_node) {
            intra_bytes += double(vol) * esize;
            intra_srcs++;
        } else {
            inter_bytes += double(vol) * esize;
            inter_srcs++;
        }
    }
    timing.intraNodeBytes += intra_bytes;
    timing.interNodeBytes += inter_bytes;
    return intra_srcs * machine_.nvlinkLatency +
           intra_bytes / machine_.nvlinkBandwidth +
           inter_srcs * machine_.ibLatency +
           inter_bytes / machine_.ibBandwidth;
}

void
LowRuntime::buildBindings(const LaunchedTask &task,
                          std::span<StoreRec *const> recs, int p,
                          std::vector<kir::BufferBinding> &out,
                          bool with_pointers)
{
    out.clear();
    out.reserve(task.args.size());
    for (std::size_t i = 0; i < task.args.size(); i++) {
        const LowArg &arg = task.args[i];
        StoreRec &store = *recs[i];
        kir::BufferBinding b;
        b.dtype = store.dtype;
        Rect piece =
            arg.replicated ? store.shape : arg.pieces[std::size_t(p)];
        b.dims = store.shape.dim();
        Point ext = piece.extent();
        b.extent[0] = b.dims >= 1 ? std::max<coord_t>(ext[0], 0) : 1;
        b.extent[1] = b.dims == 2 ? std::max<coord_t>(ext[1], 0) : 1;
        if (!arg.irregular.empty())
            b.irregular = arg.irregular[std::size_t(p)];
        // Shard-bound pieces view the rank's shard buffer: the row
        // pitch is the shard's, not the store's — the executor's
        // access classification (contiguous/strided/broadcast)
        // handles the difference. An empty piece binds nothing (the
        // kernel iterates zero elements); it must not fall through
        // and materialize the canonical allocation.
        bool shard_bound =
            i < task.argCanonical.size() && !task.argCanonical[i];
        if (shard_bound) {
            if (!piece.empty()) {
                ShardView view = shards_.shardView(store.shard, p,
                                                   piece, with_pointers);
                b.stride[0] = view.stride[0];
                b.stride[1] = view.stride[1];
                if (with_pointers)
                    b.base = view.base;
            }
            out.push_back(b);
            continue;
        }
        coord_t strides[2];
        storeStrides(store.shape, strides);
        b.stride[0] = strides[0];
        b.stride[1] = strides[1];
        if (with_pointers) {
            ensureAllocated(store);
            std::byte *base = store.data.data();
            coord_t off =
                arg.absolute ? 0 : rowMajorOffset(store.shape, piece.lo);
            b.base = base + off * dtypeSize(store.dtype);
        }
        out.push_back(b);
    }
}

bool
LowRuntime::pointsIndependent(const LaunchedTask &task,
                              std::span<StoreRec *const> recs) const
{
    if (task.numPoints <= 1)
        return false;
    const kir::KernelFunction &fn = task.kernel->fn;
    for (std::size_t wi = 0; wi < task.args.size(); wi++) {
        const LowArg &w = task.args[wi];
        if (privReduces(w.priv)) {
            // Reductions run into private per-point accumulators and
            // merge deterministically — but only for replicated f64
            // accumulators (the merge adds whole-store slots, which
            // is wrong for per-piece offsets), and only when the
            // kernel never loads the accumulator.
            if (!w.replicated || recs[wi]->dtype != DType::F64)
                return false;
            for (const kir::LoopNest &nest : fn.nests) {
                for (const kir::Instr &ins : nest.body) {
                    if (ins.op == kir::Op::LoadBuf &&
                        ins.buf == int(wi))
                        return false;
                }
            }
            // Another argument on the same store would observe the
            // point-by-point merge order of the sequential path.
            for (std::size_t ri = 0; ri < task.args.size(); ri++) {
                if (ri != wi && task.args[ri].store == w.store)
                    return false;
            }
            continue;
        }
        if (!privWrites(w.priv))
            continue;
        // Replicated writes rely on sequential last-point-wins order.
        if (w.replicated)
            return false;
        // Writes of distinct points must not overlap each other.
        if (crossPointOverlap(w.pieces, w.pieces))
            return false;
        // Another argument of the same store must not access pieces a
        // different point writes (the sequential point order would be
        // observable through the shared allocation).
        for (std::size_t ri = 0; ri < task.args.size(); ri++) {
            if (ri == wi || task.args[ri].store != w.store)
                continue;
            const LowArg &r = task.args[ri];
            if (r.replicated)
                return false;
            if (crossPointOverlap(r.pieces, w.pieces))
                return false;
        }
    }
    return true;
}

void
LowRuntime::submit(LaunchedTask task)
{
    diffuse_assert(task.kernel != nullptr, "task %s has no kernel",
                   task.name.c_str());
    const kir::KernelFunction &fn = task.kernel->fn;
    diffuse_assert(int(task.args.size()) == fn.numArgs,
                   "task %s: %zu args vs kernel %d", task.name.c_str(),
                   task.args.size(), fn.numArgs);
    // An epoch's program begins on the drained stream: at the first
    // submission after a drain, unless a capture keeps it open (the
    // session fences an epoch left in flight before it submits).
    if (open_ == nullptr || program_ != open_ ||
        (!capturing_ && stream_.pending() == 0))
        beginOpenProgram();
    // From here on the task names its stores by slot.
    submitRecs_.clear();
    for (LowArg &arg : task.args) {
        StoreRec &r = rec(arg.store);
        arg.store = slotOf(r);
        submitRecs_.push_back(&r);
    }
    std::span<StoreRec *const> recs = submitRecs_;

    // Sharded execution: decide per-argument bindings, evolve the
    // placement map in program order, and submit the exchanges this
    // task needs as hazard-tracked Copy tasks *before* the task
    // itself, so RAW/WAR edges order data movement against compute.
    if (shards_.active()) {
        std::vector<CopyDesc> copies;
        shards_.planTask(task, shardStates(recs), copies);
        for (const CopyDesc &c : copies)
            submitCopy(c);
    }

    TaskTiming timing;
    timing.analysisSeconds = machine_.runtimeOverhead();
    timing.pointSeconds.resize(std::size_t(task.numPoints));

    // Per-point cost: incoming communication, launch, compute. The
    // index task completes when its slowest point task does. With
    // sharding active, communication is carried by the measured Copy
    // tasks instead of the analytic per-point model. Byte counts are
    // whole numbers far below 2^53, so summing them per task first
    // leaves the counters' totals unchanged.
    double max_point_seconds = 0.0;
    std::vector<kir::BufferBinding> &bindings = workerBindings_[0];
    for (int p = 0; p < task.numPoints; p++) {
        double comm = 0.0;
        for (std::size_t i = 0; i < task.args.size(); i++) {
            const LowArg &arg = task.args[i];
            if (privReads(arg.priv) && !shards_.active())
                comm += commSecondsFor(arg, *recs[i], p, task.numPoints,
                                       timing);
        }
        buildBindings(task, recs, p, bindings, false);
        // Plan metadata carries the per-nest flop/traffic summaries,
        // so costing a point is extent resolution only (no IR walk).
        kir::TaskCost cost = kir::profileCost(*task.kernel, bindings);
        timing.hbmBytes += cost.bytes;
        double compute = std::max(cost.bytes / machine_.hbmBandwidth,
                                  cost.wflops / machine_.flopRate);
        double t = comm + machine_.launchOverhead + compute;
        timing.pointSeconds[std::size_t(p)] = t;
        if (t > max_point_seconds) {
            max_point_seconds = t;
            timing.commSeconds = comm;
            timing.computeSeconds = compute;
        }
    }

    // Reductions: a collective combines partials across points.
    double collective = 0.0;
    for (std::size_t i = 0; i < task.args.size(); i++) {
        if (!privReduces(task.args[i].priv))
            continue;
        const StoreRec &store = *recs[i];
        double bytes =
            double(store.shape.volume() * dtypeSize(store.dtype));
        int p_total = task.numPoints;
        if (p_total > 1) {
            double hops = std::ceil(std::log2(double(p_total)));
            double lat = machine_.nodes > 1 ? machine_.ibLatency
                                            : machine_.nvlinkLatency;
            double bw = machine_.nodes > 1 ? machine_.ibBandwidth
                                           : machine_.nvlinkBandwidth;
            collective += hops * (lat + bytes / bw);
        }
    }
    timing.collectiveSeconds = collective;

    // Coherence updates for written and reduced stores. These run at
    // submission — submission order is program order, so the coherence
    // walk matches the sequential semantics even though execution is
    // deferred.
    applyCoherence(task, recs);

    // Only Real mode shards retired point tasks, so only it pays for
    // the independence analysis.
    task.parallelSafe = mode_ == ExecutionMode::Real &&
                        workers_ > 1 && pointsIndependent(task, recs);

    for (StoreRec *r : recs)
        r->pendingUses++;

    appendOp(std::move(task), std::move(timing));
    foldScheduleClocks();
}

void
LowRuntime::applyCoherence(const LaunchedTask &task,
                           std::span<StoreRec *const> recs)
{
    for (std::size_t i = 0; i < task.args.size(); i++) {
        const LowArg &arg = task.args[i];
        StoreRec &store = *recs[i];
        if (privWrites(arg.priv)) {
            store.lastWriteLayout = arg.layoutKey;
            store.replicatedValid = false;
            if (arg.replicated) {
                store.lastWritePieces.assign(
                    std::size_t(task.numPoints), store.shape);
            } else {
                store.lastWritePieces = arg.pieces;
            }
        } else if (privReduces(arg.priv)) {
            // Reduction results are combined and broadcast by the
            // collective: valid everywhere afterwards.
            store.lastWriteLayout = REPLICATED_LAYOUT;
            store.replicatedValid = true;
            store.lastWritePieces.clear();
        }
    }
}

void
LowRuntime::foldScheduleClocks()
{
    // Accumulate deltas (not totals) so RuntimeStats::reset() scopes
    // simTime/busyTime to a measurement phase as it always did.
    double critical = stream_.stats().criticalPathTime;
    double busy = stream_.stats().busyTime;
    stats_.simTime += critical - lastCriticalPath_;
    stats_.busyTime += busy - lastBusyTime_;
    lastCriticalPath_ = critical;
    lastBusyTime_ = busy;
}

void
LowRuntime::beginSubmitCapture()
{
    diffuse_assert(!capturing_, "nested submit capture");
    beginOpenProgram();
    capturing_ = true;
}

void
LowRuntime::endSubmitCapture()
{
    diffuse_assert(capturing_ && program_ == open_,
                   "no capture to drop");
    capturing_ = false;
    // Released at retirement from now on; what retired already goes
    // now.
    for (std::size_t k = 0; k < open_->ops.size(); k++) {
        if (stream_.opRetired(k))
            releaseOp(open_->ops[k]);
    }
}

std::shared_ptr<TraceProgram>
LowRuntime::takeProgram()
{
    diffuse_assert(capturing_ && program_ == open_,
                   "no capture to take");
    capturing_ = false;
    open_->scalarCount = programScalars_.size();
    return std::move(open_);
}

void
LowRuntime::beginProgram(std::shared_ptr<const TraceProgram> program,
                         std::span<const StoreId> encoder_slots,
                         std::span<const double> scalars)
{
    diffuse_assert(!capturing_, "replay during a capture");
    diffuse_assert(scalars.size() == program->scalarCount,
                   "scalar block of %zu for a program of %zu",
                   scalars.size(), program->scalarCount);
    program_ = std::move(program);
    stream_.beginProgram(*program_);
    // The slot table: one lookup per slot and replay, instead of one
    // per argument and op.
    slotRecs_.clear();
    for (std::uint32_t e : program_->slots) {
        diffuse_assert(e < encoder_slots.size(), "program slot %u of %zu",
                       e, encoder_slots.size());
        StoreRec &r = rec(encoder_slots[e]);
        slotRecs_.push_back(&r);
        stream_.addSlot(r.id, r.history);
    }
    programScalars_.assign(scalars.begin(), scalars.end());
}

void
LowRuntime::submitProgramOps(std::size_t first, std::size_t last)
{
    diffuse_assert(first == last || (program_ != nullptr &&
                                     last <= program_->ops.size()),
                   "program ops [%zu, %zu) out of range", first, last);
    for (std::size_t k = first; k < last; k++) {
        const ProgramOp &op = program_->ops[k];
        count(op);
        std::span<StoreRec *const> recs =
            resolveArgs(op.task, submitRecs_);
        if (op.task.kind == TaskKind::Compute) {
            // Evolve the placement map and coherence records exactly
            // as the analyzed submission did — without planning (the
            // program's recorded Copy ops move the data).
            if (shards_.active())
                shards_.replayTask(op.task, shardStates(recs));
            applyCoherence(op.task, recs);
        }
        for (StoreRec *r : recs)
            r->pendingUses++;
        stream_.submitReplayed();
        foldScheduleClocks();
    }
}

std::uint64_t
LowRuntime::storeStateSignature(StoreId id) const
{
    auto it = stores_.find(id);
    if (it == stores_.end())
        return 0;
    const StoreRec &r = it->second;
    std::uint64_t h = 0x434f4845u; // "COHE"
    hashCombine64(h, r.lastWriteLayout);
    hashCombine64(h, r.replicatedValid ? 1 : 0);
    hashCombineRects(h, r.lastWritePieces);
    hashCombine64(h, shards_.stateSignature(r.shard));
    return h;
}

void
LowRuntime::submitCopy(const CopyDesc &c)
{
    StoreRec &r = rec(c.store);
    LaunchedTask t;
    t.kind = TaskKind::Copy;
    t.copy = c;
    t.copy.store = slotOf(r);
    t.numPoints = 1;
    t.name = "exchange";
    // The moved rectangle enters the hazard machinery as a ReadWrite
    // access: RAW orders the copy after the producer of the data, the
    // consumer's read orders after the copy, and a later writer WARs
    // against it — exactly the compute-task rules.
    LowArg a;
    a.store = t.copy.store;
    a.priv = Privilege::ReadWrite;
    a.pieces = {c.rect};
    t.args.push_back(std::move(a));

    // Gathers (dstRank < 0) land on the canonical copy's root.
    t.procHint = (c.dstRank >= 0 ? c.dstRank : 0) % machine_.totalGpus();

    TaskTiming timing;
    // Charged: the data crosses a link. Pulls from the canonical copy
    // (srcRank < 0) are free — that data is resident everywhere
    // (initialization, post-collective broadcast).
    double seconds = 0.0;
    if (c.srcRank >= 0)
        seconds = machine_.linkSeconds(c.bytes, crossesNodes(machine_, t));
    timing.pointSeconds = {seconds};
    r.pendingUses++;
    appendOp(std::move(t), std::move(timing));
}

void
LowRuntime::fence()
{
    stream_.fence();
}

Error
LowRuntime::retire(EventId id, std::size_t op, const Error *cancel)
{
    const ProgramOp &pop = program_->ops[op];
    const LaunchedTask &task = pop.task;
    std::span<StoreRec *const> recs = resolveArgs(task, retireRecs_);
    Error err;
    if (cancel != nullptr) {
        // A dependency failed: the kernel never runs.
        err = *cancel;
        onTaskFailed(task, recs, err, /*cancelled=*/true);
    } else {
        std::span<const double> scalars =
            std::span<const double>(programScalars_)
                .subspan(pop.scalarBegin, pop.scalarCount);
        try {
            executeRetired(task, recs, scalars);
        } catch (const DiffuseError &ex) {
            err = ex.error();
            if (err.originTask.empty())
                err.originTask = task.name;
            if (err.originEvent == 0)
                err.originEvent = id;
            onTaskFailed(task, recs, err, /*cancelled=*/false);
        } catch (const std::exception &ex) {
            // A kernel threw something unstructured (WorkerPool
            // rethrows helper-thread exceptions here): classify as a
            // kernel fault rather than crashing the process.
            err = makeError(ErrorCode::KernelFault, ex.what(), task.name,
                            INVALID_STORE, id);
            onTaskFailed(task, recs, err, /*cancelled=*/false);
        }
    }
    finishRetired(recs);
    // An epoch nobody captures is discarded at its end; meanwhile its
    // retired ops keep no task storage.
    if (!capturing_ && program_ == open_)
        releaseOp(open_->ops[op]);
    return err;
}

void
LowRuntime::executeRetired(const LaunchedTask &task,
                           std::span<StoreRec *const> recs,
                           std::span<const double> scalars)
{
    if (mode_ != ExecutionMode::Real)
        return;
    if (task.kind == TaskKind::Copy) {
        // Exchanges move bytes verbatim between shard buffers and/or
        // the canonical allocation. A Copy's one argument is its store.
        StoreRec &r = *recs[0];
        std::byte *canonical = nullptr;
        if (task.copy.srcRank < 0 || task.copy.dstRank < 0) {
            ensureAllocated(r);
            canonical = r.data.data();
        }
        // A failed exchange fails its Copy task the way a kernel
        // fault fails a compute task: dependents are cancelled and
        // the stores they write are poisoned.
        if (faults_.enabled() && faults_.shouldFault(FaultKind::Exchange))
            throw DiffuseError(makeError(ErrorCode::ExchangeFault,
                                         "injected exchange fault",
                                         task.name, r.id));
        shards_.executeCopy(r.shard, task.copy, canonical);
        return;
    }
    const kir::KernelFunction &fn = task.kernel->fn;
    // Sample the kernel-fault decision here, on the retiring thread:
    // the per-kind opportunity count (and hence the firing pattern of
    // a given seed) is identical for every worker count. The throw
    // itself happens inside the pool job below so the helper-thread
    // exception capture is exercised for real.
    const bool inject_kernel =
        faults_.enabled() && faults_.shouldFault(FaultKind::Kernel);

    // Materialize allocations serially: StoreRec mutation and stats
    // accounting must not race with the sharded point loop. A store
    // whose first-ever use is a fully-covering write (and which no
    // argument of this task reads or reduces) skips the init fill —
    // the kernel overwrites every element before anything can read.
    // Shard-bound arguments never touch the canonical allocation;
    // their buffers were materialized by the exchange planner.
    for (std::size_t i = 0; i < task.args.size(); i++) {
        const LowArg &arg = task.args[i];
        if (i < task.argCanonical.size() && !task.argCanonical[i])
            continue;
        StoreRec &r = *recs[i];
        if (!r.data.empty())
            continue;
        bool skip = privWrites(arg.priv) && !privReads(arg.priv) &&
                    writeCoversStore(arg, r);
        for (const LowArg &other : task.args) {
            if (skip && other.store == arg.store &&
                (privReads(other.priv) || privReduces(other.priv)))
                skip = false;
        }
        ensureAllocated(r, skip);
    }

    int np = task.numPoints;
    if (inject_kernel) {
        // Fault from inside a pool job: with workers > 1 the
        // exception crosses a helper thread and must be captured and
        // rethrown on this thread (WorkerPool::runJob), never
        // std::terminate. Exactly one point throws, so the resulting
        // error is deterministic regardless of chunk interleaving.
        pool_->parallelFor(np, workers_, [&](int, coord_t p) {
            if (p == coord_t(np - 1))
                throw DiffuseError(makeError(ErrorCode::KernelFault,
                                             "injected kernel fault",
                                             task.name));
        });
        return; // unreachable: the faulting point always throws
    }
    if (!task.parallelSafe || workers_ == 1 || np <= 1) {
        // Sequential reference path: point tasks in point order, each
        // on the vector executor with the kernel's cached plan (or on
        // the scalar oracle under DIFFUSE_SCALAR_EXEC=1).
        std::vector<kir::BufferBinding> &b = workerBindings_[0];
        for (int p = 0; p < np; p++) {
            buildBindings(task, recs, p, b, true);
            if (scalarOracle_ || task.kernel->plan == nullptr)
                executors_[0].runScalar(fn, b, scalars);
            else
                executors_[0].run(fn, *task.kernel->plan, b, scalars);
        }
        return;
    }

    // Sharded path. Reduction accumulators divert to per-point slots
    // so no two points touch shared memory; slots merge in point order
    // after execution, keeping sums bit-identical for every worker
    // count.
    stats_.tasksSharded++;
    std::size_t nreds = 0;
    for (std::size_t i = 0; i < task.args.size(); i++) {
        const LowArg &arg = task.args[i];
        if (!privReduces(arg.priv))
            continue;
        if (redSlots_.size() == nreds)
            redSlots_.emplace_back();
        RedSlot &rs = redSlots_[nreds++];
        rs.arg = i;
        rs.vol = recs[i]->shape.volume();
        rs.partials.assign(std::size_t(rs.vol) * std::size_t(np),
                           reductionIdentity(arg.redop));
    }
    std::span<RedSlot> reds(redSlots_.data(), nreds);

    if (scalarOracle_ || task.kernel->plan == nullptr) {
        // Oracle path: whole points shard across workers, private
        // interpreter state per worker (the pre-plan reference shape).
        pool_->parallelFor(np, workers_, [&](int worker, coord_t p) {
            std::vector<kir::BufferBinding> &b =
                workerBindings_[std::size_t(worker)];
            buildBindings(task, recs, int(p), b, true);
            for (RedSlot &rs : reds) {
                b[rs.arg].base = rs.partials.data() +
                                 std::size_t(p) * std::size_t(rs.vol);
            }
            executors_[std::size_t(worker)].runScalar(fn, b, scalars);
        });
    } else {
        executeSharded(task, scalars,
                       [&](int p, std::vector<kir::BufferBinding> &b) {
            buildBindings(task, recs, p, b, true);
            for (RedSlot &rs : reds) {
                b[rs.arg].base = rs.partials.data() +
                                 std::size_t(p) * std::size_t(rs.vol);
            }
        });
    }

    // Merge reduction partials in point order: the combine sequence
    // is identical for every worker count, so sums stay bit-identical
    // whether one worker ran all points or eight shared them.
    for (const RedSlot &rs : reds) {
        const LowArg &arg = task.args[rs.arg];
        double *dst =
            reinterpret_cast<double *>(recs[rs.arg]->data.data());
        for (coord_t p = 0; p < np; p++) {
            const double *src =
                rs.partials.data() + std::size_t(p) * std::size_t(rs.vol);
            for (coord_t e = 0; e < rs.vol; e++)
                dst[e] = applyReduction(arg.redop, dst[e], src[e]);
        }
    }
}

template <typename Prepare>
void
LowRuntime::executeSharded(const LaunchedTask &task,
                           std::span<const double> scalars,
                           Prepare &&prepare)
{
    const kir::KernelFunction &fn = task.kernel->fn;
    const kir::ExecutablePlan &plan = *task.kernel->plan;
    int np = task.numPoints;

    // Resolve every point's plan against its bindings (serial: cheap,
    // and the contexts recycle their local-temporary arenas).
    if (int(pointCtxs_.size()) < np)
        pointCtxs_.resize(std::size_t(np));
    std::vector<kir::BufferBinding> &scratch = workerBindings_[0];
    for (int p = 0; p < np; p++) {
        prepare(p, scratch);
        pointCtxs_[std::size_t(p)].bind(fn, plan, scratch, scalars);
    }

    // Items per chunk of a nest with `items` work items and estimated
    // `work`: an even split into workers*8 chunks, but never less
    // work per chunk than kFanOutGrain — so a nest below the grain is
    // a single chunk, which parallelForChunked runs inline on this
    // thread without submitting a pool job. DIFFUSE_CHUNK bypasses
    // the grain (`fixed`).
    auto chunk_for = [&](coord_t items, double work, coord_t fixed) {
        if (chunkOverride_ > 0)
            return fixed;
        coord_t even =
            std::max<coord_t>(1, items / (coord_t(workers_) * 8));
        if (work <= 0.0)
            return std::max(even, items);
        double grain = std::ceil(kFanOutGrain * double(items) / work);
        return std::max(even, coord_t(grain));
    };

    // Nests execute in order with a barrier between them (a later nest
    // may consume what an earlier one produced). Within a nest,
    // workers claim strip (or row) ranges flattened across points —
    // points are independent here, so any interleaving is sound.
    std::vector<coord_t> &offsets = shardOffsets_;
    offsets.assign(std::size_t(np) + 1, 0);
    for (std::size_t n = 0; n < plan.nests.size(); n++) {
        const kir::NestPlan &npn = plan.nests[n];
        bool dense = npn.kind == kir::NestKind::Dense;

        // Reduction-carrying nests fold lanes in element order into
        // per-point slots; nests whose instances fell back to the
        // scalar oracle keep interleaved semantics. Both run whole
        // nests per point (still concurrently across points).
        bool ranged = !dense || npn.dense.reductions.empty();
        double work = 0.0;
        for (int p = 0; p < np; p++) {
            const kir::ResolvedNest &rn =
                pointCtxs_[std::size_t(p)].nest(int(n));
            ranged = ranged && rn.stripParallel;
            work += rn.work;
        }
        if (!ranged) {
            pool_->parallelForChunked(
                np, chunk_for(np, work, 1), workers_,
                [&](int worker, coord_t begin, coord_t end) {
                    for (coord_t p = begin; p < end; p++)
                        executors_[std::size_t(worker)].runNest(
                            pointCtxs_[std::size_t(p)], int(n));
                });
            continue;
        }

        coord_t total = 0;
        for (int p = 0; p < np; p++) {
            const kir::ResolvedNest &rn =
                pointCtxs_[std::size_t(p)].nest(int(n));
            offsets[std::size_t(p)] = total;
            total += dense ? rn.strips : rn.rows;
        }
        offsets[std::size_t(np)] = total;
        if (total == 0)
            continue;

        coord_t chunk = chunk_for(total, work, coord_t(chunkOverride_));
        std::uint64_t epoch = ++stripEpoch_;
        pool_->parallelForChunked(total, chunk, workers_,
                                  [&](int worker,
                                                   coord_t begin,
                                                   coord_t end) {
            kir::Executor &ex = executors_[std::size_t(worker)];
            int p = int(std::upper_bound(offsets.begin(),
                                         offsets.end(), begin) -
                        offsets.begin()) -
                    1;
            coord_t s = begin;
            while (s < end) {
                coord_t limit =
                    std::min(end, offsets[std::size_t(p) + 1]);
                if (limit > s) {
                    kir::PointContext &ctx = pointCtxs_[std::size_t(p)];
                    coord_t lo = s - offsets[std::size_t(p)];
                    coord_t hi = limit - offsets[std::size_t(p)];
                    if (dense)
                        ex.runStrips(ctx, int(n), lo, hi, epoch);
                    else if (npn.kind == kir::NestKind::Gemv)
                        ex.runGemvRows(ctx, int(n), lo, hi);
                    else
                        ex.runCsrRows(ctx, int(n), lo, hi);
                }
                s = limit;
                p++;
            }
        });
    }
}

void
LowRuntime::finishRetired(std::span<StoreRec *const> recs)
{
    for (StoreRec *r : recs) {
        diffuse_assert(r->pendingUses > 0, "pending-use underflow on "
                       "store %llu", (unsigned long long)r->id);
        r->pendingUses--;
        if (r->zombie && r->pendingUses == 0) {
            zombies_--;
            destroyRecord(stores_.find(r->id));
        }
    }
}

double
LowRuntime::readScalarValue(StoreId id)
{
    if (hostAccessObserver_)
        hostAccessObserver_(id);
    stream_.waitStore(id);
    throwIfPoisoned(id);
    StoreRec &r = rec(id);
    if (mode_ != ExecutionMode::Real)
        return 0.0;
    if (r.dtype != DType::F64)
        throw DiffuseError(makeError(ErrorCode::InvalidArgument,
                                     "scalar read of non-f64 store",
                                     std::string(), id));
    ensureAllocated(r);
    // Scalar stores are written replicated (canonical) in practice,
    // but a sharded write is legal: gather before reading.
    shards_.gatherToCanonical(r.shard, r.data.data());
    return *reinterpret_cast<const double *>(r.data.data());
}

void
LowRuntime::throwIfPoisoned(StoreId id) const
{
    auto it = poisoned_.find(id);
    if (it == poisoned_.end())
        return;
    const Error &root = it->second;
    throw DiffuseError(makeError(
        ErrorCode::StorePoisoned,
        "read of poisoned store: " + root.describe(), root.originTask,
        id, root.originEvent));
}

void
LowRuntime::onTaskFailed(const LaunchedTask &task,
                         std::span<StoreRec *const> recs, const Error &e,
                         bool cancelled)
{
    // The failed (or cancelled) task's mutable stores hold undefined
    // contents: the kernel may have partially run, or never ran at
    // all. Poison them — host reads surface the root cause instead of
    // garbage. The first poisoning error per store wins (root cause).
    for (std::size_t i = 0; i < task.args.size(); i++) {
        const LowArg &arg = task.args[i];
        if (!privWrites(arg.priv) && !privReduces(arg.priv))
            continue;
        if (poisoned_.emplace(recs[i]->id, e).second)
            stats_.storesPoisoned++;
    }
    if (sessionError_.ok())
        sessionError_ = e;
    if (!cancelled)
        diffuse_warn_session(sessionId_, "session %llu: task failed: %s",
                             (unsigned long long)sessionId_,
                             e.describe().c_str());
}

void
LowRuntime::resetAfterError()
{
    // Drain everything still in flight first: cancellations cascade
    // through retire() (recording, not throwing), extending the
    // poisoned set to its final extent.
    stream_.fence();
    stream_.clearFailures();
    foldScheduleClocks();
    for (const auto &[id, err] : poisoned_) {
        auto it = stores_.find(id);
        if (it == stores_.end())
            continue; // destroyed while poisoned
        StoreRec &r = it->second;
        // Quarantine: drop the undefined allocation and reset the
        // coherence record. The next use re-materializes the store
        // from its `init` value — defined, if not meaningful, data.
        recycleAllocation(r);
        r.replicatedValid = true;
        r.lastWriteLayout = 0;
        r.lastWritePieces.clear();
        shards_.onHostWrite(r.shard);
    }
    poisoned_.clear();
    sessionError_ = Error();
    // Counter hygiene: rewind the injector's per-kind opportunity
    // counters (keeping seed/rate/kinds) so a recovered session's
    // re-run samples the same deterministic fault sequence as a fresh
    // session — post-recovery behavior must not depend on how many
    // opportunities the failed run burned. Armed shots are disarmed;
    // tests re-arm after reset when they want another failure.
    faults_.resetCounters();
}

} // namespace rt
} // namespace diffuse
