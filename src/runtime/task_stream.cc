#include "task_stream.h"

#include <algorithm>

#include "common/logging.h"

namespace diffuse {
namespace rt {

TaskStream::TaskStream(const MachineConfig &machine,
                       std::size_t max_pending)
    : machine_(machine), maxPending_(max_pending),
      procFree_(std::size_t(machine.totalGpus()), 0.0)
{
    diffuse_assert(maxPending_ >= 1, "stream must hold a task");
}

bool
TaskStream::overlaps(bool a_replicated, const std::vector<Rect> &a_pieces,
                     const AccessRec &b)
{
    if (a_replicated || b.replicated)
        return true;
    for (const Rect &ra : a_pieces) {
        if (ra.empty())
            continue;
        for (const Rect &rb : *b.pieces) {
            if (!ra.intersect(rb).empty())
                return true;
        }
    }
    return false;
}

void
TaskStream::compactHistory(StoreHistory &h)
{
    // Retired records already left their finish in the floors.
    auto dead = [this](const AccessRec &r) { return retired(r.id); };
    std::erase_if(h.writes, dead);
    std::erase_if(h.reads, dead);
}

void
TaskStream::beginProgram(const TraceProgram &program)
{
    // Hazard edges are epoch-local: nothing older may pend.
    diffuse_assert(pending() == 0, "a program must begin on a drained "
                                   "stream");
    base_ += submitted_;
    submitted_ = 0;
    retired_ = 0;
    head_ = 0;
    program_ = &program;
    opFinish_.clear();
    opRetiredAt_.clear();
    slotStores_.clear();
    slotHistory_.clear();
}

void
TaskStream::addSlot(StoreId id, StoreHistory &history)
{
    slotStores_.push_back(id);
    slotHistory_.push_back(&history);
}

void
TaskStream::submitAnalyzed(ProgramOp &op)
{
    // ---- Hazard detection against the access history ----------------
    //
    // Reads depend on the last overlapping write (RAW). Writes depend
    // on the last overlapping write (WAW) and on every overlapping
    // read since it (WAR). Reductions mutate their accumulator and are
    // ordered like writes, which also keeps their merge order — and
    // hence floating-point results — deterministic.
    diffuse_assert(program_ != nullptr &&
                       submitted_ < program_->ops.size() &&
                       &op == &program_->ops[submitted_],
                   "analyzed op is not the program's next");
    op.deps.clear();
    op.rawDeps = op.warDeps = op.wawDeps = 0;
    auto scan = [&](const std::vector<AccessRec> &recs,
                    const LowArg &arg, std::uint32_t &kind) {
        // Compaction left only pending records: ops of this program.
        for (const AccessRec &a : recs) {
            if (!overlaps(arg.replicated, arg.pieces, a))
                continue;
            auto d = std::uint32_t(a.id - base_);
            if (std::find(op.deps.begin(), op.deps.end(), d) ==
                op.deps.end())
                op.deps.push_back(d);
            kind++;
        }
    };
    for (const LowArg &arg : op.task.args) {
        StoreHistory &h = *slotHistory_[arg.store];
        compactHistory(h);
        if (privReads(arg.priv) || privReduces(arg.priv))
            scan(h.writes, arg, op.rawDeps);
        if (privWrites(arg.priv) || privReduces(arg.priv)) {
            if (!privReads(arg.priv))
                scan(h.writes, arg, op.wawDeps);
            scan(h.reads, arg, op.warDeps);
        }
    }
    submitOp(true);
}

void
TaskStream::submitReplayed()
{
    diffuse_assert(program_ != nullptr &&
                       submitted_ < program_->ops.size(),
                   "no program op left to submit");
    submitOp(false);
}

double
TaskStream::place(const TaskTiming &timing, int num_points, int proc_hint,
                  double dep_finish)
{
    diffuse_assert(int(timing.pointSeconds.size()) == num_points,
                   "timing for %zu of %d points",
                   timing.pointSeconds.size(), num_points);
    stats_.submitted++;

    // ---- Overlap-aware simulated schedule ----------------------------
    //
    // Dependence analysis is serialized (one analysis engine, as in
    // Legion's mapper/analysis pipeline) but overlaps with execution;
    // each point task then occupies its processor's timeline.
    analysisClock_ += timing.analysisSeconds;
    double earliest = std::max(analysisClock_, dep_finish);
    double max_point_finish = earliest;
    int nprocs = machine_.totalGpus();
    for (int p = 0; p < num_points; p++) {
        double dur = timing.pointSeconds[std::size_t(p)];
        int proc = proc_hint >= 0 ? proc_hint % nprocs : p % nprocs;
        double &free_at = procFree_[std::size_t(proc)];
        double start = std::max(earliest, free_at);
        double fin = start + dur;
        free_at = fin;
        stats_.busyTime += dur;
        max_point_finish = std::max(max_point_finish, fin);
    }
    double finish = max_point_finish + timing.collectiveSeconds;
    stats_.busyTime += timing.collectiveSeconds;
    stats_.collectiveTime += timing.collectiveSeconds;
    stats_.criticalPathTime = std::max(stats_.criticalPathTime, finish);
    return finish;
}

void
TaskStream::submitOp(bool record)
{
    std::size_t k = submitted_;
    const ProgramOp &op = program_->ops[k];
    // Retired work — dependencies that retired through the window
    // included — left its finish time in the floors; pending
    // dependencies count directly.
    double dep_finish = 0.0;
    for (const LowArg &arg : op.task.args) {
        const Floors &f = slotHistory_[arg.store]->floors;
        if (privReads(arg.priv) || privReduces(arg.priv))
            dep_finish = std::max(dep_finish, f.write);
        if (privWrites(arg.priv) || privReduces(arg.priv)) {
            dep_finish = std::max(dep_finish, f.write);
            dep_finish = std::max(dep_finish, f.read);
        }
    }
    for (std::uint32_t d : op.deps) {
        if (!opRetired(d))
            dep_finish = std::max(dep_finish, opFinish_[d]);
    }
    stats_.rawDeps += op.rawDeps;
    stats_.warDeps += op.warDeps;
    stats_.wawDeps += op.wawDeps;
    double finish = place(op.timing, op.task.numPoints, op.task.procHint,
                          dep_finish);
    opFinish_.push_back(finish);
    opRetiredAt_.push_back(kOpPending);

    for (const LowArg &arg : op.task.args) {
        StoreHistory &h = *slotHistory_[arg.store];
        bool mutates = privWrites(arg.priv) || privReduces(arg.priv);
        // A replicated (whole-store) write supersedes everything before
        // it: later ops ordering after it are transitively ordered
        // after the superseded accesses, whose finish it bounds.
        if (mutates && arg.replicated) {
            h.writes.clear();
            h.reads.clear();
            h.floors.write = std::max(h.floors.write, finish);
            h.floors.read = 0.0;
        }
        if (record) {
            AccessRec rec;
            rec.id = base_ + k;
            rec.replicated = arg.replicated;
            rec.pieces = &arg.pieces;
            (mutates ? h.writes : h.reads).push_back(rec);
        }
    }

    submitted_++;
    stats_.maxPendingSeen = std::max(stats_.maxPendingSeen, pending());
    // Bound the in-flight window: retire the oldest op when full (its
    // dependencies are older still, so already retired).
    while (pending() > maxPending_)
        retireOp(head_);
}

void
TaskStream::retireOpWithDeps(std::size_t k)
{
    // Dependencies first, in submission order (a topological order of
    // the hazard DAG): always the smallest one still pending, which
    // leaves the edge order untouched.
    const std::vector<std::uint32_t> &deps = program_->ops[k].deps;
    for (;;) {
        std::size_t next = k; // dependencies precede the op
        for (std::uint32_t d : deps) {
            if (!opRetired(d) && d < next)
                next = d;
        }
        if (next == k)
            break;
        retireOpWithDeps(next);
    }
    retireOp(k);
}

void
TaskStream::retireOp(std::size_t k)
{
    const ProgramOp &op = program_->ops[k];
    if (head_ < k)
        stats_.retiredOutOfOrder++;
    // The one floor rule: an op leaves its finish in its slots' floors
    // when it retires.
    for (const LowArg &arg : op.task.args) {
        Floors &f = slotHistory_[arg.store]->floors;
        double &floor = privWrites(arg.priv) || privReduces(arg.priv)
                            ? f.write
                            : f.read;
        floor = std::max(floor, opFinish_[k]);
    }
    opRetiredAt_[k] = std::uint32_t(submitted_);
    retired_++;
    while (head_ < submitted_ && opRetired(head_))
        head_++;

    // Failure propagates along the hazard edges: a dependency that
    // failed while this op waited on it cancels the op.
    const Error *dep_err = nullptr;
    if (!failed_.empty()) {
        for (std::uint32_t d : op.deps) {
            if (opRetiredAt_[d] <= k)
                continue; // retired before this op was submitted
            auto f = failed_.find(base_ + d);
            if (f != failed_.end()) {
                dep_err = &f->second;
                break;
            }
        }
    }
    EventId id = base_ + k;
    stats_.retired++;
    if (runner_ == nullptr)
        return;
    // A cancelled op's kernel never runs, and the runtime poisons its
    // outputs; its per-task state is released either way (reference
    // release must not leak).
    Error cancel;
    if (dep_err) {
        cancel.code = ErrorCode::DependencyFailed;
        // Cancellations deeper in the graph keep pointing at the root
        // cause, not at intermediate cancelled ops.
        cancel.message = dep_err->code == ErrorCode::DependencyFailed
                             ? dep_err->message
                             : "cancelled by upstream failure: " +
                                   dep_err->describe();
        cancel.originTask = dep_err->originTask;
        cancel.originStore = dep_err->originStore;
        cancel.originEvent = dep_err->originEvent;
    }
    Error e = runner_->retire(id, k, dep_err ? &cancel : nullptr);
    if (e.ok())
        return;
    failed_.emplace(id, std::move(e));
    if (dep_err)
        stats_.tasksCancelled++;
    else
        stats_.tasksFailed++;
}

void
TaskStream::waitStore(StoreId id)
{
    // Collect first: retiring cascades into dependency retirement.
    users_.clear();
    for (std::size_t k = head_; k < submitted_; k++) {
        if (opRetired(k))
            continue;
        for (const LowArg &arg : program_->ops[k].task.args) {
            if (slotStores_[arg.store] == id) {
                users_.push_back(k);
                break;
            }
        }
    }
    for (std::size_t k : users_) {
        if (!opRetired(k))
            retireOpWithDeps(k);
    }
}

void
TaskStream::fence()
{
    // Counts synchronized work: a fence with nothing pending is none.
    if (pending() == 0)
        return;
    stats_.fences++;
    while (head_ < submitted_)
        retireOp(head_);
}

} // namespace rt
} // namespace diffuse
