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
    auto prune = [this](std::vector<AccessRec> &recs, double &floor) {
        std::size_t out = 0;
        for (std::size_t i = 0; i < recs.size(); i++) {
            AccessRec &r = recs[i];
            if (pending_.count(r.id)) {
                if (out != i)
                    recs[out] = std::move(r);
                out++;
            } else {
                floor = std::max(floor, r.finish);
            }
        }
        recs.resize(out);
    };
    prune(h.writes, h.floors.write);
    prune(h.reads, h.floors.read);
}

TaskStream::StoreHistory &
TaskStream::historyFor(StoreId id)
{
    auto it = history_.find(id);
    if (it != history_.end())
        return it->second;
    StoreHistory &h = historyNodes_.insert(history_, id)->second;
    h.writes.clear();
    h.reads.clear();
    h.floors = Floors();
    return h;
}

void
TaskStream::forgetStore(StoreId id)
{
    auto it = history_.find(id);
    if (it != history_.end())
        historyNodes_.erase(history_, it);
}

EventId
TaskStream::submit(LaunchedTask task, const TaskTiming &timing,
                   SubmitTrace *trace_out)
{
    // ---- Hazard detection against the access history ----------------
    //
    // Reads depend on the last overlapping write (RAW). Writes depend
    // on the last overlapping write (WAW) and on every overlapping
    // read since it (WAR). Reductions mutate their accumulator and are
    // ordered like writes, which also keeps their merge order — and
    // hence floating-point results — deterministic.
    diffuse_assert(program_ == nullptr,
                   "analyzed submission with a program in flight");
    std::vector<EventId> &deps = deps_;
    deps.clear();
    std::uint32_t raw = 0, war = 0, waw = 0;
    double dep_finish = 0.0;
    auto scan = [&](const std::vector<AccessRec> &recs,
                    const LowArg &arg, std::uint32_t &kind) {
        // Compaction left only pending records.
        for (const AccessRec &a : recs) {
            if (!overlaps(arg.replicated, arg.pieces, a))
                continue;
            dep_finish = std::max(dep_finish, a.finish);
            if (std::find(deps.begin(), deps.end(), a.id) == deps.end())
                deps.push_back(a.id);
            kind++;
        }
    };
    for (const LowArg &arg : task.args) {
        auto it = history_.find(arg.store);
        if (it == history_.end())
            continue;
        StoreHistory &h = it->second;
        compactHistory(h); // bound growth; retired records → floors
        bool mutates = privWrites(arg.priv) || privReduces(arg.priv);
        if (privReads(arg.priv) || privReduces(arg.priv)) {
            scan(h.writes, arg, raw);
            dep_finish = std::max(dep_finish, h.floors.write);
        }
        if (mutates) {
            if (!privReads(arg.priv))
                scan(h.writes, arg, waw);
            scan(h.reads, arg, war);
            dep_finish = std::max(dep_finish, h.floors.write);
            dep_finish = std::max(dep_finish, h.floors.read);
        }
    }
    stats_.rawDeps += raw;
    stats_.warDeps += war;
    stats_.wawDeps += waw;
    if (trace_out) {
        trace_out->deps = deps;
        trace_out->rawDeps = raw;
        trace_out->warDeps = war;
        trace_out->wawDeps = waw;
    }
    return finishSubmit(std::move(task), timing, dep_finish);
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

EventId
TaskStream::finishSubmit(LaunchedTask task, const TaskTiming &timing,
                         double dep_finish)
{
    EventId id = next_++;
    double finish =
        place(timing, task.numPoints, task.procHint, dep_finish);

    // ---- Enqueue ------------------------------------------------------
    PendingTask &pt = pendingNodes_.insert(pending_, id)->second;
    pt.task = std::move(task);
    pt.deps.assign(deps_.begin(), deps_.end());
    pt.finish = finish;

    // ---- Access-history update --------------------------------------
    for (const LowArg &arg : pt.task.args) {
        StoreHistory &h = historyFor(arg.store);
        AccessRec rec;
        rec.id = id;
        rec.finish = finish;
        rec.replicated = arg.replicated;
        rec.pieces = &arg.pieces;
        if (privWrites(arg.priv) || privReduces(arg.priv)) {
            // A replicated (whole-store) write supersedes everything
            // before it: later tasks ordering after it are transitively
            // ordered after the superseded records.
            if (arg.replicated) {
                h.writes.clear();
                h.reads.clear();
                h.floors.write = std::max(h.floors.write, finish);
                h.floors.read = 0.0;
            }
            h.writes.push_back(std::move(rec));
        } else {
            h.reads.push_back(std::move(rec));
        }
    }

    stats_.maxPendingSeen =
        std::max(stats_.maxPendingSeen, pending_.size());

    // Bound the in-flight window: retire the oldest task when full.
    while (pending_.size() > maxPending_)
        retireOne(pending_.begin()->first);
    return id;
}

void
TaskStream::retireOne(EventId id)
{
    auto it = pending_.find(id);
    diffuse_assert(it != pending_.end(), "retire of unknown event %llu",
                   (unsigned long long)id);
    // Retire dependencies first, in submission order (EventIds are a
    // topological order of the hazard DAG): always the smallest one
    // still pending, which leaves the recorded edge order untouched.
    for (;;) {
        EventId next = NO_EVENT;
        for (EventId d : it->second.deps) {
            if ((next == NO_EVENT || d < next) && pending_.count(d))
                next = d;
        }
        if (next == NO_EVENT)
            break;
        retireOne(next);
        it = pending_.find(id);
        diffuse_assert(it != pending_.end(),
                       "event %llu retired during its own dependency "
                       "drain",
                       (unsigned long long)id);
    }
    if (!pending_.empty() && pending_.begin()->first < id)
        stats_.retiredOutOfOrder++;
    // Take the node out so the runner may submit follow-on work; it is
    // recycled once the task has retired.
    PendingMap::node_type node = pending_.extract(it);
    // Failure propagates along the hazard edges: if any dependency
    // failed, this task is cancelled.
    const Error *dep_err = nullptr;
    for (EventId d : node.mapped().deps) {
        auto f = failed_.find(d);
        if (f != failed_.end()) {
            dep_err = &f->second;
            break;
        }
    }
    retireTask(id, node.mapped().task, kAnalyzed, dep_err);
    // The spare node keeps no task storage.
    node.mapped().task = LaunchedTask();
    pendingNodes_.keep(std::move(node));
}

void
TaskStream::retireTask(EventId id, const LaunchedTask &task,
                       std::size_t op, const Error *dep_err)
{
    stats_.retired++;
    if (runner_ == nullptr)
        return;
    // A cancelled task's kernel never runs, and the runtime poisons
    // its outputs; its per-task state is released either way
    // (reference release must not leak).
    Error cancel;
    if (dep_err) {
        cancel.code = ErrorCode::DependencyFailed;
        // Cancellations deeper in the graph keep pointing at the root
        // cause, not at intermediate cancelled tasks.
        cancel.message = dep_err->code == ErrorCode::DependencyFailed
                             ? dep_err->message
                             : "cancelled by upstream failure: " +
                                   dep_err->describe();
        cancel.originTask = dep_err->originTask;
        cancel.originStore = dep_err->originStore;
        cancel.originEvent = dep_err->originEvent;
    }
    Error e = runner_->retire(id, task, op, dep_err ? &cancel : nullptr);
    if (e.ok())
        return;
    failed_.emplace(id, std::move(e));
    if (dep_err)
        stats_.tasksCancelled++;
    else
        stats_.tasksFailed++;
}

void
TaskStream::beginProgram(const TraceProgram &program,
                         std::span<const StoreId> slot_stores)
{
    // The recorded edges are epoch-local: nothing older may pend.
    diffuse_assert(pending() == 0 && program_ == nullptr,
                   "a program must begin on a drained stream");
    std::size_t n = program.ops.size();
    programBase_ = next_;
    next_ += n;
    programSubmitted_ = 0;
    programRetired_ = 0;
    programHead_ = 0;
    if (n == 0)
        return;
    program_ = &program;
    opFinish_.assign(n, 0.0);
    opRetiredAt_.assign(n, kOpPending);
    // Every record in a history retired with the drained stream: fold
    // them all now, as the first access of each store would.
    slotStores_.assign(slot_stores.begin(), slot_stores.end());
    slotFloors_.assign(slot_stores.size(), nullptr);
    for (std::uint32_t s : program.slots) {
        diffuse_assert(s < slot_stores.size(),
                       "program slot %u of %zu", s, slot_stores.size());
        StoreHistory &h = historyFor(slot_stores[s]);
        compactHistory(h);
        slotFloors_[s] = &h.floors;
    }
}

void
TaskStream::submitProgramOp()
{
    diffuse_assert(program_ != nullptr &&
                       programSubmitted_ < program_->ops.size(),
                   "no program op left to submit");
    std::size_t k = programSubmitted_;
    const ProgramOp &op = program_->ops[k];
    // The recorded edges stand in for the history scan. Retired work —
    // recorded dependencies that retired through the window included —
    // left its finish time in the floors; pending dependencies count
    // directly.
    double dep_finish = 0.0;
    for (const LowArg &arg : op.task.args) {
        const Floors &f = *slotFloors_[arg.store];
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
    opFinish_[k] = finish;
    // A replicated write supersedes every earlier access (finishSubmit).
    for (const LowArg &arg : op.task.args) {
        if (arg.replicated &&
            (privWrites(arg.priv) || privReduces(arg.priv))) {
            Floors &f = *slotFloors_[arg.store];
            f.write = std::max(f.write, finish);
            f.read = 0.0;
        }
    }
    programSubmitted_++;
    stats_.maxPendingSeen = std::max(stats_.maxPendingSeen, pending());
    // Bound the in-flight window: retire the oldest op when full (its
    // dependencies are older still, so already retired).
    while (pending() > maxPending_)
        retireOp(programHead_);
}

void
TaskStream::retireOpWithDeps(std::size_t k)
{
    // As retireOne: the smallest pending dependency first.
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
    if (programHead_ < k)
        stats_.retiredOutOfOrder++;
    // Fold the op's finish into its slots' floors now: the analyzed
    // path keeps a record that the next access compacts into them, and
    // nothing reads a store's floors before that access.
    for (const LowArg &arg : op.task.args) {
        Floors &f = *slotFloors_[arg.store];
        double &floor = privWrites(arg.priv) || privReduces(arg.priv)
                            ? f.write
                            : f.read;
        floor = std::max(floor, opFinish_[k]);
    }
    opRetiredAt_[k] = std::uint32_t(programSubmitted_);
    programRetired_++;
    while (programHead_ < programSubmitted_ && opRetired(programHead_))
        programHead_++;

    const Error *dep_err = nullptr;
    if (!failed_.empty()) {
        for (std::uint32_t d : op.deps) {
            if (opRetiredAt_[d] <= k)
                continue; // retired before this op was submitted
            auto f = failed_.find(programBase_ + d);
            if (f != failed_.end()) {
                dep_err = &f->second;
                break;
            }
        }
    }
    retireTask(programBase_ + k, op.task, k, dep_err);

    if (programRetired_ == program_->ops.size()) {
        program_ = nullptr;
        if (runner_)
            runner_->programRetired();
    }
}

void
TaskStream::wait(EventId id)
{
    if (program_ != nullptr && id >= programBase_ &&
        id < programBase_ + programSubmitted_) {
        if (!opRetired(std::size_t(id - programBase_)))
            retireOpWithDeps(std::size_t(id - programBase_));
        return;
    }
    if (id == NO_EVENT || !pending_.count(id))
        return;
    retireOne(id);
}

void
TaskStream::waitStore(StoreId id)
{
    // Collect first: retiring may cascade into dependency retirement.
    users_.clear();
    if (program_ != nullptr) {
        for (std::size_t k = programHead_; k < programSubmitted_; k++) {
            if (opRetired(k))
                continue;
            for (const LowArg &arg : program_->ops[k].task.args) {
                if (slotStores_[arg.store] == id) {
                    users_.push_back(programBase_ + k);
                    break;
                }
            }
        }
    } else {
        for (const auto &[ev, pt] : pending_) {
            for (const LowArg &arg : pt.task.args) {
                if (arg.store == id) {
                    users_.push_back(ev);
                    break;
                }
            }
        }
    }
    for (EventId ev : users_)
        wait(ev);
}

void
TaskStream::fence()
{
    // Counts synchronized work: a fence with nothing pending is none.
    if (pending() == 0)
        return;
    stats_.fences++;
    while (program_ != nullptr && programHead_ < programSubmitted_)
        retireOp(programHead_);
    while (!pending_.empty())
        retireOne(pending_.begin()->first);
}

bool
TaskStream::complete(EventId id) const
{
    if (program_ != nullptr && id >= programBase_ &&
        id < programBase_ + programSubmitted_)
        return opRetired(std::size_t(id - programBase_));
    // Never-issued ids (including NO_EVENT) are trivially complete.
    return pending_.count(id) == 0;
}

} // namespace rt
} // namespace diffuse
