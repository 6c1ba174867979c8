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
    prune(h.writes, h.writeFinishFloor);
    prune(h.reads, h.readFinishFloor);
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
    h.writeFinishFloor = 0.0;
    h.readFinishFloor = 0.0;
    return h;
}

void
TaskStream::forgetStore(StoreId id)
{
    auto it = history_.find(id);
    if (it != history_.end())
        historyNodes_.erase(history_, it);
}

LaunchedTask
TaskStream::recycledTask(std::size_t num_args)
{
    if (num_args >= spareTasks_.size() || spareTasks_[num_args].empty())
        return LaunchedTask();
    LaunchedTask task = std::move(spareTasks_[num_args].back());
    spareTasks_[num_args].pop_back();
    spareTaskCount_--;
    return task;
}

void
TaskStream::recycle(PendingMap::node_type node)
{
    // Spare task storage is bounded by one in-flight window in all:
    // the most a replay can take before the next retirement returns
    // some. Tasks with many arguments are rare and not kept.
    constexpr std::size_t kMaxRecycledArgs = 16;
    LaunchedTask &task = node.mapped().task;
    std::size_t nargs = task.args.size();
    if (nargs < kMaxRecycledArgs && spareTaskCount_ < maxPending_) {
        if (spareTasks_.size() <= nargs)
            spareTasks_.resize(nargs + 1);
        task.kernel.reset();
        spareTasks_[nargs].push_back(std::move(task));
        spareTaskCount_++;
    }
    // The spare node keeps no task storage beyond that bound.
    task = LaunchedTask();
    pendingNodes_.keep(std::move(node));
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
            dep_finish = std::max(dep_finish, h.writeFinishFloor);
        }
        if (mutates) {
            if (!privReads(arg.priv))
                scan(h.writes, arg, waw);
            scan(h.reads, arg, war);
            dep_finish = std::max(dep_finish, h.writeFinishFloor);
            dep_finish = std::max(dep_finish, h.readFinishFloor);
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

EventId
TaskStream::submitPrelinked(LaunchedTask task, const TaskTiming &timing,
                            const SubmitTrace &trace)
{
    // The recorded edges replace the history scan: the replayed epoch
    // started on a drained stream, so every pending task it can
    // conflict with was submitted within it and is covered by them.
    // Floors still apply: retired work (including the recorded
    // dependencies that already retired through the in-flight bound)
    // folded its finish times there, exactly as the analyzed path
    // would have observed after compaction.
    double dep_finish = 0.0;
    for (const LowArg &arg : task.args) {
        auto it = history_.find(arg.store);
        if (it == history_.end())
            continue;
        StoreHistory &h = it->second;
        compactHistory(h);
        if (privReads(arg.priv) || privReduces(arg.priv))
            dep_finish = std::max(dep_finish, h.writeFinishFloor);
        if (privWrites(arg.priv) || privReduces(arg.priv)) {
            dep_finish = std::max(dep_finish, h.writeFinishFloor);
            dep_finish = std::max(dep_finish, h.readFinishFloor);
        }
    }
    std::vector<EventId> &deps = deps_;
    deps.clear();
    deps.reserve(trace.deps.size());
    for (EventId d : trace.deps) {
        auto it = pending_.find(d);
        if (it == pending_.end())
            continue; // already retired: its finish is in the floors
        dep_finish = std::max(dep_finish, it->second.finish);
        deps.push_back(d);
    }
    stats_.rawDeps += trace.rawDeps;
    stats_.warDeps += trace.warDeps;
    stats_.wawDeps += trace.wawDeps;
    return finishSubmit(std::move(task), timing, dep_finish);
}

EventId
TaskStream::finishSubmit(LaunchedTask task, const TaskTiming &timing,
                         double dep_finish)
{
    diffuse_assert(int(timing.pointSeconds.size()) == task.numPoints,
                   "timing for %zu of %d points",
                   timing.pointSeconds.size(), task.numPoints);
    EventId id = next_++;
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
    for (int p = 0; p < task.numPoints; p++) {
        double dur = timing.pointSeconds[std::size_t(p)];
        int proc = task.procHint >= 0 ? task.procHint % nprocs
                                      : p % nprocs;
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
                h.writeFinishFloor =
                    std::max(h.writeFinishFloor, finish);
                h.readFinishFloor = 0.0;
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
    // Take the node out so callbacks may submit follow-on work; it is
    // recycled once the task has retired.
    PendingMap::node_type node = pending_.extract(it);
    const LaunchedTask &task = node.mapped().task;
    const std::vector<EventId> &task_deps = node.mapped().deps;
    stats_.retired++;

    // Failure propagates along the hazard edges: if any dependency
    // failed, this task is cancelled — its kernel never runs, and the
    // runtime poisons its outputs through the fail fn. The retire fn
    // still runs either way (reference release must not leak).
    const Error *dep_err = nullptr;
    for (EventId d : task_deps) {
        auto f = failed_.find(d);
        if (f != failed_.end()) {
            dep_err = &f->second;
            break;
        }
    }
    if (dep_err) {
        Error e;
        e.code = ErrorCode::DependencyFailed;
        // Cancellations deeper in the graph keep pointing at the root
        // cause, not at intermediate cancelled tasks.
        e.message = dep_err->code == ErrorCode::DependencyFailed
                        ? dep_err->message
                        : "cancelled by upstream failure: " +
                              dep_err->describe();
        e.originTask = dep_err->originTask;
        e.originStore = dep_err->originStore;
        e.originEvent = dep_err->originEvent;
        if (failFn_)
            failFn_(task, e, /*cancelled=*/true);
        failed_.emplace(id, std::move(e));
        stats_.tasksCancelled++;
        if (retireFn_)
            retireFn_(task);
        recycle(std::move(node));
        return;
    }

    if (executeFn_) {
        try {
            executeFn_(task);
        } catch (const DiffuseError &ex) {
            Error e = ex.error();
            if (e.originTask.empty())
                e.originTask = task.name;
            if (e.originEvent == 0)
                e.originEvent = id;
            if (failFn_)
                failFn_(task, e, /*cancelled=*/false);
            failed_.emplace(id, std::move(e));
            stats_.tasksFailed++;
        } catch (const std::exception &ex) {
            // A kernel threw something unstructured (WorkerPool
            // rethrows helper-thread exceptions here): classify as a
            // kernel fault rather than crashing the process.
            Error e = makeError(ErrorCode::KernelFault, ex.what(),
                                task.name, INVALID_STORE, id);
            if (failFn_)
                failFn_(task, e, /*cancelled=*/false);
            failed_.emplace(id, std::move(e));
            stats_.tasksFailed++;
        }
    }
    if (retireFn_)
        retireFn_(task);
    recycle(std::move(node));
}

void
TaskStream::wait(EventId id)
{
    if (id == NO_EVENT || !pending_.count(id))
        return;
    retireOne(id);
}

void
TaskStream::waitStore(StoreId id)
{
    // Collect first: retiring may cascade into dependency retirement.
    std::vector<EventId> users;
    for (const auto &[ev, pt] : pending_) {
        for (const LowArg &arg : pt.task.args) {
            if (arg.store == id) {
                users.push_back(ev);
                break;
            }
        }
    }
    for (EventId ev : users)
        wait(ev);
}

void
TaskStream::fence()
{
    // Counts synchronized work: a fence with nothing pending is none.
    if (pending_.empty())
        return;
    stats_.fences++;
    while (!pending_.empty())
        retireOne(pending_.begin()->first);
}

bool
TaskStream::complete(EventId id) const
{
    // Never-issued ids (including NO_EVENT) are trivially complete.
    return pending_.count(id) == 0;
}

} // namespace rt
} // namespace diffuse
