#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

std::uint64_t
SeedRng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
SeedRng::exponential(double rate)
{
    return -std::log1p(-uniform()) / rate;
}

std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    SeedRng r(a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL));
    return r.next();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    std::size_t lo = std::size_t(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - double(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    if (n < 11) {
        // Fewer than eleven samples: no percentile has ten beyond it;
        // report the maximum.
        t.value = v.back();
        t.pct = 100.0;
        return t;
    }
    double p = std::min(0.99, double(n - 11) / double(n - 1));
    std::size_t index = std::size_t(std::floor(p * double(n - 1)));
    t.value = v[index];
    t.pct = 100.0 * p;
    return t;
}

HostInfo
hostInfo()
{
    HostInfo h;
    h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
    h.l2Bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
    h.l3Bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
    h.compiler = PERFBENCH_COMPILER;
    h.flags = PERFBENCH_FLAGS;
    h.buildType = PERFBENCH_BUILD_TYPE;
    return h;
}

namespace {

/** Best-of-reps seconds for `threads` threads each copying a slice. */
double
timeCopy(char *dst, const char *src, std::size_t bytes, int threads,
         int reps)
{
    double best = 1e30;
    for (int rep = 0; rep < reps; rep++) {
        auto t0 = Clock::now();
        std::vector<std::thread> pool;
        std::size_t slice = bytes / std::size_t(threads);
        for (int t = 1; t < threads; t++)
            pool.emplace_back([=] {
                std::memcpy(dst + slice * std::size_t(t),
                            src + slice * std::size_t(t), slice);
            });
        std::memcpy(dst, src, slice);
        for (std::thread &th : pool)
            th.join();
        best = std::min(best, msBetween(t0, Clock::now()) / 1e3);
    }
    return best;
}

} // namespace

MemcpyCeiling
measureMemcpy(std::size_t bytes)
{
    MemcpyCeiling c;
    c.bytes = bytes;
    std::unique_ptr<char[]> src(new char[bytes]);
    std::unique_ptr<char[]> dst(new char[bytes]);
    std::memset(src.get(), 1, bytes);
    std::memset(dst.get(), 0, bytes);
    double moved = 2.0 * double(bytes); // read + write
    c.gbps1 = moved / timeCopy(dst.get(), src.get(), bytes, 1, 3) / 1e9;
    c.gbps4 = moved / timeCopy(dst.get(), src.get(), bytes, 4, 3) / 1e9;
    return c;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) * 1024.0 / 1e6;
}

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
printResult(const Result &r)
{
    std::printf("%-34s %18s  %s\n", "metric", "value", "unit");
    for (const Metric &m : r.metrics)
        std::printf("%-34s %18.6f  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string line = "PERFBENCH_RESULT {\"correct\": ";
    line += r.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(r.attempted);
    line += ", \"failed\": " + std::to_string(r.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); i++) {
        const Metric &m = r.metrics[i];
        if (i)
            line += ", ";
        line += jsonString(m.name) + ": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": " + jsonString(m.unit) +
                "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

Counters
Counters::session(diffuse::DiffuseRuntime &rt)
{
    Counters c;
    const diffuse::FusionStats &f = rt.fusionStats();
    c.plannedMs = f.plannedSubmitSeconds * 1e3;
    c.replayMs = f.replaySubmitSeconds * 1e3;
    c.tasks = f.tasksSubmitted;
    c.launches = f.groupsLaunched;
    c.temps = f.tempsEliminated;
    c.flushes = f.flushes;
    c.replayed = f.traceEpochsReplayed;
    const diffuse::rt::RuntimeStats &r = rt.runtimeStats();
    c.pointTasks = r.pointTasks;
    c.sharded = r.tasksSharded;
    c.copies = r.copyTasks;
    c.exchangeBytes = r.exchangeBytes;
    c.bytesMaterialized = r.bytesMaterialized;
    const diffuse::rt::StreamStats &s = rt.low().streamStats();
    c.streamSubmitted = s.submitted;
    c.deps = s.rawDeps + s.warDeps + s.wawDeps;
    c.tasksFailed = s.tasksFailed + s.tasksCancelled;
    return c;
}

Counters
Counters::context(diffuse::SharedContext &ctx)
{
    Counters c;
    const diffuse::Memoizer::Stats &m = ctx.memo().stats();
    c.memoHits = m.hits.load(std::memory_order_relaxed);
    c.memoMisses = m.misses.load(std::memory_order_relaxed);
    c.memoEntries = m.entries.load(std::memory_order_relaxed);
    c.traceEntries = ctx.traceCache().entries();
    diffuse::kir::CompilerStats cs = ctx.compiler().stats();
    c.compileMs = cs.measuredSeconds * 1e3;
    c.plansLowered = std::uint64_t(cs.plansLowered);
    c.steals = ctx.pool() ? ctx.pool()->steals() : 0;
    return c;
}

Counters
Counters::of(diffuse::DiffuseRuntime &rt)
{
    Counters c = session(rt);
    Counters x = context(*rt.context());
    c.memoHits = x.memoHits;
    c.memoMisses = x.memoMisses;
    c.memoEntries = x.memoEntries;
    c.traceEntries = x.traceEntries;
    c.compileMs = x.compileMs;
    c.plansLowered = x.plansLowered;
    c.steals = x.steals;
    return c;
}

Counters
Counters::since(const Counters &b) const
{
    Counters d = *this;
    d.plannedMs -= b.plannedMs;
    d.replayMs -= b.replayMs;
    d.compileMs -= b.compileMs;
    d.exchangeBytes -= b.exchangeBytes;
    d.bytesMaterialized -= b.bytesMaterialized;
    d.tasks -= b.tasks;
    d.launches -= b.launches;
    d.temps -= b.temps;
    d.flushes -= b.flushes;
    d.replayed -= b.replayed;
    d.pointTasks -= b.pointTasks;
    d.sharded -= b.sharded;
    d.copies -= b.copies;
    d.streamSubmitted -= b.streamSubmitted;
    d.deps -= b.deps;
    d.tasksFailed -= b.tasksFailed;
    d.memoHits -= b.memoHits;
    d.memoMisses -= b.memoMisses;
    d.plansLowered -= b.plansLowered;
    d.steals -= b.steals;
    return d;
}

Counters
Counters::plus(const Counters &o) const
{
    Counters d = *this;
    d.plannedMs += o.plannedMs;
    d.replayMs += o.replayMs;
    d.exchangeBytes += o.exchangeBytes;
    d.bytesMaterialized += o.bytesMaterialized;
    d.tasks += o.tasks;
    d.launches += o.launches;
    d.temps += o.temps;
    d.flushes += o.flushes;
    d.replayed += o.replayed;
    d.pointTasks += o.pointTasks;
    d.sharded += o.sharded;
    d.copies += o.copies;
    d.streamSubmitted += o.streamSubmitted;
    d.deps += o.deps;
    d.tasksFailed += o.tasksFailed;
    d.compileMs += o.compileMs;
    d.memoHits += o.memoHits;
    d.memoMisses += o.memoMisses;
    d.plansLowered += o.plansLowered;
    d.steals += o.steals;
    return d;
}

int
Lane::begin(const char *layer, std::string name, std::uint64_t op,
            diffuse::DiffuseRuntime &rt)
{
    Span s;
    s.layer = layer;
    s.name = std::move(name);
    s.op = op;
    s.parent = stack_.empty() ? -1 : stack_.back();
    open_.push_back(Counters::session(rt));
    s.t0 = Clock::now();
    spans_.push_back(std::move(s));
    stack_.push_back(int(spans_.size()) - 1);
    return stack_.back();
}

void
Lane::end(int index, diffuse::DiffuseRuntime &rt)
{
    Span &s = spans_[std::size_t(index)];
    s.t1 = Clock::now();
    Counters d = Counters::session(rt).since(open_.back());
    s.tasks = d.tasks;
    s.launches = d.launches;
    s.replayed = d.replayed;
    s.pointTasks = d.pointTasks;
    open_.pop_back();
    stack_.pop_back();
}

std::vector<StageSplit>
splitStages(const std::vector<const Lane *> &lanes)
{
    std::vector<StageSplit> out;
    for (const Lane *lane : lanes) {
        const std::vector<Span> &spans = lane->spans();
        std::map<int, std::size_t> opIndex; // op span -> out slot
        for (std::size_t i = 0; i < spans.size(); i++) {
            const Span &s = spans[i];
            if (std::strcmp(s.layer, "op") == 0) {
                opIndex[int(i)] = out.size();
                StageSplit st;
                st.wallMs = s.ms();
                out.push_back(st);
                continue;
            }
            if (s.parent < 0)
                continue;
            auto it = opIndex.find(s.parent);
            if (it != opIndex.end()) {
                StageSplit &st = out[it->second];
                if (std::strcmp(s.layer, "cunumeric.issue") == 0)
                    st.issueMs += s.ms();
                else if (std::strcmp(s.layer, "core.flush") == 0)
                    st.flushMs += s.ms();
                else if (std::strcmp(s.layer, "kernel.exec") == 0)
                    st.execMs += s.ms();
            }
            if (std::strcmp(s.layer, "sparse.build") == 0) {
                // Attribute to the operation that encloses it.
                int p = s.parent;
                while (p >= 0 &&
                       std::strcmp(spans[std::size_t(p)].layer, "op") != 0)
                    p = spans[std::size_t(p)].parent;
                auto op = opIndex.find(p);
                if (op != opIndex.end())
                    out[op->second].buildMs += s.ms();
            }
        }
    }
    return out;
}

std::vector<std::pair<std::string, double>>
selfTimes(const std::vector<const Lane *> &lanes)
{
    std::map<std::string, double> self;
    for (const Lane *lane : lanes) {
        const std::vector<Span> &spans = lane->spans();
        std::vector<double> childMs(spans.size(), 0.0);
        for (const Span &s : spans)
            if (s.parent >= 0)
                childMs[std::size_t(s.parent)] += s.ms();
        for (std::size_t i = 0; i < spans.size(); i++)
            self[spans[i].layer] += spans[i].ms() - childMs[i];
    }
    return {self.begin(), self.end()};
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<const Lane *> &lanes,
                 Clock::time_point origin)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    bool first = true;
    for (const Lane *lane : lanes) {
        for (std::size_t i = 0; i < lane->spans().size(); i++) {
            const Span &s = lane->spans()[i];
            double ts =
                std::chrono::duration<double, std::micro>(s.t0 - origin)
                    .count();
            double dur = s.ms() * 1e3;
            out << (first ? "" : ",\n") << "{\"name\": "
                << jsonString(s.name) << ", \"cat\": "
                << jsonString(s.layer) << ", \"ph\": \"X\", \"ts\": "
                << jsonNumber(ts) << ", \"dur\": " << jsonNumber(dur)
                << ", \"pid\": 1, \"tid\": " << lane->tid()
                << ", \"args\": {\"op\": " << s.op
                << ", \"span\": " << i << ", \"parent\": " << s.parent
                << ", \"tasks\": " << s.tasks
                << ", \"launches\": " << s.launches
                << ", \"replayed\": " << s.replayed
                << ", \"point_tasks\": " << s.pointTasks
                << ", \"bytes\": " << jsonNumber(s.bytes)
                << ", \"elems\": " << jsonNumber(s.elems) << "}}";
            first = false;
        }
    }
    out << "\n]}\n";
    return bool(out);
}

void
Issuer::sync(const char *label, double bytes, double elems)
{
    if (!lane_) {
        rt_.flushWindow();
        return;
    }
    {
        Scope s(this, "core.flush", "flushWindowAsync");
        rt_.flushWindowAsync();
    }
    {
        Scope s(this, "kernel.exec", label);
        lane_->work(s.index(), bytes, elems);
        rt_.low().fence();
    }
    if (rt_.failed())
        throw diffuse::DiffuseError(rt_.error());
}

double
Issuer::read(const diffuse::num::NDArray &scalar)
{
    return rt_.low().readScalarValue(scalar.store());
}

void
Issuer::beginOp(std::uint64_t id, const char *name)
{
    op_ = id;
    if (lane_)
        opSpan_ = lane_->begin("op", name, id, rt_);
}

void
Issuer::endOp()
{
    if (lane_ && opSpan_ >= 0)
        lane_->end(opSpan_, rt_);
    opSpan_ = -1;
    op_ = 0;
}

diffuse::DiffuseOptions
sessionOptions(int workers, int ranks)
{
    diffuse::DiffuseOptions o;
    o.mode = diffuse::rt::ExecutionMode::Real;
    o.workers = workers;
    o.ranks = ranks;
    o.jit = 0;
    o.batch = 0;
    o.pipeline = 0;
    return o;
}

bool
matches(double a, double b, double rel, double floor)
{
    if (!std::isfinite(a) || !std::isfinite(b))
        return false;
    return std::fabs(a - b) <= rel * std::max(std::fabs(b), floor);
}

} // namespace perfbench
