/**
 * @file
 * Shared pieces of the benchmark binary: timing and percentiles, host
 * facts and the in-run memcpy ceiling, counter snapshots, and the
 * in-memory span tracer with its Chrome trace-event writer.
 *
 * Everything here observes the library from outside: spans wrap calls
 * into its public functions, and counters are read from the existing
 * stats structs between those calls.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/diffuse.h"
#include "cunumeric/ndarray.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Command-line options of one workload process. */
struct Args
{
    std::string workload;
    /** run (end-to-end, untraced), traced (per-layer) or counts
     * (fixed operation count, for the same-seed repeat check). */
    std::string mode = "run";
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** Chrome trace output path (traced mode). */
    std::string traceOut;
};

/** splitmix64 stream: the benchmark's own seeded inputs (sizes,
 * request mix, arrival times). */
class SeedRng
{
  public:
    explicit SeedRng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();
    /** Uniform double in [0, 1). */
    double uniform() { return double(next() >> 11) * 0x1.0p-53; }
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    /** Exponential inter-arrival gap for a Poisson process. */
    double exponential(double rate);

  private:
    std::uint64_t state_;
};

/** Mix two values into a derived seed. */
std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b);

/** Linear-interpolated quantile q in [0, 1] (empty input: 0). */
double quantile(std::vector<double> v, double q);

/**
 * The highest percentile (capped at p99) with at least ten samples
 * beyond it, with that percentile and the sample count.
 */
struct Tail
{
    double value = 0.0;
    double pct = 0.0;
    std::size_t samples = 0;
};
Tail tailOf(std::vector<double> v);

/** Host facts recorded with every result. */
struct HostInfo
{
    long nproc = 0;
    long l2Bytes = 0;
    long l3Bytes = 0;
    std::string compiler;
    std::string flags;
    std::string buildType;
};
HostInfo hostInfo();

/**
 * Memory-bandwidth ceiling measured in this process: memcpy of a
 * buffer much larger than the last-level cache, by 1 and by 4
 * threads. GB/s counts bytes read plus bytes written, the same
 * convention as the kernels' computed bytes.
 */
struct MemcpyCeiling
{
    std::size_t bytes = 0;
    double gbps1 = 0.0;
    double gbps4 = 0.0;
};
MemcpyCeiling measureMemcpy(std::size_t bytes);

/** Peak resident set of this process so far, in MB (1e6 bytes). */
double peakRssMb();

/** One named value of the result. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload process reports. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/** Print the metrics table and the machine-readable result line. */
void printResult(const Result &r);

/**
 * Counters read from the library's stats structs at one instant.
 * Session counters come from the session's FusionStats, RuntimeStats
 * and StreamStats; context counters (memo, trace cache, compiler,
 * pool) are shared by every session of the context.
 */
struct Counters
{
    double plannedMs = 0.0;
    double replayMs = 0.0;
    double compileMs = 0.0;
    double exchangeBytes = 0.0;
    double bytesMaterialized = 0.0;
    std::uint64_t tasks = 0;
    std::uint64_t launches = 0;
    std::uint64_t temps = 0;
    std::uint64_t flushes = 0;
    std::uint64_t replayed = 0;
    std::uint64_t pointTasks = 0;
    std::uint64_t sharded = 0;
    std::uint64_t copies = 0;
    std::uint64_t streamSubmitted = 0;
    std::uint64_t deps = 0;
    std::uint64_t tasksFailed = 0;
    std::uint64_t memoHits = 0;
    std::uint64_t memoMisses = 0;
    std::uint64_t memoEntries = 0;
    std::uint64_t traceEntries = 0;
    std::uint64_t plansLowered = 0;
    std::uint64_t steals = 0;

    /** Session part only (no context reads). */
    static Counters session(diffuse::DiffuseRuntime &rt);
    /** Context part only. */
    static Counters context(diffuse::SharedContext &ctx);
    /** Both parts. */
    static Counters of(diffuse::DiffuseRuntime &rt);

    /** Field-wise difference; gauges (entries) keep `*this`. */
    Counters since(const Counters &before) const;
    /** Field-wise sum of movements; gauges keep `*this`. */
    Counters plus(const Counters &other) const;
};

/** One timed call into a layer. */
struct Span
{
    const char *layer = "";
    std::string name;
    Clock::time_point t0;
    Clock::time_point t1;
    std::uint64_t op = 0; ///< operation (step/request) id
    int parent = -1;      ///< index in the lane, -1 for roots
    /** Session counter movement over the span. */
    std::uint64_t tasks = 0;
    std::uint64_t launches = 0;
    std::uint64_t replayed = 0;
    std::uint64_t pointTasks = 0;
    /** Computed work retired by a kernel.exec span (see sync()). */
    double bytes = 0.0;
    double elems = 0.0;

    double ms() const { return msBetween(t0, t1); }
};

/** One thread's spans, kept in memory until the run ends. */
class Lane
{
  public:
    explicit Lane(int tid) : tid_(tid) {}

    /** Open a span; session counters are sampled from `rt`. */
    int begin(const char *layer, std::string name, std::uint64_t op,
              diffuse::DiffuseRuntime &rt);
    void end(int index, diffuse::DiffuseRuntime &rt);

    /** Record computed work on span `index`. */
    void work(int index, double bytes, double elems)
    {
        spans_[std::size_t(index)].bytes = bytes;
        spans_[std::size_t(index)].elems = elems;
    }

    int tid() const { return tid_; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    int tid_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::vector<Counters> open_;
};

/**
 * Per-operation stage split of traced spans: the direct children of
 * each operation span, summed by layer, and the operation's wall.
 */
struct StageSplit
{
    double wallMs = 0.0;
    double issueMs = 0.0;
    double buildMs = 0.0; ///< nested inside issue spans
    double flushMs = 0.0;
    double execMs = 0.0;
    /** Wall minus issue + flush + exec (benchmark bookkeeping). */
    double gapMs() const { return wallMs - issueMs - flushMs - execMs; }
};

/** Stage splits of every operation span in `lanes`, in lane order. */
std::vector<StageSplit> splitStages(const std::vector<const Lane *> &lanes);

/** Summed self time (duration minus child spans) by layer. */
std::vector<std::pair<std::string, double>>
selfTimes(const std::vector<const Lane *> &lanes);

/** Write the spans as Chrome trace-event JSON. Returns false on I/O
 * failure. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<const Lane *> &lanes,
                      Clock::time_point origin);

/**
 * Issues one session's work and its sync points. Untraced, a sync
 * point is flushWindow(); traced, it is flushWindowAsync() followed by
 * low().fence() (the same effect), and every call is a span. The work
 * issued is identical either way.
 */
class Issuer
{
  public:
    Issuer(diffuse::DiffuseRuntime &rt, Lane *lane) : rt_(rt), lane_(lane)
    {}

    /** An app, solver or library call that issues tasks. */
    template <class F>
    decltype(auto)
    issue(const char *name, F &&f)
    {
        Scope s(this, "cunumeric.issue", name);
        return f();
    }

    /** CSR assembly (poisson2d, buildHierarchy1d). */
    template <class F>
    decltype(auto)
    build(const char *name, F &&f)
    {
        Scope s(this, "sparse.build", name);
        return f();
    }

    /**
     * Sync point: drain the window and retire everything issued.
     * Traced, the kernel.exec span is named `label` and carries the
     * computed bytes and elements of the work it retires.
     */
    void sync(const char *label = "fence", double bytes = 0.0,
              double elems = 0.0);

    /** Read back a scalar after sync(). */
    double read(const diffuse::num::NDArray &scalar);

    void beginOp(std::uint64_t id, const char *name);
    void endOp();

  private:
    struct Scope
    {
        Scope(Issuer *d, const char *layer, const char *name) : d_(d)
        {
            if (d_->lane_)
                index_ = d_->lane_->begin(layer, name, d_->op_, d_->rt_);
        }
        ~Scope()
        {
            if (d_->lane_)
                d_->lane_->end(index_, d_->rt_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        int index() const { return index_; }

        Issuer *d_;
        int index_ = -1;
    };

    diffuse::DiffuseRuntime &rt_;
    Lane *lane_;
    std::uint64_t op_ = 0;
    int opSpan_ = -1;
};

/** Opens an operation span on construction and closes it on scope
 * exit, also when the operation throws. */
class OpScope
{
  public:
    OpScope(Issuer &d, std::uint64_t id, const char *name) : d_(d)
    {
        d_.beginOp(id, name);
    }
    ~OpScope() { d_.endOp(); }
    OpScope(const OpScope &) = delete;
    OpScope &operator=(const OpScope &) = delete;

  private:
    Issuer &d_;
};

/** Default options of every benchmark session: library defaults except
 * workers and ranks; JIT, batching and pipelining pinned off. */
diffuse::DiffuseOptions sessionOptions(int workers, int ranks);

/**
 * The traced process alternates untraced and traced blocks of
 * `blockS` seconds, kTracedBlocks of each, so that host drift during
 * the run lands on both sides of the tracing-overhead difference.
 */
constexpr int kTracedBlocks = 3;

/** |a - b| <= rel * max(|b|, floor), both finite. */
bool matches(double a, double b, double rel, double floor = 1.0);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
