/**
 * @file
 * Shared benchmark harness: weak-scaling sweeps over GPU counts with
 * the paper's measurement protocol (§7: 12 runs, drop the fastest and
 * slowest, average the remaining 10; warmup iterations excluded).
 *
 * Sweeps run in Simulated execution mode — numerics are validated by
 * the test suite in Real mode; scaling studies only exercise the
 * (identical) cost model. Every binary prints the machine parameters
 * it used, and the rows/series mirror the corresponding paper figure.
 */

#ifndef DIFFUSE_BENCH_HARNESS_H
#define DIFFUSE_BENCH_HARNESS_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "petsc/petsc.h"
#include "solvers/solvers.h"

namespace bench {

using namespace diffuse;

inline std::vector<int>
gpuSweep()
{
    return {1, 2, 4, 8, 16, 32, 64, 128};
}

struct Protocol
{
    int warmup = 2;
    int itersPerRun = 3;
    int runs = 12;
    /**
     * Flush the window at every iteration boundary. True for apps
     * whose per-iteration outputs are consumed each iteration (the
     * paper's timing harness synchronizes there; without the sync
     * Diffuse legitimately dead-code-eliminates unconsumed
     * iterations). False for solvers, whose state chains across
     * iterations — the paper notes CG fuses across iteration
     * boundaries.
     */
    bool flushEveryIter = true;
};

inline DiffuseOptions
simOptions(bool fused)
{
    DiffuseOptions o;
    o.fusionEnabled = fused;
    o.mode = rt::ExecutionMode::Simulated;
    return o;
}

/** Trimmed mean per the paper's protocol. */
inline double
trimmedMean(std::vector<double> rates)
{
    std::sort(rates.begin(), rates.end());
    double sum = 0.0;
    for (std::size_t i = 1; i + 1 < rates.size(); i++)
        sum += rates[i];
    return sum / double(rates.size() - 2);
}

inline void checkSimInvariants(DiffuseRuntime &rt);

/** Iterations/second of `step` under the protocol. */
inline double
throughputOf(DiffuseRuntime &rt, const std::function<void()> &step,
             const Protocol &proto = Protocol())
{
    for (int i = 0; i < proto.warmup; i++) {
        step();
        rt.flushWindow();
    }
    std::vector<double> rates;
    for (int r = 0; r < proto.runs; r++) {
        double t0 = rt.runtimeStats().simTime;
        for (int i = 0; i < proto.itersPerRun; i++) {
            step();
            if (proto.flushEveryIter)
                rt.flushWindow();
        }
        rt.flushWindow();
        double dt = rt.runtimeStats().simTime - t0;
        rates.push_back(double(proto.itersPerRun) / dt);
    }
    checkSimInvariants(rt);
    return trimmedMean(rates);
}

/** Same protocol for the petsc-mini baseline. */
inline double
petscThroughputOf(pmini::PetscRuntime &rt,
                  const std::function<void()> &step,
                  const Protocol &proto = Protocol())
{
    for (int i = 0; i < proto.warmup; i++)
        step();
    std::vector<double> rates;
    for (int r = 0; r < proto.runs; r++) {
        double t0 = rt.stats().simTime;
        for (int i = 0; i < proto.itersPerRun; i++)
            step();
        double dt = rt.stats().simTime - t0;
        rates.push_back(double(proto.itersPerRun) / dt);
    }
    return trimmedMean(rates);
}

inline void
printHeader(const std::string &figure, const std::string &title,
            const std::vector<std::string> &series)
{
    rt::MachineConfig probe;
    std::printf("# %s — %s\n", figure.c_str(), title.c_str());
    std::printf("# machine: %s\n", probe.toString().c_str());
    std::printf("# protocol: 12 runs, trimmed mean, warmup excluded; "
                "weak scaling (constant work per GPU)\n");
    std::printf("%-6s", "gpus");
    for (const auto &s : series)
        std::printf(" %14s", s.c_str());
    std::printf("\n");
}

inline void
printRow(int gpus, const std::vector<double> &values)
{
    std::printf("%-6d", gpus);
    for (double v : values)
        std::printf(" %14.3f", v);
    std::printf("\n");
}

inline double
geoMean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / double(values.size()));
}

// ---------------------------------------------------------------------
// Wall-clock measurement and machine-readable output
// ---------------------------------------------------------------------

/**
 * Smoke mode (DIFFUSE_BENCH_SMOKE=1): benchmarks skip the simulated
 * weak-scaling sweeps and run only their small Real-mode wall-clock
 * sections, so they finish in CI time (the `bench_smoke` ctest
 * targets set this).
 */
inline bool
smokeMode()
{
    return std::getenv("DIFFUSE_BENCH_SMOKE") != nullptr;
}

/**
 * Sim-accounting invariants, asserted by the bench_smoke ctest
 * targets so accounting regressions fail CI rather than silently
 * skewing figures:
 *
 *  - busyTime (aggregate busy seconds over all processor timelines,
 *    plus collectives, which occupy the interconnect rather than a
 *    single processor) can never exceed the makespan times the
 *    processor count;
 *  - with ranks == 1 no exchange exists, so measured exchange bytes
 *    and Copy tasks must be exactly zero.
 */
inline void
checkSimInvariants(DiffuseRuntime &rt)
{
    // Checked on the stream's *cumulative* clocks, not the
    // RuntimeStats deltas: after a mid-run stats reset, tasks
    // back-filling idle gaps left behind the earlier makespan add
    // busy-delta without sim-delta, which is correct accounting but
    // would fail a delta-based bound.
    const rt::StreamStats &ss = rt.low().streamStats();
    const rt::RuntimeStats &s = rt.runtimeStats();
    double procs = double(rt.machine().totalGpus());
    double cap =
        ss.criticalPathTime * procs + ss.collectiveTime + 1e-12;
    if (ss.busyTime > cap * (1.0 + 1e-9)) {
        std::fprintf(stderr,
                     "sim invariant violated: busyTime %.9g > "
                     "makespan %.9g x %g procs (+collectives %.9g)\n",
                     ss.busyTime, ss.criticalPathTime, procs,
                     ss.collectiveTime);
        std::abort();
    }
    if (rt.low().ranks() == 1 &&
        (s.exchangeBytes != 0.0 || s.copyTasks != 0)) {
        std::fprintf(stderr,
                     "sim invariant violated: ranks==1 but exchange "
                     "bytes %.9g / %llu copy tasks\n",
                     s.exchangeBytes,
                     (unsigned long long)s.copyTasks);
        std::abort();
    }
}

/**
 * Measured data-movement section (sharded sim): run one app fused
 * and unfused at `gpus` ranks and print per-iteration *measured*
 * volumes instead of the analytic model:
 *
 *  - network exchange: bytes moved by Copy tasks between rank shards
 *    and into the canonical copy. With exact ghost-validity caching
 *    every byte moves at most once, so the steady-state volume is a
 *    property of the data-flow, not of the task granularity — fused
 *    and unfused runs tie, which the measurement makes explicit
 *    (Legion behaves the same way; the paper's fusion win at this
 *    layer is launches and analysis, not steady-state bytes);
 *  - memory (HBM) traffic: here fusion genuinely moves less — an
 *    eliminated temporary never hits memory at all (the Bohrium /
 *    kernel-fusion-BLAS observation) — so fused < unfused.
 */
template <typename MakeStep>
inline void
printMeasuredExchange(const std::string &figure, MakeStep &&make_step,
                      int gpus = 8, int iters = 4)
{
    std::printf("# %s — measured data movement (ranks=%d, per "
                "iteration)\n",
                figure.c_str(), gpus);
    double net[2] = {0.0, 0.0};
    double hbm[2] = {0.0, 0.0};
    for (bool fused : {true, false}) {
        DiffuseOptions o = simOptions(fused);
        o.ranks = gpus;
        DiffuseRuntime rt(rt::MachineConfig::withGpus(gpus), o);
        std::function<void()> step = make_step(rt, gpus);
        // Warmup: first-touch pulls of initial data are setup, not
        // steady-state exchange.
        step();
        rt.flushWindow();
        rt.runtimeStats().reset();
        for (int i = 0; i < iters; i++) {
            step();
            rt.flushWindow();
        }
        checkSimInvariants(rt);
        int idx = fused ? 0 : 1;
        net[idx] = rt.runtimeStats().exchangeBytes / double(iters);
        hbm[idx] = rt.runtimeStats().bytesHbm / double(iters);
        double copies =
            double(rt.runtimeStats().copyTasks) / double(iters);
        std::printf("#   %-8s exchange %12.0f B/iter (%.1f "
                    "copies/iter)   hbm %12.0f B/iter\n",
                    fused ? "fused" : "unfused", net[idx], copies,
                    hbm[idx]);
    }
    if (net[1] > 0.0 && hbm[1] > 0.0) {
        std::printf("#   fused/unfused: exchange %.3fx, hbm %.3fx\n",
                    net[0] / net[1], hbm[0] / hbm[1]);
    }
}

/**
 * Scoped DIFFUSE_SCALAR_EXEC override: the oracle toggle. Lets one
 * binary measure the scalar interpreter against the vector executor
 * on the very same build.
 */
class ScalarExecGuard
{
  public:
    explicit ScalarExecGuard(bool scalar)
    {
        if (scalar)
            setenv("DIFFUSE_SCALAR_EXEC", "1", 1);
        else
            unsetenv("DIFFUSE_SCALAR_EXEC");
    }
    ~ScalarExecGuard() { unsetenv("DIFFUSE_SCALAR_EXEC"); }
    ScalarExecGuard(const ScalarExecGuard &) = delete;
    ScalarExecGuard &operator=(const ScalarExecGuard &) = delete;
};

/** One wall-clock measurement series. */
struct WallMetric
{
    std::string label;
    double medianSeconds = 0.0;
    double minSeconds = 0.0;
    double elementsPerSecond = 0.0;
    double bytesPerSecond = 0.0;
};

/**
 * Summarize per-rep wall times: element/byte rates come from the
 * median (min also reported: the least-disturbed rep).
 */
inline WallMetric
wallMetric(const std::string &label, std::vector<double> times,
           double elements_per_iter, double bytes_per_iter)
{
    std::sort(times.begin(), times.end());
    WallMetric m;
    m.label = label;
    m.medianSeconds = times[times.size() / 2];
    m.minSeconds = times.front();
    m.elementsPerSecond = elements_per_iter / m.medianSeconds;
    m.bytesPerSecond = bytes_per_iter / m.medianSeconds;
    return m;
}

/** Time `iter` for `reps` repetitions (see wallMetric). */
template <typename Fn>
inline WallMetric
measureWall(const std::string &label, int reps,
            double elements_per_iter, double bytes_per_iter, Fn &&iter)
{
    using clock = std::chrono::steady_clock;
    std::vector<double> times;
    times.reserve(std::size_t(reps));
    for (int r = 0; r < reps; r++) {
        auto t0 = clock::now();
        iter();
        auto t1 = clock::now();
        times.push_back(std::chrono::duration<double>(t1 - t0).count());
    }
    return wallMetric(label, std::move(times), elements_per_iter,
                      bytes_per_iter);
}

/** Print a WallMetric row (pairs with printWallHeader). */
inline void
printWallHeader()
{
    std::printf("%-22s %12s %12s %14s %14s\n", "series", "median s",
                "min s", "elems/s", "bytes/s");
}

inline void
printWallRow(const WallMetric &m)
{
    std::printf("%-22s %12.6f %12.6f %14.4g %14.4g\n", m.label.c_str(),
                m.medianSeconds, m.minSeconds, m.elementsPerSecond,
                m.bytesPerSecond);
}

/** Run a fused-vs-unfused weak-scaling sweep of an app factory. */
template <typename MakeStep>
inline void
sweepFusedUnfused(const std::string &figure, const std::string &title,
                  MakeStep &&make_step,
                  const Protocol &proto = Protocol())
{
    printHeader(figure, title,
                {"fused it/s", "unfused it/s", "speedup"});
    std::vector<double> speedups;
    for (int gpus : gpuSweep()) {
        double rates[2];
        for (bool fused : {true, false}) {
            DiffuseRuntime rt(rt::MachineConfig::withGpus(gpus),
                              simOptions(fused));
            std::function<void()> step = make_step(rt, gpus);
            rates[fused ? 0 : 1] = throughputOf(rt, step, proto);
        }
        speedups.push_back(rates[0] / rates[1]);
        printRow(gpus, {rates[0], rates[1], rates[0] / rates[1]});
    }
    std::printf("# geo-mean speedup: %.3fx\n\n", geoMean(speedups));
}

} // namespace bench

#endif // DIFFUSE_BENCH_HARNESS_H
