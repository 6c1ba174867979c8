/**
 * @file
 * The three workloads and the metric assembly they share.
 *
 * - apps_dram: closed loop, one session, Black-Scholes over 2^24
 *   options then one Fig 1 stencil step on an 8192^2 grid per step.
 * - solvers_small: closed loop, one session at ranks=4, CG, BiCGSTAB
 *   and GMG-PCG solves on reused small operators per step.
 * - serving_mix: open loop, three sessions on one SharedContext, each
 *   request building its own problem.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

/** Each returns the process exit code: 0 when every check passed. */
int runAppsDram(const Args &args);
int runSolversSmall(const Args &args);
int runServingMix(const Args &args);

/** Host header: nproc, caches, compiler, flags, build type. */
void printHeader(const Args &args);

/** Print the workload's array sizes next to the last-level cache. */
void printSize(const char *what, double bytes);

/**
 * End-to-end metrics: the median, tail and throughput of an operation
 * (a step, or a request at the fixed offered rate; max_rps for
 * serving), set-up time (median over repeated set-ups) and peak RSS.
 * All are printed; p50_ms, setup_s and peak_rss_mb go into the result.
 */
struct EndToEnd
{
    std::vector<double> opMs;
    double opsPerS = 0.0;
    std::vector<double> setupS;
    double rssMb = 0.0;
};
void addEndToEnd(Result &r, const EndToEnd &e, const char *opName);

/** Inputs of the per-layer metrics of one traced phase. */
struct LayerReport
{
    std::vector<const Lane *> lanes;
    /** Movement over the traced phase: session counters summed over
     * its sessions, context counters once. */
    Counters delta;
    /** Gauges (cache entries) at the end of the run. */
    Counters atExit;
    std::vector<double> sessionMs;
    double lateP99Ms = 0.0;
    MemcpyCeiling mem;
    /** Mean operation wall, untraced, same process and state. */
    double untracedOpMs = 0.0;
    /** Reference points (ratios of mean operation times). */
    double unfusedRatio = 0.0;
    double plainRatio = 0.0;
};
void addLayerMetrics(Result &r, const LayerReport &l);

/** Counts compared across two same-seed runs (counts mode). */
void printCounts(const std::vector<std::pair<std::string, double>> &c);

/** Median of `v` (0 when empty). */
double median(const std::vector<double> &v);
double mean(const std::vector<double> &v);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
