#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "workloads.h"

namespace perfbench {

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / double(v.size());
}

void
printHeader(const Args &args)
{
    HostInfo h = hostInfo();
    std::printf("workload %s  mode %s  seed %llu  seconds %.1f\n",
                args.workload.c_str(), args.mode.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds);
    std::printf("host nproc=%ld l2=%.1fMiB l3=%.1fMiB compiler=\"%s\" "
                "flags=\"%s\" build=%s\n",
                h.nproc, double(h.l2Bytes) / 1048576.0,
                double(h.l3Bytes) / 1048576.0, h.compiler.c_str(),
                h.flags.c_str(), h.buildType.c_str());
}

void
printSize(const char *what, double bytes)
{
    HostInfo h = hostInfo();
    double llc = double(h.l3Bytes > 0 ? h.l3Bytes : h.l2Bytes);
    std::printf("size %-34s %10.2f MiB  (%.2fx the %.1f MiB LLC)\n", what,
                bytes / 1048576.0, llc > 0 ? bytes / llc : 0.0,
                llc / 1048576.0);
}

void
addEndToEnd(Result &r, const EndToEnd &e, const char *opName)
{
    Tail tail = tailOf(e.opMs);
    double p50 = median(e.opMs);
    double setup = median(e.setupS);
    double fail = r.attempted ? double(r.failed) / double(r.attempted) : 1.0;
    bool serving = std::strcmp(opName, "req") == 0;
    // Every end-to-end metric under its per-workload name; the
    // result line carries the gated ones (see README.md).
    std::printf("e2e %s_ms_p50 = %.4f ms (%zu samples)\n", opName, p50,
                e.opMs.size());
    std::printf("e2e %s = %.4f ms (p%.2f, %zu samples)\n",
                serving ? "req_ms_p99" : "step_ms_tail", tail.value,
                tail.pct, tail.samples);
    std::printf("e2e %s = %.4f 1/s\n", serving ? "max_rps" : "steps_per_s",
                e.opsPerS);
    std::printf("e2e setup_s = %.4f s (median of %zu set-ups)\n", setup,
                e.setupS.size());
    std::printf("e2e peak_rss_mb = %.1f MB\n", e.rssMb);
    std::printf("e2e fail_frac = %.6f (%llu of %llu)\n", fail,
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    r.add("p50_ms", p50, "ms");
    r.add("setup_s", setup, "s");
    r.add("peak_rss_mb", e.rssMb, "MB");
}

namespace {

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
addLayerMetrics(Result &r, const LayerReport &l)
{
    std::vector<StageSplit> stages = splitStages(l.lanes);
    double ops = double(std::max<std::size_t>(stages.size(), 1));
    double issue = 0, build = 0, flush = 0, exec = 0, wall = 0, gap = 0;
    std::size_t within = 0;
    // A stage sum matches its operation when the unaccounted gap (the
    // benchmark's own bookkeeping between spans: scalar read-back,
    // result checks, counter sampling) is within 5% of the wall or
    // 0.05 ms, whichever is larger.
    for (const StageSplit &s : stages) {
        issue += s.issueMs;
        build += s.buildMs;
        flush += s.flushMs;
        exec += s.execMs;
        wall += s.wallMs;
        gap += s.gapMs();
        if (std::fabs(s.gapMs()) <= std::max(0.05 * s.wallMs, 0.05))
            within++;
    }
    double bytes = 0, bytesMs = 0, elems = 0, elemsMs = 0;
    for (const Lane *lane : l.lanes) {
        for (const Span &s : lane->spans()) {
            if (std::strcmp(s.layer, "kernel.exec") != 0)
                continue;
            if (s.bytes > 0) {
                bytes += s.bytes;
                bytesMs += s.ms();
            }
            if (s.elems > 0) {
                elems += s.elems;
                elemsMs += s.ms();
            }
        }
    }
    double gbps = bytesMs > 0 ? bytes / (bytesMs / 1e3) / 1e9 : 0.0;
    double melem = elemsMs > 0 ? elems / (elemsMs / 1e3) / 1e6 : 0.0;
    const Counters &d = l.delta;
    double tracedOp = wall / ops;

    std::printf("stages per op (ms): issue %.4f (build %.4f) + flush %.4f "
                "+ exec %.4f = %.4f vs wall %.4f; %zu of %zu ops within "
                "max(5%%, 0.05 ms)\n",
                issue / ops, build / ops, flush / ops, exec / ops,
                (issue + flush + exec) / ops, tracedOp, within,
                stages.size());
    std::printf("self time per op (ms):");
    std::vector<std::pair<std::string, double>> self = selfTimes(l.lanes);
    for (const auto &[layer, ms] : self)
        std::printf("  %s %.4f", layer.c_str(), ms / ops);
    std::printf("\n");
    std::printf("trace overhead: traced %.4f ms - untraced %.4f ms = "
                "%.4f ms per op\n",
                tracedOp, l.untracedOpMs, tracedOp - l.untracedOpMs);
    std::printf("ceiling memcpy %.1f MiB: %.2f GB/s (1 thread), %.2f "
                "GB/s (4 threads), read+write bytes\n",
                double(l.mem.bytes) / 1048576.0, l.mem.gbps1, l.mem.gbps4);

    r.add("cunumeric.issue_ms", issue / ops, "ms");
    r.add("sparse.build_ms", build / ops, "ms");
    r.add("core.flush_ms", flush / ops, "ms");
    r.add("core.plan_ms", d.plannedMs / ops, "ms");
    r.add("core.replay_ms", d.replayMs / ops, "ms");
    r.add("core.trace.replay_frac",
          ratio(double(d.replayed), double(d.flushes)), "ratio");
    r.add("core.memo.hit_frac",
          ratio(double(d.memoHits), double(d.memoHits + d.memoMisses)),
          "ratio");
    r.add("core.memo.entries", double(l.atExit.memoEntries), "count");
    r.add("core.trace.entries", double(l.atExit.traceEntries), "count");
    r.add("core.fusion.tasks_per_launch",
          ratio(double(d.tasks), double(d.launches)), "ratio");
    r.add("core.fusion.temps_eliminated", double(d.temps) / ops, "count");
    r.add("core.session_ms", median(l.sessionMs), "ms");
    r.add("kernel.compile_ms", d.compileMs / ops, "ms");
    r.add("kernel.plans_lowered", double(d.plansLowered) / ops, "count");
    r.add("kernel.exec_ms", exec / ops, "ms");
    r.add("kernel.exec.gbps", gbps, "GB/s");
    r.add("kernel.exec.bw_frac", ratio(gbps, l.mem.gbps4), "ratio");
    r.add("kernel.exec.melem_s", melem, "Melem/s");
    r.add("kernel.pool.steals", double(d.steals) / ops, "count");
    r.add("runtime.tasks_sharded", double(d.sharded) / ops, "count");
    r.add("runtime.point_tasks", double(d.pointTasks) / ops, "count");
    r.add("runtime.deps_per_task",
          ratio(double(d.deps), double(d.streamSubmitted)), "ratio");
    r.add("runtime.shard.copies", double(d.copies) / ops, "count");
    r.add("runtime.shard.exchange_mb", d.exchangeBytes / 1e6 / ops, "MB");
    r.add("runtime.bytes_materialized_mb", d.bytesMaterialized / 1e6 / ops,
          "MB");
    r.add("runtime.tasks_failed", double(d.tasksFailed), "count");
    r.add("gen.late_ms_p99", l.lateP99Ms, "ms");
    for (const char *layer : {"op", "cunumeric.issue", "sparse.build",
                              "core.flush", "kernel.exec"}) {
        double ms = 0.0;
        for (const auto &[name, v] : self)
            if (name == layer)
                ms = v;
        r.add(std::string("self.") + layer + "_ms", ms / ops, "ms");
    }
    r.add("trace.op_ms", tracedOp, "ms");
    r.add("trace.untraced_op_ms", l.untracedOpMs, "ms");
    r.add("trace.overhead_ms", tracedOp - l.untracedOpMs, "ms");
    r.add("trace.stage_gap_ms", gap / ops, "ms");
    r.add("trace.stage_sum_ok_frac",
          ratio(double(within), double(stages.size())), "ratio");
    r.add("ref.unfused_ratio", l.unfusedRatio, "ratio");
    r.add("ref.plain_ratio", l.plainRatio, "ratio");
    r.add("host.memcpy_gbps_1t", l.mem.gbps1, "GB/s");
    r.add("host.memcpy_gbps_4t", l.mem.gbps4, "GB/s");
}

void
printCounts(const std::vector<std::pair<std::string, double>> &c)
{
    std::string line = "PERFBENCH_COUNTS {";
    for (std::size_t i = 0; i < c.size(); i++) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", i ? ", " : "",
                      c[i].first.c_str(), c[i].second);
        line += buf;
    }
    std::printf("%s}\n", line.c_str());
    std::fflush(stdout);
}

} // namespace perfbench
