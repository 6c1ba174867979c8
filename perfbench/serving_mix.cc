/**
 * @file
 * serving_mix: open loop, one SharedContext, three session threads at
 * workers=2 (three clients plus one pool helper fill the four cores).
 * Requests arrive as a seeded Poisson process at fixed absolute rates,
 * split over the sessions by the seed, and queue FIFO at their session. Each request builds its
 * own problem — CG (10 iterations) or BiCGSTAB (5 iterations) on a
 * Poisson operator, or one Black-Scholes step — with its grid edge
 * drawn from {16, 24, ..., 136}, and ends with a scalar read-back.
 * This is the only workload that writes the shared caches as well as
 * reading them: requests plan, compile and capture while the sessions
 * contend for one pool.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <memory>
#include <thread>

#include "apps/apps.h"
#include "core/context.h"
#include "reference.h"
#include "solvers/solvers.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace diffuse;

constexpr int kGpus = 4;
constexpr int kSessions = 3;
constexpr int kWorkers = 2;
constexpr int kCgIters = 10;
constexpr int kBicgIters = 5;
constexpr int kEdges = 16; ///< edges 16, 24, ..., 136
/** The fixed offered rate. Capacity on a shared 4-core host moves
 * between ~520 and ~900 req/s from run to run; at half of it queueing
 * amplifies that drift, so the fixed rate sits at a quarter to a third
 * of it, where latency is mostly service time. */
constexpr double kFixedRate = 200.0;
/** max_rps ladder: kLadderBase * kLadderStep^k requests per second. */
constexpr double kLadderBase = 200.0;
constexpr double kLadderStep = 1.05;
constexpr int kLadderTop = 45;
/** Latency limit on a rung's p99, in ms: well above the service time
 * of the largest requests (~20 ms), so only queueing fails a rung. */
constexpr double kLimitMs = 50.0;
/** Requests per rung: a p99 with fifteen samples beyond it. */
constexpr int kRungRequests = 1500;

enum Kind { Cg = 0, Bicg = 1, Bs = 2 };
constexpr std::array<const char *, 3> kKindNames = {"cg", "bicgstab",
                                                    "black_scholes"};

int
edgeOf(int index)
{
    return 16 + 8 * index;
}

struct Request
{
    Kind kind = Cg;
    int edge = 16;
    /** Serving session. Seeded, not first-free: each session's request
     * sequence, and with it its window growth and cache trajectory,
     * repeats for a seed. */
    int session = 0;
    double at = 0.0; ///< scheduled send, seconds after the phase start
};

/** Expected scalar and computed work of each (kind, edge). */
struct Expected
{
    std::uint64_t seed = 0;
    std::array<std::array<double, kEdges>, 3> value{};
    std::array<std::array<double, kEdges>, 3> floor{};
    std::array<std::array<double, kEdges>, 3> bytes{};

    std::uint64_t rhsSeed(int edge) const { return mixSeed(seed, edge); }
};

Expected
makeExpected(std::uint64_t seed)
{
    Expected e;
    e.seed = seed;
    for (int i = 0; i < kEdges; i++) {
        int edge = edgeOf(i);
        std::int64_t n = std::int64_t(edge) * edge;
        ref::Csr a = ref::poisson2d(edge, edge);
        ref::Vec b = ref::uniform(e.rhsSeed(edge), n, -1.0, 1.0);
        double spmv = double(a.bytes()) + 16.0 * double(n);
        e.value[Cg][i] = ref::residualSq(a, ref::cg(a, b, kCgIters), b);
        e.value[Bicg][i] =
            ref::residualSq(a, ref::bicgstab(a, b, kBicgIters), b);
        e.floor[Cg][i] = e.floor[Bicg][i] = 1e-10 * ref::dot(b, b);
        e.bytes[Cg][i] = (kCgIters + 1) * spmv;
        e.bytes[Bicg][i] = (2 * kBicgIters + 1) * spmv;
        // Black-Scholes inputs as the app's constructor generates them.
        ref::Vec s = ref::uniform(101, n, 10.0, 100.0);
        ref::Vec k = ref::uniform(102, n, 10.0, 100.0);
        ref::Vec t = ref::uniform(103, n, 0.25, 2.0);
        std::vector<double> call, put;
        apps::BlackScholes::reference(s, k, t, apps::BlackScholes::RATE,
                                      apps::BlackScholes::VOLATILITY, call,
                                      put);
        double sum = 0.0;
        for (std::int64_t j = 0; j < n; j++)
            sum += call[std::size_t(j)] + put[std::size_t(j)];
        e.value[Bs][i] = sum;
        e.floor[Bs][i] = 1.0;
    }
    return e;
}

/** A seeded Poisson arrival schedule at `rate` requests per second,
 * split uniformly over the sessions (each gets a Poisson stream). */
std::vector<Request>
schedule(std::uint64_t seed, double rate, int count)
{
    SeedRng rng(seed);
    std::vector<Request> out(static_cast<std::size_t>(count));
    double t = 0.0;
    for (Request &q : out) {
        t += rng.exponential(rate);
        q.at = t;
        q.kind = Kind(rng.below(3));
        q.edge = edgeOf(int(rng.below(kEdges)));
        q.session = int(rng.below(kSessions));
    }
    return out;
}

/** One client session and its library contexts. */
struct Server
{
    std::unique_ptr<DiffuseRuntime> rt;
    std::unique_ptr<num::Context> np;
    std::unique_ptr<sp::SparseContext> sp;
    std::unique_ptr<solvers::SolverContext> sol;
    double sessionMs = 0.0;
};

Server
makeServer(SharedContext &ctx, const DiffuseOptions &o)
{
    Server s;
    auto t0 = Clock::now();
    s.rt = ctx.createSession(o);
    s.sessionMs = msBetween(t0, Clock::now());
    s.np = std::make_unique<num::Context>(*s.rt);
    s.sp = std::make_unique<sp::SparseContext>(*s.np);
    s.sol = std::make_unique<solvers::SolverContext>(*s.np, *s.sp);
    return s;
}

/** Serve one request; true when its scalar matches the reference. */
bool
serve(Issuer &d, Server &s, const Expected &e, const Request &q,
      std::uint64_t id)
{
    OpScope op(d, id, "serving_mix.request");
    coord_t n = coord_t(q.edge) * q.edge;
    int ei = (q.edge - 16) / 8;
    num::NDArray res;
    sp::CsrMatrix a;
    if (q.kind == Bs) {
        res = d.issue("BlackScholes", [&] {
            apps::BlackScholes bs(*s.np, n / kGpus);
            bs.step();
            return s.np->sum(s.np->add(bs.call(), bs.put()));
        });
        d.sync("BlackScholes", 0.0, double(n));
    } else {
        a = d.issue("poisson2d", [&] {
            return d.build("poisson2d",
                           [&] { return s.sp->poisson2d(q.edge, q.edge); });
        });
        const char *name = kKindNames[q.kind];
        res = d.issue(name, [&] {
            num::NDArray b = s.np->random(n, e.rhsSeed(q.edge), -1.0, 1.0);
            num::NDArray x = q.kind == Cg
                                 ? s.sol->cg(a, b, kCgIters)
                                 : s.sol->bicgstab(a, b, kBicgIters);
            return s.np->norm2Sq(s.np->sub(b, s.sp->spmv(a, x)));
        });
        d.sync(name, e.bytes[q.kind][std::size_t(ei)],
               double(n) * (q.kind == Cg ? kCgIters : kBicgIters));
    }
    double got = d.read(res);
    // Dropping the request's arrays and operator frees their stores:
    // library work, timed with the issuing calls.
    d.issue("release", [&] {
        res = num::NDArray();
        a = sp::CsrMatrix();
    });
    return matches(got, e.value[q.kind][std::size_t(ei)], 1e-6,
                 e.floor[q.kind][std::size_t(ei)]);
}

/** What one open-loop phase measured. */
struct Phase
{
    std::vector<double> latencyMs; ///< done - scheduled, by request
    std::vector<double> serviceMs; ///< done - started, by request
    std::vector<double> lateMs;    ///< wake-up - scheduled, idle servers
    std::uint64_t failed = 0;
    double elapsedS = 0.0;         ///< phase start to last completion
    /** Session counters moved during the phase, summed. */
    Counters sessions;
};

/**
 * Serve `reqs` open-loop: each request is due at its scheduled time
 * whatever happened before it, and queues FIFO at its session. The
 * calling thread serves as session 0. Latency counts from the
 * scheduled send. With `lanes`, every request is traced.
 */
Phase
openLoop(std::vector<Server> &servers, const Expected &e,
         const std::vector<Request> &reqs, std::vector<Lane> *lanes,
         std::uint64_t idBase = 0)
{
    Phase out;
    // Latencies are kept in schedule order (each index is written by
    // its session's thread only) for the backlog check.
    out.latencyMs.assign(reqs.size(), 0.0);
    out.serviceMs.assign(reqs.size(), 0.0);
    std::array<Phase, kSessions> mine;
    std::array<Clock::time_point, kSessions> lastDone;
    auto start = Clock::now() + std::chrono::milliseconds(2);
    auto worker = [&](int s) {
        Server &srv = servers[std::size_t(s)];
        Issuer d(*srv.rt, lanes ? &(*lanes)[std::size_t(s)] : nullptr);
        Phase &p = mine[std::size_t(s)];
        Counters c0 = Counters::session(*srv.rt);
        lastDone[std::size_t(s)] = start;
        for (std::size_t i = 0; i < reqs.size(); i++) {
            if (reqs[i].session != s)
                continue;
            auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(reqs[i].at));
            if (Clock::now() < due) {
                // Spin, not sleep, until the send time: on a shared VM a
                // sleeping client wakes milliseconds late, and that
                // lateness was most of the latency spread between runs.
                // Three spinning clients and one pool helper fill the
                // four cores.
                while (Clock::now() < due)
                    std::this_thread::yield();
                p.lateMs.push_back(msBetween(due, Clock::now()));
            }
            auto t0 = Clock::now();
            bool ok = false;
            try {
                ok = serve(d, srv, e, reqs[i], idBase + i + 1);
            } catch (const std::exception &ex) {
                std::printf("request %zu failed: %s\n", i, ex.what());
                srv.rt->resetAfterError();
            }
            auto t1 = Clock::now();
            if (!ok)
                p.failed++;
            out.latencyMs[i] = msBetween(due, t1);
            out.serviceMs[i] = msBetween(t0, t1);
            lastDone[std::size_t(s)] = t1;
        }
        p.sessions = Counters::session(*srv.rt).since(c0);
    };
    std::vector<std::thread> threads;
    for (int s = 1; s < kSessions; s++)
        threads.emplace_back(worker, s);
    worker(0);
    for (std::thread &t : threads)
        t.join();
    auto end = *std::max_element(lastDone.begin(), lastDone.end());
    out.elapsedS = msBetween(start, end) / 1e3;
    for (int s = 0; s < kSessions; s++) {
        const Phase &p = mine[std::size_t(s)];
        out.lateMs.insert(out.lateMs.end(), p.lateMs.begin(),
                          p.lateMs.end());
        out.failed += p.failed;
        out.sessions = s == 0 ? p.sessions : out.sessions.plus(p.sessions);
    }
    return out;
}

/** Set-up: context creation through the end of the first request. */
double
setUpOnce(const Expected &e, const DiffuseOptions &o, const Request &first,
          double *sessionMs, bool *ok)
{
    auto t0 = Clock::now();
    auto ctx = SharedContext::create(rt::MachineConfig::withGpus(kGpus));
    Server s = makeServer(*ctx, o);
    Issuer d(*s.rt, nullptr);
    *ok = serve(d, s, e, first, 0) && *ok;
    double seconds = msBetween(t0, Clock::now()) / 1e3;
    *sessionMs = s.sessionMs;
    return seconds;
}

struct Service
{
    std::shared_ptr<SharedContext> ctx;
    std::vector<Server> servers;
};

Service
startService(const DiffuseOptions &o, std::vector<double> *sessionMs)
{
    Service svc;
    svc.ctx = SharedContext::create(rt::MachineConfig::withGpus(kGpus));
    for (int s = 0; s < kSessions; s++) {
        svc.servers.push_back(makeServer(*svc.ctx, o));
        sessionMs->push_back(svc.servers.back().sessionMs);
    }
    return svc;
}

double
ladderRate(int k)
{
    double r = kLadderBase;
    for (int i = 0; i < k; i++)
        r *= kLadderStep;
    return r;
}

/** A rung passes when nothing failed, its p99 meets the limit and the
 * backlog did not grow (the last tenth of requests also meets it). */
bool
passes(const Phase &p)
{
    if (p.failed > 0 || p.latencyMs.empty())
        return false;
    std::size_t tenth = std::max<std::size_t>(p.latencyMs.size() / 10, 1);
    std::vector<double> last(p.latencyMs.end() - std::ptrdiff_t(tenth),
                             p.latencyMs.end());
    return quantile(p.latencyMs, 0.99) <= kLimitMs &&
           median(last) <= kLimitMs;
}

/** Run one ladder rung; returns whether it passed. */
bool
probeRung(Service &svc, const Expected &e, std::uint64_t seed, int k,
          double *achieved, std::uint64_t *attempted, std::uint64_t *failed)
{
    double rate = ladderRate(k);
    Phase p = openLoop(svc.servers, e,
                       schedule(mixSeed(seed, 100 + std::uint64_t(k)), rate,
                                kRungRequests),
                       nullptr);
    *attempted += p.latencyMs.size();
    *failed += p.failed;
    bool ok = passes(p);
    *achieved = double(p.latencyMs.size()) / p.elapsedS;
    std::printf("ladder rung %d: %.1f req/s offered, %.1f achieved, p99 "
                "%.3f ms: %s\n",
                k, rate, *achieved, quantile(p.latencyMs, 0.99),
                ok ? "pass" : "fail");
    return ok;
}

/**
 * max_rps: the highest ladder rung that passes, found by walking two
 * rungs at a time from a first guess (the fixed-rate phase's service
 * capacity) until the outcome flips, then bisecting, within `budgetS`
 * seconds. The fixed rate's rung is known to pass when `fixedOk`.
 * Returns the achieved throughput (completed requests per second) at
 * that rung.
 */
double
maxRps(Service &svc, const Expected &e, std::uint64_t seed, bool fixedOk,
       double serviceMs, double budgetS, std::uint64_t *attempted,
       std::uint64_t *failed)
{
    auto rungOf = [](double rate) {
        int k = 0;
        while (k < kLadderTop && ladderRate(k + 1) <= rate)
            k++;
        return k;
    };
    int fixedRung = rungOf(kFixedRate);
    int lo = fixedOk ? fixedRung : -1; // highest rung known to pass
    int hi = kLadderTop + 1;           // lowest rung known to fail
    double best = fixedOk ? kFixedRate : 0.0;
    double achieved = 0.0;
    auto deadline = Clock::now() + std::chrono::duration<double>(budgetS);
    int k = std::max(rungOf(0.85 * kSessions * 1e3 / serviceMs), lo + 1);
    while (hi - lo > 1) {
        k = std::clamp(k, lo + 1, hi - 1);
        // Start a rung only if it can finish within the budget.
        auto need = std::chrono::duration<double>(kRungRequests /
                                                  ladderRate(k));
        if (Clock::now() + need > deadline)
            break;
        if (probeRung(svc, e, seed, k, &achieved, attempted, failed)) {
            lo = k;
            best = achieved;
            k = hi > kLadderTop ? k + 2 : (lo + hi) / 2;
        } else {
            hi = k;
            k = lo < fixedRung ? k - 2 : (lo + hi) / 2;
        }
    }
    std::printf("max_rps rung %d (%.1f req/s offered), limit p99 <= %.1f "
                "ms\n",
                lo, lo >= 0 ? ladderRate(lo) : 0.0, kLimitMs);
    return best;
}

void
printSizes()
{
    coord_t n = coord_t(edgeOf(kEdges - 1)) * edgeOf(kEdges - 1);
    printSize("largest request vector (136^2)", double(n) * 8.0);
    printSize("largest request CSR (136^2)",
              double(ref::poisson2d(edgeOf(kEdges - 1), edgeOf(kEdges - 1))
                         .bytes()));
}

int
runMode(const Args &args, Result &r)
{
    printSizes();
    Expected e = makeExpected(args.seed);
    DiffuseOptions o = sessionOptions(kWorkers, 1);
    EndToEnd end;
    bool ok = true;
    // Set-up is timed on a fixed spread of first requests (every kind at
    // five edges), so its median does not depend on the seed's draws.
    for (int kind = 0; kind < 3; kind++) {
        for (int edge : {16, 48, 80, 104, 136}) {
            Request first;
            first.kind = Kind(kind);
            first.edge = edge;
            double sessionMs = 0.0;
            end.setupS.push_back(setUpOnce(e, o, first, &sessionMs, &ok));
        }
    }
    std::vector<double> sessionMs;
    Service svc = startService(o, &sessionMs);
    // Warm-up at the fixed rate, then the measured fixed-rate phase.
    double warmS = std::min(1.0, 0.05 * args.seconds);
    openLoop(svc.servers, e,
             schedule(mixSeed(args.seed, 2), kFixedRate,
                      int(kFixedRate * warmS)),
             nullptr);
    double fixedS = 0.4 * args.seconds;
    Phase fixed = openLoop(svc.servers, e,
                           schedule(mixSeed(args.seed, 3), kFixedRate,
                                    int(kFixedRate * fixedS)),
                           nullptr);
    r.attempted = fixed.latencyMs.size();
    r.failed = fixed.failed;
    std::printf("fixed rate %.1f req/s: %zu requests, service p50 %.3f ms, "
                "gen.late_ms_p99 %.3f ms\n",
                kFixedRate, fixed.latencyMs.size(),
                median(fixed.serviceMs), quantile(fixed.lateMs, 0.99));
    end.opMs = fixed.latencyMs;
    // Memory grows with every request served (the caches keep new
    // plans), so it is read after the fixed-rate phase, whose request
    // count is set by the seed; the ladder's is set by the host.
    end.rssMb = peakRssMb();
    end.opsPerS = maxRps(svc, e, args.seed, passes(fixed),
                         mean(fixed.serviceMs), 0.45 * args.seconds,
                         &r.attempted, &r.failed);
    if (r.failed > 0 || !ok)
        r.correct = false;
    std::printf("check %llu request results %s\n",
                static_cast<unsigned long long>(r.attempted),
                r.correct ? "ok" : "MISMATCH");
    addEndToEnd(r, end, "req");
    return 0;
}

/** Mean ms per request of `reqs` served closed-loop by one session of
 * a fresh context. */
double
closedLoopMs(const Expected &e, const DiffuseOptions &o,
             const std::vector<Request> &reqs, std::uint64_t *failed)
{
    auto ctx = SharedContext::create(rt::MachineConfig::withGpus(kGpus));
    Server s = makeServer(*ctx, o);
    Issuer d(*s.rt, nullptr);
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < reqs.size(); i++)
        *failed += !serve(d, s, e, reqs[i], i + 1);
    return msBetween(t0, Clock::now()) / double(reqs.size());
}

/** The same requests as plain single-threaded host computations. */
double
plainMs(const Expected &e, const std::vector<Request> &reqs)
{
    auto t0 = Clock::now();
    for (const Request &q : reqs) {
        std::int64_t n = std::int64_t(q.edge) * q.edge;
        if (q.kind == Bs) {
            ref::Vec s = ref::uniform(101, n, 10.0, 100.0);
            ref::Vec k = ref::uniform(102, n, 10.0, 100.0);
            ref::Vec t = ref::uniform(103, n, 0.25, 2.0);
            std::vector<double> call, put;
            apps::BlackScholes::reference(s, k, t, apps::BlackScholes::RATE,
                                          apps::BlackScholes::VOLATILITY,
                                          call, put);
        } else {
            ref::Csr a = ref::poisson2d(q.edge, q.edge);
            ref::Vec b = ref::uniform(e.rhsSeed(q.edge), n, -1.0, 1.0);
            ref::Vec x = q.kind == Cg ? ref::cg(a, b, kCgIters)
                                      : ref::bicgstab(a, b, kBicgIters);
            ref::residualSq(a, x, b);
        }
    }
    return msBetween(t0, Clock::now()) / double(reqs.size());
}

int
tracedMode(const Args &args, Result &r)
{
    printSizes();
    Expected e = makeExpected(args.seed);
    DiffuseOptions o = sessionOptions(kWorkers, 1);
    LayerReport l;
    l.mem = measureMemcpy(std::size_t(512) << 20);
    bool ok = true;
    double sessionMs = 0.0;
    setUpOnce(e, o, schedule(mixSeed(args.seed, 1), 1.0, 1)[0], &sessionMs,
              &ok);
    l.sessionMs.push_back(sessionMs);
    Service svc = startService(o, &l.sessionMs);
    double warmS = std::min(1.0, 0.05 * args.seconds);
    openLoop(svc.servers, e,
             schedule(mixSeed(args.seed, 2), kFixedRate,
                      int(kFixedRate * warmS)),
             nullptr);
    int count = int(kFixedRate * 0.1 * args.seconds);
    // Request ids stay unique across the traced blocks.
    const std::uint64_t idStride = std::uint64_t(count) + 1;
    std::vector<Lane> lanes;
    for (int s = 0; s < kSessions; s++)
        lanes.emplace_back(s + 1);
    std::vector<double> untracedMs;
    std::vector<double> lateMs;
    auto origin = Clock::now();
    for (int b = 0; b < kTracedBlocks; b++) {
        std::uint64_t blockSeed = mixSeed(args.seed, 10 + std::uint64_t(b));
        Phase untraced = openLoop(
            svc.servers, e, schedule(blockSeed, kFixedRate, count), nullptr);
        untracedMs.insert(untracedMs.end(), untraced.serviceMs.begin(),
                          untraced.serviceMs.end());
        lateMs.insert(lateMs.end(), untraced.lateMs.begin(),
                      untraced.lateMs.end());
        Counters x0 = Counters::context(*svc.ctx);
        Phase traced = openLoop(svc.servers, e,
                                schedule(mixSeed(blockSeed, 1), kFixedRate,
                                         count),
                                &lanes, std::uint64_t(b) * idStride);
        l.atExit = Counters::context(*svc.ctx);
        l.delta = l.delta.plus(traced.sessions).plus(l.atExit.since(x0));
        r.attempted += untraced.latencyMs.size() + traced.latencyMs.size();
        r.failed += untraced.failed + traced.failed;
    }
    l.untracedOpMs = mean(untracedMs);
    l.lateP99Ms = quantile(lateMs, 0.99);
    for (const Lane &lane : lanes)
        l.lanes.push_back(&lane);

    // Reference points: the same request sequence, closed loop in one
    // session, fused vs unfused vs plain host code.
    std::vector<Request> refReqs = schedule(mixSeed(args.seed, 5), 1.0, 150);
    std::uint64_t refFailed = 0;
    double fusedMs = closedLoopMs(e, o, refReqs, &refFailed);
    DiffuseOptions unfused = o;
    unfused.fusionEnabled = false;
    double unfusedMs = closedLoopMs(e, unfused, refReqs, &refFailed);
    double hostMs = plainMs(e, refReqs);
    std::printf("reference (%zu requests, fresh context, closed loop): "
                "fused %.3f ms, unfused %.3f ms, plain C++ 1 thread %.3f ms "
                "per request\n",
                refReqs.size(), fusedMs, unfusedMs, hostMs);
    l.unfusedRatio = unfusedMs / fusedMs;
    l.plainRatio = hostMs / fusedMs;
    r.failed += refFailed;
    if (r.failed > 0 || !ok)
        r.correct = false;
    std::printf("check request results %s\n", r.correct ? "ok" : "MISMATCH");
    addLayerMetrics(r, l);
    if (!args.traceOut.empty() &&
        !writeChromeTrace(args.traceOut, l.lanes, origin))
        std::fprintf(stderr, "cannot write %s\n", args.traceOut.c_str());
    return 0;
}

/** Plans lowered by a fixed request set served closed-loop, each
 * request on its seeded session. */
int
countsMode(const Args &args, Result &r)
{
    Expected e = makeExpected(args.seed);
    std::vector<double> sessionMs;
    Service svc = startService(sessionOptions(kWorkers, 1), &sessionMs);
    std::vector<Request> reqs = schedule(mixSeed(args.seed, 6), 1.0, 90);
    std::array<std::uint64_t, kSessions> failed{};
    auto worker = [&](int s) {
        Issuer d(*svc.servers[std::size_t(s)].rt, nullptr);
        for (std::size_t i = 0; i < reqs.size(); i++)
            if (reqs[i].session == s)
                failed[std::size_t(s)] +=
                    !serve(d, svc.servers[std::size_t(s)], e, reqs[i], i + 1);
    };
    std::vector<std::thread> threads;
    for (int s = 1; s < kSessions; s++)
        threads.emplace_back(worker, s);
    worker(0);
    for (std::thread &t : threads)
        t.join();
    r.attempted = reqs.size();
    for (std::uint64_t f : failed)
        r.failed += f;
    r.correct = r.failed == 0;
    printCounts({{"plans_lowered",
                  double(Counters::context(*svc.ctx).plansLowered)}});
    return 0;
}

} // namespace

int
runServingMix(const Args &args)
{
    Result r;
    try {
        if (args.mode == "traced")
            tracedMode(args, r);
        else if (args.mode == "counts")
            countsMode(args, r);
        else
            runMode(args, r);
    } catch (const std::exception &ex) {
        std::printf("serving_mix failed: %s\n", ex.what());
        return 1;
    }
    printResult(r);
    return r.correct ? 0 : 1;
}

} // namespace perfbench
