/**
 * @file
 * solvers_small: one session, MachineConfig::withGpus(4), workers=2,
 * ranks=4. A step is three solves of 10 iterations each — natural CG
 * and natural BiCGSTAB on a 64x64 Poisson CSR operator, and
 * GMG-preconditioned CG on a 4096-point hierarchy — each ending with
 * its residual ||b - A x||^2 read back. Operators are reused across
 * steps, so steady state is pure trace replay: the paper's distributed
 * configuration at its strong-scaling limit, where per-task costs
 * (replay, hazard and exchange planning, pool hand-off) dominate.
 */

#include <array>
#include <cstdio>
#include <exception>
#include <memory>

#include "core/context.h"
#include "reference.h"
#include "solvers/solvers.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace diffuse;

constexpr int kGpus = 4;
/** Two workers, not four: with three pool helpers parked between the
 * step's ~300 small sharded tasks, every hand-off waits for a halted
 * vCPU to wake, and on a shared 4-vCPU host that wait swung the median
 * step 1.5-2x from run to run (50-120 ms at workers=4, interleaved with
 * 38-42 ms at workers=2). One helper keeps the hand-off measured. */
constexpr int kWorkers = 2;
constexpr int kRanks = 4;
constexpr coord_t kEdge = 64;
constexpr coord_t kGmgRows = 4096;
constexpr int kGmgLevels = 4;
constexpr int kIters = 10;
constexpr int kSolves = 3;
constexpr std::array<const char *, kSolves> kNames = {"cg", "bicgstab",
                                                      "gmg_pcg"};
/** Residuals of the library and the host reference differ only by
 * rounding order; GMG-PCG converges far enough that b - A x cancels,
 * hence the relative tolerance and the floor relative to ||b||^2. */
constexpr double kResidualTol = 1e-6;

struct Solvers
{
    std::shared_ptr<SharedContext> ctx;
    std::unique_ptr<DiffuseRuntime> rt;
    std::unique_ptr<num::Context> np;
    std::unique_ptr<sp::SparseContext> sp;
    std::unique_ptr<solvers::SolverContext> sol;
    // Declared after the runtime: released before it.
    sp::CsrMatrix a;
    solvers::GmgHierarchy h;
    num::NDArray b2d;
    num::NDArray b1d;
    double sessionMs = 0.0;
    double setupS = 0.0;
};

/** Inputs, expected residuals and computed work of the three solves. */
struct Problem
{
    std::uint64_t seed2d = 0;
    std::uint64_t seed1d = 0;
    std::array<double, kSolves> want{};
    std::array<double, kSolves> floor{};
    std::array<double, kSolves> bytes{};
    std::array<double, kSolves> elems{};
};

/** Computed SpMV traffic of one product: matrix plus in/out vectors. */
double
spmvBytes(const ref::Csr &m)
{
    return double(m.bytes()) + 8.0 * double(m.rows + m.cols);
}

/** Computed SpMV traffic of one V-cycle from `level` down. */
double
vcycleBytes(const ref::Gmg &h, std::size_t level)
{
    double a = spmvBytes(h.a[level]);
    if (level + 1 == h.a.size())
        return (h.smoothSteps - 1) * a;
    return (2 * h.smoothSteps) * a + spmvBytes(h.restrict_[level]) +
           spmvBytes(h.prolong[level]) + vcycleBytes(h, level + 1);
}

Problem
makeProblem(std::uint64_t seed)
{
    Problem p;
    p.seed2d = mixSeed(seed, 1);
    p.seed1d = mixSeed(seed, 2);
    ref::Csr a = ref::poisson2d(kEdge, kEdge);
    ref::Vec b2 = ref::uniform(p.seed2d, kEdge * kEdge, -1.0, 1.0);
    ref::Gmg h = ref::gmgHierarchy(kGmgRows, kGmgLevels);
    ref::Vec b1 = ref::uniform(p.seed1d, kGmgRows, -1.0, 1.0);
    p.want[0] = ref::residualSq(a, ref::cg(a, b2, kIters), b2);
    p.want[1] = ref::residualSq(a, ref::bicgstab(a, b2, kIters), b2);
    p.want[2] = ref::residualSq(h.a[0], ref::gmgPcg(h, b1, kIters), b1);
    p.floor[0] = p.floor[1] = 1e-10 * ref::dot(b2, b2);
    p.floor[2] = 1e-10 * ref::dot(b1, b1);
    // SpMVs per solve, the residual check included.
    p.bytes[0] = (kIters + 1) * spmvBytes(a);
    p.bytes[1] = (2 * kIters + 1) * spmvBytes(a);
    p.bytes[2] = (kIters + 1) * spmvBytes(h.a[0]) +
                 (kIters + 1) * vcycleBytes(h, 0);
    p.elems[0] = p.elems[1] = double(kEdge * kEdge * kIters);
    p.elems[2] = double(kGmgRows * kIters);
    return p;
}

/** Issue solve `which` and its residual ||b - A x||^2. */
num::NDArray
issueSolve(Solvers &s, int which)
{
    const sp::CsrMatrix &a = which == 2 ? s.h.levels[0].a : s.a;
    const num::NDArray &b = which == 2 ? s.b1d : s.b2d;
    num::NDArray x = which == 0   ? s.sol->cg(a, b, kIters)
                     : which == 1 ? s.sol->bicgstab(a, b, kIters)
                                  : s.sol->gmgPcg(s.h, b, kIters);
    return s.np->norm2Sq(s.np->sub(b, s.sp->spmv(a, x)));
}

/** One step; returns the number of residuals that failed the check. */
int
step(Issuer &d, Solvers &s, const Problem &p, std::uint64_t id)
{
    OpScope op(d, id, "solvers_small.step");
    int bad = 0;
    for (int which = 0; which < kSolves; which++) {
        num::NDArray res =
            d.issue(kNames[std::size_t(which)],
                    [&] { return issueSolve(s, which); });
        d.sync(kNames[std::size_t(which)], p.bytes[std::size_t(which)],
               p.elems[std::size_t(which)]);
        double got = d.read(res);
        if (!matches(got, p.want[std::size_t(which)], kResidualTol,
                   p.floor[std::size_t(which)])) {
            static int reported = 0;
            if (reported++ < 3)
                std::printf("check %s residual %.17g, reference %.17g: "
                            "MISMATCH\n",
                            kNames[std::size_t(which)], got,
                            p.want[std::size_t(which)]);
            bad++;
        }
    }
    return bad;
}

/** Context creation through the end of the first step. */
std::unique_ptr<Solvers>
setUp(const Problem &p, const DiffuseOptions &o, int *bad)
{
    auto s = std::make_unique<Solvers>();
    auto t0 = Clock::now();
    s->ctx = SharedContext::create(rt::MachineConfig::withGpus(kGpus));
    auto ts = Clock::now();
    s->rt = s->ctx->createSession(o);
    s->sessionMs = msBetween(ts, Clock::now());
    s->np = std::make_unique<num::Context>(*s->rt);
    s->sp = std::make_unique<sp::SparseContext>(*s->np);
    s->sol = std::make_unique<solvers::SolverContext>(*s->np, *s->sp);
    s->a = s->sp->poisson2d(kEdge, kEdge);
    s->h = s->sol->buildHierarchy1d(kGmgRows, kGmgLevels);
    s->b2d = s->np->random(kEdge * kEdge, p.seed2d, -1.0, 1.0);
    s->b1d = s->np->random(kGmgRows, p.seed1d, -1.0, 1.0);
    Issuer d(*s->rt, nullptr);
    *bad += step(d, *s, p, 0) != 0;
    s->setupS = msBetween(t0, Clock::now()) / 1e3;
    return s;
}

/** Mean wall ms of the host reference solves of one step. */
double
plainStepMs(const Problem &p, int reps)
{
    ref::Csr a = ref::poisson2d(kEdge, kEdge);
    ref::Vec b2 = ref::uniform(p.seed2d, kEdge * kEdge, -1.0, 1.0);
    ref::Gmg h = ref::gmgHierarchy(kGmgRows, kGmgLevels);
    ref::Vec b1 = ref::uniform(p.seed1d, kGmgRows, -1.0, 1.0);
    auto t0 = Clock::now();
    for (int i = 0; i < reps; i++) {
        ref::residualSq(a, ref::cg(a, b2, kIters), b2);
        ref::residualSq(a, ref::bicgstab(a, b2, kIters), b2);
        ref::residualSq(h.a[0], ref::gmgPcg(h, b1, kIters), b1);
    }
    return msBetween(t0, Clock::now()) / reps;
}

double
meanStepMs(Solvers &s, const Problem &p, int warm, int steps, int *bad)
{
    Issuer d(*s.rt, nullptr);
    for (int i = 0; i < warm; i++)
        *bad += step(d, s, p, 0) != 0;
    auto t0 = Clock::now();
    for (int i = 0; i < steps; i++)
        *bad += step(d, s, p, 0) != 0;
    return msBetween(t0, Clock::now()) / steps;
}

/** Closed loop until `seconds` pass; returns step walls. */
std::vector<double>
timedLoop(Issuer &d, Solvers &s, const Problem &p, double seconds,
          std::uint64_t &id, int *bad, double *elapsedS)
{
    std::vector<double> ms;
    auto start = Clock::now();
    auto deadline = start + std::chrono::duration<double>(seconds);
    while (Clock::now() < deadline) {
        auto t0 = Clock::now();
        *bad += step(d, s, p, id++) != 0;
        ms.push_back(msBetween(t0, Clock::now()));
    }
    *elapsedS = msBetween(start, Clock::now()) / 1e3;
    return ms;
}

void
printSizes()
{
    ref::Csr a = ref::poisson2d(kEdge, kEdge);
    printSize("poisson2d 64x64 CSR", double(a.bytes()));
    printSize("solution vector", double(kEdge * kEdge) * 8.0);
}

void
finish(Result &r, int bad)
{
    r.failed += std::uint64_t(bad);
    if (bad > 0)
        r.correct = false;
    else
        std::printf("check residuals ok (cg, bicgstab, gmg_pcg)\n");
}

int
runMode(const Args &args, Result &r)
{
    printSizes();
    Problem p = makeProblem(args.seed);
    DiffuseOptions o = sessionOptions(kWorkers, kRanks);
    EndToEnd e;
    int bad = 0;
    std::unique_ptr<Solvers> s;
    for (int i = 0; i < 9; i++) {
        s.reset();
        s = setUp(p, o, &bad);
        e.setupS.push_back(s->setupS);
    }
    Issuer d(*s->rt, nullptr);
    std::uint64_t id = 1;
    double elapsed = 0.0;
    timedLoop(d, *s, p, std::min(1.0, 0.1 * args.seconds), id, &bad,
              &elapsed);
    e.opMs = timedLoop(d, *s, p, args.seconds, id, &bad, &elapsed);
    e.opsPerS = double(e.opMs.size()) / elapsed;
    e.rssMb = peakRssMb();
    r.attempted = e.opMs.size();
    finish(r, bad);
    addEndToEnd(r, e, "step");
    return 0;
}

int
tracedMode(const Args &args, Result &r)
{
    printSizes();
    Problem p = makeProblem(args.seed);
    LayerReport l;
    l.mem = measureMemcpy(std::size_t(512) << 20);
    DiffuseOptions o = sessionOptions(kWorkers, kRanks);
    int bad = 0;
    std::unique_ptr<Solvers> s = setUp(p, o, &bad);
    l.sessionMs.push_back(s->sessionMs);
    Issuer plain(*s->rt, nullptr);
    std::uint64_t id = 1;
    double elapsed = 0.0;
    timedLoop(plain, *s, p, std::min(1.0, 0.1 * args.seconds), id, &bad,
              &elapsed);
    std::vector<double> untraced;
    std::size_t tracedOps = 0;
    Lane lane(1);
    Issuer traced(*s->rt, &lane);
    auto origin = Clock::now();
    for (int b = 0; b < kTracedBlocks; b++) {
        std::vector<double> ms =
            timedLoop(plain, *s, p, 0.1 * args.seconds, id, &bad, &elapsed);
        untraced.insert(untraced.end(), ms.begin(), ms.end());
        Counters c0 = Counters::of(*s->rt);
        tracedOps += timedLoop(traced, *s, p, 0.1 * args.seconds, id, &bad,
                               &elapsed)
                         .size();
        l.atExit = Counters::of(*s->rt);
        l.delta = l.delta.plus(l.atExit.since(c0));
    }
    l.untracedOpMs = mean(untraced);
    l.lanes = {&lane};
    r.attempted = untraced.size() + tracedOps;
    s.reset();

    double fusedMs = meanStepMs(*setUp(p, o, &bad), p, 5, 20, &bad);
    DiffuseOptions unfused = o;
    unfused.fusionEnabled = false;
    double unfusedMs = meanStepMs(*setUp(p, unfused, &bad), p, 2, 10, &bad);
    double plainMs = plainStepMs(p, 20);
    std::printf("reference: fused %.3f ms, unfused %.3f ms, plain C++ 1 "
                "thread %.3f ms per step\n",
                fusedMs, unfusedMs, plainMs);
    l.unfusedRatio = unfusedMs / fusedMs;
    l.plainRatio = plainMs / fusedMs;
    finish(r, bad);
    addLayerMetrics(r, l);
    if (!args.traceOut.empty() &&
        !writeChromeTrace(args.traceOut, l.lanes, origin))
        std::fprintf(stderr, "cannot write %s\n", args.traceOut.c_str());
    return 0;
}

int
countsMode(const Args &args, Result &r)
{
    Problem p = makeProblem(args.seed);
    int bad = 0;
    std::unique_ptr<Solvers> s =
        setUp(p, sessionOptions(kWorkers, kRanks), &bad);
    Issuer d(*s->rt, nullptr);
    bad += step(d, *s, p, 1) != 0;
    Counters c0 = Counters::of(*s->rt);
    bad += step(d, *s, p, 2) != 0;
    Counters c1 = Counters::of(*s->rt);
    Counters c = c1.since(c0);
    r.attempted = 3;
    finish(r, bad);
    printCounts({{"tasks_per_op", double(c.tasks)},
                 {"launches_per_op", double(c.launches)},
                 {"copies_per_op", double(c.copies)},
                 {"exchange_bytes_per_op", c.exchangeBytes},
                 {"plans_lowered", double(c1.plansLowered)}});
    return 0;
}

} // namespace

int
runSolversSmall(const Args &args)
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
        std::printf("solvers_small failed: %s\n", ex.what());
        return 1;
    }
    printResult(r);
    return r.correct ? 0 : 1;
}

} // namespace perfbench
