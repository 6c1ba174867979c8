/**
 * @file
 * apps_dram: one session, MachineConfig::withGpus(4), workers=4,
 * ranks=1. A step is one Black-Scholes step over 2^24 options (five
 * 128 MiB arrays) then one Fig 1 stencil step on an 8192^2 grid
 * (512 MiB per array), each ending at a sync point. The executor does
 * nearly all the work: Black-Scholes is limited by transcendental math,
 * the stencil by memory bandwidth.
 */

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>

#include "apps/apps.h"
#include "common/rng.h"
#include "core/context.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace diffuse;

constexpr int kGpus = 4;
constexpr int kWorkers = 4;
constexpr coord_t kOptionsPerGpu = coord_t(1) << 22; // 2^24 options
constexpr coord_t kGrid = 8192;
/** Reference points run at a quarter of the arrays (unfused
 * temporaries of the full size would need several GiB). */
constexpr coord_t kRefOptionsPerGpu = kOptionsPerGpu / 4;
constexpr coord_t kRefGrid = kGrid / 2;

struct Apps
{
    coord_t optionsPerGpu = 0;
    coord_t grid = 0;
    std::shared_ptr<SharedContext> ctx;
    std::unique_ptr<DiffuseRuntime> rt;
    std::unique_ptr<num::Context> np;
    std::unique_ptr<apps::BlackScholes> bs;
    std::unique_ptr<apps::Stencil> st;
    double sessionMs = 0.0;
    double setupS = 0.0;
};

double
options(const Apps &a)
{
    return double(a.optionsPerGpu * kGpus);
}

/** Computed stencil bytes: the grid read once, the interior written
 * once. */
double
stencilBytes(coord_t n)
{
    return 8.0 * (double((n + 2) * (n + 2)) + double(n * n));
}

void
step(Issuer &d, Apps &a, std::uint64_t id)
{
    OpScope op(d, id, "apps_dram.step");
    d.issue("BlackScholes::step", [&] { a.bs->step(); });
    d.sync("BlackScholes", 0.0, options(a));
    d.issue("Stencil::step", [&] { a.st->step(); });
    d.sync("Stencil", stencilBytes(a.grid), 0.0);
}

/** Context creation through the end of the first step. */
std::unique_ptr<Apps>
setUp(coord_t optionsPerGpu, coord_t grid, const DiffuseOptions &o)
{
    auto a = std::make_unique<Apps>();
    a->optionsPerGpu = optionsPerGpu;
    a->grid = grid;
    auto t0 = Clock::now();
    a->ctx = SharedContext::create(rt::MachineConfig::withGpus(kGpus));
    auto ts = Clock::now();
    a->rt = a->ctx->createSession(o);
    a->sessionMs = msBetween(ts, Clock::now());
    a->np = std::make_unique<num::Context>(*a->rt);
    a->bs = std::make_unique<apps::BlackScholes>(*a->np, optionsPerGpu);
    a->st = std::make_unique<apps::Stencil>(*a->np, grid);
    Issuer d(*a->rt, nullptr);
    step(d, *a, 0);
    a->setupS = msBetween(t0, Clock::now()) / 1e3;
    return a;
}

/**
 * Black-Scholes outputs against BlackScholes::reference over the
 * app's inputs, regenerated chunk by chunk from the generator seeds
 * its constructor uses (101, 102, 103).
 */
bool
checkBlackScholes(Apps &a)
{
    std::vector<double> call = a.np->toHost(a.bs->call());
    std::vector<double> put = a.np->toHost(a.bs->put());
    std::size_t n = std::size_t(options(a));
    if (call.size() != n || put.size() != n)
        return false;
    Rng rs(101), rk(102), rt(103);
    const std::size_t chunk = std::size_t(1) << 20;
    std::vector<double> s, k, t, cref, pref;
    bool ok = true;
    for (std::size_t base = 0; base < n; base += chunk) {
        std::size_t m = std::min(chunk, n - base);
        s.resize(m);
        k.resize(m);
        t.resize(m);
        for (std::size_t i = 0; i < m; i++)
            s[i] = rs.uniform(10.0, 100.0);
        for (std::size_t i = 0; i < m; i++)
            k[i] = rk.uniform(10.0, 100.0);
        for (std::size_t i = 0; i < m; i++)
            t[i] = rt.uniform(0.25, 2.0);
        apps::BlackScholes::reference(s, k, t, apps::BlackScholes::RATE,
                                      apps::BlackScholes::VOLATILITY, cref,
                                      pref);
        for (std::size_t i = 0; i < m; i++)
            ok = ok && matches(call[base + i], cref[i], 1e-9) &&
                 matches(put[base + i], pref[i], 1e-9);
    }
    return ok;
}

/** The stencil step from `pre` (the grid before it), on the host. */
bool
checkStencil(const std::vector<double> &pre, const std::vector<double> &post,
             coord_t n)
{
    std::int64_t w = n + 2;
    if (pre.size() != std::size_t(w * w) || post.size() != pre.size())
        return false;
    bool ok = true;
    for (std::int64_t i = 0; i < w; i++) {
        for (std::int64_t j = 0; j < w; j++) {
            bool interior = i >= 1 && i <= n && j >= 1 && j <= n;
            double want = interior ? ref::stencilCell(pre.data(), n, i, j)
                                   : pre[std::size_t(i * w + j)];
            ok = ok && matches(post[std::size_t(i * w + j)], want, 1e-12);
        }
    }
    return ok;
}

/** One more step whose Black-Scholes and stencil outputs are checked
 * against the plain host references. */
bool
checkedStep(Apps &a, std::uint64_t id)
{
    std::vector<double> pre = a.np->toHost(a.st->grid());
    Issuer d(*a.rt, nullptr);
    step(d, a, id);
    bool bsOk = checkBlackScholes(a);
    std::vector<double> post = a.np->toHost(a.st->grid());
    bool stOk = checkStencil(pre, post, a.grid);
    std::printf("check black_scholes %s, stencil %s\n",
                bsOk ? "ok" : "MISMATCH", stOk ? "ok" : "MISMATCH");
    return bsOk && stOk;
}

/** Mean wall ms of `steps` steps after `warm` warm-up steps. */
double
meanStepMs(Apps &a, int warm, int steps)
{
    Issuer d(*a.rt, nullptr);
    for (int i = 0; i < warm; i++)
        step(d, a, 0);
    auto t0 = Clock::now();
    for (int i = 0; i < steps; i++)
        step(d, a, 0);
    return msBetween(t0, Clock::now()) / steps;
}

/** The same problem as a plain single-threaded host loop. */
double
plainStepMs(coord_t optionsPerGpu, coord_t n, int steps)
{
    std::size_t m = std::size_t(optionsPerGpu * kGpus);
    std::vector<double> s(m), k(m), t(m), call, put;
    Rng rs(101), rk(102), rt(103);
    for (std::size_t i = 0; i < m; i++)
        s[i] = rs.uniform(10.0, 100.0);
    for (std::size_t i = 0; i < m; i++)
        k[i] = rk.uniform(10.0, 100.0);
    for (std::size_t i = 0; i < m; i++)
        t[i] = rt.uniform(0.25, 2.0);
    std::int64_t w = n + 2;
    std::vector<double> grid = ref::uniform(301, w * w, 0.0, 1.0);
    std::vector<double> work(std::size_t(n * n));
    auto t0 = Clock::now();
    for (int it = 0; it < steps; it++) {
        apps::BlackScholes::reference(s, k, t, apps::BlackScholes::RATE,
                                      apps::BlackScholes::VOLATILITY, call,
                                      put);
        for (std::int64_t i = 1; i <= n; i++)
            for (std::int64_t j = 1; j <= n; j++)
                work[std::size_t((i - 1) * n + j - 1)] =
                    ref::stencilCell(grid.data(), n, i, j);
        for (std::int64_t i = 1; i <= n; i++)
            std::copy_n(&work[std::size_t((i - 1) * n)], n,
                        &grid[std::size_t(i * w + 1)]);
    }
    return msBetween(t0, Clock::now()) / steps;
}

void
printSizes()
{
    double arr = double(kOptionsPerGpu * kGpus) * 8.0;
    printSize("black_scholes array (x5)", arr);
    printSize("stencil grid", double((kGrid + 2) * (kGrid + 2)) * 8.0);
}

int
runMode(const Args &args, Result &r)
{
    printSizes();
    EndToEnd e;
    DiffuseOptions o = sessionOptions(kWorkers, 1);
    std::unique_ptr<Apps> a;
    // Set-up is repeated and its median reported; the last set-up's
    // session carries on into the measured loop.
    for (int i = 0; i < 3; i++) {
        a.reset();
        a = setUp(kOptionsPerGpu, kGrid, o);
        e.setupS.push_back(a->setupS);
    }
    Issuer d(*a->rt, nullptr);
    for (int i = 0; i < 2; i++)
        step(d, *a, 0);
    auto start = Clock::now();
    auto deadline = start + std::chrono::duration<double>(args.seconds);
    std::uint64_t id = 1;
    while (Clock::now() < deadline) {
        auto t0 = Clock::now();
        step(d, *a, id++);
        e.opMs.push_back(msBetween(t0, Clock::now()));
    }
    e.opsPerS = double(e.opMs.size()) / (msBetween(start, Clock::now()) / 1e3);
    e.rssMb = peakRssMb();
    r.attempted = e.opMs.size() + 1;
    if (!checkedStep(*a, id)) {
        r.failed++;
        r.correct = false;
    }
    addEndToEnd(r, e, "step");
    return 0;
}

int
tracedMode(const Args &args, Result &r)
{
    printSizes();
    LayerReport l;
    l.mem = measureMemcpy(std::size_t(512) << 20);
    DiffuseOptions o = sessionOptions(kWorkers, 1);
    std::unique_ptr<Apps> a = setUp(kOptionsPerGpu, kGrid, o);
    l.sessionMs.push_back(a->sessionMs);
    Issuer plain(*a->rt, nullptr);
    for (int i = 0; i < 2; i++)
        step(plain, *a, 0);

    auto block = std::chrono::duration<double>(args.seconds * 0.1);
    std::vector<double> untraced;
    Lane lane(1);
    Issuer traced(*a->rt, &lane);
    auto origin = Clock::now();
    std::uint64_t id = 1;
    for (int b = 0; b < kTracedBlocks; b++) {
        for (auto end = Clock::now() + block; Clock::now() < end;) {
            auto t0 = Clock::now();
            step(plain, *a, 0);
            untraced.push_back(msBetween(t0, Clock::now()));
        }
        Counters c0 = Counters::of(*a->rt);
        for (auto end = Clock::now() + block; Clock::now() < end;)
            step(traced, *a, id++);
        l.atExit = Counters::of(*a->rt);
        l.delta = l.delta.plus(l.atExit.since(c0));
    }
    l.untracedOpMs = mean(untraced);
    l.lanes = {&lane};
    r.attempted = untraced.size() + (id - 1) + 1;
    if (!checkedStep(*a, id)) {
        r.failed++;
        r.correct = false;
    }
    a.reset();

    // Reference points at a quarter of the arrays, against the fused
    // run at the same size.
    double fusedMs = meanStepMs(*setUp(kRefOptionsPerGpu, kRefGrid, o), 1, 3);
    DiffuseOptions unfused = o;
    unfused.fusionEnabled = false;
    double unfusedMs =
        meanStepMs(*setUp(kRefOptionsPerGpu, kRefGrid, unfused), 1, 3);
    double plainMs = plainStepMs(kRefOptionsPerGpu, kRefGrid, 2);
    std::printf("reference (%lld options, %lld^2 grid): fused %.2f ms, "
                "unfused %.2f ms, plain C++ 1 thread %.2f ms per step\n",
                static_cast<long long>(kRefOptionsPerGpu * kGpus),
                static_cast<long long>(kRefGrid), fusedMs, unfusedMs,
                plainMs);
    l.unfusedRatio = unfusedMs / fusedMs;
    l.plainRatio = plainMs / fusedMs;
    addLayerMetrics(r, l);
    if (!args.traceOut.empty() &&
        !writeChromeTrace(args.traceOut, l.lanes, origin))
        std::fprintf(stderr, "cannot write %s\n", args.traceOut.c_str());
    return 0;
}

int
countsMode(Result &r)
{
    std::unique_ptr<Apps> a =
        setUp(kOptionsPerGpu, kGrid, sessionOptions(kWorkers, 1));
    Issuer d(*a->rt, nullptr);
    step(d, *a, 1);
    Counters c0 = Counters::of(*a->rt);
    step(d, *a, 2);
    Counters c = Counters::of(*a->rt).since(c0);
    r.attempted = 3;
    printCounts({{"tasks_per_op", double(c.tasks)},
                 {"launches_per_op", double(c.launches)},
                 {"copies_per_op", double(c.copies)},
                 {"exchange_bytes_per_op", c.exchangeBytes},
                 {"plans_lowered", double(c0.plansLowered + c.plansLowered)}});
    return 0;
}

} // namespace

int
runAppsDram(const Args &args)
{
    Result r;
    try {
        if (args.mode == "traced")
            tracedMode(args, r);
        else if (args.mode == "counts")
            countsMode(r);
        else
            runMode(args, r);
    } catch (const std::exception &ex) {
        std::printf("apps_dram failed: %s\n", ex.what());
        return 1;
    }
    printResult(r);
    return r.correct ? 0 : 1;
}

} // namespace perfbench
