/**
 * @file
 * Environment-knob parsing regressions: DIFFUSE_WORKERS /
 * DIFFUSE_RANKS historically went through atoi-style parsing that
 * silently accepted trailing garbage ("8abc" -> 8) and overflowed on
 * huge values. envInt() must parse strictly, clamp
 * out-of-range values, and default on garbage.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.h"
#include "kernel/exec.h"
#include "runtime/runtime.h"

namespace diffuse {
namespace {

struct EnvGuard
{
    const char *name;
    explicit EnvGuard(const char *n) : name(n) { unsetenv(n); }
    ~EnvGuard() { unsetenv(name); }
    void set(const char *v) { setenv(name, v, 1); }
};

TEST(EnvInt, UnsetUsesFallback)
{
    EnvGuard g("DIFFUSE_TEST_KNOB");
    EXPECT_EQ(envInt("DIFFUSE_TEST_KNOB", 7, 1, 100), 7);
}

TEST(EnvInt, ParsesPlainIntegers)
{
    EnvGuard g("DIFFUSE_TEST_KNOB");
    g.set("42");
    EXPECT_EQ(envInt("DIFFUSE_TEST_KNOB", 7, 1, 100), 42);
    g.set("+9");
    EXPECT_EQ(envInt("DIFFUSE_TEST_KNOB", 7, 1, 100), 9);
}

TEST(EnvInt, HandlesOutOfRange)
{
    EnvGuard g("DIFFUSE_TEST_KNOB");
    // Below the minimum: not a meaningful count — fall back to the
    // default rather than clamping (DIFFUSE_MEM_BUDGET=0 must not
    // mean a 1 MiB budget).
    g.set("0");
    EXPECT_EQ(envInt("DIFFUSE_TEST_KNOB", 7, 1, 100), 7);
    g.set("-12");
    EXPECT_EQ(envInt("DIFFUSE_TEST_KNOB", 7, 1, 100), 7);
    // Above the maximum: "as much as possible" — clamp.
    g.set("4096");
    EXPECT_EQ(envInt("DIFFUSE_TEST_KNOB", 7, 1, 100), 100);
}

TEST(EnvInt, RejectsGarbage)
{
    EnvGuard g("DIFFUSE_TEST_KNOB");
    g.set("");
    EXPECT_EQ(envInt("DIFFUSE_TEST_KNOB", 7, 1, 100), 7);
    g.set("abc");
    EXPECT_EQ(envInt("DIFFUSE_TEST_KNOB", 7, 1, 100), 7);
    // atoi would have returned 8 here.
    g.set("8abc");
    EXPECT_EQ(envInt("DIFFUSE_TEST_KNOB", 7, 1, 100), 7);
    g.set("3.5");
    EXPECT_EQ(envInt("DIFFUSE_TEST_KNOB", 7, 1, 100), 7);
    // Overflow: atoi was undefined behaviour.
    g.set("99999999999999999999");
    EXPECT_EQ(envInt("DIFFUSE_TEST_KNOB", 7, 1, 100), 7);
}

TEST(EnvInt, WorkersKnobClampsAndDefaults)
{
    EnvGuard g("DIFFUSE_WORKERS");
    g.set("0");
    EXPECT_EQ(kir::WorkerPool::defaultWorkers(), 1);
    g.set("-4");
    EXPECT_EQ(kir::WorkerPool::defaultWorkers(), 1);
    g.set("3 threads");
    EXPECT_EQ(kir::WorkerPool::defaultWorkers(), 1);
    g.set("6");
    EXPECT_EQ(kir::WorkerPool::defaultWorkers(), 6);
}

TEST(EnvInt, RanksKnobClampsAndDefaults)
{
    EnvGuard g("DIFFUSE_RANKS");
    g.set("two");
    rt::LowRuntime bad(rt::MachineConfig::withGpus(2),
                       rt::ExecutionMode::Simulated);
    EXPECT_EQ(bad.ranks(), 1);
    g.set("0");
    rt::LowRuntime zero(rt::MachineConfig::withGpus(2),
                        rt::ExecutionMode::Simulated);
    EXPECT_EQ(zero.ranks(), 1);
    g.set("3");
    rt::LowRuntime three(rt::MachineConfig::withGpus(2),
                         rt::ExecutionMode::Simulated);
    EXPECT_EQ(three.ranks(), 3);
}

} // namespace
} // namespace diffuse
