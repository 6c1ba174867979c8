/**
 * @file
 * Exact, field-by-field equality of two RuntimeStats: every counter,
 * doubles included, compared with EXPECT_EQ (bitwise for the values
 * counters take), so a mismatch names its field.
 */

#ifndef DIFFUSE_TESTS_STATS_PARITY_H
#define DIFFUSE_TESTS_STATS_PARITY_H

#include <gtest/gtest.h>

#include "runtime/runtime.h"

namespace diffuse {

inline void
expectRuntimeStatsEqual(const rt::RuntimeStats &a,
                        const rt::RuntimeStats &b)
{
    // A new field must join the comparison below.
    static_assert(sizeof(rt::RuntimeStats) == 24 * 8);
    EXPECT_EQ(a.simTime, b.simTime);
    EXPECT_EQ(a.busyTime, b.busyTime);
    EXPECT_EQ(a.computeTime, b.computeTime);
    EXPECT_EQ(a.commTime, b.commTime);
    EXPECT_EQ(a.collectiveTime, b.collectiveTime);
    EXPECT_EQ(a.overheadTime, b.overheadTime);
    EXPECT_EQ(a.indexTasks, b.indexTasks);
    EXPECT_EQ(a.pointTasks, b.pointTasks);
    EXPECT_EQ(a.tasksSharded, b.tasksSharded);
    EXPECT_EQ(a.bytesHbm, b.bytesHbm);
    EXPECT_EQ(a.bytesIntraNode, b.bytesIntraNode);
    EXPECT_EQ(a.bytesInterNode, b.bytesInterNode);
    EXPECT_EQ(a.collectives, b.collectives);
    EXPECT_EQ(a.storesMaterialized, b.storesMaterialized);
    EXPECT_EQ(a.bytesMaterialized, b.bytesMaterialized);
    EXPECT_EQ(a.exchangeBytes, b.exchangeBytes);
    EXPECT_EQ(a.copyTasks, b.copyTasks);
    EXPECT_EQ(a.rankCopies, b.rankCopies);
    EXPECT_EQ(a.gathers, b.gathers);
    EXPECT_EQ(a.hostPulls, b.hostPulls);
    EXPECT_EQ(a.bufferPoolHits, b.bufferPoolHits);
    EXPECT_EQ(a.bufferPoolMisses, b.bufferPoolMisses);
    EXPECT_EQ(a.storesPoisoned, b.storesPoisoned);
    EXPECT_EQ(a.budgetEvictions, b.budgetEvictions);
}

} // namespace diffuse

#endif // DIFFUSE_TESTS_STATS_PARITY_H
