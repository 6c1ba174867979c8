#include "memo.h"

#include <unordered_map>

#include "common/logging.h"

namespace diffuse {

namespace {

void
append64(std::string &out, std::uint64_t v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

} // namespace

std::string
Memoizer::encode(std::span<const IndexTask> prefix,
                 const StoreTable &stores,
                 const std::function<bool(StoreId)> &live_after,
                 std::vector<StoreId> *slots_out) const
{
    std::string key;
    key.reserve(prefix.size() * 64);
    std::unordered_map<StoreId, int> slot_of;
    std::vector<StoreId> slots;

    append64(key, prefix.size());
    for (const IndexTask &task : prefix) {
        append64(key, task.type);
        append64(key, std::uint64_t(task.launchDomain.dim()));
        for (int d = 0; d < task.launchDomain.dim(); d++) {
            append64(key, std::uint64_t(task.launchDomain.lo[d]));
            append64(key, std::uint64_t(task.launchDomain.hi[d]));
        }
        append64(key, task.args.size());
        for (const StoreArg &arg : task.args) {
            auto [it, fresh] =
                slot_of.emplace(arg.store, int(slot_of.size()));
            if (fresh)
                slots.push_back(arg.store);
            append64(key, std::uint64_t(it->second));
            append64(key, arg.part.structuralHash());
            append64(key, std::uint64_t(arg.priv));
            append64(key, std::uint64_t(arg.redop));
        }
        // Scalar *positions* matter; values are re-bound on replay.
        append64(key, task.scalars.size());
    }

    // Per-slot store facts that the plan depends on: shape, dtype and
    // liveness beyond the group (Definition 4 inputs).
    for (StoreId sid : slots) {
        const StoreMeta &meta = stores.get(sid);
        append64(key, std::uint64_t(meta.shape.dim()));
        for (int d = 0; d < meta.shape.dim(); d++)
            append64(key, std::uint64_t(meta.shape.hi[d]));
        append64(key, std::uint64_t(meta.dtype));
        append64(key, live_after(sid) ? 1 : 0);
    }

    if (slots_out)
        *slots_out = std::move(slots);
    return key;
}

const CachedGroup *
Memoizer::getOrBuild(const std::string &key,
                     const std::function<CachedGroup()> &build)
{
    bool built = false;
    const CachedGroup &plan = plans_.getOrBuild(key, [&] {
        built = true;
        stats_.misses.fetch_add(1, std::memory_order_relaxed);
        CachedGroup group = build();
        if (group.kernel != nullptr && group.kernel->plan != nullptr)
            stats_.plansLowered.fetch_add(1, std::memory_order_relaxed);
        stats_.entries.fetch_add(1, std::memory_order_relaxed);
        return group;
    });
    if (!built)
        stats_.hits.fetch_add(1, std::memory_order_relaxed);
    return &plan;
}

CachedGroup
Memoizer::canonicalize(const ExecutionGroup &group,
                       std::span<const StoreId> slots)
{
    std::unordered_map<StoreId, int> slot_of;
    for (std::size_t i = 0; i < slots.size(); i++)
        slot_of.emplace(slots[i], int(i));

    CachedGroup plan;
    plan.length = group.sourceTasks;
    plan.fused = group.fused;
    plan.sourceTasks = group.sourceTasks;
    plan.name = group.task.name;
    plan.launchDomain = group.task.launchDomain;
    plan.kernel = group.kernel;
    for (const StoreArg &arg : group.task.args) {
        CachedGroup::CArg c;
        c.slot = slot_of.at(arg.store);
        c.part = arg.part;
        c.priv = arg.priv;
        c.redop = arg.redop;
        plan.args.push_back(c);
    }
    for (StoreId temp : group.temps)
        plan.tempSlots.push_back(slot_of.at(temp));
    return plan;
}

ExecutionGroup
Memoizer::instantiate(const CachedGroup &plan,
                      std::span<const IndexTask> prefix,
                      std::span<const StoreId> slots)
{
    ExecutionGroup group;
    group.fused = plan.fused;
    group.sourceTasks = plan.sourceTasks;
    group.kernel = plan.kernel;
    group.task.launchDomain = plan.launchDomain;
    group.task.name = plan.name;
    group.task.type = prefix.front().type;
    for (const CachedGroup::CArg &c : plan.args) {
        StoreArg arg;
        arg.store = slots[std::size_t(c.slot)];
        arg.part = c.part;
        arg.priv = c.priv;
        arg.redop = c.redop;
        group.task.args.push_back(arg);
    }
    for (int slot : plan.tempSlots)
        group.temps.push_back(slots[std::size_t(slot)]);
    for (const IndexTask &task : prefix) {
        group.task.scalars.insert(group.task.scalars.end(),
                                  task.scalars.begin(),
                                  task.scalars.end());
    }
    return group;
}

} // namespace diffuse
