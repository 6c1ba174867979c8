#include "fusion.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"

namespace diffuse {

namespace {

/** Key identifying a fused argument: a (store, partition) pair. */
struct ArgKey
{
    StoreId store;
    PartitionDesc part;

    bool
    operator==(const ArgKey &o) const
    {
        return store == o.store && part == o.part;
    }
};

struct ArgKeyHash
{
    std::size_t
    operator()(const ArgKey &k) const
    {
        std::size_t h = std::hash<StoreId>()(k.store);
        hashCombine(h, k.part.structuralHash());
        return h;
    }
};

/** Promote the union of two privileges (paper §4.2.2). */
Privilege
promote(Privilege a, Privilege b)
{
    if (a == b)
        return a;
    // Reduce mixed with read/write only arises under the single-point
    // relaxation, where the reduction completes locally in program
    // order; the fused task then owns the store read-write.
    if (a == Privilege::Reduce || b == Privilege::Reduce)
        return Privilege::ReadWrite;
    bool reads = privReads(a) || privReads(b);
    bool writes = privWrites(a) || privWrites(b);
    if (reads && writes)
        return Privilege::ReadWrite;
    return writes ? Privilege::Write : Privilege::Read;
}

} // namespace

int
FusionPlanner::findPrefix(std::span<const IndexTask> window,
                          FusionBlock *block_out) const
{
    if (block_out)
        *block_out = FusionBlock::None;
    if (window.empty())
        return 0;

    ConstraintChecker checker;
    int n = 0;
    for (const IndexTask &task : window) {
        bool opaque = registry_.isOpaque(task.type);
        // The head task is always emitted, fused or not.
        if (n == 0 && opaque) {
            if (block_out)
                *block_out = FusionBlock::Opaque;
            return 1;
        }
        FusionBlock block = checker.admits(task, opaque);
        if (block != FusionBlock::None) {
            if (block_out)
                *block_out = block;
            return n;
        }
        checker.add(task);
        n++;
    }
    return n;
}

bool
FusionPlanner::covers(const PartitionDesc &part, const Rect &shape,
                      const Rect &launch_domain)
{
    switch (part.kind) {
      case PartitionDesc::Kind::None:
        return true;
      case PartitionDesc::Kind::Tiling: {
        // Tiles of our projections are pairwise disjoint, so coverage
        // holds exactly when the tile volumes sum to the store volume.
        coord_t total = 0;
        for (PointIterator it(launch_domain); it.valid(); it.step())
            total += part.boundsFor(*it, shape).volume();
        return total == shape.volume();
      }
      case PartitionDesc::Kind::Image:
        return false; // conservatively never covering
    }
    return false;
}

kir::GenSignature
FusionPlanner::signatureFor(const IndexTask &task) const
{
    kir::GenSignature sig;
    sig.numScalars = int(task.scalars.size());
    // Alias classes: arguments sharing a store may alias.
    std::unordered_map<StoreId, int> store_count;
    for (const StoreArg &a : task.args)
        store_count[a.store]++;
    std::unordered_map<StoreId, int> alias_ids;
    std::unordered_map<std::uint64_t, int> shape_ids;
    for (const StoreArg &a : task.args) {
        const StoreMeta &meta = stores_.get(a.store);
        kir::ArgInfo info;
        info.dims = meta.shape.dim();
        info.dtype = meta.dtype;
        if (store_count[a.store] > 1) {
            auto [it, fresh] =
                alias_ids.emplace(a.store, int(alias_ids.size()));
            info.aliasClass = it->second;
        }
        std::uint64_t key = a.part.shapeClassKey(meta.shape);
        auto [it, fresh] = shape_ids.emplace(key, int(shape_ids.size()));
        info.shapeClass = it->second;
        sig.args.push_back(info);
    }
    return sig;
}

ExecutionGroup
FusionPlanner::buildSingle(const IndexTask &task)
{
    ExecutionGroup group;
    group.task = task;
    group.sourceTasks = 1;
    group.fused = false;
    kir::GenSignature sig = signatureFor(task);
    kir::KernelFunction fn = registry_.generate(task.type, sig);
    // Stamp buffer metadata from the signature onto the generated
    // function's external argument buffers.
    for (std::size_t i = 0; i < sig.args.size(); i++) {
        fn.buffers[i].aliasClass = sig.args[i].aliasClass;
        fn.buffers[i].shapeClass = sig.args[i].shapeClass;
    }
    group.kernel = compiler_.compileSingle(std::move(fn));
    return group;
}

ExecutionGroup
FusionPlanner::buildFused(std::span<const IndexTask> prefix,
                          const std::function<bool(StoreId)> &live_after)
{
    diffuse_assert(prefix.size() >= 2, "fused group needs >= 2 tasks");

    // ---- Fused argument list: one slot per distinct (store, part),
    // with privileges promoted across the prefix (paper §4.2.2).
    struct Slot
    {
        StoreArg arg;
        bool firstAccessCoveringWrite = false;
        bool sawRead = false;
        bool reduced = false;
    };
    std::vector<Slot> slots;
    std::unordered_map<ArgKey, int, ArgKeyHash> slot_of;
    // Distinct partitions per store (temp candidates need exactly 1).
    std::unordered_map<StoreId, int> parts_per_store;
    std::unordered_map<StoreId, int> args_per_store;

    const Rect &domain = prefix.front().launchDomain;

    for (const IndexTask &task : prefix) {
        for (const StoreArg &arg : task.args) {
            ArgKey key{arg.store, arg.part};
            auto it = slot_of.find(key);
            if (it == slot_of.end()) {
                Slot s;
                s.arg = arg;
                const StoreMeta &meta = stores_.get(arg.store);
                // Record whether the first access is a covering write
                // (Definition 4, condition 1).
                s.firstAccessCoveringWrite =
                    arg.priv == Privilege::Write &&
                    covers(arg.part, meta.shape, domain);
                s.sawRead = privReads(arg.priv);
                s.reduced = privReduces(arg.priv);
                slot_of.emplace(key, int(slots.size()));
                slots.push_back(s);
                parts_per_store[arg.store]++;
            } else {
                Slot &s = slots[std::size_t(it->second)];
                s.arg.priv = promote(s.arg.priv, arg.priv);
                s.sawRead = s.sawRead || privReads(arg.priv);
                s.reduced = s.reduced || privReduces(arg.priv);
            }
            args_per_store[arg.store]++;
        }
    }

    // ---- Temporary store elimination (Definition 4). A store is a
    // temporary when (1) every read is preceded by a covering write
    // through the same partition, (2) no pending task beyond the
    // prefix reads or reduces it, and (3) the application holds no
    // references — (2) and (3) arrive via `live_after`. We add the
    // practical conditions that the store is accessed through exactly
    // one partition and is f64 (task-local buffers are dense doubles).
    std::unordered_set<StoreId> temp_stores;
    if (options_.tempElimination && options_.kernelOptimization) {
        for (const Slot &s : slots) {
            StoreId sid = s.arg.store;
            if (parts_per_store[sid] != 1)
                continue;
            if (s.reduced)
                continue;
            if (!s.firstAccessCoveringWrite)
                continue;
            if (stores_.get(sid).dtype != DType::F64)
                continue;
            if (live_after(sid))
                continue;
            temp_stores.insert(sid);
        }
    }

    // ---- Buffer table: retained args first, then one local per temp.
    // Shape classes are keyed on per-point piece extents; alias
    // classes group retained args sharing a store.
    std::unordered_map<std::uint64_t, int> shape_ids;
    auto shape_class = [&](const StoreArg &arg) {
        std::uint64_t key =
            arg.part.shapeClassKey(stores_.get(arg.store).shape);
        auto [it, fresh] = shape_ids.emplace(key, int(shape_ids.size()));
        return it->second;
    };

    std::vector<int> slot_to_buffer(slots.size(), -1);
    std::vector<kir::BufferInfo> buffers;
    std::vector<StoreArg> fused_args;
    std::unordered_map<StoreId, int> retained_per_store;
    for (const Slot &s : slots) {
        if (!temp_stores.count(s.arg.store))
            retained_per_store[s.arg.store]++;
    }
    std::unordered_map<StoreId, int> alias_ids;
    std::unordered_set<int> arg_shape_classes;
    for (std::size_t i = 0; i < slots.size(); i++) {
        const Slot &s = slots[i];
        if (temp_stores.count(s.arg.store))
            continue;
        const StoreMeta &meta = stores_.get(s.arg.store);
        kir::BufferInfo info;
        info.dims = meta.shape.dim();
        info.dtype = meta.dtype;
        if (retained_per_store[s.arg.store] > 1) {
            auto [it, fresh] = alias_ids.emplace(s.arg.store,
                                                 int(alias_ids.size()));
            info.aliasClass = it->second;
        }
        info.shapeClass = shape_class(s.arg);
        arg_shape_classes.insert(info.shapeClass);
        slot_to_buffer[i] = int(buffers.size());
        buffers.push_back(info);
        fused_args.push_back(s.arg);
    }
    int num_args = int(buffers.size());

    // Locals for temps. If no retained argument shares a temp's shape
    // class, the executor could not size the local — keep it a store.
    std::vector<StoreId> temps_final;
    for (std::size_t i = 0; i < slots.size(); i++) {
        const Slot &s = slots[i];
        if (!temp_stores.count(s.arg.store))
            continue;
        int sc = shape_class(s.arg);
        if (!arg_shape_classes.count(sc)) {
            // Demote back to a retained argument.
            const StoreMeta &meta = stores_.get(s.arg.store);
            kir::BufferInfo info;
            info.dims = meta.shape.dim();
            info.dtype = meta.dtype;
            info.shapeClass = sc;
            slot_to_buffer[i] = int(buffers.size());
            buffers.insert(buffers.begin() + num_args, info);
            // Inserting before locals keeps args contiguous; fix maps.
            for (std::size_t j = 0; j < slots.size(); j++) {
                if (int(j) != int(i) && slot_to_buffer[j] >= num_args)
                    slot_to_buffer[j]++;
            }
            slot_to_buffer[i] = num_args;
            fused_args.push_back(s.arg);
            num_args++;
            continue;
        }
        kir::BufferInfo info;
        info.dims = stores_.get(s.arg.store).shape.dim();
        info.isLocal = true;
        info.shapeClass = sc;
        slot_to_buffer[i] = int(buffers.size());
        buffers.push_back(info);
        temps_final.push_back(s.arg.store);
    }

    // ---- Generate each task body and compose.
    std::vector<kir::KernelFunction> parts;
    std::vector<std::vector<int>> buffer_maps;
    std::vector<std::vector<int>> scalar_maps;
    parts.reserve(prefix.size());
    int scalar_base = 0;
    std::string fused_name = "fused";
    for (const IndexTask &task : prefix) {
        kir::GenSignature sig;
        sig.numScalars = int(task.scalars.size());
        std::vector<int> bmap;
        for (const StoreArg &arg : task.args) {
            ArgKey key{arg.store, arg.part};
            int slot = slot_of.at(key);
            int buf = slot_to_buffer[std::size_t(slot)];
            bmap.push_back(buf);
            kir::ArgInfo info;
            info.dims = buffers[std::size_t(buf)].dims;
            info.dtype = buffers[std::size_t(buf)].dtype;
            info.aliasClass = buffers[std::size_t(buf)].aliasClass;
            info.shapeClass = buffers[std::size_t(buf)].shapeClass;
            sig.args.push_back(info);
        }
        parts.push_back(registry_.generate(task.type, sig));
        buffer_maps.push_back(std::move(bmap));
        std::vector<int> smap(task.scalars.size());
        for (std::size_t s = 0; s < task.scalars.size(); s++)
            smap[s] = scalar_base + int(s);
        scalar_base += int(task.scalars.size());
        scalar_maps.push_back(std::move(smap));
        fused_name += "_" + task.name;
    }
    if (fused_name.size() > 96)
        fused_name.resize(96);

    std::vector<const kir::KernelFunction *> part_ptrs;
    part_ptrs.reserve(parts.size());
    for (const auto &p : parts)
        part_ptrs.push_back(&p);

    ExecutionGroup group;
    group.fused = true;
    group.sourceTasks = int(prefix.size());
    group.temps = temps_final;

    if (options_.kernelOptimization) {
        group.kernel = compiler_.compileFused(
            fused_name, part_ptrs, buffer_maps, scalar_maps,
            std::move(buffers), num_args, scalar_base);
    } else {
        // Task-fusion-only ablation: compose without optimizing.
        kir::KernelFunction fn = kir::compose(
            fused_name, part_ptrs, buffer_maps, scalar_maps,
            std::move(buffers), num_args, scalar_base);
        auto raw = std::make_shared<kir::CompiledKernel>();
        raw->fn = std::move(fn);
        group.kernel = std::move(raw);
    }

    // ---- The fused IndexTask.
    group.task.type = prefix.front().type; // informational only
    group.task.launchDomain = domain;
    group.task.args = std::move(fused_args);
    group.task.name = fused_name;
    for (const IndexTask &task : prefix) {
        group.task.scalars.insert(group.task.scalars.end(),
                                  task.scalars.begin(),
                                  task.scalars.end());
    }
    return group;
}

} // namespace diffuse
