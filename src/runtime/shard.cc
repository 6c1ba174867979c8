#include "shard.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace diffuse {
namespace rt {

namespace {

/** rowMajorStrides with the shard-layer failure message. */
void
rectStrides(const Rect &r, coord_t strides[2])
{
    if (!rowMajorStrides(r, strides))
        diffuse_panic("shards must be 1-D or 2-D, got %d-D", r.dim());
}

/**
 * Copy rectangle `r` between two row-major buffers laid out over
 * `dst_rect` and `src_rect` (both must contain `r`).
 */
void
copyRect(std::byte *dst, const Rect &dst_rect, const std::byte *src,
         const Rect &src_rect, const Rect &r, std::size_t esize)
{
    diffuse_assert(dst_rect.contains(r) && src_rect.contains(r),
                   "copyRect %s outside buffers", r.toString().c_str());
    if (r.empty())
        return;
    if (r.dim() == 1) {
        std::memcpy(dst + rowMajorOffset(dst_rect, r.lo) * esize,
                    src + rowMajorOffset(src_rect, r.lo) * esize,
                    std::size_t(r.volume()) * esize);
        return;
    }
    coord_t ds[2], ss[2];
    rectStrides(dst_rect, ds);
    rectStrides(src_rect, ss);
    std::size_t row_bytes = std::size_t(r.hi[1] - r.lo[1]) * esize;
    for (coord_t row = r.lo[0]; row < r.hi[0]; row++) {
        Point p(row, r.lo[1]);
        std::memcpy(dst + rowMajorOffset(dst_rect, p) * esize,
                    src + rowMajorOffset(src_rect, p) * esize, row_bytes);
    }
}

/**
 * Visit the parts of `need` covered by `list`: `fn(overlap)` acts on
 * each covered rectangle, which is subtracted from `need`; what
 * remains of `need` afterwards is the uncovered remainder. The one
 * subtract-scan all gather/pull planning shares.
 */
template <typename Fn>
void
consumeCovered(std::vector<Rect> &need, const std::vector<Rect> &list,
               Fn &&fn)
{
    for (const Rect &v : list) {
        if (need.empty())
            return;
        std::vector<Rect> next;
        next.reserve(need.size());
        for (const Rect &n : need) {
            Rect o = n.intersect(v);
            if (o.empty()) {
                next.push_back(n);
                continue;
            }
            fn(o);
            rectSubtract(n, o, next);
        }
        need = std::move(next);
    }
}

/** Bounding box of two rectangles (either may be empty). */
Rect
boundingBox(const Rect &a, const Rect &b)
{
    if (a.empty())
        return b;
    if (b.empty())
        return a;
    Rect r = a;
    for (int i = 0; i < a.dim(); i++) {
        r.lo[i] = std::min(a.lo[i], b.lo[i]);
        r.hi[i] = std::max(a.hi[i], b.hi[i]);
    }
    return r;
}

} // namespace

ShardManager::ShardManager(ExecutionMode mode, int ranks,
                           BufferPool &buffers)
    : mode_(mode), ranks_(ranks), buffers_(buffers)
{
    diffuse_assert(ranks_ >= 1, "need at least one rank");
}

void
ShardManager::reset(StoreState &s, StoreId id, const Rect &shape,
                    DType dtype)
{
    if (!active())
        return;
    // A recycled state keeps its lists' capacity: reset every field
    // (its shard buffers went back to the pool on destruction).
    s.id = id;
    s.shape = shape;
    s.dtype = dtype;
    s.shards.resize(std::size_t(ranks_));
    for (Shard &sh : s.shards) {
        sh.rect = Rect();
        sh.valid.clear();
    }
    // A fresh store's init fill is host-side setup: the canonical
    // copy owns everything and is resident on every rank for free.
    s.hostValid.assign(1, shape);
}

void
ShardManager::release(StoreState &s)
{
    for (Shard &sh : s.shards)
        buffers_.give(std::move(sh.data));
}

void
ShardManager::onHostWrite(StoreState &s)
{
    if (!active())
        return;
    s.hostValid = {s.shape};
    for (Shard &sh : s.shards)
        sh.valid.clear();
}

void
ShardManager::invalidate(std::vector<Rect> &list, const Rect &r)
{
    // Entries before the first one `r` touches survive verbatim
    // (rectSubtract would re-append each unchanged); only the tail
    // from there on is rebuilt, in order.
    std::size_t first = 0;
    while (first < list.size() && !list[first].empty() &&
           list[first].intersect(r).empty())
        first++;
    if (first == list.size())
        return;
    scratch_.clear();
    for (std::size_t i = first; i < list.size(); i++)
        rectSubtract(list[i], r, scratch_);
    list.resize(first);
    list.insert(list.end(), scratch_.begin(), scratch_.end());
}

void
ShardManager::markValid(std::vector<Rect> &list, const Rect &r)
{
    if (r.empty())
        return;
    invalidate(list, r); // keep entries disjoint
    list.push_back(r);
}

std::vector<Rect>
ShardManager::uncovered(const std::vector<Rect> &list, const Rect &r)
{
    std::vector<Rect> need;
    if (covers(list, r))
        return need; // the common case, and no allocation
    need.push_back(r);
    consumeCovered(need, list, [](const Rect &) {});
    return need;
}

bool
ShardManager::covers(const std::vector<Rect> &list, const Rect &r)
{
    coord_t covered = 0;
    for (const Rect &v : list)
        covered += v.intersect(r).volume();
    return covered == r.volume();
}

void
ShardManager::ensureShardCovers(StoreState &s, int rank, const Rect &rect)
{
    Shard &sh = s.shards[std::size_t(rank)];
    // A fresh shard's rect is the default 0-D rectangle, whose
    // contains() is vacuously true — test emptiness first.
    if (rect.empty() || (!sh.rect.empty() && sh.rect.contains(rect)))
        return;
    Rect grown = boundingBox(sh.rect, rect);
    if (mode_ == ExecutionMode::Real) {
        std::size_t esize = dtypeSize(s.dtype);
        // Recycled or fresh, a shard buffer starts zero-filled.
        RawBuffer data =
            buffers_.take(std::size_t(grown.volume()) * esize);
        std::memset(data.data(), 0, data.size());
        // Preserve everything already resident. Pending tasks bind
        // their pointers at retirement, so they observe the grown
        // buffer; only already-written bytes need moving.
        if (!sh.rect.empty() && !sh.data.empty()) {
            copyRect(data.data(), grown, sh.data.data(), sh.rect,
                     sh.rect, esize);
        }
        buffers_.give(std::move(sh.data));
        sh.data = std::move(data);
    }
    sh.rect = grown;
}

void
ShardManager::planPull(StoreState &s, int rank, const Rect &piece,
                       std::vector<CopyDesc> &copies)
{
    StoreId id = s.id;
    Shard &dst = s.shards[std::size_t(rank)];
    std::vector<Rect> need = uncovered(dst.valid, piece);
    if (need.empty())
        return;
    double esize = double(dtypeSize(s.dtype));

    auto emit = [&](int src, const Rect &r) {
        CopyDesc c;
        c.store = id;
        c.rect = r;
        c.srcRank = src;
        c.dstRank = rank;
        c.bytes = double(r.volume()) * esize;
        copies.push_back(c);
    };

    // Pull each rectangle from the ranks whose validity lists hold it,
    // in rank order: the lists are the ground truth of placement.
    for (int src = 0; src < ranks_ && !need.empty(); src++) {
        if (src != rank)
            consumeCovered(need, s.shards[std::size_t(src)].valid,
                           [&](const Rect &o) { emit(src, o); });
    }

    // The canonical copy serves the rest for free: its data is
    // resident everywhere (initialization, post-collective results).
    consumeCovered(need, s.hostValid,
                   [&](const Rect &o) { emit(-1, o); });
    // Placement invariant: hostValid starts as the whole shape and
    // every invalidation pairs with a markValid somewhere, so the
    // union of hostValid and the shard validity lists always covers
    // the store — a leftover means the maps are corrupt (or a piece
    // escaped the store bounds, which executeCopy would also reject).
    diffuse_assert(need.empty(),
                   "store %llu: rect %s has no owner (placement maps "
                   "corrupt)",
                   (unsigned long long)id,
                   need.front().toString().c_str());

    markValid(dst.valid, piece);
}

void
ShardManager::planGather(StoreState &s, std::vector<CopyDesc> &copies)
{
    StoreId id = s.id;
    std::vector<Rect> need = uncovered(s.hostValid, s.shape);
    if (need.empty())
        return;
    double esize = double(dtypeSize(s.dtype));
    for (int src = 0; src < ranks_ && !need.empty(); src++) {
        consumeCovered(need, s.shards[std::size_t(src)].valid,
                       [&](const Rect &o) {
                           CopyDesc c;
                           c.store = id;
                           c.rect = o;
                           c.srcRank = src;
                           c.dstRank = -1;
                           c.bytes = double(o.volume()) * esize;
                           copies.push_back(c);
                       });
    }
    // Unwritten remainder: the canonical bytes are already current.
    s.hostValid = {s.shape};
}

void
ShardManager::planTask(LaunchedTask &task,
                       std::span<StoreState *const> states,
                       std::vector<CopyDesc> &copies)
{
    if (!active() || task.kind == TaskKind::Copy)
        return;

    std::size_t na = task.args.size();
    task.argCanonical.assign(na, 0);

    // ---- Binding policy ---------------------------------------------
    //
    // Intrinsically canonical: replicated access (every point sees the
    // whole store), absolute addressing (CSR values/column indices),
    // and reduction accumulators (merged into the canonical copy, then
    // broadcast by the collective).
    for (std::size_t i = 0; i < na; i++) {
        const LowArg &a = task.args[i];
        if (a.replicated || a.absolute || privReduces(a.priv))
            task.argCanonical[i] = 1;
    }
    // Per-store escalation: if any argument of a store binds
    // canonically, or a written piece of one point overlaps another
    // point's accesses (the sequential point order is then observable
    // through the single allocation — shards would hide it), every
    // argument of that store binds canonically in this task.
    for (std::size_t i = 0; i < na; i++) {
        const LowArg &w = task.args[i];
        bool escalate = task.argCanonical[i] != 0;
        if (!escalate && privWrites(w.priv)) {
            for (std::size_t j = 0; j < na && !escalate; j++) {
                const LowArg &a = task.args[j];
                if (a.store != w.store)
                    continue;
                for (std::size_t p = 0;
                     p < w.pieces.size() && !escalate; p++) {
                    if (w.pieces[p].empty())
                        continue;
                    int rp = rankOf(int(p));
                    for (std::size_t q = 0; q < a.pieces.size(); q++) {
                        if (p == q || rankOf(int(q)) == rp)
                            continue;
                        if (!w.pieces[p]
                                 .intersect(a.pieces[q])
                                 .empty()) {
                            escalate = true;
                            break;
                        }
                    }
                }
            }
        }
        if (!escalate)
            continue;
        for (std::size_t j = 0; j < na; j++) {
            if (task.args[j].store == w.store)
                task.argCanonical[j] = 1;
        }
    }

    // ---- Read planning ----------------------------------------------
    for (std::size_t i = 0; i < na; i++) {
        const LowArg &a = task.args[i];
        StoreState &s = *states[i];
        if (task.argCanonical[i]) {
            if (privReads(a.priv) || privReduces(a.priv))
                planGather(s, copies);
            continue;
        }
        for (std::size_t p = 0; p < a.pieces.size(); p++) {
            const Rect &piece = a.pieces[p];
            if (piece.empty())
                continue;
            int r = rankOf(int(p));
            ensureShardCovers(s, r, piece);
            if (privReads(a.priv))
                planPull(s, r, piece, copies);
        }
    }

    applyWriteEffects(task, states);
}

void
ShardManager::replayTask(const LaunchedTask &task,
                         std::span<StoreState *const> states)
{
    if (!active() || task.kind == TaskKind::Copy)
        return;
    std::size_t na = task.args.size();
    diffuse_assert(task.argCanonical.size() == na,
                   "replayed task %s lacks recorded binding decisions",
                   task.name.c_str());

    // ---- Read effects (what planPull/planGather leave behind) -------
    for (std::size_t i = 0; i < na; i++) {
        const LowArg &a = task.args[i];
        StoreState &s = *states[i];
        if (task.argCanonical[i]) {
            // planGather touches hostValid only when something was
            // missing; replicate the condition so the rectangle-list
            // *representation* (not just its coverage) stays equal to
            // the analyzed path — state signatures compare lists.
            if ((privReads(a.priv) || privReduces(a.priv)) &&
                !covers(s.hostValid, s.shape)) {
                s.hostValid = {s.shape};
            }
            continue;
        }
        for (std::size_t p = 0; p < a.pieces.size(); p++) {
            const Rect &piece = a.pieces[p];
            if (piece.empty())
                continue;
            int r = rankOf(int(p));
            ensureShardCovers(s, r, piece);
            if (privReads(a.priv)) {
                Shard &dst = s.shards[std::size_t(r)];
                if (!covers(dst.valid, piece))
                    markValid(dst.valid, piece);
            }
        }
    }

    applyWriteEffects(task, states);
}

void
ShardManager::applyWriteEffects(const LaunchedTask &task,
                                std::span<StoreState *const> states)
{
    for (std::size_t i = 0; i < task.args.size(); i++) {
        const LowArg &a = task.args[i];
        StoreState &s = *states[i];
        if (privReduces(a.priv)) {
            // Combined and broadcast by the collective: the canonical
            // copy becomes the sole owner, resident everywhere.
            s.hostValid = {s.shape};
            for (Shard &sh : s.shards)
                sh.valid.clear();
            continue;
        }
        if (!privWrites(a.priv))
            continue;
        if (task.argCanonical[i]) {
            if (a.replicated) {
                s.hostValid = {s.shape};
                for (Shard &sh : s.shards)
                    sh.valid.clear();
            } else {
                for (const Rect &piece : a.pieces) {
                    if (piece.empty())
                        continue;
                    markValid(s.hostValid, piece);
                    for (Shard &sh : s.shards)
                        invalidate(sh.valid, piece);
                }
            }
            continue;
        }
        for (std::size_t p = 0; p < a.pieces.size(); p++) {
            const Rect &piece = a.pieces[p];
            if (piece.empty())
                continue;
            int r = rankOf(int(p));
            invalidate(s.hostValid, piece);
            for (int r2 = 0; r2 < ranks_; r2++) {
                if (r2 != r)
                    invalidate(s.shards[std::size_t(r2)].valid, piece);
            }
            markValid(s.shards[std::size_t(r)].valid, piece);
        }
    }
}

std::uint64_t
ShardManager::stateSignature(const StoreState &s) const
{
    if (!active())
        return 0;
    std::uint64_t h = 0x5348415244u; // "SHARD"
    hashCombineRects(h, s.hostValid);
    for (const Shard &sh : s.shards) {
        hashCombineRect(h, sh.rect);
        hashCombineRects(h, sh.valid);
    }
    return h;
}

void
ShardManager::executeCopy(StoreState &s, const CopyDesc &copy,
                          std::byte *canonical)
{
    if (mode_ != ExecutionMode::Real)
        return;
    std::size_t esize = dtypeSize(s.dtype);

    const std::byte *src;
    Rect src_rect;
    if (copy.srcRank < 0) {
        diffuse_assert(canonical != nullptr, "copy from host without "
                       "canonical allocation");
        src = canonical;
        src_rect = s.shape;
    } else {
        Shard &sh = s.shards[std::size_t(copy.srcRank)];
        diffuse_assert(!sh.data.empty(), "copy from unmaterialized "
                       "shard %d of store %llu", copy.srcRank,
                       (unsigned long long)s.id);
        src = sh.data.data();
        src_rect = sh.rect;
    }

    std::byte *dst;
    Rect dst_rect;
    if (copy.dstRank < 0) {
        diffuse_assert(canonical != nullptr, "gather without canonical "
                       "allocation");
        dst = canonical;
        dst_rect = s.shape;
    } else {
        ensureShardCovers(s, copy.dstRank, copy.rect);
        Shard &sh = s.shards[std::size_t(copy.dstRank)];
        dst = sh.data.data();
        dst_rect = sh.rect;
    }

    copyRect(dst, dst_rect, src, src_rect, copy.rect, esize);
}

void
ShardManager::gatherToCanonical(StoreState &s, std::byte *canonical)
{
    if (!active() || mode_ != ExecutionMode::Real)
        return;
    std::size_t esize = dtypeSize(s.dtype);
    std::vector<Rect> need = uncovered(s.hostValid, s.shape);
    for (int src = 0; src < ranks_ && !need.empty(); src++) {
        const Shard &sh = s.shards[std::size_t(src)];
        consumeCovered(need, sh.valid, [&](const Rect &o) {
            copyRect(canonical, s.shape, sh.data.data(), sh.rect, o,
                     esize);
        });
    }
    s.hostValid = {s.shape};
}

ShardView
ShardManager::shardView(StoreState &s, int point, const Rect &piece,
                        bool with_pointer)
{
    Shard &sh = s.shards[std::size_t(rankOf(point))];
    diffuse_assert(sh.rect.contains(piece),
                   "piece %s outside shard %s of store %llu",
                   piece.toString().c_str(), sh.rect.toString().c_str(),
                   (unsigned long long)s.id);
    ShardView view;
    rectStrides(sh.rect, view.stride);
    if (with_pointer) {
        diffuse_assert(!sh.data.empty(), "unmaterialized shard bound "
                       "with pointers");
        view.base = sh.data.data() +
                    rowMajorOffset(sh.rect, piece.lo) *
                        coord_t(dtypeSize(s.dtype));
    }
    return view;
}

} // namespace rt
} // namespace diffuse
