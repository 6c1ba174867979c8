#include "trace.h"

#include "common/logging.h"

namespace diffuse {

namespace {

void
append64(std::string &out, std::uint64_t v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
appendRect(std::string &out, const Rect &r)
{
    append64(out, std::uint64_t(r.dim()));
    for (int d = 0; d < r.dim(); d++) {
        append64(out, std::uint64_t(r.lo[d]));
        append64(out, std::uint64_t(r.hi[d]));
    }
}

} // namespace

void
EpochEncoder::reset(int window_size)
{
    while (!slotOf_.empty())
        slotNodes_.erase(slotOf_, slotOf_.begin());
    slots_.clear();
    windowSize_ = window_size;
    first_ = true;
}

int
EpochEncoder::slotOf(StoreId id) const
{
    auto it = slotOf_.find(id);
    return it == slotOf_.end() ? -1 : it->second;
}

int
EpochEncoder::slotFor(StoreId id, const StoreTable &stores,
                      std::string &code,
                      std::vector<StoreId> *new_stores)
{
    auto it = slotOf_.find(id);
    bool fresh = it == slotOf_.end();
    if (fresh) {
        it = slotNodes_.insert(slotOf_, id);
        it->second = int(slots_.size());
    }
    append64(code, std::uint64_t(it->second));
    if (fresh) {
        slots_.push_back(id);
        if (new_stores)
            new_stores->push_back(id);
        // Embed the new slot's planner-visible facts at its
        // introduction site: matching code streams then agree on
        // every store's shape and dtype, not just its access pattern.
        const StoreMeta &meta = stores.get(id);
        append64(code, 1); // new-slot marker
        appendRect(code, meta.shape);
        append64(code, std::uint64_t(meta.dtype));
    } else {
        append64(code, 0);
    }
    return it->second;
}

void
EpochEncoder::encode(const TraceEvent &ev, const StoreTable &stores,
                     std::vector<StoreId> *new_stores, std::string &code)
{
    code.clear();
    if (first_) {
        // The entry window size shapes every processing decision, and
        // the planning fingerprint scopes shared caches to epochs
        // captured under an identical configuration.
        append64(code, 0x57494E00u | std::uint64_t(windowSize_) << 32);
        append64(code, salt_);
        first_ = false;
    }
    append64(code, std::uint64_t(ev.kind));
    switch (ev.kind) {
      case TraceEventKind::Submit: {
        const IndexTask &t = ev.task;
        append64(code, t.type);
        appendRect(code, t.launchDomain);
        append64(code, t.args.size());
        for (const StoreArg &arg : t.args) {
            slotFor(arg.store, stores, code, new_stores);
            append64(code, arg.part.structuralHash());
            append64(code, std::uint64_t(arg.priv));
            append64(code, std::uint64_t(arg.redop));
        }
        // Scalar *positions* matter; values are rebound on replay.
        append64(code, t.scalars.size());
        break;
      }
      case TraceEventKind::Retain:
      case TraceEventKind::Release:
        slotFor(ev.store, stores, code, new_stores);
        break;
    }
}

bool
TraceCache::candidates(
    const std::string &first_code,
    std::vector<std::shared_ptr<TraceEpoch>> *out) const
{
    out->clear();
    return buckets_.find(first_code,
                         [&](const Bucket &list) { *out = list; });
}

bool
TraceCache::store(std::shared_ptr<TraceEpoch> epoch)
{
    diffuse_assert(!epoch->codes.empty(), "empty trace epoch");
    const std::string &first = epoch->codes.front();
    return buckets_.update(first, [&](Bucket *list, auto &&insert) {
        Bucket none;
        std::size_t variants = 0;
        std::shared_ptr<TraceEpoch> *coldest = nullptr;
        for (std::shared_ptr<TraceEpoch> &existing :
             list != nullptr ? *list : none) {
            if (existing->codes != epoch->codes)
                continue;
            // A true duplicate (codes AND signatures) is a refresh:
            // its non-signature validation data (liveness probes)
            // went stale. Sessions holding the old epoch
            // mid-speculation keep their shared_ptr alive and stay
            // correct (their own validation gates the replay).
            if (existing->slotSigs == epoch->slotSigs) {
                epoch->replays.store(
                    existing->replays.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
                existing = std::move(epoch);
                return true;
            }
            // Same codes, different state signatures: *distinct*
            // steady states of one stream (e.g. the first and the
            // settled repetition of a loop body). They coexist —
            // candidate narrowing picks by signature — but only up to
            // kTraceMaxVariants, lest a stream whose state drifts
            // every repetition swallow the whole cache.
            variants++;
            if (coldest == nullptr ||
                existing->replays.load(std::memory_order_relaxed) <
                    (*coldest)->replays.load(
                        std::memory_order_relaxed)) {
                coldest = &existing;
            }
        }
        if (variants >= kTraceMaxVariants) {
            *coldest = std::move(epoch);
            return true;
        }
        // Admission reserves its slot atomically: concurrent stores
        // into different shards cannot jointly overshoot the hard cap.
        // A refused epoch leaves no bucket behind, so its first code
        // stays absent and later epochs opening with it bypass capture.
        if (entries_.fetch_add(1, std::memory_order_relaxed) >=
            kTraceMaxEntries) {
            entries_.fetch_sub(1, std::memory_order_relaxed);
            return false;
        }
        if (list != nullptr)
            list->push_back(std::move(epoch));
        else
            insert(Bucket{std::move(epoch)});
        return true;
    });
}

} // namespace diffuse
