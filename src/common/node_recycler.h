/**
 * @file
 * Recycled nodes for node-based standard maps.
 *
 * A map whose entries churn at a steady rate — per-task records,
 * per-store state, per-epoch slot tables — otherwise pays one
 * allocation per insert and one free per erase, plus whatever the
 * value's own members allocate. NodeRecycler keeps erased nodes, value
 * included, and reinserts them under new keys: the value's members
 * keep their capacity, so a steady churn stops reaching the allocator.
 */

#ifndef DIFFUSE_COMMON_NODE_RECYCLER_H
#define DIFFUSE_COMMON_NODE_RECYCLER_H

#include <cstddef>
#include <utility>
#include <vector>

namespace diffuse {

/** Spare nodes of a std::map / std::unordered_map type `Map`. */
template <typename Map>
class NodeRecycler
{
  public:
    /** Keep at most `max_spare` nodes; beyond that, erased ones free. */
    explicit NodeRecycler(std::size_t max_spare) : max_(max_spare) {}

    /**
     * Insert `key`, which must be absent from `map`. The value comes
     * from a spare node when there is one — its contents are then
     * whatever they were at erasure, for the caller to reset — and is
     * default-constructed otherwise.
     */
    typename Map::iterator
    insert(Map &map, const typename Map::key_type &key)
    {
        if (spare_.empty())
            return map.try_emplace(key).first;
        typename Map::node_type node = std::move(spare_.back());
        spare_.pop_back();
        node.key() = key;
        return map.insert(std::move(node)).position;
    }

    /** Keep a node already extracted from its map. */
    void
    keep(typename Map::node_type node)
    {
        if (spare_.size() < max_)
            spare_.push_back(std::move(node));
    }

    /** Erase `it` from `map`, keeping its node. */
    void
    erase(Map &map, typename Map::iterator it)
    {
        keep(map.extract(it));
    }

  private:
    std::vector<typename Map::node_type> spare_;
    std::size_t max_;
};

} // namespace diffuse

#endif // DIFFUSE_COMMON_NODE_RECYCLER_H
