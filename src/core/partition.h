/**
 * @file
 * First-class structured partitions — the data-model half of Diffuse's
 * scale-free IR (paper §3.1, Fig 2-3).
 *
 * A partition maps points of a launch domain to sub-stores. Two kinds
 * from the paper are implemented plus one extension kind:
 *
 *  - None: replication; every point maps to the whole store.
 *  - Tiling{tile, offset, extent, projection}: affine tiling of the
 *    region [offset, offset+extent) of the store. The sub-store of
 *    point p is [proj(p)*tile, (proj(p)+1)*tile) + offset, clamped to
 *    the viewed region. Projection functions let launch-domain points
 *    of one dimensionality index tiles of another (paper Fig 3d).
 *  - Image: a partition whose pieces are computed from store contents
 *    (Legate Sparse's CSR ranges). The IR carries only an opaque id;
 *    the scale-aware pieces live in the context's image table
 *    (core/context.h), which interns them by content: equal ids mean
 *    equal pieces, so comparing and hashing the id compares and
 *    hashes the pieces, and a rebuilt operator keys like the one it
 *    replaces. This is one of the "more partition kinds with no
 *    additional technical insights" the paper's implementation
 *    supports.
 *
 * The critical property (paper §4.2.1): two partitions can be compared
 * for (in)equality in constant time, by structure alone, without
 * enumerating sub-stores.
 */

#ifndef DIFFUSE_CORE_PARTITION_H
#define DIFFUSE_CORE_PARTITION_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "common/types.h"

namespace diffuse {

/** Built-in projection functions. */
enum ProjectionFns : ProjectionId {
    /** proj(p) = p. */
    PROJ_IDENTITY = 0,
    /** proj(p) = (p[0], 0): 1-D launch points select 2-D row blocks. */
    PROJ_ROWS_2D = 1,
    /** proj(p) = (0, p[0]): 1-D launch points select 2-D col blocks. */
    PROJ_COLS_2D = 2,
    /** proj(p) = (p[0]): collapse a 2-D launch point to its row. */
    PROJ_DROP_COL = 3,
};

/** Apply a built-in projection function. */
Point applyProjection(ProjectionId id, const Point &p);

/** A structured partition description. Plain value type. */
struct PartitionDesc
{
    enum class Kind : std::uint8_t { None, Tiling, Image };

    Kind kind = Kind::None;

    // Tiling fields.
    Point tile;     ///< tile shape
    Point offset;   ///< origin of the viewed region within the store
    Point extent;   ///< extent of the viewed region
    ProjectionId proj = PROJ_IDENTITY;

    // Image fields.
    ImageId image = 0;

    /** Replication of the whole store. */
    static PartitionDesc
    none()
    {
        return PartitionDesc{};
    }

    /** Tiling of the full region [0, extent) with identity offsets. */
    static PartitionDesc
    tiling(const Point &tile_shape, const Point &offset,
           const Point &extent, ProjectionId proj = PROJ_IDENTITY)
    {
        PartitionDesc d;
        d.kind = Kind::Tiling;
        d.tile = tile_shape;
        d.offset = offset;
        d.extent = extent;
        d.proj = proj;
        return d;
    }

    static PartitionDesc
    imagePartition(ImageId id)
    {
        PartitionDesc d;
        d.kind = Kind::Image;
        d.image = id;
        return d;
    }

    /**
     * Constant-time structural equality — the foundation of the
     * scale-free alias analysis (paper §4.2.1).
     */
    bool
    operator==(const PartitionDesc &o) const
    {
        if (kind != o.kind)
            return false;
        switch (kind) {
          case Kind::None:
            return true;
          case Kind::Tiling:
            return tile == o.tile && offset == o.offset &&
                   extent == o.extent && proj == o.proj;
          case Kind::Image:
            return image == o.image;
        }
        return false;
    }

    bool operator!=(const PartitionDesc &o) const { return !(*this == o); }

    /**
     * Sub-store bounds for launch point p (paper Fig 3e), clamped to
     * the viewed region and the store bounds. Only meaningful for
     * None and Tiling kinds; Image pieces live in the image table.
     */
    Rect boundsFor(const Point &p, const Rect &store_shape) const;

    /**
     * True when distinct launch points of `domain` map to disjoint
     * sub-stores. This is what makes same-partition accesses
     * point-wise (the paper's true-dependence constraint permits
     * "operating on the same partition" precisely because its
     * benchmarks write through disjoint partitions): replication and
     * aliasing projections are *not* disjoint, so a write through
     * them may not fuse with a later access even via the identical
     * partition. Conservative for Image partitions.
     */
    bool pointwiseDisjoint(const Rect &domain) const;

    /**
     * Key identifying per-point piece *extents* (not positions): args
     * whose keys match have identically-shaped sub-stores at every
     * launch point, so their kernel buffers may share loop nests.
     */
    std::uint64_t shapeClassKey(const Rect &store_shape) const;

    /** Hash of the full structure (layout identity ingredient). */
    std::uint64_t structuralHash() const;

    std::string toString() const;
};

/**
 * Layout key: identifies (partition, launch domain) pairs so the
 * low-level runtime can detect same-view accesses in O(1).
 */
std::uint64_t layoutKeyFor(const PartitionDesc &part,
                           const Rect &launch_domain);

} // namespace diffuse

#endif // DIFFUSE_CORE_PARTITION_H
