/**
 * @file
 * Fundamental identifiers and enumerations shared across Diffuse layers.
 */

#ifndef DIFFUSE_COMMON_TYPES_H
#define DIFFUSE_COMMON_TYPES_H

#include <cstdint>
#include <string>

namespace diffuse {

/** Unique identifier of a store (distributed array). */
using StoreId = std::uint64_t;

/** Identifier of a registered task type (kernel generator). */
using TaskTypeId = std::uint32_t;

/** Identifier of a registered projection function. */
using ProjectionId = std::uint32_t;

/** Identifier of a registered image partition (runtime-level extension). */
using ImageId = std::uint64_t;

/** Invalid sentinel for store ids. */
constexpr StoreId INVALID_STORE = ~StoreId(0);

/** Element types supported by stores. */
enum class DType : std::uint8_t { F64, I32, I64 };

/** Size in bytes of a DType element. */
inline std::size_t
dtypeSize(DType t)
{
    switch (t) {
      case DType::F64:
        return 8;
      case DType::I32:
        return 4;
      case DType::I64:
        return 8;
    }
    return 8;
}

/**
 * Privileges with which a task accesses a store (paper Fig 2a).
 */
enum class Privilege : std::uint8_t {
    Read,      ///< R — read only
    Write,     ///< W — write only
    Reduce,    ///< Rd — reduction with an associative+commutative op
    ReadWrite, ///< RW — both read and write
};

/** True when the privilege implies reading. */
inline bool
privReads(Privilege p)
{
    return p == Privilege::Read || p == Privilege::ReadWrite;
}

/** True when the privilege implies writing. */
inline bool
privWrites(Privilege p)
{
    return p == Privilege::Write || p == Privilege::ReadWrite;
}

/** True when the privilege is a reduction. */
inline bool
privReduces(Privilege p)
{
    return p == Privilege::Reduce;
}

/** Reduction operators supported for the Reduce privilege. */
enum class ReductionOp : std::uint8_t { Sum, Max, Min };

inline const char *
reductionOpName(ReductionOp op)
{
    switch (op) {
      case ReductionOp::Sum:
        return "sum";
      case ReductionOp::Max:
        return "max";
      case ReductionOp::Min:
        return "min";
    }
    return "?";
}

/** Identity element of a reduction operator. */
double reductionIdentity(ReductionOp op);

/** Combine two values with a reduction operator. */
inline double
applyReduction(ReductionOp op, double acc, double v)
{
    switch (op) {
      case ReductionOp::Sum:
        return acc + v;
      case ReductionOp::Max:
        return acc > v ? acc : v;
      case ReductionOp::Min:
        return acc < v ? acc : v;
    }
    return acc;
}

} // namespace diffuse

#endif // DIFFUSE_COMMON_TYPES_H
