/**
 * @file
 * Fundamental types shared across the simulator: addresses, cycles,
 * cache-block geometry.
 */
#ifndef TRIAGE_SIM_TYPES_HPP
#define TRIAGE_SIM_TYPES_HPP

#include <cstdint>

namespace triage::sim {

/** Byte address (we model a flat physical address space). */
using Addr = std::uint64_t;

/** Program counter of a load/store instruction. */
using Pc = std::uint64_t;

/** Simulation time in core clock cycles. */
using Cycle = std::uint64_t;

/** Cache block geometry: 64-byte lines throughout (Table 1). */
inline constexpr unsigned BLOCK_SHIFT = 6;
inline constexpr std::uint64_t BLOCK_SIZE = 1ULL << BLOCK_SHIFT;

/** Convert a byte address to a block (line) address. */
constexpr Addr
block_of(Addr byte_addr)
{
    return byte_addr >> BLOCK_SHIFT;
}

/** First byte of a block. */
constexpr Addr
block_base(Addr block)
{
    return block << BLOCK_SHIFT;
}

/**
 * Default bound, in cycles, on how far one core may run ahead of the
 * others in a multi-core run: cores interleave serially, each advancing
 * to the next multiple of the quantum in turn (sim/multicore.hpp).
 */
inline constexpr Cycle DEFAULT_QUANTUM = 1000;

/** Kinds of memory traffic tracked by the DRAM model. */
enum class TrafficClass : std::uint8_t {
    DemandRead,    ///< demand load/store fill
    PrefetchRead,  ///< prefetch fill
    Writeback,     ///< dirty eviction
    MetadataRead,  ///< off-chip prefetcher metadata read (MISB/STMS/Domino)
    MetadataWrite, ///< off-chip prefetcher metadata update
    NumClasses
};

inline constexpr unsigned NUM_TRAFFIC_CLASSES =
    static_cast<unsigned>(TrafficClass::NumClasses);

} // namespace triage::sim

#endif // TRIAGE_SIM_TYPES_HPP
