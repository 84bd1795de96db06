/**
 * @file
 * Trace file I/O: record a workload's reference stream to a compact
 * binary file and replay it later (or replay traces produced by an
 * external tool). This is the interchange point for users who want to
 * drive the simulator with their own traces instead of the synthetic
 * analogs.
 *
 * Format (little-endian):
 *   magic   u32  'TRIA' (0x41495254)
 *   version u32  (currently 1)
 *   count   u64  number of records
 *   records count x { pc u64, addr u64, dep u16, nonmem u8, flags u8 }
 * flags bit 0: is_write.
 */
#ifndef TRIAGE_WORKLOADS_TRACE_IO_HPP
#define TRIAGE_WORKLOADS_TRACE_IO_HPP

#include <memory>
#include <string>

#include "sim/trace.hpp"

namespace triage::workloads {

inline constexpr std::uint32_t TRACE_MAGIC = 0x41495254; // "TRIA"
inline constexpr std::uint32_t TRACE_VERSION = 1;

/** Header bytes preceding the record array (magic + version + count). */
inline constexpr std::size_t TRACE_HEADER_BYTES = 16;

/** flags bit 0: the reference is a store. */
inline constexpr std::uint8_t TRACE_FLAG_WRITE = 0x01;

/**
 * Every flags bit this reader understands. Records with any other bit
 * set are rejected: bits 1-7 are reserved for future format revisions,
 * and silently ignoring them would let a version-2 writer feed a
 * version-1 reader without anyone noticing the lost semantics.
 */
inline constexpr std::uint8_t TRACE_FLAG_MASK = TRACE_FLAG_WRITE;

/** On-disk record layout (packed, exactly 20 bytes, little-endian).
 *  Shared by save_trace here and the streaming frontend's decoder
 *  (src/frontend/decoder.cpp), the one .tria reader. */
#pragma pack(push, 1)
struct PackedTraceRecord {
    std::uint64_t pc;
    std::uint64_t addr;
    std::uint16_t dep;
    std::uint8_t nonmem;
    std::uint8_t flags;
};
#pragma pack(pop)
static_assert(sizeof(PackedTraceRecord) == 20, "packed record layout");

inline constexpr std::size_t TRACE_RECORD_BYTES =
    sizeof(PackedTraceRecord);

/**
 * Unpack one on-disk record. @return false when @p in carries unknown
 * flags bits (reserved-bit guard above); @p out is then unspecified.
 */
inline bool
unpack_trace_record(const PackedTraceRecord& in, sim::TraceRecord& out)
{
    if ((in.flags & ~TRACE_FLAG_MASK) != 0)
        return false;
    out.pc = in.pc;
    out.addr = in.addr;
    out.is_write = (in.flags & TRACE_FLAG_WRITE) != 0;
    out.nonmem_before = in.nonmem;
    out.dep_distance = in.dep;
    return true;
}

/**
 * Record up to @p max_records references of @p wl into @p path.
 * @return the number of records written (0 on I/O failure).
 */
std::uint64_t save_trace(const std::string& path, sim::Workload& wl,
                         std::uint64_t max_records);

/**
 * Load a .tria file as a replayable workload (whole file in memory):
 * the frontend's streamed .tria reader, drained into a VectorWorkload.
 * @return null on I/O or format error, or when fewer records decode
 *         than the header declares (a warning is printed).
 */
std::unique_ptr<sim::Workload> load_trace(const std::string& path);

} // namespace triage::workloads

#endif // TRIAGE_WORKLOADS_TRACE_IO_HPP
