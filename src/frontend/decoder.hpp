/**
 * @file
 * Trace-format decoders: turn a ByteSource into sim::TraceRecords.
 *
 * Three external formats are understood (docs/traces.md):
 *
 *  - **tria** — the repo's native format (workloads/trace_io.hpp): a
 *    16-byte header (magic, version, record count) followed by packed
 *    20-byte records. The header count is validated against the file
 *    size whenever the byte layer knows it.
 *  - **champsim** — ChampSim's 64-byte `input_instr` records: one
 *    instruction each, with up to 4 source and 2 destination memory
 *    operands. Memory operands map to TraceRecords (loads then
 *    stores, in operand order); instructions without memory operands
 *    (including branches) accumulate into the next record's
 *    `nonmem_before` pacing count, saturating at 255.
 *  - **memtrace** — a minimal Scarab-style memory trace: packed
 *    24-byte records `{ pc u64, vaddr u64, size u32, flags u8,
 *    nonmem u8, reserved u16 }`, little-endian, no header. flags bit
 *    0 is "store"; reserved must be zero (forward-compat guard).
 *
 * Decoders are forward-only state machines; the StreamWorkload
 * re-creates them on reset(). A decode error (truncated record,
 * unknown flags, trailing garbage) warns once and ends the stream —
 * it never fabricates records.
 */
#ifndef TRIAGE_FRONTEND_DECODER_HPP
#define TRIAGE_FRONTEND_DECODER_HPP

#include <memory>
#include <string>

#include "frontend/byte_source.hpp"
#include "sim/trace.hpp"

namespace triage::frontend {

enum class TraceFormat : std::uint8_t {
    Auto = 0, ///< detect from the file extension
    Tria = 1,
    ChampSim = 2,
    Memtrace = 3,
};

/** Canonical lower-case name ("tria", "champsim", "memtrace"). */
const char* format_name(TraceFormat f);

/** Parse a format name; false on an unknown string. */
bool parse_format(const std::string& s, TraceFormat& out);

/**
 * Resolve TraceFormat::Auto from @p path's extension (after stripping
 * a trailing .gz/.xz): .tria/.tri, .champsim/.champsimtrace, and
 * .memtrace/.mtr. @return false when the extension names no known
 * format.
 */
bool detect_format(const std::string& path, TraceFormat& out);

/** One trace format's record reader. */
class TraceDecoder
{
  public:
    virtual ~TraceDecoder() = default;

    /**
     * Parse and validate the stream header (a no-op for headerless
     * formats). @return false (with a warning) on a malformed header.
     */
    virtual bool begin(ByteSource& src) = 0;

    /**
     * Decode the next record. @return false at end-of-stream or on a
     * decode error (a warning names the error; failed streams do not
     * resume).
     */
    virtual bool next(ByteSource& src, sim::TraceRecord& out) = 0;

    /**
     * Advance up to @p n records without decoding them, when the
     * format + byte source allow random access (raw .tria files).
     * @return true with @p skipped set (may be < n at end-of-trace);
     *         false, with @p skipped untouched, when unsupported —
     *         caller falls back to next().
     */
    virtual bool
    fast_skip(ByteSource& src, std::uint64_t n, std::uint64_t& skipped)
    {
        (void)src;
        (void)n;
        (void)skipped;
        return false;
    }

    /** Total records when the header declares it (tria), else 0. */
    virtual std::uint64_t total_records() const { return 0; }
};

/** Build a fresh decoder for @p format (not Auto — resolve it first). */
std::unique_ptr<TraceDecoder> make_decoder(TraceFormat format);

} // namespace triage::frontend

#endif // TRIAGE_FRONTEND_DECODER_HPP
