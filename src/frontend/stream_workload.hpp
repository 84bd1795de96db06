/**
 * @file
 * StreamWorkload: replay an on-disk trace through the sim::Workload
 * interface with bounded memory.
 *
 * next() decodes one record at a time straight from the decoder, so a
 * multi-million-record trace costs the same resident memory as a toy
 * one: the byte layer's decompression window. exec::run_job buffers
 * the stream in sim::ReadAheadWorkload's ring, the one record buffer
 * above the decoder. reset() re-opens the byte source and a fresh
 * decoder (and returns at once when nothing was read since the open or
 * the last reset), which is what makes the workload restartable
 * (multi-programmed mixes wrap early finishers) and
 * checkpoint-resumable — CoreModel restores a workload cursor by
 * deterministic replay from reset(), and skip() turns that replay
 * into a seek on raw .tria files.
 */
#ifndef TRIAGE_FRONTEND_STREAM_WORKLOAD_HPP
#define TRIAGE_FRONTEND_STREAM_WORKLOAD_HPP

#include <memory>
#include <string>

#include "frontend/byte_source.hpp"
#include "frontend/decoder.hpp"
#include "sim/trace.hpp"

namespace triage::frontend {

class StreamWorkload final : public sim::Workload
{
  public:
    /**
     * Open @p path as a streamed workload. @p format must be concrete
     * (resolve Auto via detect_format first — see frontend.hpp's
     * open_trace, the usual entry point).
     * @return null (with a warning) on open or header-validation
     *         failure.
     */
    static std::unique_ptr<StreamWorkload> open(const std::string& path,
                                                TraceFormat format);

    void reset() override;
    bool next(sim::TraceRecord& out) override;
    std::uint64_t skip(std::uint64_t n) override;
    const std::string& name() const override { return name_; }
    std::unique_ptr<sim::Workload> clone() const override;

    /**
     * Shift emitted addresses/PCs by per-instance constants, exactly
     * like SyntheticWorkload::set_instance: co-scheduled replays of
     * one trace get disjoint address spaces, as distinct processes
     * would have.
     */
    void set_instance(unsigned instance_id);

    const std::string& path() const { return path_; }
    TraceFormat format() const { return format_; }

    /** Records the trace header declares (0 when the format has no
     *  header, e.g. champsim/memtrace). */
    std::uint64_t declared_records() const;

  private:
    StreamWorkload(std::string path, TraceFormat format,
                   std::unique_ptr<ByteSource> src,
                   std::unique_ptr<TraceDecoder> dec);

    std::string path_;
    std::string name_;
    TraceFormat format_;
    std::unique_ptr<ByteSource> src_;
    std::unique_ptr<TraceDecoder> dec_;

    /** next() or skip() ran since open/reset: set_instance's guard,
     *  and what makes reset() reopen the source. */
    bool read_any_ = false;
    bool at_end_ = false;

    unsigned instance_ = 0;
    sim::Addr addr_offset_ = 0;
    sim::Pc pc_offset_ = 0;
};

} // namespace triage::frontend

#endif // TRIAGE_FRONTEND_STREAM_WORKLOAD_HPP
