#include "workloads/trace_io.hpp"

#include <cstdio>
#include <vector>

#include "frontend/stream_workload.hpp"
#include "util/log.hpp"

namespace triage::workloads {

namespace {

struct FileCloser {
    void
    operator()(std::FILE* f) const
    {
        if (f != nullptr)
            std::fclose(f);
    }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

/**
 * Records buffered between fwrite calls. An explicit constant rather
 * than vector capacity: capacity after reserve() is only a lower
 * bound, so flushing on size()==capacity() would tie the on-disk write
 * pattern to the allocator. The round-trip test straddles this
 * boundary.
 */
constexpr std::size_t kFlushRecords = 4096;

} // namespace

std::uint64_t
save_trace(const std::string& path, sim::Workload& wl,
           std::uint64_t max_records)
{
    File f(std::fopen(path.c_str(), "wb"));
    if (!f) {
        util::warn("save_trace: cannot open " + path);
        return 0;
    }
    std::uint32_t magic = TRACE_MAGIC;
    std::uint32_t version = TRACE_VERSION;
    std::uint64_t count = 0;
    if (std::fwrite(&magic, sizeof(magic), 1, f.get()) != 1 ||
        std::fwrite(&version, sizeof(version), 1, f.get()) != 1 ||
        std::fwrite(&count, sizeof(count), 1, f.get()) != 1) {
        util::warn("save_trace: header write failed for " + path);
        return 0;
    }
    sim::TraceRecord r;
    std::vector<PackedTraceRecord> buf;
    buf.reserve(kFlushRecords);
    while (count < max_records && wl.next(r)) {
        buf.push_back({r.pc, r.addr, r.dep_distance, r.nonmem_before,
                       static_cast<std::uint8_t>(
                           r.is_write ? TRACE_FLAG_WRITE : 0)});
        ++count;
        if (buf.size() == kFlushRecords) {
            if (std::fwrite(buf.data(), sizeof(PackedTraceRecord),
                            buf.size(), f.get()) != buf.size()) {
                util::warn(util::format_msg(
                    "save_trace: short write after ", count,
                    " records to ", path));
                return 0;
            }
            buf.clear();
        }
    }
    if (!buf.empty() &&
        std::fwrite(buf.data(), sizeof(PackedTraceRecord), buf.size(),
                    f.get()) != buf.size()) {
        util::warn(util::format_msg("save_trace: short write after ",
                                    count, " records to ", path));
        return 0;
    }
    // Patch the record count in the header.
    if (std::fseek(f.get(), sizeof(magic) + sizeof(version), SEEK_SET) !=
            0 ||
        std::fwrite(&count, sizeof(count), 1, f.get()) != 1) {
        util::warn("save_trace: header count patch failed for " + path);
        return 0;
    }
    // The stdio buffer still holds the tail of the trace; an ENOSPC
    // (or any other error) surfacing only at the destructor's fclose
    // would be swallowed there and let a torn file report success.
    // Flush and check the stream NOW, before declaring victory.
    if (std::fflush(f.get()) != 0 || std::ferror(f.get()) != 0) {
        util::warn("save_trace: flush failed for " + path +
                   " (disk full?) — the file is incomplete");
        return 0;
    }
    return count;
}

std::unique_ptr<sim::Workload>
load_trace(const std::string& path)
{
    // The frontend's .tria decoder does all the validation (header,
    // count against file size, flag bits); this just drains it. The
    // format is explicit because callers use .tri and .bin names too.
    // No reserve() from the header count: a compressed source has no
    // size to check that count against before the drain.
    auto stream =
        frontend::StreamWorkload::open(path, frontend::TraceFormat::Tria);
    if (stream == nullptr)
        return nullptr;
    std::vector<sim::TraceRecord> records;
    sim::TraceRecord r;
    while (stream->next(r))
        records.push_back(r);
    if (records.size() != stream->declared_records()) {
        util::warn(util::format_msg("load_trace: read ", records.size(),
                                    " of ", stream->declared_records(),
                                    " records from ", path));
        return nullptr;
    }
    return std::make_unique<sim::VectorWorkload>(path,
                                                 std::move(records));
}

} // namespace triage::workloads
