#include "frontend/stream_workload.hpp"

#include "util/log.hpp"

namespace triage::frontend {

namespace {

/** Display name: basename with compression + format suffixes shorn. */
std::string
display_name(const std::string& path)
{
    std::size_t slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    for (const char* suf : {".gz", ".xz"}) {
        std::size_t n = std::string(suf).size();
        if (base.size() > n && base.compare(base.size() - n, n, suf) == 0)
            base.resize(base.size() - n);
    }
    for (const char* suf : {".tria", ".tri", ".champsimtrace",
                            ".champsim", ".memtrace", ".mtr"}) {
        std::size_t n = std::string(suf).size();
        if (base.size() > n &&
            base.compare(base.size() - n, n, suf) == 0) {
            base.resize(base.size() - n);
            break;
        }
    }
    return base.empty() ? path : base;
}

} // namespace

StreamWorkload::StreamWorkload(std::string path, TraceFormat format,
                               std::unique_ptr<ByteSource> src,
                               std::unique_ptr<TraceDecoder> dec)
    : path_(std::move(path)), name_(display_name(path_)),
      format_(format), src_(std::move(src)), dec_(std::move(dec))
{
}

std::unique_ptr<StreamWorkload>
StreamWorkload::open(const std::string& path, TraceFormat format)
{
    TRIAGE_ASSERT(format != TraceFormat::Auto,
                  "resolve TraceFormat::Auto before open()");
    auto src = open_byte_source(path);
    if (src == nullptr)
        return nullptr;
    auto dec = make_decoder(format);
    if (!dec->begin(*src))
        return nullptr;
    return std::unique_ptr<StreamWorkload>(new StreamWorkload(
        path, format, std::move(src), std::move(dec)));
}

void
StreamWorkload::reset()
{
    // Nothing read since open or the last reset: the decoder already
    // stands at the first record.
    if (!read_any_)
        return;
    read_any_ = false;
    at_end_ = false;
    // The byte source was validated at open; losing it mid-run (file
    // deleted, pipe tool gone) cannot be papered over — an empty
    // restart would silently change the simulated stream.
    if (!src_->reopen())
        util::fatal("StreamWorkload: cannot reopen " + path_);
    dec_ = make_decoder(format_);
    if (!dec_->begin(*src_))
        util::fatal("StreamWorkload: " + path_ +
                    " changed mid-run (header re-validation failed)");
}

bool
StreamWorkload::next(sim::TraceRecord& out)
{
    read_any_ = true;
    // A failed stream does not resume: once the decoder stops, so do we.
    if (at_end_ || !dec_->next(*src_, out)) {
        at_end_ = true;
        return false;
    }
    out.addr += addr_offset_;
    out.pc += pc_offset_;
    return true;
}

std::uint64_t
StreamWorkload::skip(std::uint64_t n)
{
    read_any_ = true;
    if (at_end_ || n == 0)
        return 0;
    // The decoder may seek instead of decode (raw .tria): checkpoint
    // restore of a deep stream position becomes one lseek instead of a
    // re-decode of the prefix.
    std::uint64_t done = 0;
    if (!dec_->fast_skip(*src_, n, done)) {
        sim::TraceRecord r;
        while (done < n && dec_->next(*src_, r))
            ++done;
    }
    if (done < n)
        at_end_ = true;
    return done;
}

std::unique_ptr<sim::Workload>
StreamWorkload::clone() const
{
    auto copy = open(path_, format_);
    if (copy == nullptr)
        util::fatal("StreamWorkload: cannot clone " + path_);
    copy->set_instance(instance_);
    return copy;
}

void
StreamWorkload::set_instance(unsigned instance_id)
{
    TRIAGE_ASSERT(!read_any_, "set_instance before the first read");
    instance_ = instance_id;
    addr_offset_ = static_cast<sim::Addr>(instance_id) << 44;
    pc_offset_ = static_cast<sim::Pc>(instance_id) << 48;
}

std::uint64_t
StreamWorkload::declared_records() const
{
    return dec_->total_records();
}

} // namespace triage::frontend
