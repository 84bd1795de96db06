#include "obs/event_trace.hpp"

#include <cstring>
#include <ostream>

#include "obs/json.hpp"
#include "util/log.hpp"

namespace triage::obs {

const char*
kind_name(EventKind k)
{
    switch (k) {
      case EventKind::PrefetchIssued: return "prefetch_issued";
      case EventKind::PrefetchDropped: return "prefetch_dropped";
      case EventKind::PrefetchRedundant: return "prefetch_redundant";
      case EventKind::PrefetchUseful: return "prefetch_useful";
      case EventKind::MetaInsert: return "meta_insert";
      case EventKind::MetaEvict: return "meta_evict";
      case EventKind::MetaHit: return "meta_hit";
      case EventKind::MetaResize: return "meta_resize";
      case EventKind::PartitionEpoch: return "partition_epoch";
      case EventKind::PartitionDecision: return "partition_decision";
      case EventKind::OptgenVerdict: return "optgen_verdict";
      case EventKind::NumKinds: break;
    }
    return "unknown";
}

void
EventTrace::enable(std::size_t capacity)
{
    TRIAGE_ASSERT(capacity > 0 && capacity <= MAX_CAPACITY);
    ring_.assign(capacity, TraceEvent{});
    head_ = 0;
    total_ = 0;
    enabled_ = true;
}

void
EventTrace::disable()
{
    enabled_ = false;
    ring_.clear();
    head_ = 0;
    total_ = 0;
}

std::size_t
EventTrace::size() const
{
    return total_ < ring_.size() ? static_cast<std::size_t>(total_)
                                 : ring_.size();
}

std::uint64_t
EventTrace::dropped() const
{
    return total_ < ring_.size() ? 0 : total_ - ring_.size();
}

const TraceEvent&
EventTrace::at(std::size_t i) const
{
    TRIAGE_ASSERT(i < size());
    if (total_ < ring_.size())
        return ring_[i];
    return ring_[(head_ + i) % ring_.size()];
}

void
EventTrace::clear()
{
    head_ = 0;
    total_ = 0;
}

void
EventTrace::write_jsonl(std::ostream& os) const
{
    json::Writer w(os);
    for (std::size_t i = 0; i < size(); ++i) {
        const TraceEvent& e = at(i);
        w.begin_object(false).field("cycle", e.cycle).field("core", e.core);
        w.field("kind", kind_name(e.kind)).field("a0", e.a0);
        w.field("a1", e.a1).end();
        os << '\n';
    }
}

void
EventTrace::write_binary(std::ostream& os) const
{
    // Header: magic, version, record size, count.
    static constexpr std::uint16_t VERSION = 1;
    static constexpr std::uint16_t RECORD_BYTES = 8 + 8 + 8 + 1 + 1;
    os.write("TRGT", 4);
    auto put16 = [&](std::uint16_t v) {
        char b[2] = {static_cast<char>(v & 0xff),
                     static_cast<char>(v >> 8)};
        os.write(b, 2);
    };
    auto put64 = [&](std::uint64_t v) {
        char b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
        os.write(b, 8);
    };
    put16(VERSION);
    put16(RECORD_BYTES);
    put64(size());
    for (std::size_t i = 0; i < size(); ++i) {
        const TraceEvent& e = at(i);
        put64(e.cycle);
        put64(e.a0);
        put64(e.a1);
        char tail[2] = {static_cast<char>(e.kind),
                        static_cast<char>(e.core)};
        os.write(tail, 2);
    }
}

} // namespace triage::obs
