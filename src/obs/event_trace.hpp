/**
 * @file
 * Structured, ring-buffered event trace.
 *
 * Components that can emit events hold a raw `EventTrace*` that is null
 * by default; every emission site is guarded by a single pointer/flag
 * test, so a build with tracing disabled pays one predictable branch —
 * nothing is formatted, allocated or stored.
 *
 * Timestamp/core context is set once per simulation step by whoever
 * knows them (the memory system on each access, Triage on each train
 * event), so deep components (metadata store, partition controller)
 * can emit correctly-attributed events without widening their call
 * signatures.
 *
 * The buffer is a fixed-capacity ring: when full, the oldest events are
 * overwritten and counted as dropped. Sinks: JSONL (one event object
 * per line) and a compact binary format (16-byte header + packed
 * 26-byte records).
 */
#ifndef TRIAGE_OBS_EVENT_TRACE_HPP
#define TRIAGE_OBS_EVENT_TRACE_HPP

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace triage::obs {

/** Event vocabulary. Keep in sync with kind_name(). */
enum class EventKind : std::uint8_t {
    PrefetchIssued,    ///< a0 = block, a1 = 0:dram 1:llc-fill
    PrefetchDropped,   ///< a0 = block (bandwidth / MSHR drop)
    PrefetchRedundant, ///< a0 = block (already resident)
    PrefetchUseful,    ///< a0 = block, a1 = 1 when the fill was late
    MetaInsert,        ///< a0 = trigger, a1 = successor
    MetaEvict,         ///< a0 = set, a1 = way
    MetaHit,           ///< a0 = trigger, a1 = predicted successor
    MetaResize,        ///< a0 = new bytes, a1 = old bytes
    PartitionEpoch,    ///< a0 = level after the epoch, a1 = store bytes
    PartitionDecision, ///< a0 = new level, a1 = previous level
    OptgenVerdict,     ///< a0 = verdict level, a1 = hit rate in ppm
    NumKinds
};

/** Stable lowercase name for a kind ("prefetch_issued", ...). */
const char* kind_name(EventKind k);

/** One trace record. */
struct TraceEvent {
    std::uint64_t cycle = 0;
    std::uint64_t a0 = 0;
    std::uint64_t a1 = 0;
    EventKind kind = EventKind::PrefetchIssued;
    std::uint8_t core = 0;
};

/** The ring buffer. */
class EventTrace
{
  public:
    /** Enable with room for @p capacity events. */
    void enable(std::size_t capacity = DEFAULT_CAPACITY);
    void disable();
    bool enabled() const { return enabled_; }

    /** Stamp subsequent emissions with @p cycle / @p core. */
    void
    set_context(std::uint64_t cycle, unsigned core)
    {
        now_ = cycle;
        core_ = static_cast<std::uint8_t>(core);
    }

    void
    emit(EventKind kind, std::uint64_t a0 = 0, std::uint64_t a1 = 0)
    {
        if (!enabled_)
            return;
        TraceEvent& e = ring_[head_];
        e.cycle = now_;
        e.a0 = a0;
        e.a1 = a1;
        e.kind = kind;
        e.core = core_;
        head_ = (head_ + 1) % ring_.size();
        ++total_;
    }

    /** Events currently held (<= capacity). */
    std::size_t size() const;
    /** Events emitted over the trace's lifetime. */
    std::uint64_t total() const { return total_; }
    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const;

    /** @p i in [0, size()): oldest-first access. */
    const TraceEvent& at(std::size_t i) const;

    /** Drop buffered events (stays enabled). */
    void clear();

    /** One JSON object per line:
     *  {"cycle":N,"core":N,"kind":"...","a0":N,"a1":N} */
    void write_jsonl(std::ostream& os) const;

    /**
     * Compact binary: magic "TRGT", u16 version, u16 record size, u64
     * record count, then packed little-endian records (cycle, a0, a1,
     * kind, core).
     */
    void write_binary(std::ostream& os) const;

    static constexpr std::size_t DEFAULT_CAPACITY = 1u << 20;
    /** Largest ring enable() takes: 64 Mi events, 2 GiB at 32 B each. */
    static constexpr std::size_t MAX_CAPACITY = std::size_t{1} << 26;

  private:
    bool enabled_ = false;
    std::uint64_t now_ = 0;
    std::uint8_t core_ = 0;
    std::size_t head_ = 0;
    std::uint64_t total_ = 0;
    std::vector<TraceEvent> ring_;
};

} // namespace triage::obs

#endif // TRIAGE_OBS_EVENT_TRACE_HPP
