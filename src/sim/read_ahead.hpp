/**
 * @file
 * ReadAheadWorkload: produce a workload's records on a helper thread,
 * so trace decode and synthetic generation overlap the simulation.
 *
 * A producer thread calls the inner workload's next() and fills a
 * fixed ring of record chunks; the simulating thread's next() reads
 * the current chunk and synchronizes only when it moves to the next
 * one (docs/performance.md §10). The sequence it yields is exactly the
 * inner workload's, so every simulated statistic is unchanged.
 * exec::run_job wraps every workload a job binds; code that drives a
 * system directly keeps the synchronous path.
 */
#ifndef TRIAGE_SIM_READ_AHEAD_HPP
#define TRIAGE_SIM_READ_AHEAD_HPP

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "sim/trace.hpp"

namespace triage::sim {

/**
 * Workload decorator that reads its inner workload ahead on a
 * producer thread.
 *
 * Only one thread touches the inner workload at a time: the producer
 * while it runs, the caller otherwise. The producer starts at the
 * first next() after construction or reset(); reset(), skip() and the
 * destructor stop it first. reset() drops the read-ahead and rewinds
 * the inner workload on the same thread, so a short workload that
 * wraps thousands of times still uses one producer. A skip() before
 * any next() since the last reset() reaches the inner skip(), which
 * keeps StreamWorkload's seek for checkpoint restore.
 *
 * The ring is allocated at construction, on the binding thread; the
 * producer never allocates. When the profiler is armed, the
 * destructor adds the readahead.* counters (docs/observability.md
 * §10).
 */
class ReadAheadWorkload final : public Workload
{
  public:
    /** Chunks in the ring: the consumer reads one, the producer fills
     *  up to kSlots - 1 ahead of it. */
    static constexpr std::size_t kSlots = 4;
    /** Records per chunk: one synchronization per chunk on each side. */
    static constexpr std::size_t kChunkRecords = 4096;

    explicit ReadAheadWorkload(std::unique_ptr<Workload> inner);
    ~ReadAheadWorkload() override;

    ReadAheadWorkload(const ReadAheadWorkload&) = delete;
    ReadAheadWorkload& operator=(const ReadAheadWorkload&) = delete;

    void reset() override;

    bool
    next(TraceRecord& out) override
    {
        if (pos_ != end_) [[likely]] {
            out = *pos_++;
            return true;
        }
        return next_chunk(out);
    }

    std::uint64_t skip(std::uint64_t n) override;
    const std::string& name() const override { return name_; }
    /** A decorated, rewound clone of the inner workload. */
    std::unique_ptr<Workload> clone() const override;

    /** Records the producer has read from the inner workload. */
    std::uint64_t records() const;
    /** Records read ahead and dropped by reset() or destruction. */
    std::uint64_t discarded() const { return discarded_; }

  private:
    void produce();
    bool next_chunk(TraceRecord& out);
    /** next() at the end of the trace: false, or the producer's error. */
    bool at_end() const;
    /** Stop the producer and drop the read-ahead. */
    void stop();

    std::unique_ptr<Workload> inner_;
    const std::string name_;
    const std::unique_ptr<TraceRecord[]> ring_; ///< kSlots chunks

    // Consumer side: the chunk being read. Only the calling thread
    // touches these.
    const TraceRecord* pos_ = nullptr;
    const TraceRecord* end_ = nullptr;
    bool holding_ = false; ///< the consumer owns slot head_
    std::uint64_t wait_ns_ = 0; ///< next() blocked on an empty ring
    std::uint64_t discarded_ = 0;

    mutable std::mutex mu_;
    /** The consumer waits here for a filled chunk or an idle producer. */
    mutable std::condition_variable consumer_cv_;
    /** The producer waits here for a free slot or a stop. */
    std::condition_variable producer_cv_;

    // Guarded by mu_.
    /** Records in each filled slot. A short chunk is the last one: the
     *  inner workload ended (or threw) after it. */
    std::size_t counts_[kSlots] = {};
    std::size_t head_ = 0;   ///< oldest filled slot
    std::size_t filled_ = 0; ///< filled slots, the held one included
    bool run_ = false;  ///< next() ran since the last reset(): produce
    bool busy_ = false; ///< the producer is filling a slot, unlocked
    bool ended_ = false; ///< the producer saw the end of the trace
    bool quit_ = false;
    std::uint64_t produced_ = 0;
    /** What the inner next() threw; next() rethrows it in its place. */
    std::exception_ptr error_;

    std::thread producer_; ///< last: it uses every member above
};

} // namespace triage::sim

#endif // TRIAGE_SIM_READ_AHEAD_HPP
