#include "sim/read_ahead.hpp"

#include <chrono>

#include "obs/profile.hpp"

namespace triage::sim {

namespace {

std::uint64_t
now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

ReadAheadWorkload::ReadAheadWorkload(std::unique_ptr<Workload> inner)
    : inner_(std::move(inner)), name_(inner_->name()),
      ring_(std::make_unique<TraceRecord[]>(kSlots * kChunkRecords))
{}

ReadAheadWorkload::~ReadAheadWorkload()
{
    stop();
    {
        std::lock_guard<std::mutex> lk(mu_);
        quit_ = true;
    }
    producer_cv_.notify_one();
    if (producer_.joinable())
        producer_.join();
    if (obs::prof::Profiler::armed()) {
        auto& prof = obs::prof::Profiler::instance();
        prof.add_counter("readahead.wait_ns", static_cast<double>(wait_ns_));
        prof.add_counter("readahead.records",
                         static_cast<double>(produced_));
        prof.add_counter("readahead.discarded",
                         static_cast<double>(discarded_));
    }
}

void
ReadAheadWorkload::produce()
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        producer_cv_.wait(lk, [this] {
            return quit_ || (run_ && !ended_ && filled_ < kSlots);
        });
        if (quit_)
            return;
        const std::size_t slot = (head_ + filled_) % kSlots;
        busy_ = true;
        lk.unlock();
        TraceRecord* chunk = &ring_[slot * kChunkRecords];
        std::size_t n = 0;
        std::exception_ptr error;
        try {
            while (n < kChunkRecords && inner_->next(chunk[n]))
                ++n;
        } catch (...) {
            error = std::current_exception();
        }
        lk.lock();
        busy_ = false;
        error_ = error;
        ended_ = n < kChunkRecords;
        counts_[slot] = n;
        produced_ += n;
        ++filled_;
        consumer_cv_.notify_one();
    }
}

bool
ReadAheadWorkload::next_chunk(TraceRecord& out)
{
    std::unique_lock<std::mutex> lk(mu_);
    if (holding_) {
        if (counts_[head_] < kChunkRecords)
            return at_end(); // until reset()
        holding_ = false;
        head_ = (head_ + 1) % kSlots;
        --filled_;
        producer_cv_.notify_one();
    }
    if (!run_) {
        run_ = true;
        if (producer_.joinable())
            producer_cv_.notify_one();
        else
            producer_ = std::thread([this] { produce(); });
    }
    if (filled_ == 0) {
        const std::uint64_t t0 = now_ns();
        consumer_cv_.wait(lk, [this] { return filled_ > 0; });
        wait_ns_ += now_ns() - t0;
    }
    holding_ = true;
    pos_ = &ring_[head_ * kChunkRecords];
    end_ = pos_ + counts_[head_];
    if (pos_ == end_)
        return at_end(); // an empty last chunk
    out = *pos_++;
    return true;
}

bool
ReadAheadWorkload::at_end() const
{
    if (error_ != nullptr)
        std::rethrow_exception(error_);
    return false;
}

void
ReadAheadWorkload::stop()
{
    std::unique_lock<std::mutex> lk(mu_);
    run_ = false;
    consumer_cv_.wait(lk, [this] { return !busy_; });
    for (std::size_t i = 0; i < filled_; ++i)
        discarded_ += counts_[(head_ + i) % kSlots];
    if (holding_)
        discarded_ -= static_cast<std::uint64_t>(
            pos_ - &ring_[head_ * kChunkRecords]);
    head_ = 0;
    filled_ = 0;
    holding_ = false;
    ended_ = false;
    error_ = nullptr;
    pos_ = end_ = nullptr;
}

void
ReadAheadWorkload::reset()
{
    stop();
    inner_->reset();
}

std::uint64_t
ReadAheadWorkload::skip(std::uint64_t n)
{
    bool reading;
    {
        std::lock_guard<std::mutex> lk(mu_);
        reading = run_;
    }
    if (!reading)
        return inner_->skip(n); // the producer is idle and the ring empty
    return Workload::skip(n);
}

std::unique_ptr<Workload>
ReadAheadWorkload::clone() const
{
    // Holding mu_ with the producer between chunks keeps it off the
    // inner workload for the duration of its clone().
    std::unique_lock<std::mutex> lk(mu_);
    consumer_cv_.wait(lk, [this] { return !busy_; });
    return std::make_unique<ReadAheadWorkload>(inner_->clone());
}

std::uint64_t
ReadAheadWorkload::records() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return produced_;
}

} // namespace triage::sim
