/**
 * @file
 * Per-PC stride prefetcher (Baer & Chen style), used as the always-on
 * L1D prefetcher from Table 1.
 */
#ifndef TRIAGE_PREFETCH_STRIDE_HPP
#define TRIAGE_PREFETCH_STRIDE_HPP

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hpp"
#include "util/bitops.hpp"

namespace triage::prefetch {

/**
 * Classic reference-prediction-table stride prefetcher: per PC, track
 * the last block and stride with a 2-bit confidence counter; once
 * confident, prefetch the next DEGREE strided blocks.
 */
class StridePrefetcher final : public Prefetcher
{
  public:
    /** PC-indexed reference prediction table entries. */
    static constexpr std::uint32_t TABLE_ENTRIES = 256;
    /** Blocks ahead once confident. */
    static constexpr std::uint32_t DEGREE = 2;
    /** 2-bit confidence at which the stride prefetches. */
    static constexpr std::uint8_t CONFIDENCE_THRESHOLD = 2;
    static_assert(util::is_pow2(TABLE_ENTRIES));

    StridePrefetcher() : table_(TABLE_ENTRIES) {}

    void train(const TrainEvent& ev, PrefetchHost& host) override;
    const std::string& name() const override { return name_; }

    void
    checkpoint(sim::Snapshot& s) override
    {
        Prefetcher::checkpoint(s);
        s.section("pf.stride");
        s.io_vec(table_, [](sim::Snapshot& a, Entry& e) {
            a.io(e.pc);
            a.io(e.last_block);
            a.io(e.stride);
            a.io(e.confidence);
            a.io(e.valid);
        });
    }

  private:
    struct Entry {
        sim::Pc pc = 0;
        sim::Addr last_block = 0;
        std::int64_t stride = 0;
        std::uint8_t confidence = 0;
        bool valid = false;
    };

    Entry& entry_for(sim::Pc pc);

    std::vector<Entry> table_;
    std::string name_ = "stride";
};

} // namespace triage::prefetch

#endif // TRIAGE_PREFETCH_STRIDE_HPP
