/**
 * @file
 * Global-history-buffer temporal prefetchers: STMS (Wenisch et al.,
 * HPCA 2009) and Domino (Bakhshalipour et al., HPCA 2018).
 *
 * Both record the global miss stream in a large circular history buffer
 * (conceptually off-chip) and index it to locate the previous
 * occurrence of the current trigger:
 *  - STMS indexes by single miss address;
 *  - Domino indexes by the (previous, current) miss-address pair, which
 *    disambiguates streams that share one address.
 *
 * Following the paper's methodology (Section 4.1), both are modeled as
 * *idealized*: their off-chip metadata transactions complete instantly
 * and add no latency, but the traffic they *would* generate is counted
 * so Figures 11/12 can report it.
 */
#ifndef TRIAGE_PREFETCH_GHB_TEMPORAL_HPP
#define TRIAGE_PREFETCH_GHB_TEMPORAL_HPP

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hpp"
#include "util/flat_map.hpp"

namespace triage::prefetch {

/** Indexing scheme selecting STMS or Domino behaviour. */
enum class GhbIndexMode : std::uint8_t {
    SingleAddress, ///< STMS
    AddressPair,   ///< Domino
};

/** Tuning knobs. */
struct GhbTemporalConfig {
    GhbIndexMode mode = GhbIndexMode::SingleAddress;
    /** History buffer entries (millions => tens of MB off chip). */
    std::uint32_t ghb_entries = 1u << 21;
    std::uint32_t degree = 1;
};

/** STMS / Domino. */
class GhbTemporal final : public Prefetcher
{
  public:
    explicit GhbTemporal(GhbTemporalConfig cfg);

    void train(const TrainEvent& ev, PrefetchHost& host) override;
    const std::string& name() const override { return name_; }

    std::uint64_t history_length() const { return next_pos_; }

    void
    checkpoint(sim::Snapshot& s) override
    {
        Prefetcher::checkpoint(s);
        s.section("pf.ghb_temporal");
        s.io_pod_vec(ghb_);
        s.io(next_pos_);
        s.io_flat_map(index_);
        s.io(last_trigger_);
        s.io(have_last_);
        s.io(appends_);
    }

  private:
    /**
     * Index key of @p block: the block itself (STMS) or a hash of the
     * (previous, current) pair (Domino). Never FlatMap::EMPTY.
     */
    std::uint64_t index_key(sim::Addr block) const;

    GhbTemporalConfig cfg_;
    std::vector<sim::Addr> ghb_;
    std::uint64_t next_pos_ = 0; ///< absolute append position
    /** index key -> absolute GHB position of its last occurrence. */
    util::FlatMap<std::uint64_t, std::uint64_t> index_;
    sim::Addr last_trigger_ = 0;
    bool have_last_ = false;
    std::uint64_t appends_ = 0;
    std::string name_;
};

} // namespace triage::prefetch

#endif // TRIAGE_PREFETCH_GHB_TEMPORAL_HPP
