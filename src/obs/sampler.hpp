/**
 * @file
 * Epoch time-series sampler.
 *
 * Snapshots a set of named probes every N units of progress (memory
 * records by convention; the sampler itself is unit-agnostic) into an
 * in-memory series. Three probe kinds cover the metrics the paper's
 * trajectory figures need:
 *
 *  - level: instantaneous value at the epoch boundary (metadata ways,
 *    partition level);
 *  - delta: per-epoch increase of a cumulative counter (misses,
 *    prefetches issued);
 *  - rate: ratio of two cumulative deltas (per-epoch IPC =
 *    d instructions / d cycles, coverage, accuracy, metadata hit rate).
 *
 * The run loop drives it: begin() at the measurement start, sample() at
 * each epoch boundary, finalize() to close a trailing partial epoch.
 * Disabled (epoch length 0) it costs one branch per run-loop chunk.
 */
#ifndef TRIAGE_OBS_SAMPLER_HPP
#define TRIAGE_OBS_SAMPLER_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace triage::obs {

namespace json {
class Writer;
} // namespace json

/** One closed epoch: progress interval plus one value per probe. */
struct Epoch {
    std::uint64_t begin = 0; ///< progress units at epoch start
    std::uint64_t end = 0;   ///< progress units at epoch end
    std::vector<double> values;
};

/** The sampler. */
class EpochSampler
{
  public:
    using Probe = std::function<double()>;

    /** Enable with epoch length @p n (0 disables). */
    void configure(std::uint64_t n) { epoch_len_ = n; }
    bool enabled() const { return epoch_len_ > 0; }
    std::uint64_t epoch_len() const { return epoch_len_; }

    void add_level(const std::string& name, Probe fn);
    void add_delta(const std::string& name, Probe fn);
    /** Per-epoch delta(num)/delta(den); 0 when den did not advance. */
    void add_rate(const std::string& name, Probe num, Probe den);

    void clear_probes();

    /**
     * Drop the probe callbacks — which capture pointers into the
     * system — while keeping probe names and recorded epochs, so the
     * series stays serializable after the system dies. Re-attach
     * (clear_probes + add_*) before sampling again.
     */
    void freeze();

    /** Start sampling at progress point @p at (captures baselines). */
    void begin(std::uint64_t at);

    /** Close the epoch ending at progress point @p at. */
    void sample(std::uint64_t at);

    /** Close a trailing partial epoch, if any progress since the last
     *  boundary. Safe to call when disabled or nothing is pending. */
    void finalize(std::uint64_t at);

    const std::vector<Epoch>& epochs() const { return epochs_; }
    const std::vector<std::string>& probe_names() const { return names_; }

    /** Drop recorded epochs (probes and configuration stay). */
    void reset();

    /**
     * Serialize as a JSON array of epoch objects:
     * [{"begin": 0, "end": 10000, "core0.ipc": 1.23, ...}, ...]
     */
    void write_json(json::Writer& w) const;

  private:
    enum class Kind : std::uint8_t { Level, Delta, Rate };

    struct ProbeEntry {
        Kind kind = Kind::Level;
        Probe fn;
        Probe den;          ///< rate denominator
        double last = 0.0;  ///< numerator baseline
        double last_den = 0.0;
    };

    double eval(ProbeEntry& p);

    std::uint64_t epoch_len_ = 0;
    std::uint64_t epoch_start_ = 0;
    bool begun_ = false;
    std::vector<std::string> names_;
    std::vector<ProbeEntry> probes_;
    std::vector<Epoch> epochs_;
};

} // namespace triage::obs

#endif // TRIAGE_OBS_SAMPLER_HPP
