/**
 * @file
 * Host self-profiling: where does the *simulator's* wall-clock go?
 *
 * Everything else in src/obs observes the simulated machine; this
 * subsystem observes the host process running the simulation
 * (docs/observability.md §10). Two pieces:
 *
 *  - **Phase timers.** `ProfScope` is an RAII scope a run harness drops
 *    around a phase (warmup, measure, epoch, snapshot save /
 *    restore). Scopes nest; a scope's aggregation key is the
 *    dot-joined path of the scopes active on its thread ("job.warmup",
 *    "job.measure.epoch"), so the phase table doubles as a call-tree
 *    profile. When the profiler is disarmed a scope is one relaxed
 *    atomic load — the hot path pays nothing with profiling off.
 *    Every interval is read from one clock, std::chrono::steady_clock.
 *
 *  - **Run telemetry.** Free-form summary counters (the Lab publishes
 *    its CheckpointStore hit/miss/evict/lease-wait/byte counters under
 *    "ckpt.*") and per-worker accounting rows (jobs run, busy seconds,
 *    peak RSS) round out the `profile` block of `--stats-json`.
 *
 * Exports: `write_json` (the "profile" stats-JSON block, validated by
 * `check_stats_json --require-profile`), and recorded slices that
 * obs/perfetto.cpp turns into phase-slice tracks alongside the lab
 * worker spans.
 *
 * The profiler is a process-wide singleton: phases are an attribute of
 * the process (one triagesim run, one bench invocation), not of any
 * single system object, and threading a pointer through every run
 * harness would put a parameter on paths that must stay free when
 * profiling is off.
 */
#ifndef TRIAGE_OBS_PROFILE_HPP
#define TRIAGE_OBS_PROFILE_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace triage::obs::json {
class Writer;
} // namespace triage::obs::json

namespace triage::obs::prof {

/** The process-wide host profiler. */
class Profiler
{
  public:
    /** Totals for one phase path. */
    struct Phase {
        std::uint64_t count = 0; ///< scope entries
        std::uint64_t ns = 0;    ///< inclusive wall time
    };

    /** One recorded scope instance (Perfetto phase-slice source). */
    struct Slice {
        std::string path;
        unsigned tid = 0;            ///< dense profiler thread id
        std::uint64_t start_ns = 0;  ///< since enable()
        std::uint64_t dur_ns = 0;
    };

    /** Per-Lab-worker resource accounting row. */
    struct WorkerAccounting {
        unsigned worker = 0;
        std::uint64_t jobs = 0;
        std::uint64_t busy_ns = 0;
        std::uint64_t peak_rss_kb = 0;
    };

    static Profiler& instance();

    /** Is any profiling active? The ProfScope fast-path gate. */
    static bool
    armed()
    {
        return armed_.load(std::memory_order_relaxed);
    }

    /** Arm the profiler; wall-clock attribution starts now. */
    void enable();
    /** Disarm (recorded data stays readable). */
    void disable();
    /** Disarm and drop everything recorded. */
    void reset();

    /** Seconds since enable() (0 when never enabled). */
    double wall_seconds() const;

    /**
     * Seconds attributed to top-level phases (paths without a '.').
     * On one thread this is <= wall_seconds(); parallel workers can
     * attribute more than one wall-second per second.
     */
    double attributed_seconds() const;

    /** Record a phase interval measured externally (e.g. triagesim's
     *  startup, timed before any scope exists). No-op when disarmed. */
    void add_external(const std::string& path, std::uint64_t ns,
                      std::uint64_t count = 1);

    /** Set / accumulate a summary counter ("ckpt.mem_hits", ...). */
    void set_counter(const std::string& name, double v);
    void add_counter(const std::string& name, double v);

    /** Install one worker accounting row (keyed by worker id). */
    void set_worker(const WorkerAccounting& w);

    /** Snapshot accessors (copy under the lock). */
    std::map<std::string, Phase> phases() const;
    std::map<std::string, double> counters() const;
    std::vector<WorkerAccounting> workers() const;
    std::vector<Slice> slices() const;

    /**
     * The "profile" stats-JSON block: wall/attributed seconds, the
     * phase table, summary counters (nested by dotted name), and
     * worker rows. See docs/observability.md §10.
     */
    void write_json(json::Writer& w) const;

  private:
    friend class ProfScope;

    Profiler() = default;

    void record_slice(std::uint64_t start_ns, std::uint64_t end_ns);

    static std::atomic<bool> armed_;

    mutable std::mutex mu_;
    std::uint64_t t0_ns_ = 0; ///< steady-clock ns at enable()
    std::atomic<unsigned> next_tid_{0};
    std::map<std::string, Phase> phases_;
    std::map<std::string, double> counters_;
    std::map<unsigned, WorkerAccounting> workers_;
    std::vector<Slice> slices_;
    std::uint64_t slices_dropped_ = 0;
    std::size_t slice_cap_ = 8192;
};

/**
 * RAII phase scope. Construction pushes the scope on its thread's
 * stack and reads the clock; destruction reads it again and
 * records the interval under the dot-joined path of the active stack.
 * Scopes must unwind in LIFO order per thread — destroying one that is
 * not the innermost active scope panics (the aggregation paths would
 * be silently wrong otherwise).
 */
class ProfScope
{
  public:
    explicit ProfScope(const char* name)
    {
        if (Profiler::armed())
            begin(name);
    }
    ~ProfScope()
    {
        if (active_)
            end();
    }
    ProfScope(const ProfScope&) = delete;
    ProfScope& operator=(const ProfScope&) = delete;

  private:
    void begin(const char* name);
    void end();

    const char* name_ = nullptr;
    std::uint64_t t0_ns_ = 0;
    bool active_ = false;
};

/** Process peak RSS in KiB (getrusage, /proc/self/status fallback). */
std::uint64_t peak_rss_kb();

} // namespace triage::obs::prof

#endif // TRIAGE_OBS_PROFILE_HPP
