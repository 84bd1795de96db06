/**
 * @file
 * triage_bench — the layer ledger's measuring program (README.md).
 *
 * One invocation measures one workload. With --trace=0 it times
 * repetitions from outside, through the public entry points
 * (exec::run_job, exec::Lab), plus repeated system set-up, and scales
 * the times by a reference pass run beside them (ReferencePass). With
 * --trace=1 it alternates an untraced rep with a traced rep that
 * decorates each layer's public interface (layers.hpp) through the
 * Job factories, arms the obs::prof phase profiler, and reports host
 * time per layer.
 *
 *   triage_bench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
 *                [--smoke] [--scratch=DIR] [--trace-out=FILE]
 *
 * stdout is one JSON line:
 *   {"correct": B, "attempted": N, "failed": N, "errors": [..],
 *    "metrics": {"<name>": {"unit": "..", "samples": [..]}}}
 * run.py turns the samples into medians and quartiles, checks the
 * metric names against BENCHMARK.json, and prints the result.
 *
 * Correctness: simulated statistics are deterministic, so every rep's
 * RunResults must equal the first rep's, every traced rep must equal
 * the untraced one (the decorators are transparent), and mcf-trace-gz,
 * which replays a recording of exactly the records mcf-none consumes,
 * must equal mcf-none. Each failed check marks its rep failed.
 */
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <lzma.h>
#include <malloc.h>
#include <zlib.h>

#include "exec/checkpoint.hpp"
#include "exec/job.hpp"
#include "exec/lab.hpp"
#include "frontend/frontend.hpp"
#include "layers.hpp"
#include "obs/profile.hpp"
#include "sim/multicore.hpp"
#include "sim/system.hpp"
#include "stats/experiment.hpp"
#include "verify/diff.hpp"
#include "workloads/mixes.hpp"
#include "workloads/spec.hpp"
#include "workloads/trace_io.hpp"

namespace {

using namespace triage;
using ledger::LayerCounters;
using ledger::now_ns;
using Phases = std::map<std::string, obs::prof::Profiler::Phase>;

/** Lab worker threads: the benchmark's cap on concurrent simulation. */
constexpr unsigned kLabJobs = 2;

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string scratch = ".";
    std::string trace_out;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/**
 * The jobs one rep of @p name runs: one job for the single-run
 * workloads, a fig17 sweep for fig17-lab and fig17-full. Empty for an
 * unknown name. @p trace_spec names the mcf-trace-gz fixture.
 */
std::vector<exec::Job>
jobs_for(const std::string& name, const Options& o,
         const std::string& trace_spec)
{
    auto job = [&](std::uint64_t warmup, std::uint64_t measure) {
        exec::Job j;
        j.scale.warmup_records = o.smoke ? warmup / 25 : warmup;
        j.scale.measure_records = o.smoke ? measure / 25 : measure;
        j.replica = static_cast<std::uint32_t>(o.seed);
        return j;
    };
    std::vector<exec::Job> jobs;
    if (name == "mcf-triage" || name == "mcf-none" ||
        name == "mcf-trace-gz") {
        // 2M records is exactly one pass of the mcf analog at scale
        // 1.0, so the synthetic stream never wraps and the recorded
        // fixture covers every record the run consumes.
        exec::Job j = job(500000, 1500000);
        j.benchmark = name == "mcf-trace-gz" ? trace_spec : "mcf";
        j.pf_spec = name == "mcf-triage" ? "triage_dyn" : "none";
        jobs.push_back(j);
    } else if (name == "mix4-hybrid") {
        exec::Job j = job(50000, 250000);
        j.mix = {"mcf", "omnetpp", "bwaves", "sphinx3"};
        j.pf_spec = "bo+triage_dyn";
        jobs.push_back(j);
    } else if (name == "fig17-lab" || name == "fig17-full") {
        // bench/fig17_core_scaling's declare_sweep at fig17's per-core
        // window (multi_core_scale: 250k + 450k): the "none" baselines
        // first, then every (mix, prefetcher). fig17-lab runs two
        // 2-core mixes; fig17-full, the full-shape check README.md
        // describes, one mix at each of fig17's core counts. Submitted
        // straight to an exec::Lab, as MixLab does, so that --seed can
        // set the replica.
        const bool full = name == "fig17-full";
        const std::vector<unsigned> counts =
            full ? std::vector<unsigned>{2, 4, 8, 16}
                 : std::vector<unsigned>{2};
        for (unsigned cores : counts) {
            const auto mixes = workloads::make_mixes(
                workloads::irregular_spec(), cores, full ? 1 : 2,
                4321 + cores);
            auto add = [&](const workloads::Mix& m, const char* pf) {
                exec::Job j = job(250000, 450000);
                j.mix = m;
                j.pf_spec = pf;
                jobs.push_back(j);
            };
            for (const auto& m : mixes)
                add(m, "none");
            for (const auto& m : mixes)
                for (const char* pf : {"misb", "triage_dyn"})
                    add(m, pf);
        }
    }
    return jobs;
}

bool
is_lab(const std::string& name)
{
    return name == "fig17-lab" || name == "fig17-full";
}

/** Simulated memory accesses of one rep: all cores, warmup + measure. */
double
accesses_of(const std::vector<exec::Job>& jobs)
{
    double n = 0;
    for (const auto& j : jobs) {
        const double cores = j.mix.empty() ? 1.0 : double(j.mix.size());
        n += cores * double(j.scale.warmup_records +
                            j.scale.measure_records);
    }
    return n;
}

/** The seed jitter run_job gives a job's synthetic workloads. */
std::uint64_t
jitter_of(const exec::Job& job)
{
    return job.replica == 0 ? 0 : exec::key_of(job).derived_seed();
}

// ---------------------------------------------------------------------
// Metric samples and failures
// ---------------------------------------------------------------------

std::string
quoted(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out += c;
    }
    return out + "\"";
}

class Report
{
  public:
    void
    add(const std::string& name, const std::string& unit, double v)
    {
        auto it = index_.find(name);
        if (it == index_.end()) {
            it = index_.emplace(name, metrics_.size()).first;
            metrics_.push_back({name, unit, {}});
        }
        if (!std::isfinite(v)) {
            error("metric " + name + " is not finite");
            v = 0;
        }
        metrics_[it->second].samples.push_back(v);
    }

    void error(const std::string& msg) { errors_.push_back(msg); }

    /** Count one attempted rep; @p ok false counts it failed. */
    void
    rep(bool ok)
    {
        ++attempted_;
        if (!ok)
            ++failed_;
    }

    void
    print(std::ostream& os) const
    {
        os << std::setprecision(17) << "{\"correct\": "
           << (errors_.empty() && failed_ == 0 ? "true" : "false")
           << ", \"attempted\": " << attempted_
           << ", \"failed\": " << failed_ << ", \"errors\": [";
        for (std::size_t i = 0; i < errors_.size(); ++i)
            os << (i ? ", " : "") << quoted(errors_[i]);
        os << "], \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric& m = metrics_[i];
            os << (i ? ", " : "") << quoted(m.name) << ": {\"unit\": "
               << quoted(m.unit) << ", \"samples\": [";
            for (std::size_t k = 0; k < m.samples.size(); ++k)
                os << (k ? ", " : "") << m.samples[k];
            os << "]}";
        }
        os << "}}\n";
    }

  private:
    struct Metric {
        std::string name;
        std::string unit;
        std::vector<double> samples;
    };

    std::vector<Metric> metrics_;
    std::map<std::string, std::size_t> index_;
    std::vector<std::string> errors_;
    unsigned attempted_ = 0;
    unsigned failed_ = 0;
};

/** Compare @p got with @p want; false (with the diffs logged) if any
 *  simulated statistic differs. */
bool
same_results(const std::vector<sim::RunResult>& got,
             const std::vector<sim::RunResult>& want,
             const std::string& what, Report& report)
{
    if (got.size() != want.size()) {
        report.error(what + ": result count differs");
        return false;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
        const auto d = verify::diff_results(got[i], want[i]);
        if (!d.empty()) {
            report.error(what + " (job " + std::to_string(i) + "): " +
                         d.front());
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// Profiler phases and spans
// ---------------------------------------------------------------------

/** Is @p path the phase @p leaf, or nested under others as ".leaf"? */
bool
is_phase(const std::string& path, const std::string& leaf)
{
    return path == leaf ||
           (path.size() > leaf.size() &&
            path.compare(path.size() - leaf.size() - 1, std::string::npos,
                         "." + leaf) == 0);
}

/** Seconds of every profiler phase that is @p leaf. */
double
phase_s(const Phases& phases, const std::string& leaf)
{
    std::uint64_t ns = 0;
    for (const auto& [path, p] : phases)
        if (is_phase(path, leaf))
            ns += p.ns;
    return double(ns) * 1e-9;
}

struct Span {
    std::string name;
    unsigned tid = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
};

/** Coarse spans, kept in memory and written to --trace-out at exit. */
class Spans
{
  public:
    /** Record [t0, now) as @p name on the calling thread; returns its
     *  length. */
    std::uint64_t
    close(const std::string& name, std::uint64_t t0)
    {
        const std::uint64_t t1 = now_ns();
        add(name, t0, t1 - t0);
        return t1 - t0;
    }

    void
    add(const std::string& name, std::uint64_t t0, std::uint64_t dur)
    {
        spans_.push_back({name, 0, t0, dur});
    }

    /**
     * Copy the profiler's job, warmup, measure and snapshot slices
     * (not the per-epoch ones); @p base is now_ns() at enable().
     */
    void
    add_slices(const std::vector<obs::prof::Profiler::Slice>& slices,
               std::uint64_t base)
    {
        for (const auto& s : slices)
            for (const char* leaf : {"job", "warmup", "measure",
                                     "snapshot.save", "snapshot.restore"})
                if (is_phase(s.path, leaf))
                    spans_.push_back({s.path, s.tid + 1,
                                      base + s.start_ns, s.dur_ns});
    }

    /** Chrome trace-event JSON (opens in Perfetto). */
    bool
    write(const std::string& path) const
    {
        std::ofstream os(path);
        os << "{\"traceEvents\": [";
        std::uint64_t base = ~std::uint64_t{0};
        for (const Span& s : spans_)
            base = std::min(base, s.start_ns);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            os << (i ? ",\n" : "\n") << "{\"name\": " << quoted(s.name)
               << ", \"cat\": \"ledger\", \"ph\": \"X\", \"pid\": 1, "
               << "\"tid\": " << s.tid << ", \"ts\": "
               << (s.start_ns - base) / 1000 << ", \"dur\": "
               << s.dur_ns / 1000 << "}";
        }
        os << "\n]}\n";
        os.close();
        return static_cast<bool>(os);
    }

  private:
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------

/**
 * The time of one reference pass on a host of the speed the end-to-end
 * timings are scaled to: about the pass's time on the 4-vCPU Xeon
 * guest the benchmark was defined on, when its neighbours are quiet.
 */
constexpr double kNominalPassS = 0.035;

/**
 * The reference pass: four kernels whose code is part of the benchmark,
 * so that no change to the simulator changes their cost. The measuring
 * host is a shared VM whose speed moves by up to 2x for minutes at a
 * time, and the simulator slows with it. No single kernel tracks the
 * simulator, but the geometric mean of the four does (README.md,
 * Noise), so acc_per_s scales each rep's time by it.
 */
class ReferencePass
{
  public:
    ReferencePass() : tags_(1 << 20), big_(1 << 19), small_(1 << 16)
    {
        map_.reserve(1 << 18);
        run(); // faults the buffers in and fills the map
    }

    /** Run each kernel once; the geometric mean of their seconds. */
    double
    run()
    {
        std::uint64_t x = 88172645463325252ULL;
        auto rnd = [&x] {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            return x;
        };
        double log_sum = 0;
        auto timed = [&log_sum](auto&& kernel) {
            const std::uint64_t t0 = now_ns();
            kernel();
            log_sum += std::log(double(now_ns() - t0) * 1e-9);
        };
        // A hash map at its steady size: insert, update or erase.
        timed([&] {
            for (int i = 0; i < 400000; ++i) {
                const std::uint64_t k = rnd() & 0x3ffff;
                const auto it = map_.find(k);
                if (it == map_.end())
                    map_.emplace(k, x);
                else if (x & 1)
                    map_.erase(it);
                else
                    it->second += x;
            }
        });
        // A 16-way LRU tag table of 64k sets: a third of the lookups
        // scattered over 256 MB, the rest over 4 MB.
        timed([&] {
            for (int i = 0; i < 2000000; ++i) {
                const std::uint64_t a = rnd() % 3 == 0
                                            ? rnd() & 0xfffffff
                                            : (x >> 8) & 0x3fffff;
                std::uint64_t* row = &tags_[((a >> 6) & 0xffff) * 16];
                int w = 0;
                while (w < 16 && row[w] != a)
                    ++w;
                for (w = std::min(w, 15); w > 0; --w)
                    row[w] = row[w - 1];
                row[0] = a;
            }
        });
        // A 2 MB sort, then eight 256 kB ones.
        timed([&] {
            for (auto& e : big_)
                e = std::uint32_t(rnd());
            std::sort(big_.begin(), big_.end());
        });
        timed([&] {
            for (int r = 0; r < 8; ++r) {
                for (auto& e : small_)
                    e = std::uint32_t(rnd());
                std::sort(small_.begin(), small_.end());
            }
        });
        // Keep the results live.
        sink_ += tags_[x & 0xfffff] + big_[x & 0x7ffff] + small_[x & 0xffff];
        return std::exp(log_sum / 4);
    }

  private:
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint32_t> big_;
    std::vector<std::uint32_t> small_;
    std::unordered_map<std::uint64_t, std::uint64_t> map_;
    std::uint64_t sink_ = 0;
};

/**
 * Reference passes on a thread of their own, one every kPeriod, while
 * a Lab rep runs. A Lab rep keeps its workers busy for several seconds
 * on other threads, and passes before and after it track the host it
 * ran on too poorly; passes beside it track it.
 */
class Probe
{
  public:
    explicit Probe(ReferencePass& ref) : ref_(ref), thread_([this] { loop(); })
    {
    }
    ~Probe() { stop(); }
    Probe(const Probe&) = delete;
    Probe& operator=(const Probe&) = delete;

    /** Stop after the pass under way; the geometric mean of the passes. */
    double
    stop()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            done_ = true;
        }
        wake_.notify_all();
        if (thread_.joinable())
            thread_.join();
        return std::exp(log_sum_ / double(passes_));
    }

  private:
    static constexpr std::chrono::milliseconds kPeriod{500};

    void
    loop()
    {
        for (;;) {
            log_sum_ += std::log(ref_.run());
            ++passes_;
            std::unique_lock<std::mutex> lk(mu_);
            if (wake_.wait_for(lk, kPeriod, [this] { return done_; }))
                return;
        }
    }

    ReferencePass& ref_;
    std::mutex mu_;
    std::condition_variable wake_;
    bool done_ = false; ///< guarded by mu_
    // Written by the thread only, read after it is joined.
    double log_sum_ = 0;
    unsigned passes_ = 0;
    std::thread thread_;
};

// ---------------------------------------------------------------------
// Untraced reps and set-up
// ---------------------------------------------------------------------

struct Rep {
    double wall_s = 0;
    /** A probed Lab rep: the reference pass's seconds beside it. */
    double pass_s = 0;
    std::vector<sim::RunResult> results;
};

/**
 * Construct a Lab with the default LabOptions but kLabJobs workers,
 * submit @p jobs and collect their results into @p rep. The Lab is
 * returned still alive so a traced rep can read its telemetry.
 */
std::unique_ptr<exec::Lab>
run_lab(const std::vector<exec::Job>& jobs, Rep& rep)
{
    const std::uint64_t t0 = now_ns();
    exec::LabOptions opt;
    opt.jobs = kLabJobs;
    auto lab = std::make_unique<exec::Lab>(opt);
    std::vector<exec::Lab::JobId> ids;
    for (const auto& j : jobs)
        ids.push_back(lab->submit(j));
    lab->wait_all();
    for (auto id : ids)
        rep.results.push_back(lab->result(id));
    rep.wall_s = double(now_ns() - t0) * 1e-9;
    return lab;
}

/** One untraced rep; a Lab rep runs beside a Probe when @p ref is set. */
Rep
run_plain(const std::string& name, const std::vector<exec::Job>& jobs,
          ReferencePass* ref = nullptr)
{
    Rep rep;
    if (is_lab(name)) {
        std::optional<Probe> probe;
        if (ref != nullptr)
            probe.emplace(*ref);
        run_lab(jobs, rep);
        if (probe)
            rep.pass_s = probe->stop();
        return rep;
    }
    const std::uint64_t t0 = now_ns();
    rep.results.push_back(exec::run_job(jobs.front()));
    rep.wall_s = double(now_ns() - t0) * 1e-9;
    return rep;
}

/**
 * One job's system as run_job sets it up, built only to time the
 * set-up: the system, its prefetchers, and its workloads bound.
 */
class BoundSystem
{
  public:
    explicit BoundSystem(const exec::Job& job)
    {
        const std::uint64_t jitter = jitter_of(job);
        auto open = [](std::unique_ptr<sim::Workload> w) {
            if (w == nullptr)
                util::fatal("triage_bench: workload failed to open");
            return w;
        };
        if (!job.mix.empty()) {
            const auto cores = static_cast<unsigned>(job.mix.size());
            multi_ = std::make_unique<sim::MultiCoreSystem>(job.config,
                                                            cores);
            multi_->set_observability(job.obs);
            for (unsigned c = 0; c < cores; ++c) {
                multi_->set_prefetcher(
                    c, stats::make_prefetcher(job.pf_spec, job.degree));
                multi_->bind(c, *open(workloads::make_workload(
                                    job.mix[c], job.scale.workload_scale,
                                    jitter, c)));
            }
            return;
        }
        single_ = std::make_unique<sim::SingleCoreSystem>(job.config);
        single_->set_observability(job.obs);
        single_->set_prefetcher(
            stats::make_prefetcher(job.pf_spec, job.degree));
        wl_ = open(workloads::make_workload(
            job.benchmark, job.scale.workload_scale, jitter));
        wl_->reset();
        single_->bind(*wl_);
    }

  private:
    std::unique_ptr<sim::SingleCoreSystem> single_;
    std::unique_ptr<sim::MultiCoreSystem> multi_;
    std::unique_ptr<sim::Workload> wl_; ///< single-core: bound by reference
};

/** Host seconds to set up the system of every job in @p jobs. */
double
time_setup(const std::vector<exec::Job>& jobs)
{
    std::uint64_t ns = 0;
    for (const auto& job : jobs) {
        const std::uint64_t t0 = now_ns();
        auto sys = std::make_unique<BoundSystem>(job);
        ns += now_ns() - t0;
    }
    return double(ns) * 1e-9;
}

// ---------------------------------------------------------------------
// Traced reps
// ---------------------------------------------------------------------

struct Traced {
    Rep rep;
    LayerCounters lc;
    /** The profiler phases of the rep's simulation. */
    Phases phases;
    /** Seconds of the work an untraced rep does. */
    double sim_s = 0;
    /** Share of the job time inside a recorded layer. */
    double attributed = 0;
    /** Bytes of warm state saved, and the seconds saving and restoring
     *  them took. */
    double snapshot_bytes = 0;
    double save_s = 0;
    double restore_s = 0;
    // Lab telemetry (fig17-lab only).
    double jobs_submitted = 0;
    double jobs_run = 0;
    double busy_frac = 0;
    exec::CheckpointStore::Stats ckpt{};
};

/**
 * @p plain with its prefetchers, and a single-core job's workload,
 * decorated through the Job factories to report into @p lc. The
 * variant tag repeats the spec, so a multi-core job keeps the plain
 * job's JobKey and with it every seed and checkpoint key; a
 * single-core workload is built with the plain job's jitter.
 */
exec::Job
decorated(const exec::Job& plain, LayerCounters& lc)
{
    exec::Job j = plain;
    j.variant = plain.pf_spec;
    j.prefetcher_factory = [&lc, spec = plain.pf_spec,
                            degree = plain.degree](unsigned) {
        return ledger::timed(stats::make_prefetcher(spec, degree), lc);
    };
    if (plain.mix.empty()) {
        j.workload_factory = [&lc, name = plain.benchmark,
                              scale = plain.scale.workload_scale,
                              jitter = jitter_of(plain)]()
            -> std::unique_ptr<sim::Workload> {
            auto w = workloads::make_workload(name, scale, jitter);
            if (w == nullptr)
                return w;
            return std::make_unique<ledger::TimedWorkload>(std::move(w),
                                                           lc.next);
        };
    }
    return j;
}

/** Nanoseconds from @p t0 to the first profiler slice that starts after
 *  it: a run_job's set-up, before its warmup or restore. */
std::uint64_t
lead_in_ns(const std::vector<obs::prof::Profiler::Slice>& slices,
           std::uint64_t base, std::uint64_t t0)
{
    std::uint64_t first = ~std::uint64_t{0};
    for (const auto& s : slices)
        if (base + s.start_ns >= t0)
            first = std::min(first, base + s.start_ns);
    return first == ~std::uint64_t{0} ? 0 : first - t0;
}

/**
 * Single-run workloads: the job through exec::run_job with a
 * CheckpointStore, so run_job warms up, saves the warm state and
 * measures; then the same warm prefix with a one-record measurement,
 * so a second run_job restores that state into a fresh system. The
 * profiler's warmup, measure, snapshot.save and snapshot.restore
 * phases time the layers.
 */
Traced
traced_single(const exec::Job& plain, Spans& spans)
{
    Traced t;
    LayerCounters restore_lc; // the restore's calls are not the rep's
    const exec::Job job = decorated(plain, t.lc);
    exec::Job restore = decorated(plain, restore_lc);
    restore.scale.measure_records = 1;
    exec::CheckpointStore store;

    auto& prof = obs::prof::Profiler::instance();
    prof.reset();
    prof.enable();
    const std::uint64_t base = now_ns();
    t.rep.results.push_back(exec::run_job(job, &store));
    const std::uint64_t cold_ns = spans.close("run_job", base);
    t.phases = prof.phases();
    const std::uint64_t t1 = now_ns();
    exec::run_job(restore, &store);
    const std::uint64_t restore_ns = spans.close("run_job (restore)", t1);
    spans.close("rep", base);
    prof.disable();
    const Phases all = prof.phases();
    const auto slices = prof.slices();
    spans.add_slices(slices, base);
    std::uint64_t setup_ns = 0;
    for (const std::uint64_t t0 : {base, t1}) {
        spans.add("setup", t0, lead_in_ns(slices, base, t0));
        setup_ns += lead_in_ns(slices, base, t0);
    }

    t.rep.wall_s = double(cold_ns + restore_ns) * 1e-9;
    t.snapshot_bytes = double(store.stats().bytes_published);
    t.save_s = phase_s(t.phases, "snapshot.save");
    t.restore_s = phase_s(all, "snapshot.restore");
    t.sim_s = double(cold_ns) * 1e-9 - t.save_s;
    const double in_layers =
        phase_s(all, "warmup") + phase_s(all, "measure") + t.save_s +
        t.restore_s +
        double(setup_ns + t.lc.teardown.ns + restore_lc.teardown.ns) *
            1e-9;
    t.attributed = in_layers / t.rep.wall_s;
    return t;
}

/**
 * fig17-lab: the sweep with every prefetcher decorated through
 * Job::prefetcher_factory, one LayerCounters block per prefetcher.
 */
Traced
traced_lab(const std::vector<exec::Job>& plain, Spans& spans)
{
    Traced t;
    std::mutex mu;
    std::vector<std::unique_ptr<LayerCounters>> blocks; // guarded by mu
    std::vector<exec::Job> jobs = plain;
    for (auto& j : jobs) {
        j.variant = j.pf_spec;
        j.prefetcher_factory = [&mu, &blocks, spec = j.pf_spec,
                                degree = j.degree](unsigned) {
            auto lc = std::make_unique<LayerCounters>();
            LayerCounters& mine = *lc;
            {
                std::lock_guard<std::mutex> lk(mu);
                blocks.push_back(std::move(lc));
            }
            return ledger::timed(stats::make_prefetcher(spec, degree),
                                 mine);
        };
    }
    auto& prof = obs::prof::Profiler::instance();
    prof.reset();
    prof.enable();
    const std::uint64_t base = now_ns();
    const auto lab = run_lab(jobs, t.rep);
    const std::uint64_t rep_ns = spans.close("rep", base);
    prof.disable();
    t.phases = prof.phases();
    spans.add_slices(prof.slices(), base);

    for (const auto& b : blocks)
        t.lc.add(*b);
    t.sim_s = t.rep.wall_s;
    // Inside a Lab job the recorded layers are the warmup and measure
    // phases, the checkpoint save / restore and the prefetcher
    // teardown; what is left of "job" is the job's own set-up and the
    // rest of its teardown. Worker idle time is exec.busy_frac's.
    const double job_s = phase_s(t.phases, "job");
    t.save_s = phase_s(t.phases, "snapshot.save");
    t.restore_s = phase_s(t.phases, "snapshot.restore");
    const double in_layers =
        phase_s(t.phases, "warmup") + phase_s(t.phases, "measure") +
        t.save_s + t.restore_s + double(t.lc.teardown.ns) * 1e-9;
    t.attributed = job_s > 0 ? in_layers / job_s : 0;

    double busy_ns = 0;
    for (const auto& w : lab->worker_stats())
        busy_ns += double(w.busy_ns);
    t.busy_frac = busy_ns / (double(lab->workers()) * double(rep_ns));
    t.jobs_submitted = double(lab->size());
    t.jobs_run = double(lab->runs_executed());
    t.ckpt = lab->checkpoints()->stats();
    t.snapshot_bytes = double(t.ckpt.bytes_published);
    return t;
}

// ---------------------------------------------------------------------
// The trace fixture (mcf-trace-gz)
// ---------------------------------------------------------------------

/** A directory under the scratch root, removed with everything in it. */
class TempDir
{
  public:
    explicit TempDir(const std::string& root)
    {
        std::string tmpl = root + "/ledger-XXXXXX";
        if (::mkdtemp(tmpl.data()) == nullptr)
            util::fatal("triage_bench: cannot create a directory in " +
                        root);
        path_ = tmpl;
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;

    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

/** Compress @p src into @p dst as gzip (.gz) or xz (.xz). */
bool
compress(const std::string& src, const std::string& dst)
{
    std::ifstream in(src, std::ios::binary);
    if (!in)
        return false;
    std::vector<char> ibuf(1 << 20), obuf(1 << 20);
    if (dst.ends_with(".gz")) {
        // Deflate decodes at the same speed whatever the level; level
        // 1 only keeps the fixture cheap to write.
        gzFile gz = gzopen(dst.c_str(), "wb1");
        if (gz == nullptr)
            return false;
        bool ok = true;
        while (ok && in) {
            in.read(ibuf.data(), std::streamsize(ibuf.size()));
            const auto n = static_cast<unsigned>(in.gcount());
            ok = n == 0 || gzwrite(gz, ibuf.data(), n) == int(n);
        }
        return gzclose(gz) == Z_OK && ok;
    }
    std::ofstream out(dst, std::ios::binary);
    if (!out)
        return false;
    lzma_stream strm = LZMA_STREAM_INIT;
    if (lzma_easy_encoder(&strm, 0, LZMA_CHECK_CRC64) != LZMA_OK)
        return false;
    lzma_action action = LZMA_RUN;
    lzma_ret rc = LZMA_OK;
    while (rc == LZMA_OK) {
        if (strm.avail_in == 0 && action == LZMA_RUN) {
            in.read(ibuf.data(), std::streamsize(ibuf.size()));
            strm.next_in = reinterpret_cast<const std::uint8_t*>(ibuf.data());
            strm.avail_in = static_cast<std::size_t>(in.gcount());
            if (!in)
                action = LZMA_FINISH;
        }
        strm.next_out = reinterpret_cast<std::uint8_t*>(obuf.data());
        strm.avail_out = obuf.size();
        rc = lzma_code(&strm, action);
        out.write(obuf.data(),
                  std::streamsize(obuf.size() - strm.avail_out));
    }
    lzma_end(&strm);
    out.close();
    return rc == LZMA_STREAM_END && static_cast<bool>(out);
}

/** Records drained from a trace and an order-sensitive checksum. */
struct Drain {
    std::uint64_t records = 0;
    std::uint64_t checksum = 0xcbf29ce484222325ULL;
    double seconds = 0;
};

/** Decode every record of @p path with no simulation attached. */
Drain
drain(const std::string& path)
{
    Drain d;
    const std::uint64_t t0 = now_ns();
    auto wl = frontend::open_trace(path, frontend::TraceFormat::Tria);
    if (wl == nullptr)
        return d;
    sim::TraceRecord r;
    while (wl->next(r)) {
        ++d.records;
        for (std::uint64_t v : {r.pc, r.addr,
                                std::uint64_t(r.dep_distance) << 9 |
                                    std::uint64_t(r.nonmem_before) << 1 |
                                    std::uint64_t(r.is_write)})
            d.checksum = (d.checksum ^ v) * 0x100000001b3ULL;
    }
    d.seconds = double(now_ns() - t0) * 1e-9;
    return d;
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/** The simulated statistics: exact, identical across host speed-ups. */
void
report_simulated(const std::vector<sim::RunResult>& results,
                 Report& report)
{
    double instr = 0, cycles = 0, records = 0, issued = 0, useful = 0;
    double l2_miss = 0, llc_miss = 0, dram = 0, ways = 0, cores = 0;
    for (const auto& r : results) {
        for (const auto& c : r.per_core) {
            instr += double(c.instructions);
            cycles += double(c.cycles);
            records += double(c.mem_records);
            issued += double(c.l2pf.issued());
            useful += double(c.l2pf.useful);
            l2_miss += double(c.l2.demand_misses);
            ways += c.avg_metadata_ways;
            cores += 1;
        }
        llc_miss += double(r.llc.demand_misses);
        dram += double(r.traffic.total());
    }
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    report.add("sim.ipc", "instr/cycle", ratio(instr, cycles));
    report.add("prefetch.issued", "count", issued);
    report.add("prefetch.accuracy", "frac", ratio(useful, issued));
    report.add("prefetch.coverage", "frac",
               ratio(useful, useful + l2_miss));
    report.add("triage.meta_ways", "ways", ratio(ways, cores));
    report.add("cache.l2_mpki", "miss/kinstr", 1000 * ratio(l2_miss, instr));
    report.add("cache.llc_mpki", "miss/kinstr",
               1000 * ratio(llc_miss, instr));
    report.add("dram.bytes_per_kacc", "B/kacc", 1000 * ratio(dram, records));
}

/** Per-layer metrics of one traced rep. */
void
report_layers(const Traced& t, bool lab, bool from_trace, double accesses,
              Report& report)
{
    const LayerCounters& lc = t.lc;
    report.add("workloads.next_calls", "count",
               from_trace ? 0 : double(lc.next.calls));
    report.add("workloads.next_ns", "ns", from_trace ? 0 : double(lc.next.ns));
    report.add("frontend.next_ns", "ns", from_trace ? double(lc.next.ns) : 0);
    report.add("prefetch.train_calls", "count", double(lc.train.calls));
    report.add("prefetch.train_ns", "ns", double(lc.train.ns));
    report.add("prefetch.train_self_ns", "ns", double(lc.train_self_ns));
    report.add("prefetch.teardown_ns", "ns", double(lc.teardown.ns));
    report.add("cache.issue_prefetch_calls", "count",
               double(lc.issue_prefetch.calls));
    report.add("cache.issue_prefetch_ns", "ns", double(lc.issue_prefetch.ns));
    report.add("cache.meta_calls", "count", double(lc.meta.calls));
    report.add("cache.meta_ns", "ns", double(lc.meta.ns));

    const double warm_s = phase_s(t.phases, "warmup");
    const double measure_s = phase_s(t.phases, "measure");
    const double residual_ns =
        (warm_s + measure_s) * 1e9 - double(lc.next.ns + lc.train.ns);
    report.add("cache.demand_ns", "ns/acc", std::max(0.0, residual_ns) /
                                                accesses);
    report.add("sim.warmup_s", "s", warm_s);
    report.add("sim.measure_s", "s", measure_s);

    report.add("snapshot.bytes", "B", t.snapshot_bytes);
    report.add("snapshot.save_mb_s", "MB/s",
               t.save_s > 0 ? t.snapshot_bytes / t.save_s * 1e-6 : 0);
    report.add("snapshot.restore_mb_s", "MB/s",
               t.restore_s > 0 ? t.snapshot_bytes / t.restore_s * 1e-6 : 0);
    // Only a Lab job pays for its save; a single run's save is the
    // traced round trip, which an untraced run does not do.
    report.add("snapshot.save_s", "s", lab ? t.save_s : 0);

    report.add("exec.jobs_submitted", "count", t.jobs_submitted);
    report.add("exec.jobs_run", "count", t.jobs_run);
    report.add("exec.busy_frac", "frac", t.busy_frac);
    report.add("exec.ckpt_produces", "count", double(t.ckpt.produces));
    report.add("exec.ckpt_hits", "count",
               double(t.ckpt.mem_hits + t.ckpt.disk_hits));
    report.add("exec.ckpt_lease_wait_s", "s",
               double(t.ckpt.lease_wait_ns) * 1e-9);
    report.add("layers.attributed_frac", "frac", t.attributed);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * This process's peak RSS. VmHWM, not getrusage: ru_maxrss survives
 * execve and would report the forking parent's footprint when that is
 * the larger.
 */
double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

bool
parse_args(int argc, char** argv, Options& o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto eq = a.find('=');
        const std::string key = a.substr(0, eq);
        const std::string val = eq == std::string::npos ? "" : a.substr(eq + 1);
        auto number = [&](auto& out) {
            const char* end = val.data() + val.size();
            return !val.empty() &&
                   std::from_chars(val.data(), end, out).ptr == end;
        };
        bool ok = true;
        if (key == "--workload") {
            o.workload = val;
        } else if (key == "--seed") {
            ok = number(o.seed);
        } else if (key == "--seconds") {
            ok = number(o.seconds) && o.seconds > 0;
        } else if (key == "--trace") {
            ok = val == "0" || val == "1";
            o.trace = val == "1";
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (key == "--scratch") {
            o.scratch = val;
        } else if (key == "--trace-out") {
            o.trace_out = val;
        } else {
            ok = false;
        }
        if (!ok) {
            std::cerr << "triage_bench: bad argument '" << a << "'\n";
            return false;
        }
    }
    if (o.workload.empty()) {
        std::cerr << "triage_bench: --workload=NAME is required\n";
        return false;
    }
    return true;
}

/**
 * Keep repeating while the next rep (assumed as long as the last) still
 * ends inside the --seconds window, with at least @p min_reps.
 */
bool
keep_going(const Options& o, std::uint64_t t_start, double last_s,
           unsigned done, unsigned min_reps)
{
    if (done < min_reps)
        return true;
    if (o.smoke)
        return false;
    const double elapsed = double(now_ns() - t_start) * 1e-9;
    return elapsed + last_s <= o.seconds && done < 200;
}

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    if (!parse_args(argc, argv, o))
        return 2;
    // The Lab reads its disk checkpoint tier from the environment; the
    // benchmark measures the in-memory tier only.
    ::unsetenv("TRIAGE_CKPT_DIR");
    // glibc moves its mmap threshold up to the size of each large block
    // the process frees, so whether a set-up's tables come from the heap
    // or from fresh pages depended on what the run had freed before:
    // mix4-hybrid's set-ups moved between 22 and 50 ms within one run. A
    // fixed threshold and no trimming make that the same in every run.
    ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
    ::mallopt(M_TRIM_THRESHOLD, 1 << 30);

    const bool lab = is_lab(o.workload);
    const bool from_trace = o.workload == "mcf-trace-gz";
    std::unique_ptr<TempDir> tmp;
    std::string gz_path;
    if (from_trace) {
        tmp = std::make_unique<TempDir>(o.scratch);
        gz_path = tmp->path() + "/mcf.tria.gz";
    }
    const std::vector<exec::Job> jobs = jobs_for(
        o.workload, o, frontend::trace_spec(gz_path,
                                            frontend::TraceFormat::Tria));
    if (jobs.empty()) {
        std::cerr << "triage_bench: unknown workload '" << o.workload
                  << "' (mcf-triage, mcf-none, mcf-trace-gz, "
                     "mix4-hybrid, fig17-lab, fig17-full)\n";
        return 2;
    }
    const double accesses = accesses_of(jobs);
    Report report;
    Spans spans;

    // mcf-trace-gz replays a recording of the records mcf-none
    // consumes, and must simulate exactly what mcf-none does.
    std::vector<sim::RunResult> reference;
    const std::string head = tmp ? tmp->path() + "/head.tria" : "";
    Drain raw_drain;
    if (from_trace) {
        const exec::Job none = jobs_for("mcf-none", o, "").front();
        reference.push_back(exec::run_job(none));
        auto record = [&](const std::string& path, std::uint64_t n) {
            auto wl = workloads::make_workload(
                none.benchmark, none.scale.workload_scale, jitter_of(none));
            return workloads::save_trace(path, *wl, n) == n;
        };
        const std::string raw = tmp->path() + "/mcf.tria";
        bool ok = record(raw, none.scale.warmup_records +
                                  none.scale.measure_records) &&
                  compress(raw, gz_path);
        std::filesystem::remove(raw);
        // The drain fixtures: the first records of the same stream in
        // each container the frontend decodes.
        if (ok && o.trace)
            ok = record(head, o.smoke ? 20000 : 500000) &&
                 compress(head, head + ".gz") && compress(head, head + ".xz");
        if (!ok) {
            std::cerr << "triage_bench: cannot write the trace fixtures\n";
            return 1;
        }
        if (o.trace)
            raw_drain = drain(head);
    }

    std::vector<sim::RunResult> first;
    auto check = [&](const Rep& rep, const std::string& what) {
        bool ok = true;
        if (first.empty()) {
            first = rep.results;
            if (!reference.empty())
                ok = same_results(first, reference,
                                  "mcf-trace-gz vs mcf-none", report);
        } else {
            ok = same_results(rep.results, first, what, report);
        }
        return ok;
    };

    if (!o.trace) {
        // A Lab rep is a sweep of several seconds, and two of them
        // after the warm-up keep a fig17-lab run near half a minute.
        const unsigned min_reps = o.smoke ? 1 : lab ? 2 : 3;
        const std::uint64_t t_start = now_ns();
        // The first rep in a process also grows the heap, and set-ups
        // stay slower until it has; it is checked but not timed.
        report.rep(check(run_plain(o.workload, jobs), "warm-up rep"));
        // The simulation's own footprint, before the reference pass
        // allocates its buffers.
        report.add("peak_rss_mb", "MB", peak_rss_mb());
        // A rep's time is scaled to a host on which the reference pass
        // takes kNominalPassS: a single run's by the passes either side
        // of it on the same thread, a Lab rep's by the passes beside it.
        // A set-up moves with the host about half as much as a rep, so
        // it is scaled by the square root of the factor of the pass
        // before it (README.md, Noise).
        ReferencePass ref;
        double before = ref.run();
        std::vector<double> unscaled, passes;
        unsigned done = 0;
        double last = 0;
        do {
            const std::uint64_t t_it = now_ns();
            // Set-ups are spread over the run, a few before each rep, so
            // that their median sees the same host as the reps do.
            for (unsigned i = 0; i < 3; ++i)
                report.add("setup_s", "s",
                           time_setup(jobs) *
                               std::sqrt(kNominalPassS / before));
            const Rep rep = run_plain(o.workload, jobs, &ref);
            report.rep(check(rep, "rep " + std::to_string(done + 1) +
                                      " vs rep 1"));
            const double after = ref.run();
            const double pass_s =
                lab ? rep.pass_s : std::sqrt(before * after);
            report.add("acc_per_s", "acc/s",
                       accesses / rep.wall_s * pass_s / kNominalPassS);
            unscaled.push_back(accesses / rep.wall_s);
            passes.push_back(pass_s);
            before = after;
            last = double(now_ns() - t_it) * 1e-9;
            ++done;
        } while (keep_going(o, t_start, last, done, min_reps));
        std::cerr << "triage_bench: " << o.workload
                  << ": reference pass median " << median(passes)
                  << " s (nominal " << kNominalPassS
                  << " s), unscaled acc/s median " << median(unscaled)
                  << "\n";
    } else {
        std::vector<double> plain_s, traced_s;
        const std::uint64_t t_start = now_ns();
        unsigned done = 0;
        double last = 0;
        do {
            const Rep rep = run_plain(o.workload, jobs);
            report.rep(check(rep, "untraced rep vs rep 1"));
            plain_s.push_back(rep.wall_s);
            const Traced t = lab ? traced_lab(jobs, spans)
                                 : traced_single(jobs.front(), spans);
            report.rep(same_results(t.rep.results, first,
                                    "traced rep vs untraced rep", report));
            traced_s.push_back(t.sim_s);
            report_layers(t, lab, from_trace, accesses, report);
            if (done == 0)
                report_simulated(t.rep.results, report);
            last = rep.wall_s + t.rep.wall_s;
            ++done;
        } while (keep_going(o, t_start, last, done, 1));
        report.add("obs.trace_overhead_frac", "frac",
                   1 - median(plain_s) / median(traced_s));

        // Decode rate of the same records from each container, with no
        // simulation attached; every container must yield the same
        // records.
        for (const char* ext : {"", ".gz", ".xz"}) {
            const std::string name =
                std::string("frontend.drain_") +
                (*ext ? ext + 1 : "tria") + "_rec_s";
            for (unsigned i = 0; i < (o.smoke ? 1u : 3u); ++i) {
                double rate = 0;
                if (from_trace) {
                    const Drain d = drain(head + ext);
                    if (d.records == 0 || d.records != raw_drain.records ||
                        d.checksum != raw_drain.checksum)
                        report.error(name + ": decoded records differ "
                                            "from the raw trace");
                    rate = d.seconds > 0 ? double(d.records) / d.seconds
                                         : 0;
                }
                report.add(name, "rec/s", rate);
            }
        }
        if (!o.trace_out.empty() && !spans.write(o.trace_out))
            report.error("cannot write " + o.trace_out);
    }
    tmp.reset();
    report.print(std::cout);
    return 0;
}
