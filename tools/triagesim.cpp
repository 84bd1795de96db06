/**
 * @file
 * triagesim — the command-line simulator driver.
 *
 * Runs any benchmark analog (or an external trace file) under any
 * prefetcher configuration on 1-N cores and prints a full report:
 * IPC/speedup, cache behaviour, prefetcher effectiveness, DRAM traffic
 * by class, and metadata energy.
 *
 * Examples:
 *   triagesim --benchmark=mcf --prefetcher=triage_dyn
 *   triagesim --mix=mcf,omnetpp,bwaves,sphinx3 --prefetcher=bo+triage_dyn
 *   triagesim --benchmark=mcf --save-trace=mcf.tria --records=1000000
 *   triagesim --trace=mcf.tria.gz --prefetcher=misb --no-baseline
 *   triagesim --trace=app.champsimtrace.xz --trace-format=champsim
 *   triagesim --trace=app.champsimtrace.xz --save-trace=app.tria
 *   triagesim --mix=mcf,trace:app.tria.gz,bwaves,sphinx3
 *   triagesim --list
 */
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "exec/lab.hpp"
#include "frontend/frontend.hpp"
#include "obs/observer.hpp"
#include "obs/profile.hpp"
#include "verify/invariants.hpp"

#include "sim/multicore.hpp"
#include "util/log.hpp"
#include "sim/system.hpp"
#include "stats/experiment.hpp"
#include "stats/metrics.hpp"
#include "stats/report.hpp"
#include "stats/table.hpp"
#include "workloads/spec.hpp"
#include "workloads/trace_io.hpp"

using namespace triage;

namespace {

struct Options {
    std::string benchmark = "mcf";
    std::vector<std::string> mix;
    std::string trace_path;
    std::string trace_format; ///< tria|champsim|memtrace ("" = auto)
    std::string save_trace_path;
    std::string prefetcher = "triage_dyn";
    std::uint32_t degree = 1;
    std::uint64_t warmup = 400000;
    std::uint64_t measure = 1000000;
    std::uint64_t records = 1000000; ///< for --save-trace
    double scale = 1.0;
    unsigned jobs = 0; ///< worker threads (0 = hardware concurrency)
    std::uint32_t mshrs = 0;
    bool tlb = false;
    std::string llc_repl = "lru";
    bool baseline = true;
    bool list = false;
    bool help = false;
    bool json = false;
    bool records_set = false;
    bool measure_set = false;
#ifdef TRIAGE_VERIFY_DEFAULT
    bool verify = true; ///< -DTRIAGE_VERIFY=ON build: harness always on
#else
    bool verify = false;
#endif
    // Observability.
    bool profile = false;
    std::string stats_json_path;
    std::string trace_events_path;
    std::string trace_perfetto_path;
    std::uint64_t epoch = 0;
    std::uint64_t trace_capacity = 0; ///< 0 = EventTrace default
};

void
usage()
{
    std::cout <<
        "triagesim — Triage prefetcher simulator driver\n\n"
        "  --benchmark=NAME       synthetic analog to run (default mcf)\n"
        "  --mix=A,B,C,D          multi-core mix (one benchmark or\n"
        "                         trace:FILE spec per core)\n"
        "  --trace=FILE           replay a trace file instead, streamed\n"
        "                         with bounded memory; .tria, ChampSim\n"
        "                         and memtrace formats, transparently\n"
        "                         decompressing .gz/.xz (docs/traces.md)\n"
        "  --trace-format=F       tria|champsim|memtrace; default: infer\n"
        "                         from the extension, .tria if unnamed\n"
        "  --save-trace=FILE      record the benchmark — or convert\n"
        "                         --trace=FILE — to a .tria file, then\n"
        "                         exit\n"
        "  --records=N            records to save with --save-trace;\n"
        "                         without --save-trace, an alias for\n"
        "                         --measure (explicit --measure wins)\n"
        "  --prefetcher=SPEC      none|bo|sms|markov|next_line|ghb_pcdc|\n"
        "                         stms|domino|isb|misb|triage_<size>|\n"
        "                         triage_dyn|triage_unlimited, '+'-joined\n"
        "                         hybrids (default triage_dyn)\n"
        "  --degree=N             prefetch degree (default 1)\n"
        "  --warmup=N --measure=N window sizes in memory references\n"
        "  --scale=F              workload pass-length scale\n"
        "  --llc-repl=P           lru|srrip|drrip|ship|hawkeye\n"
        "  --mshrs=N              finite L2 MSHR file (0 = unlimited)\n"
        "  --tlb                  model the Table 1 TLBs\n"
        "  --no-baseline          skip the no-prefetch comparison run\n"
        "  --jobs=N               worker threads for independent runs\n"
        "                         (default: hardware concurrency;\n"
        "                         results are identical at any N)\n"
        "  --json                 emit the report as JSON\n"
        "  --profile              profile the simulator itself: phase\n"
        "                         timers (warmup/measure/epoch/weave/\n"
        "                         snapshot), hardware counters where\n"
        "                         perf_event_open works (TSC fallback\n"
        "                         otherwise), worker + checkpoint-store\n"
        "                         telemetry; adds a \"profile\" block\n"
        "                         to --stats-json and host-profiler\n"
        "                         tracks to --trace-perfetto\n"
        "  --stats-json=FILE      write the full stats registry, epoch\n"
        "                         series and run summary as JSON\n"
        "  --trace-events=FILE    write the structured event trace\n"
        "                         (.jsonl = JSON lines, else binary)\n"
        "  --trace-perfetto=FILE  write a Chrome trace-event JSON\n"
        "                         timeline (job spans, partition\n"
        "                         decisions, epoch series) loadable in\n"
        "                         ui.perfetto.dev\n"
        "  --trace-capacity=N     event-trace ring capacity in events\n"
        "                         (default 1M; raise when a run warns\n"
        "                         about dropped events)\n"
        "  --epoch=N              sample the epoch series every N\n"
        "                         measured records (0 = off;\n"
        "                         --trace-perfetto defaults it to\n"
        "                         measure/20)\n"
        "  --verify               run the invariant harness during the\n"
        "                         measurement window (cache/metadata/\n"
        "                         partition/lifecycle checkers; exit\n"
        "                         nonzero on any violation)\n"
        "  --no-verify            force the harness off (the default\n"
        "                         unless built with -DTRIAGE_VERIFY=ON)\n"
        "  --list                 list available benchmark analogs\n";
}

bool
parse(int argc, char** argv, Options& o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&](const char* key) -> std::optional<std::string> {
            std::string k = std::string("--") + key + "=";
            if (a.rfind(k, 0) == 0)
                return a.substr(k.size());
            return std::nullopt;
        };
        if (a == "--help" || a == "-h") {
            o.help = true;
        } else if (a == "--list") {
            o.list = true;
        } else if (a == "--tlb") {
            o.tlb = true;
        } else if (a == "--no-baseline") {
            o.baseline = false;
        } else if (a == "--json") {
            o.json = true;
        } else if (a == "--profile") {
            o.profile = true;
        } else if (a == "--verify") {
            o.verify = true;
        } else if (a == "--no-verify") {
            o.verify = false;
        } else if (auto v = val("benchmark")) {
            o.benchmark = *v;
        } else if (auto v = val("mix")) {
            o.mix.clear();
            std::size_t start = 0;
            while (start <= v->size()) {
                std::size_t comma = v->find(',', start);
                if (comma == std::string::npos) {
                    o.mix.push_back(v->substr(start));
                    break;
                }
                o.mix.push_back(v->substr(start, comma - start));
                start = comma + 1;
            }
        } else if (auto v = val("trace")) {
            o.trace_path = *v;
        } else if (auto v = val("trace-format")) {
            o.trace_format = *v;
        } else if (auto v = val("save-trace")) {
            o.save_trace_path = *v;
        } else if (auto v = val("prefetcher")) {
            o.prefetcher = *v;
        } else if (auto v = val("degree")) {
            o.degree = static_cast<std::uint32_t>(std::stoul(*v));
        } else if (auto v = val("warmup")) {
            o.warmup = std::stoull(*v);
        } else if (auto v = val("measure")) {
            o.measure = std::stoull(*v);
            o.measure_set = true;
        } else if (auto v = val("records")) {
            o.records = std::stoull(*v);
            o.records_set = true;
        } else if (auto v = val("stats-json")) {
            o.stats_json_path = *v;
        } else if (auto v = val("trace-events")) {
            o.trace_events_path = *v;
        } else if (auto v = val("trace-perfetto")) {
            o.trace_perfetto_path = *v;
        } else if (auto v = val("trace-capacity")) {
            o.trace_capacity = std::stoull(*v);
        } else if (auto v = val("epoch")) {
            o.epoch = std::stoull(*v);
        } else if (auto v = val("jobs")) {
            o.jobs = static_cast<unsigned>(std::stoul(*v));
        } else if (auto v = val("scale")) {
            o.scale = std::stod(*v);
        } else if (auto v = val("mshrs")) {
            o.mshrs = static_cast<std::uint32_t>(std::stoul(*v));
        } else if (auto v = val("llc-repl")) {
            o.llc_repl = *v;
        } else {
            std::cerr << "unknown option: " << a << "\n";
            return false;
        }
    }
    return true;
}

sim::ReplPolicy
repl_of(const std::string& s)
{
    if (s == "lru")
        return sim::ReplPolicy::Lru;
    if (s == "srrip")
        return sim::ReplPolicy::Srrip;
    if (s == "drrip")
        return sim::ReplPolicy::Drrip;
    if (s == "ship")
        return sim::ReplPolicy::Ship;
    if (s == "hawkeye")
        return sim::ReplPolicy::Hawkeye;
    util::fatal("unknown LLC replacement policy: " + s);
}

void
report(const std::string& label, const sim::RunResult& r,
       const sim::RunResult* base)
{
    stats::banner(std::cout, "Report: " + label);
    stats::Table t({"core", "IPC", "L1 miss", "L2 miss", "coverage",
                    "accuracy", "meta ways"});
    for (std::size_t c = 0; c < r.per_core.size(); ++c) {
        const auto& s = r.per_core[c];
        t.row({std::to_string(c), stats::fmt(s.ipc()),
               std::to_string(s.l1.demand_misses),
               std::to_string(s.l2.demand_misses),
               stats::fmt_pct(s.coverage()),
               stats::fmt_pct(s.accuracy()),
               stats::fmt(s.avg_metadata_ways, 1)});
    }
    t.print(std::cout);

    std::cout << "\nDRAM traffic: total "
              << r.traffic.total() / 1024 << " KB (demand "
              << r.traffic.of(sim::TrafficClass::DemandRead) / 1024
              << ", prefetch "
              << r.traffic.of(sim::TrafficClass::PrefetchRead) / 1024
              << ", writeback "
              << r.traffic.of(sim::TrafficClass::Writeback) / 1024
              << ", metadata "
              << (r.traffic.of(sim::TrafficClass::MetadataRead) +
                  r.traffic.of(sim::TrafficClass::MetadataWrite)) /
                     1024
              << " KB)\n";
    if (base != nullptr) {
        std::cout << "Speedup over no-L2-prefetch: "
                  << stats::fmt_x(stats::speedup(r, *base))
                  << "   traffic overhead: "
                  << stats::fmt_pct(stats::traffic_overhead(r, *base))
                  << "\n";
    }
}

/** Does any option ask for the observability subsystem? */
bool
wants_observability(const Options& o)
{
    return !o.stats_json_path.empty() || !o.trace_events_path.empty() ||
           !o.trace_perfetto_path.empty() || o.epoch > 0;
}

/**
 * Post-run profile wiring: pull the Lab's worker/checkpoint telemetry
 * into the profiler and mirror the checkpoint counters into the stats
 * registry under profile.ckpt.* (integer view of the same numbers the
 * profile block reports; docs/observability.md §10).
 */
void
finish_profile(const Options& o, obs::Observability& obs,
               exec::Lab& lab)
{
    lab.publish_profile();
    if (wants_observability(o)) {
        exec::CheckpointStore* ckpt = lab.checkpoints();
        if (ckpt != nullptr) {
            const exec::CheckpointStore::Stats s = ckpt->stats();
            auto put = [&](const char* leaf, std::uint64_t v,
                           const char* desc) {
                obs.registry
                    .counter(std::string("profile.ckpt.") + leaf, desc)
                    .add(v);
            };
            put("mem_hits", s.mem_hits, "warm forks from the memory tier");
            put("disk_hits", s.disk_hits, "warm forks from the disk tier");
            put("misses", s.misses, "acquires that became producers");
            put("produces", s.produces, "warm snapshots published");
            put("skipped", s.skipped,
                "producer leases declined: nothing could fork them");
            put("waits", s.waits, "acquires blocked on a producer");
            put("evictions", s.evictions, "memory-tier LRU evictions");
            put("lease_wait_ns", s.lease_wait_ns,
                "total ns blocked on producer leases");
            put("bytes_published", s.bytes_published,
                "bytes of published warm snapshots");
            put("bytes_mem", s.bytes_mem, "memory tier bytes, at exit");
            put("bytes_disk_read", s.bytes_disk_read,
                "bytes loaded from the disk tier");
            put("bytes_disk_written", s.bytes_disk_written,
                "bytes written to the disk tier");
        }
    }
    if (!o.json) {
        auto& prof = obs::prof::Profiler::instance();
        const double wall = prof.wall_seconds();
        const double frac =
            wall > 0.0 ? prof.attributed_seconds() / wall : 0.0;
        std::cout << "profile: " << static_cast<int>(frac * 100.0 + 0.5)
                  << "% of " << wall << "s wall attributed, backend "
                  << obs::prof::Profiler::backend_name(prof.backend())
                  << "\n";
    }
}

/** Write --stats-json / --trace-events / --trace-perfetto outputs. */
int
emit_observability(const Options& o, const sim::RunResult& r,
                   const obs::Observability& obs, const exec::Lab& lab)
{
    if (!o.stats_json_path.empty()) {
        std::ofstream f(o.stats_json_path);
        if (!f) {
            std::cerr << "cannot write " << o.stats_json_path << "\n";
            return 1;
        }
        stats::write_stats_json(f, r, &obs);
        if (!o.json)
            std::cout << "stats json: " << o.stats_json_path << "\n";
    }
    if (!o.trace_events_path.empty()) {
        bool jsonl =
            o.trace_events_path.size() >= 6 &&
            o.trace_events_path.substr(o.trace_events_path.size() - 6) ==
                ".jsonl";
        std::ofstream f(o.trace_events_path,
                        jsonl ? std::ios::out
                              : std::ios::out | std::ios::binary);
        if (!f) {
            std::cerr << "cannot write " << o.trace_events_path << "\n";
            return 1;
        }
        if (jsonl)
            obs.trace.write_jsonl(f);
        else
            obs.trace.write_binary(f);
        if (!o.json) {
            std::cout << "trace events: " << o.trace_events_path << " ("
                      << obs.trace.size() << " buffered of "
                      << obs.trace.total() << " emitted)\n";
        }
    }
    if (!o.trace_perfetto_path.empty()) {
        std::ofstream f(o.trace_perfetto_path);
        if (!f) {
            std::cerr << "cannot write " << o.trace_perfetto_path << "\n";
            return 1;
        }
        obs::perfetto::TraceOptions topt;
        topt.n_workers = lab.workers();
        obs::perfetto::write_trace(f, &obs, lab.job_spans(), topt);
        if (!o.json) {
            std::cout << "perfetto trace: " << o.trace_perfetto_path
                      << " (open in ui.perfetto.dev)\n";
        }
    }
    if (obs.trace.enabled() && obs.trace.dropped() > 0) {
        util::warn(util::format_msg(
            "event trace overflowed: ", obs.trace.dropped(), " of ",
            obs.trace.total(),
            " events were overwritten; rerun with --trace-capacity=",
            obs.trace.total(), " to keep them all"));
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    if (!parse(argc, argv, o)) {
        usage();
        return 1;
    }
    if (o.help) {
        usage();
        return 0;
    }
    // Convenience: --records=N without --save-trace sets the
    // measurement window (the observability smoke-test invocation).
    // An explicit --measure always wins over the alias.
    if (o.records_set && !o.measure_set && o.save_trace_path.empty())
        o.measure = o.records;
    if (o.list) {
        std::cout << "irregular SPEC analogs:\n";
        for (const auto& b : workloads::irregular_spec())
            std::cout << "  " << b << "\n";
        std::cout << "regular SPEC analogs:\n";
        for (const auto& b : workloads::regular_spec())
            std::cout << "  " << b << "\n";
        std::cout << "CloudSuite analogs:\n";
        for (const auto& b : workloads::cloudsuite())
            std::cout << "  " << b << "\n";
        return 0;
    }

    // Resolve the input trace format once: the explicit flag wins,
    // then the extension, then .tria for unnamed legacy paths (the
    // header magic still rejects anything that is not one).
    frontend::TraceFormat tfmt = frontend::TraceFormat::Auto;
    if (!o.trace_format.empty() &&
        (!frontend::parse_format(o.trace_format, tfmt) ||
         tfmt == frontend::TraceFormat::Auto)) {
        std::cerr << "unknown --trace-format: " << o.trace_format
                  << " (tria | champsim | memtrace)\n";
        return 1;
    }
    if (!o.trace_path.empty() && tfmt == frontend::TraceFormat::Auto &&
        !frontend::detect_format(o.trace_path, tfmt))
        tfmt = frontend::TraceFormat::Tria;

    if (!o.save_trace_path.empty()) {
        // Source: --trace (format conversion, e.g. ChampSim -> .tria)
        // or a benchmark analog (trace recording). Both stream.
        std::unique_ptr<sim::Workload> wl;
        std::string source;
        if (!o.trace_path.empty()) {
            wl = frontend::open_trace(o.trace_path, tfmt);
            if (wl == nullptr)
                return 1;
            source = o.trace_path;
        } else {
            wl = workloads::make_benchmark(o.benchmark, o.scale);
            source = o.benchmark;
        }
        auto n = workloads::save_trace(o.save_trace_path, *wl,
                                       o.records);
        std::cout << "wrote " << n << " records of '" << source
                  << "' to " << o.save_trace_path << "\n";
        return n > 0 ? 0 : 1;
    }

    // Arm before any simulation work so wall_seconds covers the whole
    // run and the ≥95% attribution target is judged honestly.
    if (o.profile)
        obs::prof::Profiler::instance().enable();
    const auto prof_t0 = std::chrono::steady_clock::now();

    sim::MachineConfig cfg;
    cfg.l2_mshrs = o.mshrs;
    cfg.model_tlb = o.tlb;
    cfg.llc_replacement = repl_of(o.llc_repl);
    cfg.prefetch_degree = o.degree;

    stats::RunScale scale;
    scale.warmup_records = o.warmup;
    scale.measure_records = o.measure;
    scale.workload_scale = o.scale;

    // Validate the trace file before handing it to worker threads —
    // a streaming open (header only), never a whole-file load.
    std::string label;
    if (!o.mix.empty()) {
        label = o.prefetcher;
    } else if (!o.trace_path.empty()) {
        if (frontend::open_trace(o.trace_path, tfmt) == nullptr)
            return 1;
        label = o.trace_path + " / " + o.prefetcher;
    } else {
        label = o.benchmark + " / " + o.prefetcher;
    }

    if (!o.json) {
        auto cores =
            o.mix.empty() ? 1u : static_cast<unsigned>(o.mix.size());
        std::cout << "Machine: " << cores
                  << (cores == 1 ? " core\n" : " cores\n")
                  << cfg.describe(cores) << "\n";
    }

    // A Perfetto timeline without epoch spans is mostly empty; default
    // to ~20 epochs across the measurement window when unset.
    if (!o.trace_perfetto_path.empty() && o.epoch == 0)
        o.epoch = std::max<std::uint64_t>(1, o.measure / 20);

    obs::Observability obs;
    verify::InvariantSuite suite;
    if (o.verify)
        obs.verifier = &suite;
    obs.sampler.configure(o.epoch);
    if (!o.trace_events_path.empty() || !o.trace_perfetto_path.empty()) {
        obs.trace.enable(o.trace_capacity != 0
                             ? o.trace_capacity
                             : obs::EventTrace::DEFAULT_CAPACITY);
    }

    // The baseline and main runs are independent jobs; with --jobs>=2
    // they execute on parallel workers, byte-identical to serial.
    exec::Lab lab({.jobs = o.jobs});
    auto make_job = [&](const std::string& pf, bool with_obs) {
        exec::Job j;
        j.config = cfg;
        j.pf_spec = pf;
        j.degree = o.degree;
        j.scale = scale;
        if (!o.mix.empty()) {
            j.mix = o.mix;
        } else if (!o.trace_path.empty()) {
            // A trace spec is a first-class benchmark name: the job
            // streams the file with bounded memory and its JobKey
            // carries the resolved format + path + byte size.
            j.benchmark = frontend::trace_spec(o.trace_path, tfmt);
        } else {
            j.benchmark = o.benchmark;
        }
        if (with_obs && (wants_observability(o) || o.verify))
            j.obs = &obs;
        return j;
    };

    // Config / workload-table / Lab construction ran outside any
    // scope; attribute it so short runs still clear the ≥95% target.
    if (o.profile)
        obs::prof::Profiler::instance().add_external(
            "startup",
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - prof_t0)
                    .count()));

    std::optional<exec::Lab::JobId> base_id;
    if (o.baseline)
        base_id = lab.submit(make_job("none", false));
    auto main_id = lab.submit(make_job(o.prefetcher, true));

    const sim::RunResult* base =
        base_id ? &lab.result(*base_id) : nullptr;
    const auto& r = lab.result(main_id);
    {
        obs::prof::ProfScope prof_report("report");
        if (o.json)
            stats::write_json(std::cout, r);
        else
            report(label, r, base);
    }
    if (o.profile)
        finish_profile(o, obs, lab);
    int rc = emit_observability(o, r, obs, lab);
    if (o.verify) {
        if (!o.json) {
            std::cout << "verify: " << suite.checks_run()
                      << " checks, " << suite.violations()
                      << " violations\n";
        }
        for (const auto& v : suite.recorded())
            std::cerr << "verify: [" << v.checker << "] " << v.message
                      << "\n";
        if (suite.violations() > 0 && rc == 0)
            rc = 1;
    }
    return rc;
}
