/**
 * @file
 * Differential / metamorphic fidelity runner (docs/verification.md).
 *
 * Each pair runs two configurations that must be stat-identical and
 * diffs every timing-visible field of their RunResults:
 *
 *   degree0  degree-0 Triage vs the no-prefetcher baseline (a disabled
 *            prefetcher must not perturb timing);
 *   split    trace replay split at arbitrary record boundaries vs the
 *            unsplit trace;
 *   jobs     a sweep executed on a parallel lab (--jobs=N) vs the same
 *            sweep run serially;
 *   ckpt     a run forked from a memoized warm-state checkpoint vs the
 *            same run warming up cold (single-core, 2-core mix and a
 *            2-core MISB mix);
 *   stream   a trace replayed through the streaming frontend (bounded
 *            memory, plus a gzip leg and a warm-checkpoint fork) vs
 *            the same trace fully loaded in memory.
 *
 * Exit status 0 iff every selected pair matches; mismatching fields
 * are printed one per line.
 */
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <cstdlib>

#include "exec/checkpoint.hpp"
#include "exec/job.hpp"
#include "exec/lab.hpp"
#include "frontend/frontend.hpp"
#include "sim/config.hpp"
#include "util/parse_number.hpp"
#include "verify/diff.hpp"
#include "workloads/phased.hpp"
#include "workloads/spec.hpp"
#include "workloads/trace_io.hpp"

namespace {

using namespace triage;

struct Options {
    std::string pair = "all";
    std::string benchmark = "mcf";
    std::uint64_t warmup = 100000;
    std::uint64_t measure = 400000;
    std::uint32_t degree = 4;
    unsigned jobs = 4;
    bool smoke = false;
};

void
usage(const char* argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --pair=P        degree0 | split | jobs | ckpt | "
        "stream | all (default all)\n"
        "  --benchmark=B   benchmark analog (default mcf)\n"
        "  --warmup=N      warmup records per run (default 100000)\n"
        "  --measure=N     measured records per run (default 400000)\n"
        "  --degree=N      prefetch degree for the Triage runs "
        "(default 4)\n"
        "  --jobs=N        parallel worker count for the jobs pair "
        "(default 4)\n"
        "  --smoke         quarter-size windows (CI)\n",
        argv0);
}

bool
parse(int argc, char** argv, Options& o)
{
    auto val = [](const char* arg, const char* name) -> const char* {
        std::size_t n = std::strlen(name);
        if (std::strncmp(arg, name, n) == 0 && arg[n] == '=')
            return arg + n + 1;
        return nullptr;
    };
    const std::string_view prog = util::prog_name(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        if (const char* v = val(a, "--pair")) {
            o.pair = v;
        } else if (const char* v = val(a, "--benchmark")) {
            o.benchmark = v;
        } else if (const char* v = val(a, "--warmup")) {
            if (!util::parse_number(prog, "warmup", v, o.warmup))
                return false;
        } else if (const char* v = val(a, "--measure")) {
            if (!util::parse_number(prog, "measure", v, o.measure))
                return false;
        } else if (const char* v = val(a, "--degree")) {
            if (!util::parse_number(prog, "degree", v, o.degree))
                return false;
        } else if (const char* v = val(a, "--jobs")) {
            if (!util::parse_number(prog, "jobs", v, o.jobs))
                return false;
        } else if (std::strcmp(a, "--smoke") == 0) {
            o.smoke = true;
        } else if (std::strcmp(a, "--help") == 0) {
            usage(argv[0]);
            return false;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", a);
            usage(argv[0]);
            return false;
        }
    }
    if (o.smoke) {
        o.warmup /= 4;
        o.measure /= 4;
    }
    return true;
}

/** Print a pair verdict; @return true on a clean diff. */
bool
report(const std::string& name, const std::vector<std::string>& diff)
{
    if (diff.empty()) {
        std::printf("PASS %s\n", name.c_str());
        return true;
    }
    std::printf("FAIL %s (%zu differing fields)\n", name.c_str(),
                diff.size());
    for (const auto& line : diff)
        std::printf("  %s\n", line.c_str());
    return false;
}

exec::Job
base_job(const Options& o)
{
    exec::Job j;
    j.benchmark = o.benchmark;
    j.scale.warmup_records = o.warmup;
    j.scale.measure_records = o.measure;
    return j;
}

/** Degree-0 Triage must be timing-identical to no prefetcher at all. */
bool
pair_degree0(const Options& o)
{
    exec::Job baseline = base_job(o);
    baseline.pf_spec = "none";
    exec::Job disabled = base_job(o);
    disabled.pf_spec = "triage_dyn";
    disabled.degree = 0;
    return report("degree0",
                  verify::diff_results(exec::run_job(baseline),
                                       exec::run_job(disabled)));
}

/** Replay split at a record boundary must match the unsplit replay. */
bool
pair_split(const Options& o)
{
    // Record a trace prefix long enough to cover the run (the replay
    // wraps at EOF either way, and the wrap point must line up).
    auto src = workloads::make_benchmark(o.benchmark);
    std::vector<sim::TraceRecord> records;
    records.reserve(o.measure / 2);
    sim::TraceRecord r;
    src->reset();
    for (std::uint64_t i = 0; i < o.measure / 2 && src->next(r); ++i)
        records.push_back(r);

    auto job_for = [&](std::size_t cut) {
        exec::Job j = base_job(o);
        j.benchmark.clear();
        j.pf_spec = "triage_dyn";
        j.degree = o.degree;
        j.variant = cut == 0 ? std::string("trace:whole")
                             : "trace:split@" + std::to_string(cut);
        j.workload_factory = [&records, cut]() {
            if (cut == 0) {
                return std::unique_ptr<sim::Workload>(
                    std::make_unique<sim::VectorWorkload>("trace",
                                                          records));
            }
            std::vector<workloads::Phase> parts;
            parts.push_back({std::make_unique<sim::VectorWorkload>(
                "trace.a", std::vector<sim::TraceRecord>(
                               records.begin(),
                               records.begin() +
                                   static_cast<std::ptrdiff_t>(cut))),
                           0});
            parts.push_back({std::make_unique<sim::VectorWorkload>(
                "trace.b", std::vector<sim::TraceRecord>(
                               records.begin() +
                                   static_cast<std::ptrdiff_t>(cut),
                               records.end())),
                           0});
            return std::unique_ptr<sim::Workload>(
                std::make_unique<workloads::PhasedWorkload>(
                    "trace", std::move(parts)));
        };
        return j;
    };

    const sim::RunResult whole = exec::run_job(job_for(0));
    // Deliberately awkward boundaries: first record, a non-round prime
    // fraction, and last record.
    std::vector<std::size_t> cuts = {1, records.size() * 5 / 13,
                                     records.size() - 1};
    bool ok = true;
    for (std::size_t cut : cuts) {
        ok &= report("split@" + std::to_string(cut),
                     verify::diff_results(whole,
                                          exec::run_job(job_for(cut))));
    }
    return ok;
}

/** A parallel lab must reproduce the serial lab bit for bit. */
bool
pair_jobs(const Options& o)
{
    const std::vector<std::string> specs = {"none", "bo", "triage_dyn"};
    auto sweep = [&](unsigned workers) {
        exec::Lab lab(exec::LabOptions{workers});
        std::vector<exec::Lab::JobId> ids;
        for (const auto& spec : specs) {
            for (std::uint32_t d : {1u, o.degree}) {
                exec::Job j = base_job(o);
                j.pf_spec = spec;
                j.degree = d;
                ids.push_back(lab.submit(std::move(j)));
            }
        }
        std::vector<sim::RunResult> out;
        out.reserve(ids.size());
        for (auto id : ids)
            out.push_back(lab.result(id));
        return out;
    };
    const auto serial = sweep(1);
    const auto parallel = sweep(o.jobs);
    bool ok = true;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ok &= report("jobs[" + std::to_string(i) + "]",
                     verify::diff_results(serial[i], parallel[i]));
    }
    return ok;
}

/**
 * A measurement forked from a memoized warm checkpoint must be
 * bit-identical to one that warmed up cold in the same process.
 * Covers both warmup kinds (a single-core run, which warms
 * record-exactly on the 1-core system, and a 2-core mix, which warms
 * in quanta) and MISB's off-chip tables (a 2-core MISB mix).
 * Each sub-pair runs three times — cold (no store), producing (cold
 * warmup + snapshot publish), and forked (restore from the published
 * blob) — and both store-backed runs must match the cold one.
 */
bool
pair_ckpt(const Options& o)
{
    bool ok = true;
    auto check = [&](const char* name, exec::Job j) {
        const sim::RunResult cold = exec::run_job(j);
        exec::CheckpointStore store; // memory tier only
        const sim::RunResult produced = exec::run_job(j, &store);
        const sim::RunResult forked = exec::run_job(j, &store);
        ok &= report(std::string("ckpt-produce-") + name,
                     verify::diff_results(cold, produced));
        ok &= report(std::string("ckpt-fork-") + name,
                     verify::diff_results(cold, forked));
        const auto st = store.stats();
        if (st.misses != 1 || st.mem_hits != 1) {
            std::printf("FAIL ckpt-stats-%s (misses=%llu mem_hits=%llu, "
                        "want 1/1)\n",
                        name,
                        static_cast<unsigned long long>(st.misses),
                        static_cast<unsigned long long>(st.mem_hits));
            ok = false;
        }
    };

    exec::Job single = base_job(o);
    single.pf_spec = "triage_dyn";
    single.degree = o.degree;
    check("single", single);

    exec::Job mix = base_job(o);
    mix.benchmark.clear();
    mix.mix = {o.benchmark, "omnetpp"};
    mix.pf_spec = "triage_dyn";
    mix.degree = o.degree;
    check("mix2", mix);

    // MISB's warm state is its off-chip granule tables and metadata
    // caches: a fork must restore them exactly.
    exec::Job misb = mix;
    misb.pf_spec = "misb";
    misb.degree = 1;
    check("misb", misb);
    return ok;
}

/**
 * A trace replayed through the streaming frontend must be
 * stat-identical to the same trace fully loaded into memory — the
 * bounded-memory path changes nothing observable. Extra legs: the
 * same replay from a gzip-compressed copy (skipped when the gzip tool
 * is unavailable), and a streamed run forked from a warm checkpoint
 * vs the cold streamed run (the skip()-based cursor restore).
 */
bool
pair_stream(const Options& o)
{
    const std::string path = "diff_fidelity_stream.tria";
    {
        auto src = workloads::make_benchmark(o.benchmark);
        const std::uint64_t n = o.warmup + o.measure;
        if (workloads::save_trace(path, *src, n) != n) {
            std::printf("FAIL stream (cannot record %s)\n",
                        path.c_str());
            return false;
        }
    }

    exec::Job streamed = base_job(o);
    streamed.benchmark = "trace:" + path;
    streamed.pf_spec = "triage_dyn";
    streamed.degree = o.degree;

    exec::Job loaded = base_job(o);
    loaded.benchmark.clear();
    loaded.pf_spec = "triage_dyn";
    loaded.degree = o.degree;
    loaded.variant = "inmem:" + path;
    loaded.workload_factory = [path] {
        return workloads::load_trace(path);
    };

    const sim::RunResult mem = exec::run_job(loaded);
    bool ok = report("stream-vs-inmem",
                     verify::diff_results(mem, exec::run_job(streamed)));

    {
        // Warm-checkpoint fork on the streamed workload: produce then
        // restore, both matching the in-memory reference.
        exec::CheckpointStore store;
        ok &= report("stream-ckpt-produce",
                     verify::diff_results(
                         mem, exec::run_job(streamed, &store)));
        ok &= report("stream-ckpt-fork",
                     verify::diff_results(
                         mem, exec::run_job(streamed, &store)));
    }

    if (std::system(("gzip -kf " + path + " 2>/dev/null").c_str()) == 0) {
        exec::Job gz = streamed;
        gz.benchmark = "trace:" + path + ".gz";
        ok &= report("stream-gz",
                     verify::diff_results(mem, exec::run_job(gz)));
        std::remove((path + ".gz").c_str());
    } else {
        std::printf("SKIP stream-gz (gzip unavailable)\n");
    }
    std::remove(path.c_str());
    return ok;
}

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    if (!parse(argc, argv, o))
        return 2;
    bool ok = true;
    const bool all = o.pair == "all";
    if (all || o.pair == "degree0")
        ok &= pair_degree0(o);
    if (all || o.pair == "split")
        ok &= pair_split(o);
    if (all || o.pair == "jobs")
        ok &= pair_jobs(o);
    if (all || o.pair == "ckpt")
        ok &= pair_ckpt(o);
    if (all || o.pair == "stream")
        ok &= pair_stream(o);
    if (!all && o.pair != "degree0" && o.pair != "split" &&
        o.pair != "jobs" && o.pair != "ckpt" && o.pair != "stream") {
        std::fprintf(stderr, "unknown pair: %s\n", o.pair.c_str());
        return 2;
    }
    std::printf("%s\n", ok ? "all pairs identical" : "DIVERGENCE");
    return ok ? 0 : 1;
}
