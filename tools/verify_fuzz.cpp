/**
 * @file
 * Randomized configuration / trace fuzz driver for the invariant
 * harness (docs/verification.md). Each iteration draws a machine
 * configuration from a curated pow2-safe space, a prefetcher spec and
 * a benchmark, runs a short window with an InvariantSuite attached,
 * and fails on any invariant violation. A trace save/load round-trip
 * with a random record count rides along, as does a warm-snapshot
 * round-trip: a randomly configured, randomly warmed system must
 * resave byte-identically after restore, and the sealed blob must be
 * rejected under a flipped byte, a wrong version, or a mismatched
 * fingerprint. Intended for the CI verify job under ASan/UBSan
 * (fixed --seed; --smoke shrinks the windows).
 */
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "exec/checkpoint.hpp"
#include "exec/job.hpp"
#include "sim/config.hpp"
#include "sim/snapshot.hpp"
#include "sim/system.hpp"
#include "stats/experiment.hpp"
#include "util/parse_number.hpp"
#include "util/rng.hpp"
#include "verify/invariants.hpp"
#include "workloads/spec.hpp"
#include "workloads/trace_io.hpp"

namespace {

using namespace triage;

struct Options {
    std::uint64_t seed = 0x7261676521ULL;
    unsigned iters = 8;
    bool smoke = false;
};

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
        if (const char* v = val(a, "--seed")) {
            if (!util::parse_number(prog, "seed", v, o.seed))
                return false;
        } else if (const char* v = val(a, "--iters")) {
            if (!util::parse_number(prog, "iters", v, o.iters))
                return false;
        } else if (std::strcmp(a, "--smoke") == 0) {
            o.smoke = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--seed=S] [--iters=N] [--smoke]\n",
                         argv[0]);
            return false;
        }
    }
    return true;
}

/** Draw a machine config from a pow2-safe space of small geometries. */
sim::MachineConfig
random_config(util::Rng& rng)
{
    sim::MachineConfig cfg;
    static const std::uint64_t l1_sizes[] = {16 << 10, 32 << 10,
                                             64 << 10};
    static const std::uint64_t l2_sizes[] = {128 << 10, 256 << 10,
                                             512 << 10};
    static const std::uint64_t llc_sizes[] = {512 << 10, 1 << 20,
                                              2 << 20};
    cfg.l1d.size_bytes = l1_sizes[rng.next_below(3)];
    cfg.l1d.assoc = 1u << rng.next_range(1, 3);
    cfg.l2.size_bytes = l2_sizes[rng.next_below(3)];
    cfg.l2.assoc = 1u << rng.next_range(2, 3);
    cfg.llc.size_bytes = llc_sizes[rng.next_below(3)];
    cfg.llc.assoc = 16; // Triage's way-granular partition assumes 16
    cfg.llc_extra_latency =
        static_cast<std::uint32_t>(rng.next_range(0, 6));
    cfg.l2_mshrs =
        rng.chance(0.5)
            ? 0
            : static_cast<std::uint32_t>(rng.next_range(4, 16));
    cfg.l1_stride_prefetcher = rng.chance(0.75);
    cfg.model_tlb = rng.chance(0.25);
    cfg.dram_prefetch_queue_limit =
        static_cast<std::uint32_t>(rng.next_range(4, 32));
    return cfg;
}

bool
fuzz_run(util::Rng& rng, const Options& o, unsigned iter)
{
    static const char* specs[] = {"none",       "bo",        "markov",
                                  "stms",       "misb",      "triage_512KB",
                                  "triage_dyn", "bo+triage_dyn"};
    static const char* benches[] = {"mcf", "omnetpp", "soplex_k",
                                    "sphinx3", "milc"};
    exec::Job job;
    job.config = random_config(rng);
    job.benchmark = benches[rng.next_below(5)];
    job.pf_spec = specs[rng.next_below(8)];
    job.degree = static_cast<std::uint32_t>(rng.next_range(0, 8));
    job.scale.warmup_records = o.smoke ? 5000 : 20000;
    job.scale.measure_records =
        (o.smoke ? 20000 : 80000) + rng.next_below(10000);
    if (rng.chance(0.3)) {
        job.benchmark.clear();
        job.mix = {benches[rng.next_below(5)],
                   benches[rng.next_below(5)]};
    }

    obs::Observability obs;
    verify::InvariantSuite suite;
    obs.verifier = &suite;
    job.obs = &obs;

    exec::run_job(job);

    std::printf("iter %u: %s / %s degree %u -> %llu checks, "
                "%llu violations\n",
                iter, job.mix.empty() ? job.benchmark.c_str() : "mix2",
                job.pf_spec.c_str(), job.degree,
                static_cast<unsigned long long>(suite.checks_run()),
                static_cast<unsigned long long>(suite.violations()));
    for (const auto& v : suite.recorded())
        std::printf("  [%s] %s\n", v.checker.c_str(),
                    v.message.c_str());
    return suite.violations() == 0;
}

bool
fuzz_trace_roundtrip(util::Rng& rng, unsigned iter)
{
    static const char* benches[] = {"mcf", "lbm", "libquantum"};
    const std::string bench = benches[rng.next_below(3)];
    const std::uint64_t n = rng.next_range(1, 5000);
    const std::string path =
        "fuzz_trace_" + std::to_string(iter) + ".bin";

    auto src = workloads::make_benchmark(bench);
    const std::uint64_t saved = workloads::save_trace(path, *src, n);
    auto loaded = workloads::load_trace(path);
    std::remove(path.c_str());

    src->reset();
    sim::TraceRecord a, b;
    std::uint64_t replayed = 0;
    bool ok = true;
    while (loaded->next(b)) {
        if (!src->next(a)) {
            std::printf("iter %u: trace %s longer than source\n", iter,
                        path.c_str());
            ok = false;
            break;
        }
        if (a.pc != b.pc || a.addr != b.addr ||
            a.is_write != b.is_write ||
            a.nonmem_before != b.nonmem_before ||
            a.dep_distance != b.dep_distance) {
            std::printf("iter %u: trace record %llu diverges after "
                        "round-trip\n",
                        iter,
                        static_cast<unsigned long long>(replayed));
            ok = false;
            break;
        }
        ++replayed;
    }
    if (ok && replayed != saved) {
        std::printf("iter %u: saved %llu records, replayed %llu\n",
                    iter, static_cast<unsigned long long>(saved),
                    static_cast<unsigned long long>(replayed));
        ok = false;
    }
    return ok;
}

/**
 * Warm-snapshot round-trip under a random geometry, prefetcher and
 * warmup length: save(A) -> restore(B) -> save(B) must be byte-equal,
 * and the sealed frame must reject corruption and mismatched
 * version/fingerprint (docs/parallel-runs.md §checkpointing).
 */
bool
fuzz_snapshot_roundtrip(util::Rng& rng, const Options& o, unsigned iter)
{
    static const char* specs[] = {"none",      "bo",     "sms",
                                  "markov",    "stms",   "domino",
                                  "ghb_pcdc",  "misb",   "next_line",
                                  "triage_dyn", "triage_unlimited"};
    static const char* benches[] = {"mcf", "omnetpp", "soplex_k",
                                    "sphinx3", "milc"};
    const sim::MachineConfig cfg = random_config(rng);
    const std::string spec = specs[rng.next_below(11)];
    const std::string bench = benches[rng.next_below(5)];
    const auto degree =
        static_cast<std::uint32_t>(rng.next_range(1, 8));
    const std::uint64_t warm =
        (o.smoke ? 2000 : 10000) + rng.next_below(10000);

    auto build = [&]() {
        auto sys = std::make_unique<sim::SingleCoreSystem>(cfg);
        sys->set_prefetcher(stats::make_prefetcher(spec, degree));
        return sys;
    };
    const std::string fp = spec + "|" + bench + "|warm";

    auto wl_a = workloads::make_benchmark(bench);
    wl_a->reset();
    auto a = build();
    a->bind(*wl_a);
    a->run_warmup(warm);
    sim::Snapshot save;
    a->checkpoint_warm(save);
    const sim::SnapshotBlob blob = save.seal(exec::CKPT_VERSION, fp);

    bool ok = true;
    auto fail = [&](const char* what) {
        std::printf("iter %u: snapshot %s / %s degree %u warm %llu: "
                    "%s\n",
                    iter, bench.c_str(), spec.c_str(), degree,
                    static_cast<unsigned long long>(warm), what);
        ok = false;
    };

    auto wl_b = workloads::make_benchmark(bench);
    wl_b->reset();
    auto b = build();
    b->bind(*wl_b);
    sim::Snapshot load;
    if (!sim::Snapshot::open(blob, exec::CKPT_VERSION, fp, load)) {
        fail("own blob failed to open");
        return false;
    }
    b->checkpoint_warm(load);
    if (!load.exhausted())
        fail("payload not fully consumed on restore");
    sim::Snapshot resave;
    b->checkpoint_warm(resave);
    if (resave.seal(exec::CKPT_VERSION, fp) != blob)
        fail("resave not byte-identical");

    // Every sealed frame rejects tampering and mismatched identity.
    sim::Snapshot probe;
    sim::SnapshotBlob corrupt = blob;
    corrupt[rng.next_below(static_cast<std::uint32_t>(corrupt.size()))] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    if (sim::Snapshot::open(corrupt, exec::CKPT_VERSION, fp, probe))
        fail("accepted a corrupted blob");
    if (sim::Snapshot::open(blob, exec::CKPT_VERSION + 1, fp, probe))
        fail("accepted a mismatched version");
    if (sim::Snapshot::open(blob, exec::CKPT_VERSION, fp + "!", probe))
        fail("accepted a mismatched fingerprint");
    return ok;
}

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    if (!parse(argc, argv, o))
        return 2;
    util::Rng rng(o.seed);
    bool ok = true;
    for (unsigned i = 0; i < o.iters; ++i) {
        // Draw kept so a given --seed still fuzzes the same configs.
        (void)rng.chance(0.5);
        ok &= fuzz_run(rng, o, i);
        ok &= fuzz_trace_roundtrip(rng, i);
        ok &= fuzz_snapshot_roundtrip(rng, o, i);
    }
    std::printf("%s\n", ok ? "fuzz clean" : "FUZZ FAILURES");
    return ok ? 0 : 1;
}
