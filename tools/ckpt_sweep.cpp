/**
 * @file
 * Checkpoint-cache smoke runner (docs/parallel-runs.md §checkpointing).
 *
 * Runs a small sweep — one workload, one prefetcher, three measurement
 * lengths — through an exec::Lab with an on-disk checkpoint cache, and
 * prints the store's hit/miss counters. Run it twice against the same
 * --dir: the first process warms up once and publishes the snapshot
 * (1 miss, 2 in-memory forks), the second process never simulates a
 * warmup at all (1 disk hit, 2 in-memory forks). Either way the memory
 * tier is empty at exit: the blob is released after the last fork.
 * With --jobs=2 the second job may wait on the first one's lease instead
 * of forking after it; the counts are the same. CI asserts every
 * profile with the --expect-* flags.
 */
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "exec/checkpoint.hpp"
#include "exec/lab.hpp"

namespace {

using namespace triage;

struct Options {
    std::string dir;
    std::string benchmark = "mcf";
    std::uint64_t warmup = 60000;
    unsigned jobs = 1;
    bool fresh = false;
    long expect_mem_hits = -1;
    long expect_disk_hits = -1;
    long expect_misses = -1;
    long expect_bytes_mem = -1;
};

void
usage(const char* argv0)
{
    std::printf(
        "usage: %s --dir=DIR [options]\n"
        "  --dir=DIR             on-disk checkpoint cache directory\n"
        "  --benchmark=B         benchmark analog (default mcf)\n"
        "  --warmup=N            warmup records (default 60000)\n"
        "  --jobs=N              Lab worker threads (default 1)\n"
        "  --fresh               wipe DIR before running\n"
        "  --expect-mem-hits=N   fail unless mem_hits == N\n"
        "  --expect-disk-hits=N  fail unless disk_hits == N\n"
        "  --expect-misses=N     fail unless misses == N\n"
        "  --expect-bytes-mem=N  fail unless bytes_mem == N at exit\n",
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
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        if (const char* v = val(a, "--dir"))
            o.dir = v;
        else if (const char* v = val(a, "--benchmark"))
            o.benchmark = v;
        else if (const char* v = val(a, "--warmup"))
            o.warmup = std::strtoull(v, nullptr, 10);
        else if (const char* v = val(a, "--jobs"))
            o.jobs = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        else if (std::strcmp(a, "--fresh") == 0)
            o.fresh = true;
        else if (const char* v = val(a, "--expect-mem-hits"))
            o.expect_mem_hits = std::strtol(v, nullptr, 10);
        else if (const char* v = val(a, "--expect-disk-hits"))
            o.expect_disk_hits = std::strtol(v, nullptr, 10);
        else if (const char* v = val(a, "--expect-misses"))
            o.expect_misses = std::strtol(v, nullptr, 10);
        else if (const char* v = val(a, "--expect-bytes-mem"))
            o.expect_bytes_mem = std::strtol(v, nullptr, 10);
        else if (std::strcmp(a, "--help") == 0) {
            usage(argv[0]);
            return false;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", a);
            usage(argv[0]);
            return false;
        }
    }
    if (o.jobs == 0) {
        std::fprintf(stderr, "--jobs must be at least 1\n");
        return false;
    }
    if (o.dir.empty()) {
        std::fprintf(stderr, "--dir is required\n");
        usage(argv[0]);
        return false;
    }
    return true;
}

bool
check(const char* name, long expect, std::uint64_t got)
{
    if (expect < 0 || static_cast<std::uint64_t>(expect) == got)
        return true;
    std::fprintf(stderr, "FAIL %s: expected %ld, got %llu\n", name,
                 expect, static_cast<unsigned long long>(got));
    return false;
}

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    if (!parse(argc, argv, o))
        return 2;
    if (o.fresh) {
        std::error_code ec;
        std::filesystem::remove_all(o.dir, ec);
    }

    exec::LabOptions opt;
    opt.jobs = o.jobs;
    opt.ckpt_dir = o.dir;
    exec::Lab lab(opt);

    // Three jobs sharing one warm prefix (only the window length
    // differs): the canonical checkpoint-forking sweep shape.
    for (std::uint64_t measure : {30000ULL, 60000ULL, 90000ULL}) {
        exec::Job j;
        j.benchmark = o.benchmark;
        j.pf_spec = "triage_dyn";
        j.degree = 4;
        j.scale.warmup_records = o.warmup;
        j.scale.measure_records = measure;
        lab.submit(std::move(j));
    }
    lab.wait_all();

    const auto st = lab.checkpoints()->stats();
    std::printf("{\"mem_hits\": %llu, \"disk_hits\": %llu, "
                "\"misses\": %llu, \"produces\": %llu, "
                "\"bytes_mem\": %llu}\n",
                static_cast<unsigned long long>(st.mem_hits),
                static_cast<unsigned long long>(st.disk_hits),
                static_cast<unsigned long long>(st.misses),
                static_cast<unsigned long long>(st.produces),
                static_cast<unsigned long long>(st.bytes_mem));

    bool ok = true;
    ok &= check("mem_hits", o.expect_mem_hits, st.mem_hits);
    ok &= check("disk_hits", o.expect_disk_hits, st.disk_hits);
    ok &= check("misses", o.expect_misses, st.misses);
    ok &= check("bytes_mem", o.expect_bytes_mem, st.bytes_mem);
    return ok ? 0 : 1;
}
