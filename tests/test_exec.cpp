/**
 * @file
 * Tests for the declarative job model and the parallel lab scheduler:
 * JobKey identity, memoization, the serial-wrapper equivalence, and —
 * the determinism contract — bit-identical results at any worker
 * count. These tests are also the TSan smoke target (see README).
 */
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/checkpoint.hpp"
#include "exec/lab.hpp"
#include "obs/observer.hpp"
#include "stats/experiment.hpp"
#include "stats/metrics.hpp"
#include "triage/triage.hpp"
#include "workloads/mixes.hpp"

using namespace triage;

namespace {

stats::RunScale
tiny_scale()
{
    stats::RunScale s;
    s.warmup_records = 5000;
    s.measure_records = 15000;
    s.workload_scale = 0.1;
    return s;
}

exec::Job
bench_job(const std::string& bench, const std::string& pf,
          std::uint32_t degree = 1)
{
    exec::Job j;
    j.benchmark = bench;
    j.pf_spec = pf;
    j.degree = degree;
    j.scale = tiny_scale();
    return j;
}

/** Every counter the reports read, compared exactly. */
void
expect_identical(const sim::RunResult& a, const sim::RunResult& b)
{
    ASSERT_EQ(a.per_core.size(), b.per_core.size());
    for (std::size_t c = 0; c < a.per_core.size(); ++c) {
        const auto& x = a.per_core[c];
        const auto& y = b.per_core[c];
        EXPECT_EQ(x.instructions, y.instructions);
        EXPECT_EQ(x.mem_records, y.mem_records);
        EXPECT_EQ(x.cycles, y.cycles);
        EXPECT_EQ(x.ipc(), y.ipc());
        EXPECT_EQ(x.coverage(), y.coverage());
        EXPECT_EQ(x.accuracy(), y.accuracy());
        EXPECT_EQ(x.l1.demand_hits, y.l1.demand_hits);
        EXPECT_EQ(x.l1.demand_misses, y.l1.demand_misses);
        EXPECT_EQ(x.l2.demand_hits, y.l2.demand_hits);
        EXPECT_EQ(x.l2.demand_misses, y.l2.demand_misses);
        EXPECT_EQ(x.l2pf.candidates, y.l2pf.candidates);
        EXPECT_EQ(x.l2pf.issued_to_dram, y.l2pf.issued_to_dram);
        EXPECT_EQ(x.l2pf.useful, y.l2pf.useful);
        EXPECT_EQ(x.energy.onchip_accesses, y.energy.onchip_accesses);
        EXPECT_EQ(x.energy.offchip_accesses, y.energy.offchip_accesses);
        EXPECT_EQ(x.avg_metadata_ways, y.avg_metadata_ways);
    }
    EXPECT_EQ(a.llc.demand_hits, b.llc.demand_hits);
    EXPECT_EQ(a.llc.demand_misses, b.llc.demand_misses);
    EXPECT_EQ(a.traffic.total(), b.traffic.total());
    for (unsigned t = 0; t < sim::NUM_TRAFFIC_CLASSES; ++t) {
        EXPECT_EQ(a.traffic.bytes[t], b.traffic.bytes[t]);
    }
    EXPECT_EQ(a.span, b.span);
}

} // namespace

TEST(JobKey, EqualJobsShareKeyAndHash)
{
    auto a = exec::key_of(bench_job("mcf", "triage_dyn"));
    auto b = exec::key_of(bench_job("mcf", "triage_dyn"));
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_EQ(a.str(), b.str());
}

TEST(JobKey, DistinguishesEveryAxis)
{
    auto base = exec::key_of(bench_job("mcf", "triage_dyn"));
    EXPECT_NE(base, exec::key_of(bench_job("omnetpp", "triage_dyn")));
    EXPECT_NE(base, exec::key_of(bench_job("mcf", "bo")));
    EXPECT_NE(base, exec::key_of(bench_job("mcf", "triage_dyn", 4)));

    auto replica = bench_job("mcf", "triage_dyn");
    replica.replica = 1;
    EXPECT_NE(base, exec::key_of(replica));

    auto scaled = bench_job("mcf", "triage_dyn");
    scaled.scale.measure_records += 1;
    EXPECT_NE(base, exec::key_of(scaled));

    auto machine = bench_job("mcf", "triage_dyn");
    machine.config.l2_mshrs = 16;
    EXPECT_NE(base, exec::key_of(machine));
}

TEST(JobKey, QuantumIsPartOfTheSemantics)
{
    // A different quantum interleaves the cores differently, so it is a
    // different (deterministic) result — which is why it is keyed.
    exec::Job q1000;
    q1000.mix = {"mcf", "omnetpp"};
    q1000.pf_spec = "triage_dyn";
    q1000.degree = 4;
    q1000.scale = tiny_scale();
    exec::Job q5000 = q1000;
    q5000.quantum = 5000;

    const exec::JobKey k1000 = exec::key_of(q1000);
    const exec::JobKey k5000 = exec::key_of(q5000);
    EXPECT_NE(k1000, k5000);
    EXPECT_EQ(k1000.str().find("|q"), std::string::npos);
    EXPECT_NE(k5000.str().find("|q5000"), std::string::npos);

    EXPECT_NE(exec::run_job(q1000).per_core[0].cycles,
              exec::run_job(q5000).per_core[0].cycles);
}

TEST(JobKey, DerivedSeedVariesByReplica)
{
    auto a = bench_job("mcf", "triage_dyn");
    auto b = bench_job("mcf", "triage_dyn");
    b.replica = 1;
    EXPECT_NE(exec::key_of(a).derived_seed(),
              exec::key_of(b).derived_seed());
}

TEST(Lab, MemoizesByKey)
{
    exec::Lab lab({.jobs = 1});
    auto first = lab.submit(bench_job("mcf", "bo"));
    auto second = lab.submit(bench_job("mcf", "bo"));
    lab.wait_all();
    EXPECT_EQ(lab.runs_executed(), 1u);
    expect_identical(lab.result(first), lab.result(second));
}

TEST(Lab, DistinctKeysRunSeparately)
{
    exec::Lab lab({.jobs = 1});
    lab.submit(bench_job("mcf", "bo"));
    lab.submit(bench_job("mcf", "bo", 2));
    lab.wait_all();
    EXPECT_EQ(lab.runs_executed(), 2u);
}

TEST(Lab, ParallelMatchesSerial)
{
    // A small sweep: benchmarks x prefetchers, run serially and on four
    // workers. The determinism contract requires bit-identical results.
    const std::vector<std::string> benches = {"mcf", "libquantum"};
    const std::vector<std::string> pfs = {"none", "bo", "triage_dyn"};

    exec::Lab serial({.jobs = 1});
    exec::Lab parallel({.jobs = 4});
    std::vector<exec::Lab::JobId> s_ids, p_ids;
    for (const auto& b : benches) {
        for (const auto& pf : pfs) {
            s_ids.push_back(serial.submit(bench_job(b, pf)));
            p_ids.push_back(parallel.submit(bench_job(b, pf)));
        }
    }
    serial.wait_all();
    parallel.wait_all();
    EXPECT_EQ(parallel.workers(), 4u);
    ASSERT_EQ(s_ids.size(), p_ids.size());
    for (std::size_t i = 0; i < s_ids.size(); ++i) {
        expect_identical(serial.result(s_ids[i]),
                         parallel.result(p_ids[i]));
    }
}

TEST(Lab, StartsNoMoreWorkersThanJobs)
{
    // Workers start on demand, one per queued job without an idle
    // worker, so two jobs never start sixteen threads.
    exec::Lab lab({.jobs = 16});
    lab.submit(bench_job("mcf", "none"));
    lab.submit(bench_job("mcf", "bo"));
    lab.wait_all();
    EXPECT_EQ(lab.workers(), 16u);
    EXPECT_EQ(lab.runs_executed(), 2u);
    EXPECT_GE(lab.started_workers(), 1u);
    EXPECT_LE(lab.started_workers(), 2u);
}

TEST(Lab, ParallelMatchesSerialForMixes)
{
    workloads::Mix mix{"mcf", "libquantum"};
    auto make = [&](const std::string& pf) {
        exec::Job j;
        j.mix = mix;
        j.pf_spec = pf;
        j.scale = tiny_scale();
        return j;
    };
    exec::Lab serial({.jobs = 1});
    exec::Lab parallel({.jobs = 2});
    auto s1 = serial.submit(make("none"));
    auto s2 = serial.submit(make("triage_dyn"));
    auto p1 = parallel.submit(make("none"));
    auto p2 = parallel.submit(make("triage_dyn"));
    serial.wait_all();
    parallel.wait_all();
    expect_identical(serial.result(s1), parallel.result(p1));
    expect_identical(serial.result(s2), parallel.result(p2));
}

TEST(Lab, WrapperEquivalence)
{
    // stats::run_single is a thin wrapper over a one-job Lab; going
    // through exec directly must give the same numbers.
    sim::MachineConfig cfg;
    auto via_wrapper =
        stats::run_single(cfg, "mcf", "triage_dyn", tiny_scale());
    auto via_job = exec::run_job(bench_job("mcf", "triage_dyn"));
    expect_identical(via_wrapper, via_job);
}

TEST(Lab, ReplicasAreReproducibleButIndependent)
{
    auto r0 = bench_job("mcf", "triage_dyn");
    auto r1 = bench_job("mcf", "triage_dyn");
    r1.replica = 1;
    // Same replica twice: identical. Replica 0 keeps the canonical
    // benchmark seed, so it matches the replica-free result.
    expect_identical(exec::run_job(r1), exec::run_job(r1));
    expect_identical(exec::run_job(r0),
                     stats::run_single(sim::MachineConfig{}, "mcf",
                                       "triage_dyn", tiny_scale()));
}

TEST(Lab, ObsJobsBypassMemoization)
{
    // A memo hit would hand back a result without populating the
    // caller's bundle, so obs-carrying jobs always run.
    exec::Lab lab({.jobs = 1});
    lab.submit(bench_job("mcf", "bo"));

    obs::Observability obs;
    obs.sampler.configure(5000);
    auto job = bench_job("mcf", "bo");
    job.obs = &obs;
    auto id = lab.submit(std::move(job));
    lab.wait_all();
    EXPECT_EQ(lab.runs_executed(), 2u);
    // The bundle was wired into the worker's system and frozen before
    // the job completed: stats registered, epochs recorded.
    EXPECT_GT(obs.registry.size(), 0u);
    EXPECT_FALSE(obs.sampler.epochs().empty());
    (void)id;
}

TEST(Lab, StaleCheckpointVersionOnDiskReadsAsMiss)
{
    // A disk-tier file left by a build with an older checkpoint layout
    // has the right key and a valid checksum, but restoring its payload
    // into today's components would panic at the first changed section.
    // The version in its frame makes it a miss: the job warms up cold,
    // matches a checkpoint-free run, and replaces the stale file. Every
    // earlier layout is checked (2: flat MISB tables, 3: Rng snapshots
    // with the zipf cache, 4: 32-byte metadata-store entries and
    // per-entry PCs, 5: the store's own policy sections and the data
    // cache's per-line Hawkeye PCs, 6: the single-core epoch_run
    // section, 7: 8-byte metadata-store search keys, 8: the TLB, MISB,
    // Markov, SMS and training-unit tables' own entry layouts, 9: MISB's
    // on-chip cache hit/miss counters, 10: single-core warm blobs
    // without the `multicore.warm` section).
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("triage_ckpt_stale_" + std::to_string(::getpid())))
            .string();
    const exec::Job job = bench_job("mcf", "misb");
    const sim::RunResult plain = exec::run_job(job);
    const std::string wk = exec::warm_prefix(exec::key_of(job)).str();
    exec::CheckpointOptions opt;
    opt.disk_dir = dir;
    for (std::uint32_t version = 2; version < exec::CKPT_VERSION;
         ++version) {
        SCOPED_TRACE("stale version " + std::to_string(version));
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        const std::string path = exec::CheckpointStore(opt).disk_path(wk);
        {
            sim::Snapshot stale;
            stale.section("pf.misb.v1"); // not a section MISB reads today
            const sim::SnapshotBlob blob = stale.seal(version, wk);
            std::ofstream f(path, std::ios::binary);
            f.write(reinterpret_cast<const char*>(blob.data()),
                    static_cast<std::streamsize>(blob.size()));
        }

        ::setenv("TRIAGE_CKPT_DIR", dir.c_str(), 1);
        exec::Lab lab({.jobs = 1});
        ::unsetenv("TRIAGE_CKPT_DIR");
        ASSERT_EQ(lab.checkpoints()->disk_dir(), dir);
        expect_identical(lab.run(job), plain);
        const auto st = lab.checkpoints()->stats();
        EXPECT_EQ(st.disk_hits, 0u);
        EXPECT_EQ(st.misses, 1u);

        exec::CheckpointStore fresh(opt);
        EXPECT_TRUE(fresh.acquire(wk).hit());
    }
    std::filesystem::remove_all(dir);
}

TEST(Lab, CustomFactoryJobsMemoizeByVariant)
{
    auto factory = [](unsigned) {
        core::TriageConfig tcfg;
        tcfg.dynamic = true;
        return std::make_unique<core::Triage>(tcfg);
    };
    auto make = [&] {
        exec::Job j;
        j.benchmark = "mcf";
        j.variant = "triage_dyn@custom";
        j.prefetcher_factory = factory;
        j.scale = tiny_scale();
        return j;
    };
    exec::Lab lab({.jobs = 1});
    auto a = lab.submit(make());
    auto b = lab.submit(make());
    lab.wait_all();
    EXPECT_EQ(lab.runs_executed(), 1u);
    expect_identical(lab.result(a), lab.result(b));
}

// ---------------------------------------------------------------------
// Warm checkpoints on demand: the Lab declares each job's warm prefix
// at submission, so a producer saves only what a later job can fork.

namespace {

exec::Job
mix_job(const std::string& pf)
{
    exec::Job j;
    j.mix = {"mcf", "omnetpp"};
    j.pf_spec = pf;
    j.scale = tiny_scale();
    return j;
}

exec::Job
window_job(std::uint64_t measure)
{
    exec::Job j = bench_job("mcf", "triage_dyn");
    j.scale.measure_records = measure;
    return j;
}

} // namespace

TEST(LabCheckpoints, OneCoreForkIsBitIdentical)
{
    // A single-core job runs on the 1-core MultiCoreSystem: its warm
    // blob restores into a fresh system exactly as the warmup left it.
    const exec::Job job = bench_job("mcf", "triage_dyn", 4);
    const sim::RunResult cold = exec::run_job(job);
    exec::CheckpointStore store;
    expect_identical(cold, exec::run_job(job, &store)); // produces
    expect_identical(cold, exec::run_job(job, &store)); // forks
    const auto st = store.stats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.mem_hits, 1u);
}

TEST(LabCheckpoints, UnsharedPrefixesPublishNothing)
{
    // fig17's shape: every (mix, prefetcher) pair warms its own state,
    // so no job can fork another's checkpoint and none is saved.
    const std::vector<std::string> pfs = {"none", "misb", "triage_dyn"};
    exec::Lab lab({.jobs = 2});
    ASSERT_TRUE(lab.checkpoints()->disk_dir().empty());
    std::vector<exec::Lab::JobId> ids;
    for (const auto& pf : pfs)
        ids.push_back(lab.submit(mix_job(pf)));
    lab.wait_all();
    const auto st = lab.checkpoints()->stats();
    EXPECT_EQ(st.misses, 3u);
    EXPECT_EQ(st.produces, 0u);
    EXPECT_EQ(st.skipped, 3u);
    EXPECT_EQ(st.bytes_published, 0u);
    EXPECT_EQ(st.bytes_mem, 0u);
    for (std::size_t i = 0; i < pfs.size(); ++i)
        expect_identical(lab.result(ids[i]), exec::run_job(mix_job(pfs[i])));
}

TEST(LabCheckpoints, SharedPrefixesForkThenRelease)
{
    // Three windows off one warm prefix: one warmup, two forks, and
    // the blob leaves the memory tier after the last fork.
    for (unsigned workers : {1u, 2u}) {
        SCOPED_TRACE(workers);
        exec::Lab lab({.jobs = workers});
        ASSERT_TRUE(lab.checkpoints()->disk_dir().empty());
        std::vector<exec::Lab::JobId> ids;
        for (std::uint64_t measure : {10000u, 15000u, 20000u})
            ids.push_back(lab.submit(window_job(measure)));
        lab.wait_all();
        const auto st = lab.checkpoints()->stats();
        EXPECT_EQ(st.misses, 1u);
        EXPECT_EQ(st.mem_hits, 2u);
        EXPECT_EQ(st.produces, 1u);
        EXPECT_EQ(st.skipped, 0u);
        EXPECT_EQ(st.bytes_mem, 0u);
        expect_identical(lab.result(ids[2]),
                         exec::run_job(window_job(20000)));
    }
}

TEST(LabCheckpoints, DiskTierAlwaysPublishes)
{
    // Another process may fork from the disk tier, so even a one-job
    // Lab saves its warm checkpoint there; memory does not keep it.
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("triage_ckpt_one_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    exec::LabOptions opt;
    opt.jobs = 1;
    opt.ckpt_dir = dir;
    exec::Lab lab(opt);
    const exec::Job job = bench_job("mcf", "misb");
    lab.run(job);
    const auto st = lab.checkpoints()->stats();
    EXPECT_EQ(st.produces, 1u);
    EXPECT_EQ(st.skipped, 0u);
    EXPECT_GT(st.bytes_disk_written, 0u);
    EXPECT_EQ(st.bytes_mem, 0u);
    EXPECT_TRUE(std::filesystem::exists(lab.checkpoints()->disk_path(
        exec::warm_prefix(exec::key_of(job)).str())));
    std::filesystem::remove_all(dir);
}

TEST(LabCheckpoints, SerialLabRunsNothingBeforeResultsAreRequested)
{
    exec::Lab lab({.jobs = 1});
    auto a = lab.submit(window_job(10000));
    auto b = lab.submit(window_job(15000));
    EXPECT_EQ(lab.runs_executed(), 0u);
    lab.result(a);
    EXPECT_EQ(lab.runs_executed(), 1u); // FIFO, up to the asked job
    lab.result(b);
    EXPECT_EQ(lab.runs_executed(), 2u);
    EXPECT_EQ(lab.checkpoints()->stats().mem_hits, 1u);
}
