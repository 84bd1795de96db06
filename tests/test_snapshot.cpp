/**
 * @file
 * Tests for the warm-state snapshot layer (docs/parallel-runs.md
 * §checkpointing): the archive primitives, sealed-frame validation,
 * byte-equal resave of warm systems across every prefetcher family,
 * the warm-prefix sharing contract, and the two-tier CheckpointStore.
 */
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/checkpoint.hpp"
#include "exec/job.hpp"
#include "sim/multicore.hpp"
#include "sim/snapshot.hpp"
#include "stats/experiment.hpp"
#include "workloads/spec.hpp"

using namespace triage;

namespace {

constexpr std::uint32_t VER = 7;
const std::string FP = "machine|bench:mcf|warm";

TEST(SnapshotArchive, ScalarRoundtrip)
{
    sim::Snapshot save;
    std::uint64_t a = 0x1122334455667788ULL;
    std::int32_t b = -12345;
    bool c = true;
    double d = 3.25;
    std::string s = "warm";
    save.io(a);
    save.io(b);
    save.io(c);
    save.io(d);
    save.io(s);
    sim::SnapshotBlob blob = save.seal(VER, FP);

    sim::Snapshot load;
    ASSERT_TRUE(sim::Snapshot::open(blob, VER, FP, load));
    std::uint64_t a2 = 0;
    std::int32_t b2 = 0;
    bool c2 = false;
    double d2 = 0;
    std::string s2;
    load.io(a2);
    load.io(b2);
    load.io(c2);
    load.io(d2);
    load.io(s2);
    EXPECT_EQ(a2, a);
    EXPECT_EQ(b2, b);
    EXPECT_EQ(c2, c);
    EXPECT_EQ(d2, d);
    EXPECT_EQ(s2, s);
    EXPECT_TRUE(load.exhausted());
}

TEST(SnapshotArchive, MapBytesIndependentOfInsertionOrder)
{
    util::FlatMap<std::uint64_t, std::uint32_t> fwd, rev;
    for (std::uint64_t k = 0; k < 64; ++k)
        fwd.ref(k * 977) = static_cast<std::uint32_t>(k);
    for (std::uint64_t k = 64; k-- > 0;)
        rev.ref(k * 977) = static_cast<std::uint32_t>(k);
    sim::Snapshot a, b;
    a.io_flat_map(fwd);
    b.io_flat_map(rev);
    EXPECT_EQ(a.seal(VER, FP), b.seal(VER, FP));
}

TEST(SnapshotArchive, FlatMapWireFormatIsCountThenSortedPairs)
{
    // The wire format every hash table in a checkpoint uses: the count,
    // then (key, value) pairs in ascending key order. Pinned byte for
    // byte, so changing how io_flat_map gathers or sorts the pairs can
    // never move a component's snapshot bytes.
    util::FlatMap<std::uint64_t, std::uint32_t> fm;
    for (std::uint64_t k = 64; k-- > 0;)
        fm.ref(k * 977) = static_cast<std::uint32_t>(k);
    sim::Snapshot expect, actual;
    std::uint64_t n = 64;
    expect.io(n);
    for (std::uint64_t k = 0; k < 64; ++k) {
        std::uint64_t key = k * 977;
        std::uint32_t v = static_cast<std::uint32_t>(k);
        expect.io_pod(key);
        expect.io_pod(v);
    }
    actual.io_flat_map(fm);
    EXPECT_EQ(actual.seal(VER, FP), expect.seal(VER, FP));
}

TEST(SnapshotArchive, FlatMapBytesIndependentOfOperationHistory)
{
    // Same logical contents via different op histories (and thus
    // different slot layouts after erases) serialize identically.
    util::FlatMap<std::uint64_t, std::uint32_t> plain, churned;
    for (std::uint64_t k = 0; k < 48; ++k)
        plain.ref(k * 31) = static_cast<std::uint32_t>(k);
    for (std::uint64_t k = 200; k-- > 0;)
        churned.ref(k * 31) = 7;
    for (std::uint64_t k = 48; k < 200; ++k)
        churned.erase(k * 31);
    for (std::uint64_t k = 48; k-- > 0;)
        churned.ref(k * 31) = static_cast<std::uint32_t>(k);
    sim::Snapshot a, b;
    a.io_flat_map(plain);
    b.io_flat_map(churned);
    EXPECT_EQ(a.seal(VER, FP), b.seal(VER, FP));
}

TEST(SnapshotArchive, FlatMapRoundTripReplacesStaleState)
{
    util::FlatMap<std::uint64_t, std::uint64_t> src;
    for (std::uint64_t k = 1; k <= 100; ++k)
        src.ref(k << 12) = k * k;
    sim::Snapshot save;
    save.io_flat_map(src);
    const sim::SnapshotBlob blob = save.seal(VER, FP);

    util::FlatMap<std::uint64_t, std::uint64_t> dst;
    dst.ref(42) = 42; // must vanish on load
    sim::Snapshot load;
    ASSERT_TRUE(sim::Snapshot::open(blob, VER, FP, load));
    load.io_flat_map(dst);
    EXPECT_TRUE(load.exhausted());
    EXPECT_EQ(dst.size(), 100u);
    EXPECT_EQ(dst.find(42), nullptr);
    for (std::uint64_t k = 1; k <= 100; ++k)
        EXPECT_EQ(dst.at(k << 12), k * k);
}

TEST(SnapshotArchiveDeathTest, SectionMismatchPanics)
{
    sim::Snapshot save;
    save.section("triage.tu");
    std::uint32_t v = 7;
    save.io(v);
    sim::SnapshotBlob blob = save.seal(VER, FP);
    sim::Snapshot load;
    ASSERT_TRUE(sim::Snapshot::open(blob, VER, FP, load));
    EXPECT_DEATH(load.section("triage.store"), "section");
}

TEST(SnapshotArchive, OpenRejectsMismatchedFrames)
{
    sim::Snapshot save;
    std::uint64_t v = 42;
    save.io(v);
    const sim::SnapshotBlob blob = save.seal(VER, FP);

    sim::Snapshot out;
    EXPECT_TRUE(sim::Snapshot::open(blob, VER, FP, out));
    EXPECT_FALSE(sim::Snapshot::open(blob, VER + 1, FP, out));
    EXPECT_FALSE(sim::Snapshot::open(blob, VER, FP + "x", out));

    // A single flipped payload byte must fail the checksum.
    sim::SnapshotBlob corrupt = blob;
    corrupt[corrupt.size() / 2] ^= 0x40;
    EXPECT_FALSE(sim::Snapshot::open(corrupt, VER, FP, out));

    sim::SnapshotBlob truncated(blob.begin(), blob.begin() + 4);
    EXPECT_FALSE(sim::Snapshot::open(truncated, VER, FP, out));
}

TEST(SnapshotArchiveDeathTest, OpenOrDieOnCorruption)
{
    sim::Snapshot save;
    std::uint64_t v = 42;
    save.io(v);
    sim::SnapshotBlob blob = save.seal(VER, FP);
    blob[blob.size() / 2] ^= 0x01;
    EXPECT_DEATH(sim::Snapshot::open_or_die(blob, VER, FP), "");
}

// ---------------------------------------------------------------------
// Warm-system byte-equal resave: save(A) -> restore(B) -> save(B) must
// reproduce save(A) byte for byte, across every prefetcher family (each
// exercises its own component checkpoints: training unit, metadata
// store, partition controller, GHB, MISB, best-offset, SMS, Markov).

class WarmResave : public ::testing::TestWithParam<const char*>
{
};

/** A 1-core system running mcf under @p spec. */
std::unique_ptr<sim::MultiCoreSystem>
mcf_system(const sim::MachineConfig& cfg, const std::string& spec)
{
    auto sys = std::make_unique<sim::MultiCoreSystem>(cfg, 1);
    sys->set_prefetcher(0, stats::make_prefetcher(spec, 4));
    sys->bind(0, workloads::make_benchmark("mcf"));
    return sys;
}

/** The sealed warm state of mcf_system() after 20000 records. */
sim::SnapshotBlob
warm_blob(const sim::MachineConfig& cfg, const std::string& spec)
{
    auto sys = mcf_system(cfg, spec);
    sys->run_warmup(20000);
    sim::Snapshot s;
    sys->checkpoint_warm(s);
    return s.seal(exec::CKPT_VERSION, spec);
}

void
expect_resave_byte_equal(const std::string& spec, bool model_tlb)
{
    sim::MachineConfig cfg;
    cfg.model_tlb = model_tlb;

    const sim::SnapshotBlob blob_a = warm_blob(cfg, spec);

    auto b = mcf_system(cfg, spec);
    sim::Snapshot load =
        sim::Snapshot::open_or_die(blob_a, exec::CKPT_VERSION, spec);
    b->checkpoint_warm(load);
    EXPECT_TRUE(load.exhausted());

    sim::Snapshot resave;
    b->checkpoint_warm(resave);
    EXPECT_EQ(resave.seal(exec::CKPT_VERSION, spec), blob_a);
}

TEST_P(WarmResave, ByteEqualAfterRoundtrip)
{
    expect_resave_byte_equal(GetParam(), false);
}

// The same with the two-level TLB modeled, whose tables the default
// machine leaves out.
TEST_P(WarmResave, ByteEqualAfterRoundtripWithTlb)
{
    expect_resave_byte_equal(GetParam(), true);
}

INSTANTIATE_TEST_SUITE_P(AllPrefetchers, WarmResave,
                         ::testing::Values("none", "bo", "sms", "markov",
                                           "stms", "domino", "ghb_pcdc",
                                           "misb", "isb", "next_line",
                                           "triage_dyn",
                                           "triage_unlimited"),
                         [](const auto& info) {
                             std::string n = info.param;
                             for (auto& ch : n)
                                 if (ch == '-')
                                     ch = '_';
                             return n;
                         });

// ---------------------------------------------------------------------
// Warm-prefix sharing (the Lab contract): memoization keys the FULL
// JobKey, but jobs differing only in measurement length share one warm
// checkpoint.

exec::Job
mcf_job(std::uint64_t measure)
{
    exec::Job j;
    j.benchmark = "mcf";
    j.pf_spec = "triage_dyn";
    j.degree = 4;
    j.scale.warmup_records = 15000;
    j.scale.measure_records = measure;
    return j;
}

TEST(WarmPrefix, LegacyKeyStringsUnchanged)
{
    const exec::JobKey k = exec::key_of(mcf_job(40000));
    // No "|q..." marker on default jobs: every pre-existing key string
    // (and every seed derived from one) stays stable.
    EXPECT_EQ(k.str().find("|q"), std::string::npos);
}

TEST(WarmPrefix, MeasureLengthDoesNotSplitTheWarmPrefix)
{
    const exec::JobKey a = exec::key_of(mcf_job(40000));
    const exec::JobKey b = exec::key_of(mcf_job(80000));
    EXPECT_NE(a, b); // distinct jobs: both really run
    EXPECT_EQ(exec::warm_prefix(a).str(), exec::warm_prefix(b).str());

    // ...and with a store attached, the second job forks instead of
    // re-warming: exactly one produce, one hit.
    exec::CheckpointStore store;
    exec::run_job(mcf_job(40000), &store);
    exec::run_job(mcf_job(80000), &store);
    const auto st = store.stats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.produces, 1u);
    EXPECT_EQ(st.mem_hits, 1u);
}

TEST(WarmPrefix, WarmStateIsBitIdenticalAcrossMeasureLengths)
{
    // The warm blobs two measure lengths would publish are the same
    // bytes — warm state cannot depend on the measurement window.
    sim::MachineConfig cfg;
    sim::SnapshotBlob blobs[2];
    int i = 0;
    for (std::uint64_t measure : {40000ULL, 80000ULL}) {
        (void)measure; // the window is irrelevant before run_measure
        blobs[i++] = warm_blob(cfg, "triage_dyn");
    }
    if (const char* dump = std::getenv("TRIAGE_DUMP_WARM_BLOBS")) {
        for (int k = 0; k < 2; ++k) {
            std::ofstream f(std::string(dump) + std::to_string(k),
                            std::ios::binary);
            f.write(reinterpret_cast<const char*>(blobs[k].data()),
                    static_cast<std::streamsize>(blobs[k].size()));
        }
    }
    EXPECT_EQ(blobs[0], blobs[1]);
}

// ---------------------------------------------------------------------
// CheckpointStore: the two-tier cache itself.

TEST(CheckpointStore, ProducerThenHit)
{
    exec::CheckpointStore store;
    {
        auto lease = store.acquire("k1");
        ASSERT_FALSE(lease.hit());
        sim::Snapshot s;
        std::uint64_t v = 9;
        s.io(v);
        lease.publish(s.seal(exec::CKPT_VERSION, "k1"));
    }
    auto lease = store.acquire("k1");
    ASSERT_TRUE(lease.hit());
    sim::Snapshot in = sim::Snapshot::open_or_die(
        lease.blob(), exec::CKPT_VERSION, "k1");
    std::uint64_t v = 0;
    in.io(v);
    EXPECT_EQ(v, 9u);
    const auto st = store.stats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.mem_hits, 1u);
}

TEST(CheckpointStore, AbandonedLeasePromotesNextCaller)
{
    exec::CheckpointStore store;
    {
        auto lease = store.acquire("k");
        ASSERT_FALSE(lease.hit());
        // dropped without publish: the warmup threw
    }
    auto retry = store.acquire("k");
    EXPECT_FALSE(retry.hit()); // promoted to producer, not deadlocked
}

TEST(CheckpointStore, LruEvictsAtBudget)
{
    exec::CheckpointOptions opt;
    opt.mem_budget_bytes = 1; // every publish evicts the previous blob
    exec::CheckpointStore store(opt);
    for (const char* k : {"a", "b"}) {
        auto lease = store.acquire(k);
        ASSERT_FALSE(lease.hit());
        sim::Snapshot s;
        std::uint64_t v = 1;
        s.io(v);
        lease.publish(s.seal(exec::CKPT_VERSION, k));
    }
    EXPECT_GE(store.stats().evictions, 1u);
    EXPECT_FALSE(store.acquire("a").hit());
}

TEST(CheckpointStore, WaitersTakeABlobTheMemoryTierDidNotKeep)
{
    // Memory tier off and no disk: the publish evicts its own blob at
    // once, yet the waiter blocked on the lease must still fork it
    // rather than become a second producer and warm up again.
    exec::CheckpointOptions opt;
    opt.mem_budget_bytes = 0;
    exec::CheckpointStore store(opt);
    auto producer = store.acquire("k");
    ASSERT_FALSE(producer.hit());
    bool waiter_hit = false;
    std::thread waiter([&] { waiter_hit = store.acquire("k").hit(); });
    while (store.stats().waits == 0)
        std::this_thread::yield();
    sim::Snapshot s;
    std::uint64_t v = 5;
    s.io(v);
    producer.publish(s.seal(exec::CKPT_VERSION, "k"));
    waiter.join();
    EXPECT_TRUE(waiter_hit);
    const auto st = store.stats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.mem_hits, 1u);
    EXPECT_EQ(st.produces, 1u);
    EXPECT_EQ(st.bytes_mem, 0u);
}

TEST(CheckpointStore, DeclaredDemandGatesTheSave)
{
    // One declared acquire, consumed by the producer itself: nobody
    // else can fork the blob, so the producer declines to save it.
    exec::CheckpointStore store;
    store.expect("solo");
    {
        auto lease = store.acquire("solo");
        ASSERT_FALSE(lease.hit());
        EXPECT_FALSE(lease.wanted());
    }
    // Two declared: the first producer saves, the second acquire
    // forks, and the blob is released after that last fork.
    store.expect("pair");
    store.expect("pair");
    {
        auto lease = store.acquire("pair");
        ASSERT_FALSE(lease.hit());
        ASSERT_TRUE(lease.wanted());
        sim::Snapshot s;
        std::uint64_t v = 1;
        s.io(v);
        lease.publish(s.seal(exec::CKPT_VERSION, "pair"));
    }
    EXPECT_GT(store.stats().bytes_mem, 0u);
    EXPECT_TRUE(store.acquire("pair").hit());
    const auto st = store.stats();
    EXPECT_EQ(st.skipped, 1u);
    EXPECT_EQ(st.produces, 1u);
    EXPECT_EQ(st.mem_hits, 1u);
    EXPECT_EQ(st.bytes_mem, 0u);
}

TEST(CheckpointStore, DiskTierSurvivesTheStoreAndRejectsCorruption)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / "triage_ckpt_test")
            .string();
    std::filesystem::remove_all(dir);

    std::string path;
    {
        exec::CheckpointOptions opt;
        opt.disk_dir = dir;
        exec::CheckpointStore store(opt);
        auto lease = store.acquire("warm");
        ASSERT_FALSE(lease.hit());
        sim::Snapshot s;
        std::uint64_t v = 1234;
        s.io(v);
        lease.publish(s.seal(exec::CKPT_VERSION, "warm"));
        path = store.disk_path("warm");
        ASSERT_TRUE(std::filesystem::exists(path));
    }
    {
        // A fresh store (fresh process) hits the disk tier.
        exec::CheckpointOptions opt;
        opt.disk_dir = dir;
        exec::CheckpointStore store(opt);
        auto lease = store.acquire("warm");
        EXPECT_TRUE(lease.hit());
        EXPECT_EQ(store.stats().disk_hits, 1u);
    }
    {
        // Corrupt the file: the frame check degrades it to a miss.
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(16);
        f.put('\xff');
        f.close();
        exec::CheckpointOptions opt;
        opt.disk_dir = dir;
        exec::CheckpointStore store(opt);
        auto lease = store.acquire("warm");
        EXPECT_FALSE(lease.hit());
        EXPECT_EQ(store.stats().disk_hits, 0u);
        EXPECT_EQ(store.stats().misses, 1u);
    }
    std::filesystem::remove_all(dir);
}

TEST(CheckpointStore, ConcurrentStoresPublishOneKeyToOneDirectory)
{
    // Two stores (two processes, in production) sharing one disk
    // directory produce the same key at the same moment. Each writes
    // its own temp file and renames it over the other's, so the file
    // left behind is a whole, valid blob and no temp file leaks.
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("triage_ckpt_race_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    exec::CheckpointOptions opt;
    opt.disk_dir = dir;
    for (int round = 0; round < 4; ++round) {
        const std::string key = "race" + std::to_string(round);
        // 8 MB: long enough to write that the two producers' writes
        // overlap (at 1 MB they tended to finish one after the other).
        sim::Snapshot s;
        for (std::uint64_t i = 0; i < (1u << 20); ++i)
            s.io(i);
        const sim::SnapshotBlob blob = s.seal(exec::CKPT_VERSION, key);

        exec::CheckpointStore a(opt), b(opt);
        auto la = a.acquire(key);
        auto lb = b.acquire(key);
        ASSERT_FALSE(la.hit());
        ASSERT_FALSE(lb.hit());
        std::atomic<int> arrived{0};
        auto publish = [&](exec::CheckpointStore::Lease& lease) {
            ++arrived;
            while (arrived.load() < 2)
                std::this_thread::yield();
            lease.publish(blob);
        };
        std::thread ta(publish, std::ref(la));
        std::thread tb(publish, std::ref(lb));
        ta.join();
        tb.join();
        EXPECT_EQ(a.stats().bytes_disk_written, blob.size());
        EXPECT_EQ(b.stats().bytes_disk_written, blob.size());

        exec::CheckpointStore reader(opt);
        auto hit = reader.acquire(key);
        ASSERT_TRUE(hit.hit());
        EXPECT_EQ(reader.stats().disk_hits, 1u);
        EXPECT_EQ(hit.blob(), blob);
    }
    for (const auto& f : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(f.path().extension(), ".ckpt") << f.path();
    std::filesystem::remove_all(dir);
}

} // namespace
