/**
 * @file
 * Tests for sim::ReadAheadWorkload (docs/performance.md §10): the
 * decorated stream equals the inner workload's for synthetic, streamed
 * (.tria.gz / .tria.xz) and in-memory workloads; reset(), skip() and
 * clone() keep the plain workload's contracts; one producer thread
 * serves every pass; and exec::run_job, which installs the decorator,
 * matches a system driven without it. The CI TSan job runs this suite.
 */
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <lzma.h>
#include <zlib.h>

#include "exec/checkpoint.hpp"
#include "exec/job.hpp"
#include "frontend/frontend.hpp"
#include "obs/profile.hpp"
#include "sim/multicore.hpp"
#include "sim/read_ahead.hpp"
#include "stats/experiment.hpp"
#include "workloads/spec.hpp"
#include "workloads/trace_io.hpp"

using namespace triage;

namespace {

constexpr std::uint64_t kChunk = sim::ReadAheadWorkload::kChunkRecords;

/** mcf at this scale is 20000 records a pass: almost five chunks. */
constexpr double kScale = 0.01;

std::unique_ptr<sim::Workload>
mcf()
{
    return workloads::make_benchmark("mcf", kScale);
}

std::unique_ptr<sim::Workload>
read_ahead(std::unique_ptr<sim::Workload> inner)
{
    return std::make_unique<sim::ReadAheadWorkload>(std::move(inner));
}

void
expect_same_records(sim::Workload& a, sim::Workload& b, std::uint64_t n)
{
    sim::TraceRecord ra, rb;
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(a.next(ra)) << "record " << i;
        ASSERT_TRUE(b.next(rb)) << "record " << i;
        ASSERT_EQ(ra.pc, rb.pc) << "record " << i;
        ASSERT_EQ(ra.addr, rb.addr) << "record " << i;
        ASSERT_EQ(ra.is_write, rb.is_write) << "record " << i;
        ASSERT_EQ(ra.nonmem_before, rb.nonmem_before) << "record " << i;
        ASSERT_EQ(ra.dep_distance, rb.dep_distance) << "record " << i;
    }
}

/** Both streams yield the same records and end together. */
void
expect_same_pass(sim::Workload& a, sim::Workload& b)
{
    sim::TraceRecord ra, rb;
    std::uint64_t i = 0;
    for (;;) {
        const bool more_a = a.next(ra);
        const bool more_b = b.next(rb);
        ASSERT_EQ(more_a, more_b) << "record " << i;
        if (!more_a)
            break;
        ASSERT_EQ(ra.pc, rb.pc) << "record " << i;
        ASSERT_EQ(ra.addr, rb.addr) << "record " << i;
        ASSERT_EQ(ra.is_write, rb.is_write) << "record " << i;
        ASSERT_EQ(ra.nonmem_before, rb.nonmem_before) << "record " << i;
        ASSERT_EQ(ra.dep_distance, rb.dep_distance) << "record " << i;
        ++i;
    }
    EXPECT_GT(i, 0u);
}

void
drain(sim::Workload& w, std::uint64_t n)
{
    sim::TraceRecord r;
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_TRUE(w.next(r)) << "record " << i;
}

/**
 * Counts the calls it receives and remembers the threads its next()
 * ran on; skip() seeks without calling next().
 */
class CountingWorkload final : public sim::Workload
{
  public:
    struct Calls {
        std::uint64_t next = 0;
        std::uint64_t skip = 0;
        std::uint64_t skipped = 0;
        std::set<std::thread::id> next_threads;
    };

    CountingWorkload(std::uint64_t length, Calls& calls)
        : length_(length), calls_(calls)
    {}

    void reset() override { pos_ = 0; }

    bool
    next(sim::TraceRecord& out) override
    {
        ++calls_.next;
        calls_.next_threads.insert(std::this_thread::get_id());
        if (pos_ >= length_)
            return false;
        out = {};
        out.addr = pos_++ * 64;
        return true;
    }

    std::uint64_t
    skip(std::uint64_t n) override
    {
        ++calls_.skip;
        const std::uint64_t take = std::min(n, length_ - pos_);
        pos_ += take;
        calls_.skipped += take;
        return take;
    }

    const std::string& name() const override { return name_; }

    std::unique_ptr<sim::Workload>
    clone() const override
    {
        return std::make_unique<CountingWorkload>(length_, calls_);
    }

  private:
    std::string name_ = "counting";
    std::uint64_t length_;
    std::uint64_t pos_ = 0;
    Calls& calls_;
};

// ---------------------------------------------------------------------
// Sequence equality
// ---------------------------------------------------------------------

TEST(ReadAhead, SyntheticSequenceMatchesPlain)
{
    auto plain = mcf();
    auto ahead = read_ahead(mcf());
    expect_same_pass(*ahead, *plain);
    // After the end of the trace next() stays false until reset().
    sim::TraceRecord r;
    EXPECT_FALSE(ahead->next(r));
    EXPECT_FALSE(ahead->next(r));
    ahead->reset();
    plain->reset();
    expect_same_pass(*ahead, *plain);
}

/** Slurp @p path whole (the fixtures are a few hundred KB). */
std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    return {std::istreambuf_iterator<char>(in), {}};
}

/** A .tria recording of 3 chunks and a part of mcf, raw. */
std::string
make_tria(const std::string& name)
{
    const std::string path = ::testing::TempDir() + name;
    auto wl = mcf();
    const std::uint64_t n = 3 * kChunk + 1000;
    EXPECT_EQ(workloads::save_trace(path, *wl, n), n);
    return path;
}

std::string
gzip_file(const std::string& path)
{
    const std::string raw = read_file(path);
    const std::string out = path + ".gz";
    gzFile gz = gzopen(out.c_str(), "wb");
    EXPECT_NE(gz, nullptr);
    EXPECT_EQ(gzwrite(gz, raw.data(), static_cast<unsigned>(raw.size())),
              static_cast<int>(raw.size()));
    EXPECT_EQ(gzclose(gz), Z_OK);
    return out;
}

std::string
xz_file(const std::string& path)
{
    const std::string raw = read_file(path);
    std::vector<std::uint8_t> xz(lzma_stream_buffer_bound(raw.size()));
    std::size_t xz_size = 0;
    EXPECT_EQ(lzma_easy_buffer_encode(
                  1, LZMA_CHECK_CRC64, nullptr,
                  reinterpret_cast<const std::uint8_t*>(raw.data()),
                  raw.size(), xz.data(), &xz_size, xz.size()),
              LZMA_OK);
    const std::string out = path + ".xz";
    std::FILE* f = std::fopen(out.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    EXPECT_EQ(std::fwrite(xz.data(), 1, xz_size, f), xz_size);
    std::fclose(f);
    return out;
}

void
expect_trace_matches(const std::string& path)
{
    auto plain = frontend::open_trace(path);
    ASSERT_NE(plain, nullptr);
    auto inner = frontend::open_trace(path);
    ASSERT_NE(inner, nullptr);
    auto ahead = read_ahead(std::move(inner));
    expect_same_pass(*ahead, *plain);
    ahead->reset();
    plain->reset();
    expect_same_pass(*ahead, *plain);
}

TEST(ReadAhead, GzTraceSequenceMatchesPlain)
{
    const std::string raw = make_tria("ra_gz.tria");
    const std::string gz = gzip_file(raw);
    expect_trace_matches(gz);
    std::remove(raw.c_str());
    std::remove(gz.c_str());
}

TEST(ReadAhead, XzTraceSequenceMatchesPlain)
{
    const std::string raw = make_tria("ra_xz.tria");
    const std::string xz = xz_file(raw);
    expect_trace_matches(xz);
    std::remove(raw.c_str());
    std::remove(xz.c_str());
}

TEST(ReadAhead, VectorSequenceMatchesPlain)
{
    // Exactly two chunks: the end of the trace falls on a chunk
    // boundary, so the producer's last chunk is empty.
    std::vector<sim::TraceRecord> recs(2 * kChunk);
    auto gen = mcf();
    for (auto& r : recs)
        ASSERT_TRUE(gen->next(r));
    sim::VectorWorkload plain("v", recs);
    auto ahead =
        read_ahead(std::make_unique<sim::VectorWorkload>("v", recs));
    expect_same_pass(*ahead, plain);
    ahead->reset();
    plain.reset();
    expect_same_pass(*ahead, plain);
}

// ---------------------------------------------------------------------
// reset()
// ---------------------------------------------------------------------

TEST(ReadAhead, ResetMidChunkMatchesPlainReset)
{
    // SyntheticWorkload's record counter survives reset(); the pass
    // after a reset at consumer position k must not see the records
    // the producer read beyond k.
    for (const std::uint64_t k : {std::uint64_t{1}, kChunk / 2,
                                  kChunk + 7, 3 * kChunk}) {
        SCOPED_TRACE("reset at " + std::to_string(k));
        auto plain = mcf();
        auto ahead = read_ahead(mcf());
        expect_same_records(*ahead, *plain, k);
        ahead->reset();
        plain->reset();
        expect_same_pass(*ahead, *plain);
    }
}

TEST(ReadAhead, RepeatedResetsMatchPlain)
{
    auto plain = mcf();
    auto ahead = read_ahead(mcf());
    for (const std::uint64_t k : {std::uint64_t{0}, std::uint64_t{3},
                                  kChunk, std::uint64_t{0}, 2 * kChunk + 1,
                                  std::uint64_t{20000}}) {
        SCOPED_TRACE("reset at " + std::to_string(k));
        expect_same_records(*ahead, *plain, k);
        ahead->reset();
        plain->reset();
    }
    expect_same_pass(*ahead, *plain);
}

TEST(ReadAhead, ThousandWrapsUseOneProducerThread)
{
    CountingWorkload::Calls calls;
    sim::ReadAheadWorkload ahead(
        std::make_unique<CountingWorkload>(100, calls));
    sim::TraceRecord r;
    for (int pass = 0; pass < 1000; ++pass) {
        std::uint64_t n = 0;
        while (ahead.next(r)) {
            ASSERT_EQ(r.addr, n * 64) << "pass " << pass;
            ++n;
        }
        ASSERT_EQ(n, 100u) << "pass " << pass;
        ahead.reset();
    }
    EXPECT_EQ(ahead.records(), 100u * 1000u);
    EXPECT_EQ(ahead.discarded(), 0u);
    ASSERT_EQ(calls.next_threads.size(), 1u);
    EXPECT_NE(*calls.next_threads.begin(), std::this_thread::get_id());
}

// ---------------------------------------------------------------------
// skip()
// ---------------------------------------------------------------------

TEST(ReadAhead, SkipBeforeFirstNextReachesInnerSkip)
{
    CountingWorkload::Calls calls;
    sim::ReadAheadWorkload ahead(
        std::make_unique<CountingWorkload>(10 * kChunk, calls));
    // Fresh, and again right after a reset (the checkpoint-restore
    // sequence CoreModel::restore_workload_position issues).
    EXPECT_EQ(ahead.skip(500), 500u);
    EXPECT_EQ(calls.skip, 1u);
    EXPECT_EQ(calls.next, 0u);
    ahead.reset();
    EXPECT_EQ(ahead.skip(3 * kChunk), 3 * kChunk);
    EXPECT_EQ(calls.skip, 2u);
    EXPECT_EQ(calls.next, 0u);

    sim::TraceRecord r;
    ASSERT_TRUE(ahead.next(r));
    EXPECT_EQ(r.addr, 3 * kChunk * 64);
}

TEST(ReadAhead, SkipMidStreamMatchesPlain)
{
    auto plain = mcf();
    auto ahead = read_ahead(mcf());
    expect_same_records(*ahead, *plain, 10);
    EXPECT_EQ(ahead->skip(kChunk + 5), kChunk + 5);
    EXPECT_EQ(plain->skip(kChunk + 5), kChunk + 5);
    expect_same_pass(*ahead, *plain);
    // Past the end, skip() reports the short count like the plain one.
    EXPECT_EQ(ahead->skip(10), 0u);
}

// ---------------------------------------------------------------------
// clone(), empty workloads, teardown
// ---------------------------------------------------------------------

TEST(ReadAhead, CloneIsADecoratedRewoundCopy)
{
    auto ahead = read_ahead(mcf());
    drain(*ahead, kChunk + 3);
    auto copy = ahead->clone();
    ASSERT_NE(dynamic_cast<sim::ReadAheadWorkload*>(copy.get()), nullptr);
    EXPECT_EQ(copy->name(), ahead->name());
    auto plain = mcf();
    expect_same_pass(*copy, *plain);
    // The original carries on from where it was.
    auto plain2 = mcf();
    drain(*plain2, kChunk + 3);
    expect_same_pass(*ahead, *plain2);
}

// clone() copies the inner chase kernels' networks and cursors, which
// the producer writes as it runs: the copy is taken while the producer
// is between chunks, and the clone is rewound. Each clone is read while
// the original's producer keeps filling its ring.
TEST(ReadAhead, CloneOfRunningChaseWorkloadStartsFresh)
{
    constexpr double scale = 0.05; // 100000 records: 24 chunks a pass
    constexpr std::uint64_t step = 2 * kChunk + 5;
    auto ahead = read_ahead(workloads::make_benchmark("mcf", scale));
    for (int i = 0; i < 3; ++i) {
        drain(*ahead, step);
        auto copy = ahead->clone();
        auto fresh = workloads::make_benchmark("mcf", scale);
        expect_same_pass(*copy, *fresh);
    }
    auto plain = workloads::make_benchmark("mcf", scale);
    drain(*plain, 3 * step);
    expect_same_pass(*ahead, *plain);
}

TEST(ReadAhead, EmptyWorkload)
{
    sim::ReadAheadWorkload ahead(
        std::make_unique<sim::VectorWorkload>("empty",
                                              std::vector<sim::TraceRecord>{}));
    sim::TraceRecord r;
    EXPECT_FALSE(ahead.next(r));
    EXPECT_FALSE(ahead.next(r));
    ahead.reset();
    EXPECT_EQ(ahead.skip(10), 0u);
    EXPECT_FALSE(ahead.next(r));
    EXPECT_EQ(ahead.records(), 0u);
}

TEST(ReadAhead, DestroyWhileProducerBlockedOnFullRing)
{
    auto& prof = obs::prof::Profiler::instance();
    prof.reset();
    prof.enable();
    {
        sim::ReadAheadWorkload ahead(mcf());
        drain(ahead, 1);
        // The producer fills every slot, then blocks on the full ring.
        const std::uint64_t full =
            sim::ReadAheadWorkload::kSlots * kChunk;
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        while (ahead.records() < full &&
               std::chrono::steady_clock::now() < give_up)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_EQ(ahead.records(), full);
    }
    prof.disable();
    const auto counters = prof.counters();
    EXPECT_EQ(counters.at("readahead.records"),
              double(sim::ReadAheadWorkload::kSlots * kChunk));
    EXPECT_EQ(counters.at("readahead.discarded"),
              double(sim::ReadAheadWorkload::kSlots * kChunk - 1));
    EXPECT_GE(counters.at("readahead.wait_ns"), 0.0);
    prof.reset();
}

/** Yields @p good records, then throws from next(). */
class ThrowingWorkload final : public sim::Workload
{
  public:
    explicit ThrowingWorkload(std::uint64_t good) : good_(good) {}

    void reset() override { pos_ = 0; }

    bool
    next(sim::TraceRecord& out) override
    {
        if (pos_ == good_)
            throw std::runtime_error("decode failed");
        out = {};
        out.addr = pos_++ * 64;
        return true;
    }

    const std::string& name() const override { return name_; }

    std::unique_ptr<sim::Workload>
    clone() const override
    {
        return std::make_unique<ThrowingWorkload>(good_);
    }

  private:
    std::string name_ = "throwing";
    std::uint64_t good_;
    std::uint64_t pos_ = 0;
};

TEST(ReadAhead, InnerExceptionReachesTheCaller)
{
    // The producer catches what the inner next() throws; the caller's
    // next() rethrows it where the plain workload would have thrown.
    sim::ReadAheadWorkload ahead(
        std::make_unique<ThrowingWorkload>(kChunk + 10));
    drain(ahead, kChunk + 10);
    sim::TraceRecord r;
    EXPECT_THROW(ahead.next(r), std::runtime_error);
    EXPECT_THROW(ahead.next(r), std::runtime_error);
    ahead.reset();
    ASSERT_TRUE(ahead.next(r));
    EXPECT_EQ(r.addr, 0u);
}

// ---------------------------------------------------------------------
// exec::run_job installs the decorator
// ---------------------------------------------------------------------

stats::RunScale
tiny_scale(std::uint64_t measure)
{
    stats::RunScale s;
    s.warmup_records = 3 * kChunk + 100;
    s.measure_records = measure;
    s.workload_scale = kScale;
    return s;
}

void
expect_identical(const sim::RunResult& x, const sim::RunResult& y)
{
    ASSERT_EQ(x.per_core.size(), y.per_core.size());
    for (std::size_t c = 0; c < x.per_core.size(); ++c) {
        const auto& a = x.per_core[c];
        const auto& b = y.per_core[c];
        EXPECT_EQ(a.instructions, b.instructions) << "core " << c;
        EXPECT_EQ(a.mem_records, b.mem_records) << "core " << c;
        EXPECT_EQ(a.cycles, b.cycles) << "core " << c;
        EXPECT_EQ(a.l2.demand_hits, b.l2.demand_hits) << "core " << c;
        EXPECT_EQ(a.l2.demand_misses, b.l2.demand_misses)
            << "core " << c;
        EXPECT_EQ(a.l2pf.issued(), b.l2pf.issued()) << "core " << c;
        EXPECT_EQ(a.l2pf.useful, b.l2pf.useful) << "core " << c;
        EXPECT_EQ(a.energy.offchip_accesses, b.energy.offchip_accesses)
            << "core " << c;
    }
    EXPECT_EQ(x.llc.demand_hits, y.llc.demand_hits);
    EXPECT_EQ(x.llc.demand_misses, y.llc.demand_misses);
    EXPECT_EQ(x.traffic.total(), y.traffic.total());
}

/** @p job's single-core run on a system driven without the decorator. */
sim::RunResult
run_plain(const exec::Job& job)
{
    sim::MultiCoreSystem sys(job.config, 1);
    sys.set_prefetcher(0, stats::make_prefetcher(job.pf_spec, job.degree));
    auto wl = workloads::make_workload(job.benchmark,
                                       job.scale.workload_scale);
    EXPECT_NE(wl, nullptr);
    sys.bind(0, std::move(wl));
    sys.run_warmup(job.scale.warmup_records);
    return sys.run_measure(job.scale.measure_records);
}

TEST(ReadAhead, RunJobCheckpointForkMatchesPlain)
{
    // A warm checkpoint restores the workload cursor through skip()
    // right after reset(); the synthetic stream replays it, the raw
    // .tria stream seeks.
    const std::string tria = make_tria("ra_fork.tria");
    for (const std::string& bench :
         {std::string("mcf"), "trace:" + tria}) {
        SCOPED_TRACE(bench);
        exec::Job cold;
        cold.benchmark = bench;
        cold.pf_spec = "triage_dyn";
        cold.scale = tiny_scale(2000);
        exec::Job fork = cold;
        fork.scale.measure_records = 5000;

        exec::CheckpointStore store;
        expect_identical(exec::run_job(cold, &store), run_plain(cold));
        expect_identical(exec::run_job(fork, &store), run_plain(fork));
        const auto st = store.stats();
        EXPECT_EQ(st.misses, 1u);
        EXPECT_EQ(st.mem_hits, 1u);
    }
    std::remove(tria.c_str());
}

TEST(ReadAhead, MixRunJobMatchesPlain)
{
    // run_job reads every mix slot ahead on its own producer; a plain
    // MultiCoreSystem over the undecorated workloads must agree.
    exec::Job job;
    job.mix = {"mcf", "omnetpp"};
    job.pf_spec = "triage_dyn";
    job.degree = 4;
    job.scale = tiny_scale(20000);

    sim::MultiCoreSystem sys(job.config, 2);
    for (unsigned c = 0; c < 2; ++c) {
        sys.set_prefetcher(c,
                           stats::make_prefetcher(job.pf_spec, job.degree));
        auto wl = workloads::make_workload(
            job.mix[c], job.scale.workload_scale, 0, c);
        sys.bind(c, *wl);
    }
    const sim::RunResult plain = sys.run(job.scale.warmup_records,
                                         job.scale.measure_records);
    expect_identical(exec::run_job(job), plain);
}

} // namespace
