/**
 * @file
 * Tests for the streamed trace frontend (src/frontend/, docs/traces.md):
 * stream-vs-in-memory record identity, the reset/clone/skip contracts,
 * the ChampSim and memtrace decoders, transparent .gz / .xz
 * decompression and its failure warnings, the `trace:` spec grammar and
 * JobKey identity, and warm-checkpoint resume on a streamed workload.
 */
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <lzma.h>
#include <zlib.h>

#include "exec/checkpoint.hpp"
#include "exec/job.hpp"
#include "frontend/frontend.hpp"
#include "sim/multicore.hpp"
#include "sim/read_ahead.hpp"
#include "stats/experiment.hpp"
#include "workloads/spec.hpp"
#include "workloads/trace_io.hpp"

using namespace triage;

namespace {

/**
 * Save a small deterministic benchmark prefix as a .tria file.
 * save_trace() records a single workload pass, so `records` must fit
 * inside the scaled pass length (mcf at scale 0.01 is 20000 records).
 */
std::string
make_tria(const std::string& name, std::uint64_t records,
          double scale = 0.01)
{
    std::string path = ::testing::TempDir() + name;
    auto wl = workloads::make_benchmark("mcf", scale);
    EXPECT_EQ(workloads::save_trace(path, *wl, records), records);
    return path;
}

void
expect_same_stream(sim::Workload& a, sim::Workload& b,
                   std::uint64_t expect_records)
{
    sim::TraceRecord ra, rb;
    for (std::uint64_t i = 0; i < expect_records; ++i) {
        ASSERT_TRUE(a.next(ra)) << "record " << i;
        ASSERT_TRUE(b.next(rb)) << "record " << i;
        ASSERT_EQ(ra.pc, rb.pc) << "record " << i;
        ASSERT_EQ(ra.addr, rb.addr) << "record " << i;
        ASSERT_EQ(ra.is_write, rb.is_write) << "record " << i;
        ASSERT_EQ(ra.nonmem_before, rb.nonmem_before) << "record " << i;
        ASSERT_EQ(ra.dep_distance, rb.dep_distance) << "record " << i;
    }
    EXPECT_FALSE(a.next(ra));
    EXPECT_FALSE(b.next(rb));
}

/**
 * The first @p records records of the generator make_tria() saves
 * from, as an in-memory reference. Streams are checked against the
 * generator rather than load_trace(), which drains the same decoder.
 */
sim::VectorWorkload
generator_prefix(std::uint64_t records, double scale = 0.01)
{
    auto gen = workloads::make_benchmark("mcf", scale);
    std::vector<sim::TraceRecord> recs(records);
    for (auto& r : recs)
        EXPECT_TRUE(gen->next(r));
    return sim::VectorWorkload("mcf-prefix", std::move(recs));
}

// ---------------------------------------------------------------------
// Stream-vs-in-memory identity and the Workload contracts
// ---------------------------------------------------------------------

TEST(StreamWorkload, MatchesInMemoryLoadExactly)
{
    // Enough records to cross several of the read-ahead ring's chunks.
    const std::uint64_t N = 3 * sim::ReadAheadWorkload::kChunkRecords + 17;
    auto path = make_tria("triage_fe_identity.tria", N);
    auto stream = frontend::open_trace(path);
    ASSERT_NE(stream, nullptr);
    EXPECT_EQ(stream->declared_records(), N);
    auto ref = generator_prefix(N);
    expect_same_stream(*stream, ref, N);
    std::remove(path.c_str());
}

TEST(StreamWorkload, ResetReplaysFromTheStart)
{
    auto path = make_tria("triage_fe_reset.tria", 5000);
    auto wl = frontend::open_trace(path);
    ASSERT_NE(wl, nullptr);
    std::vector<sim::TraceRecord> first(100);
    for (auto& r : first)
        ASSERT_TRUE(wl->next(r));
    wl->reset();
    sim::TraceRecord r;
    for (const auto& want : first) {
        ASSERT_TRUE(wl->next(r));
        EXPECT_EQ(r.pc, want.pc);
        EXPECT_EQ(r.addr, want.addr);
    }
    std::remove(path.c_str());
}

TEST(StreamWorkload, CloneStartsFreshAndIsIndependent)
{
    auto path = make_tria("triage_fe_clone.tria", 5000);
    auto wl = frontend::open_trace(path);
    ASSERT_NE(wl, nullptr);
    sim::TraceRecord first;
    ASSERT_TRUE(wl->next(first));
    for (int i = 0; i < 500; ++i) {
        sim::TraceRecord scratch;
        ASSERT_TRUE(wl->next(scratch));
    }
    auto copy = wl->clone();
    ASSERT_NE(copy, nullptr);
    sim::TraceRecord r;
    ASSERT_TRUE(copy->next(r)); // rewound, not mid-stream
    EXPECT_EQ(r.pc, first.pc);
    EXPECT_EQ(r.addr, first.addr);
    std::remove(path.c_str());
}

/**
 * skip() on the @p n_records trace @p path must land where draining
 * next() does, for a short skip, a long one (the fast_skip seek on raw
 * .tria, a decode loop otherwise) and one past the end.
 */
void
expect_skip_matches_draining(const std::string& path,
                             std::uint64_t n_records)
{
    for (std::uint64_t dist :
         {std::uint64_t{7}, sim::ReadAheadWorkload::kChunkRecords + 123,
          n_records + 50}) {
        auto skipper = frontend::open_trace(path);
        auto drainer = frontend::open_trace(path);
        ASSERT_NE(skipper, nullptr);
        ASSERT_NE(drainer, nullptr);
        // Partially consume first so skip() starts mid-stream.
        sim::TraceRecord r;
        ASSERT_TRUE(skipper->next(r));
        ASSERT_TRUE(drainer->next(r));
        const std::uint64_t want = std::min(dist, n_records - 1);
        EXPECT_EQ(skipper->skip(dist), want) << "dist " << dist;
        std::uint64_t drained = 0;
        while (drained < dist && drainer->next(r))
            ++drained;
        EXPECT_EQ(drained, want);
        sim::TraceRecord a, b;
        EXPECT_EQ(skipper->next(a), drainer->next(b));
        if (want < n_records - 1) {
            EXPECT_EQ(a.pc, b.pc);
            EXPECT_EQ(a.addr, b.addr);
        }
    }
}

TEST(StreamWorkload, SkipMatchesDrainingNext)
{
    const std::uint64_t N = 2 * sim::ReadAheadWorkload::kChunkRecords + 9;
    auto path = make_tria("triage_fe_skip.tria", N);
    expect_skip_matches_draining(path, N);
    std::remove(path.c_str());
}

TEST(StreamWorkload, SetInstanceSeparatesAddressSpaces)
{
    auto path = make_tria("triage_fe_instance.tria", 64);
    auto base = frontend::open_trace(path);
    auto shifted = frontend::open_trace(path);
    ASSERT_NE(base, nullptr);
    ASSERT_NE(shifted, nullptr);
    shifted->set_instance(3);
    sim::TraceRecord a, b;
    for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(base->next(a));
        ASSERT_TRUE(shifted->next(b));
        EXPECT_EQ(b.addr, a.addr + (sim::Addr{3} << 44));
        EXPECT_EQ(b.pc, a.pc + (sim::Pc{3} << 48));
    }
    // clone() preserves the instance shift (mix binding clones).
    auto copy = shifted->clone();
    base->reset();
    ASSERT_TRUE(base->next(a));
    ASSERT_TRUE(copy->next(b));
    EXPECT_EQ(b.addr, a.addr + (sim::Addr{3} << 44));
    std::remove(path.c_str());
}

TEST(StreamWorkload, UnknownExtensionNeedsExplicitFormat)
{
    EXPECT_EQ(frontend::open_trace(::testing::TempDir() + "nope.bin"),
              nullptr);
    EXPECT_EQ(frontend::open_trace(::testing::TempDir() + "missing.tria"),
              nullptr);
}

// ---------------------------------------------------------------------
// Foreign-format decoders
// ---------------------------------------------------------------------

#pragma pack(push, 1)
struct ChampSimInstr {
    std::uint64_t ip = 0;
    std::uint8_t is_branch = 0;
    std::uint8_t branch_taken = 0;
    std::uint8_t destination_registers[2] = {};
    std::uint8_t source_registers[4] = {};
    std::uint64_t destination_memory[2] = {};
    std::uint64_t source_memory[4] = {};
};
#pragma pack(pop)
static_assert(sizeof(ChampSimInstr) == 64, "input_instr layout");

#pragma pack(push, 1)
struct MemtraceRecord {
    std::uint64_t pc = 0;
    std::uint64_t vaddr = 0;
    std::uint32_t size = 0;
    std::uint8_t flags = 0;
    std::uint8_t nonmem = 0;
    std::uint16_t reserved = 0;
};
#pragma pack(pop)
static_assert(sizeof(MemtraceRecord) == 24, "memtrace record layout");

template <typename T>
std::string
write_records(const std::string& name, const std::vector<T>& recs)
{
    std::string path = ::testing::TempDir() + name;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    EXPECT_EQ(std::fwrite(recs.data(), sizeof(T), recs.size(), f),
              recs.size());
    std::fclose(f);
    return path;
}

TEST(ChampSimDecoder, MapsOperandsAndPacesNonMem)
{
    std::vector<ChampSimInstr> instrs(5);
    instrs[0].ip = 0x100; // alu, no memory
    instrs[1].ip = 0x104;
    instrs[1].is_branch = 1; // branch: also just pacing
    instrs[2].ip = 0x108;    // 2 loads + 1 store
    instrs[2].source_memory[0] = 0x10000;
    instrs[2].source_memory[2] = 0x20000;
    instrs[2].destination_memory[1] = 0x30000;
    instrs[3].ip = 0x10c; // no memory
    instrs[4].ip = 0x110; // 1 store
    instrs[4].destination_memory[0] = 0x40000;

    auto path = write_records("triage_fe.champsimtrace", instrs);
    auto wl = frontend::open_trace(path);
    ASSERT_NE(wl, nullptr);

    sim::TraceRecord r;
    ASSERT_TRUE(wl->next(r)); // first load of instr 2
    EXPECT_EQ(r.pc, 0x108u);
    EXPECT_EQ(r.addr, 0x10000u);
    EXPECT_FALSE(r.is_write);
    EXPECT_EQ(r.nonmem_before, 2); // the alu + branch before it

    ASSERT_TRUE(wl->next(r)); // second load, operand order
    EXPECT_EQ(r.addr, 0x20000u);
    EXPECT_FALSE(r.is_write);
    EXPECT_EQ(r.nonmem_before, 0);

    ASSERT_TRUE(wl->next(r)); // then the store
    EXPECT_EQ(r.addr, 0x30000u);
    EXPECT_TRUE(r.is_write);

    ASSERT_TRUE(wl->next(r)); // instr 4's store, paced by instr 3
    EXPECT_EQ(r.pc, 0x110u);
    EXPECT_EQ(r.addr, 0x40000u);
    EXPECT_TRUE(r.is_write);
    EXPECT_EQ(r.nonmem_before, 1);

    EXPECT_FALSE(wl->next(r));
    wl->reset(); // headerless reset replays identically
    ASSERT_TRUE(wl->next(r));
    EXPECT_EQ(r.addr, 0x10000u);
    std::remove(path.c_str());
}

TEST(MemtraceDecoder, DecodesAndRejectsReservedBits)
{
    std::vector<MemtraceRecord> recs(3);
    recs[0] = {0x400, 0x1000, 4, 0x00, 2, 0};
    recs[1] = {0x404, 0x2000, 8, 0x01, 0, 0}; // store
    recs[2] = {0x408, 0x3000, 4, 0x00, 0, 0xbeef}; // reserved bits set

    auto path = write_records("triage_fe.memtrace", recs);
    auto wl = frontend::open_trace(path);
    ASSERT_NE(wl, nullptr);
    sim::TraceRecord r;
    ASSERT_TRUE(wl->next(r));
    EXPECT_EQ(r.pc, 0x400u);
    EXPECT_EQ(r.addr, 0x1000u);
    EXPECT_FALSE(r.is_write);
    EXPECT_EQ(r.nonmem_before, 2);
    ASSERT_TRUE(wl->next(r));
    EXPECT_TRUE(r.is_write);
    // The poisoned third record ends the stream instead of decoding
    // garbage.
    EXPECT_FALSE(wl->next(r));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Transparent decompression
// ---------------------------------------------------------------------

/** Slurp @p path whole (test fixtures are a few hundred KB). */
std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    return {std::istreambuf_iterator<char>(in), {}};
}

/** Write `<path>.gz` with zlib; @return its path. */
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

/** Write `<path>.xz` with liblzma; @return its path. */
std::string
xz_file(const std::string& path)
{
    const std::string raw = read_file(path);
    std::vector<std::uint8_t> xz(lzma_stream_buffer_bound(raw.size()));
    std::size_t xz_size = 0;
    EXPECT_EQ(lzma_easy_buffer_encode(
                  6, LZMA_CHECK_CRC64, nullptr,
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

/** Cut @p path to half its size. */
void
truncate_half(const std::string& path)
{
    std::error_code ec;
    const std::uintmax_t sz = std::filesystem::file_size(path, ec);
    ASSERT_FALSE(ec);
    ASSERT_GT(sz, 100u);
    std::filesystem::resize_file(path, sz / 2, ec);
    ASSERT_FALSE(ec);
}

/**
 * Replay the 6000-record trace @p raw_path and its compressed copy
 * @p packed side by side, twice: reset() on a forward-only
 * decompressor re-opens from byte 0.
 */
void
expect_round_trip(const std::string& raw_path, const std::string& packed)
{
    auto raw = frontend::open_trace(raw_path);
    auto wl = frontend::open_trace(packed);
    ASSERT_NE(raw, nullptr);
    ASSERT_NE(wl, nullptr);
    expect_same_stream(*wl, *raw, 6000);
    wl->reset();
    raw->reset();
    expect_same_stream(*wl, *raw, 6000);
}

/**
 * Replay the cut 4000-record archive @p packed: the decoder must
 * stop short and warn, never loop or fabricate records.
 */
void
expect_truncated_stream_stops(const std::string& packed)
{
    ::testing::internal::CaptureStderr();
    auto wl = frontend::open_trace(packed);
    std::uint64_t n = 0;
    if (wl != nullptr) {
        sim::TraceRecord r;
        while (wl->next(r))
            ++n;
    }
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_LT(n, 4000u);
    EXPECT_NE(err.find(packed), std::string::npos) << err;
}

TEST(Compression, GzRoundTripMatchesRaw)
{
    auto path = make_tria("triage_fe_gz.tria", 6000);
    auto gz = gzip_file(path);
    expect_round_trip(path, gz);
    std::remove(gz.c_str());
    std::remove(path.c_str());
}

TEST(Compression, GzSkipMatchesDrainingNext)
{
    // A forward-only decompressor cannot seek: skip() decodes.
    const std::uint64_t N = 2 * sim::ReadAheadWorkload::kChunkRecords + 9;
    auto path = make_tria("triage_fe_gz_skip.tria", N);
    auto gz = gzip_file(path);
    expect_skip_matches_draining(gz, N);
    std::remove(gz.c_str());
    std::remove(path.c_str());
}

// A reset with nothing read since the open returns at once; one after
// a skip() or at the end of the trace reopens it. Each must replay the
// trace from its first record.
TEST(Compression, GzResetReplaysFromTheStartAfterAnyRead)
{
    const std::uint64_t N = 3000;
    auto path = make_tria("triage_fe_gz_rewind.tria", N);
    auto gz = gzip_file(path);
    auto ref = generator_prefix(N);
    sim::TraceRecord r;

    auto unread = frontend::open_trace(gz);
    ASSERT_NE(unread, nullptr);
    unread->reset();
    expect_same_stream(*unread, ref, N);

    auto skipped = frontend::open_trace(gz);
    ASSERT_NE(skipped, nullptr);
    EXPECT_EQ(skipped->skip(1000), 1000u);
    skipped->reset();
    ref.reset();
    expect_same_stream(*skipped, ref, N);

    auto ended = frontend::open_trace(gz);
    ASSERT_NE(ended, nullptr);
    while (ended->next(r)) {
    }
    ended->reset();
    ref.reset();
    expect_same_stream(*ended, ref, N);

    std::remove(gz.c_str());
    std::remove(path.c_str());
}

TEST(Compression, XzRoundTripMatchesRaw)
{
    auto path = make_tria("triage_fe_xz.tria", 6000);
    auto xz = xz_file(path);
    expect_round_trip(path, xz);
    std::remove(xz.c_str());
    std::remove(path.c_str());
}

TEST(Compression, TruncatedGzFailsCleanly)
{
    auto path = make_tria("triage_fe_torn.tria", 4000);
    auto gz = gzip_file(path);
    truncate_half(gz);
    expect_truncated_stream_stops(gz);
    std::remove(gz.c_str());
    std::remove(path.c_str());
}

TEST(Compression, TruncatedXzFailsCleanly)
{
    auto path = make_tria("triage_fe_torn_xz.tria", 4000);
    auto xz = xz_file(path);
    truncate_half(xz);
    expect_truncated_stream_stops(xz);
    std::remove(xz.c_str());
    std::remove(path.c_str());
}

TEST(Compression, GzCutOnRecordBoundaryWarns)
{
    // A headerless ChampSim trace cut exactly after a full flush ends
    // on an instruction boundary, so the decoder sees a clean end of
    // input after 2000 instructions; only the byte layer knows the
    // gzip member is unfinished, and it must say so.
    const std::string gz =
        ::testing::TempDir() + "triage_fe_cut.champsimtrace.gz";
    gzFile out = gzopen(gz.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    z_off_t cut = 0;
    for (std::uint64_t i = 0; i < 4000; ++i) {
        ChampSimInstr in;
        in.ip = 0x400000 + 4 * i;
        in.source_memory[0] = 0x10000000 + 64 * i;
        ASSERT_EQ(gzwrite(out, &in, sizeof(in)),
                  static_cast<int>(sizeof(in)));
        if (i + 1 == 2000) {
            ASSERT_EQ(gzflush(out, Z_FULL_FLUSH), Z_OK);
            cut = gzoffset(out);
        }
    }
    ASSERT_EQ(gzclose(out), Z_OK);
    ASSERT_GT(cut, 0);
    std::error_code ec;
    std::filesystem::resize_file(gz, static_cast<std::uintmax_t>(cut),
                                 ec);
    ASSERT_FALSE(ec);

    ::testing::internal::CaptureStderr();
    auto wl = frontend::open_trace(gz);
    ASSERT_NE(wl, nullptr);
    sim::TraceRecord r;
    std::uint64_t n = 0;
    while (wl->next(r))
        ++n;
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(n, 2000u);
    EXPECT_NE(err.find("gzip error"), std::string::npos) << err;
    EXPECT_NE(err.find(gz), std::string::npos) << err;
    std::remove(gz.c_str());
}

// ---------------------------------------------------------------------
// Spec grammar + JobKey identity
// ---------------------------------------------------------------------

TEST(TraceSpec, GrammarRoundTrips)
{
    EXPECT_TRUE(frontend::is_trace_spec("trace:foo.tria"));
    EXPECT_TRUE(frontend::is_trace_spec("trace[champsim]:a/b.bin"));
    EXPECT_FALSE(frontend::is_trace_spec("mcf"));
    EXPECT_FALSE(frontend::is_trace_spec("tracer"));
    EXPECT_FALSE(frontend::is_trace_spec("trace"));

    frontend::TraceSpec ts;
    ASSERT_TRUE(frontend::parse_trace_spec("trace:x.tria.gz", ts));
    EXPECT_EQ(ts.path, "x.tria.gz");
    EXPECT_EQ(ts.format, frontend::TraceFormat::Auto);

    ASSERT_TRUE(frontend::parse_trace_spec("trace[memtrace]:y.bin", ts));
    EXPECT_EQ(ts.path, "y.bin");
    EXPECT_EQ(ts.format, frontend::TraceFormat::Memtrace);

    EXPECT_FALSE(frontend::parse_trace_spec("trace[bogus]:y.bin", ts));
    EXPECT_FALSE(frontend::parse_trace_spec("trace:", ts));
    EXPECT_FALSE(frontend::parse_trace_spec("trace[tria]", ts));

    EXPECT_EQ(frontend::trace_spec("p.tria", frontend::TraceFormat::Tria),
              "trace[tria]:p.tria");
    EXPECT_EQ(frontend::trace_spec("p.tria", frontend::TraceFormat::Auto),
              "trace:p.tria");
}

TEST(TraceSpec, MakeWorkloadResolvesTraceSpecs)
{
    auto path = make_tria("triage_fe_spec.tria", 1000);
    auto wl = workloads::make_workload("trace:" + path);
    ASSERT_NE(wl, nullptr);
    auto ref = generator_prefix(1000);
    expect_same_stream(*wl, ref, 1000);
    // Benchmark names still resolve through the analog table.
    EXPECT_NE(workloads::make_workload("mcf", 0.01), nullptr);
    // A missing trace file fails open (callers treat null as fatal).
    EXPECT_EQ(workloads::make_workload("trace:" + path + ".nope"),
              nullptr);
    std::remove(path.c_str());
}

TEST(TraceSpec, JobKeyCarriesFormatPathAndSize)
{
    auto path = make_tria("triage_fe_key.tria", 1000);
    exec::Job j;
    j.benchmark = "trace:" + path;
    j.pf_spec = "triage_dyn";
    const std::string key1 = exec::key_of(j).workload;
    EXPECT_NE(key1.find("tria"), std::string::npos);
    EXPECT_NE(key1.find(path), std::string::npos);
    EXPECT_NE(key1.find('@'), std::string::npos);

    // Regenerating the file with different contents must change the
    // key — otherwise memoized results and warm checkpoints leak
    // across a trace swap.
    auto wl = workloads::make_benchmark("mcf", 0.01);
    ASSERT_EQ(workloads::save_trace(path, *wl, 900), 900u);
    const std::string key2 = exec::key_of(j).workload;
    EXPECT_NE(key1, key2);

    // Mix slots canonicalize the same way.
    exec::Job m;
    m.mix = {"mcf", "trace:" + path};
    m.pf_spec = "triage_dyn";
    EXPECT_NE(exec::key_of(m).workload.find('@'), std::string::npos);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// End-to-end: jobs, mixes, and warm-checkpoint resume
// ---------------------------------------------------------------------

TEST(TraceJobs, MixWithTraceSlotRuns)
{
    auto path = make_tria("triage_fe_mix.tria", 20000);
    exec::Job j;
    j.mix = {"trace:" + path, "mcf"};
    j.pf_spec = "triage_dyn";
    j.scale.warmup_records = 4000;
    j.scale.measure_records = 12000;
    const sim::RunResult r = exec::run_job(j);
    ASSERT_EQ(r.per_core.size(), 2u);
    EXPECT_GT(r.per_core[0].mem_records, 0u);
    EXPECT_GT(r.per_core[1].mem_records, 0u);
    std::remove(path.c_str());
}

TEST(TraceJobs, StreamedJobMatchesInMemoryJob)
{
    // The same trace replayed through the streaming frontend and
    // through an in-memory VectorWorkload must be stat-identical.
    auto path = make_tria("triage_fe_diff.tria", 60000, 0.05);
    exec::Job streamed;
    streamed.benchmark = "trace:" + path;
    streamed.pf_spec = "triage_dyn";
    streamed.scale.warmup_records = 10000;
    streamed.scale.measure_records = 40000;

    exec::Job loaded = streamed;
    loaded.benchmark.clear();
    loaded.workload_factory = [path] {
        return workloads::load_trace(path);
    };
    loaded.variant = "inmem:" + path;

    const sim::RunResult a = exec::run_job(streamed);
    const sim::RunResult b = exec::run_job(loaded);
    ASSERT_EQ(a.per_core.size(), 1u);
    EXPECT_EQ(a.per_core[0].instructions, b.per_core[0].instructions);
    EXPECT_EQ(a.per_core[0].cycles, b.per_core[0].cycles);
    EXPECT_EQ(a.per_core[0].l2.demand_misses,
              b.per_core[0].l2.demand_misses);
    EXPECT_EQ(a.traffic.total(), b.traffic.total());
    std::remove(path.c_str());
}

TEST(TraceJobs, WarmCheckpointResumeIsBitIdentical)
{
    // Checkpoint a streamed replay at the warm point, restore it into a
    // fresh system, and land on identical stats. The workload cursor is
    // restored by skip()-accelerated replay.
    auto path = make_tria("triage_fe_ckpt.tria", 60000, 0.05);
    sim::MachineConfig cfg;
    // The warmup wraps the 60000-record trace past EOF twice, so the
    // restored cursor replay has to cross pass boundaries.
    const std::uint64_t warm = 130000, measure = 40000;

    auto build = [&] {
        auto sys = std::make_unique<sim::MultiCoreSystem>(cfg, 1);
        auto wl = frontend::open_trace(path);
        EXPECT_NE(wl, nullptr);
        sys->set_prefetcher(0, stats::make_prefetcher("triage_dyn", 4));
        sys->bind(0, std::move(wl));
        return sys;
    };

    auto ref = build();
    ref->run_warmup(warm);
    const sim::RunResult want = ref->run_measure(measure);

    auto cut = build();
    cut->run_warmup(warm);
    sim::Snapshot save;
    cut->checkpoint_warm(save);
    const sim::SnapshotBlob blob =
        save.seal(exec::CKPT_VERSION, "fe-warm");

    auto res = build();
    sim::Snapshot load =
        sim::Snapshot::open_or_die(blob, exec::CKPT_VERSION, "fe-warm");
    res->checkpoint_warm(load);
    EXPECT_TRUE(load.exhausted());
    const sim::RunResult got = res->run_measure(measure);

    ASSERT_EQ(want.per_core.size(), got.per_core.size());
    EXPECT_EQ(want.per_core[0].instructions,
              got.per_core[0].instructions);
    EXPECT_EQ(want.per_core[0].cycles, got.per_core[0].cycles);
    EXPECT_EQ(want.per_core[0].l2.demand_misses,
              got.per_core[0].l2.demand_misses);
    EXPECT_EQ(want.traffic.total(), got.traffic.total());
    EXPECT_EQ(want.span, got.span);
    std::remove(path.c_str());
}

} // namespace
