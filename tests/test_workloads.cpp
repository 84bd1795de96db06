/**
 * @file
 * Tests for the synthetic workload generators: determinism, reset,
 * cloning, footprint/dependency properties, benchmark table coverage,
 * and mix construction.
 */
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "util/bitops.hpp"
#include "workloads/kernels.hpp"
#include "workloads/mixes.hpp"
#include "workloads/phased.hpp"
#include "workloads/spec.hpp"
#include "workloads/synthetic.hpp"

using namespace triage;
using namespace triage::workloads;

namespace {

std::vector<sim::TraceRecord>
collect(sim::Workload& wl, std::size_t n)
{
    std::vector<sim::TraceRecord> v;
    sim::TraceRecord r;
    while (v.size() < n && wl.next(r))
        v.push_back(r);
    return v;
}

bool
same_records(const std::vector<sim::TraceRecord>& a,
             const std::vector<sim::TraceRecord>& b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].pc != b[i].pc || a[i].addr != b[i].addr ||
            a[i].is_write != b[i].is_write ||
            a[i].nonmem_before != b[i].nonmem_before ||
            a[i].dep_distance != b[i].dep_distance)
            return false;
    }
    return true;
}

/** What @p k emits as records 1..n, drawing from a fresh shared RNG. */
std::vector<sim::TraceRecord>
emit_n(Kernel& k, std::size_t n)
{
    util::Rng rng(3);
    std::vector<sim::TraceRecord> v(n);
    for (std::size_t i = 0; i < n; ++i)
        k.emit(rng, i + 1, v[i]);
    return v;
}

} // namespace

TEST(Workloads, EveryBenchmarkBuildsAndEmits)
{
    for (const auto& name : all_spec()) {
        auto wl = make_benchmark(name, 0.01);
        auto recs = collect(*wl, 1000);
        ASSERT_FALSE(recs.empty()) << name;
        for (const auto& r : recs) {
            EXPECT_NE(r.pc, 0u) << name;
            EXPECT_NE(r.addr, 0u) << name;
        }
    }
    for (const auto& name : cloudsuite()) {
        auto wl = make_benchmark(name, 0.01);
        EXPECT_FALSE(collect(*wl, 100).empty()) << name;
    }
}

TEST(Workloads, UnknownBenchmarkListsAreDisjointFromEachOther)
{
    std::unordered_set<std::string> irr(irregular_spec().begin(),
                                        irregular_spec().end());
    for (const auto& r : regular_spec())
        EXPECT_FALSE(irr.count(r)) << r;
}

TEST(Workloads, DeterministicAcrossInstances)
{
    auto a = make_benchmark("mcf", 0.05);
    auto b = make_benchmark("mcf", 0.05);
    EXPECT_TRUE(same_records(collect(*a, 5000), collect(*b, 5000)));
}

TEST(Workloads, ResetReplaysIdentically)
{
    auto wl = make_benchmark("sphinx3", 0.05);
    auto first = collect(*wl, 3000);
    wl->reset();
    auto second = collect(*wl, 3000);
    EXPECT_TRUE(same_records(first, second));
}

TEST(Workloads, CloneIsIndependentAndIdentical)
{
    auto wl = make_benchmark("omnetpp", 0.05);
    collect(*wl, 100); // advance the original
    auto copy = wl->clone();
    auto from_copy = collect(*copy, 2000);
    auto fresh = make_benchmark("omnetpp", 0.05);
    EXPECT_TRUE(same_records(from_copy, collect(*fresh, 2000)));
}

// The five ways a workload comes to its first record: built, reset
// before any read, cloned fresh, cloned mid-pass, and reset after its
// pass ended. Set-up skips the rebuild in the first three; each must
// still replay the fresh pass.
TEST(Workloads, EveryRewindReplaysTheFreshPass)
{
    std::vector<std::string> names = all_spec();
    names.insert(names.end(), cloudsuite().begin(), cloudsuite().end());
    for (const auto& name : names) {
        SCOPED_TRACE(name);
        auto make = [&] { return make_benchmark(name, 0.001); };
        const std::size_t pass = make()->length();
        ASSERT_LE(pass, 4000u);
        const auto fresh = collect(*make(), pass + 1);
        ASSERT_EQ(fresh.size(), pass);

        auto reset_first = make();
        reset_first->reset();
        EXPECT_TRUE(same_records(collect(*reset_first, pass), fresh));

        EXPECT_TRUE(same_records(collect(*make()->clone(), pass), fresh));

        auto mid = make();
        collect(*mid, pass / 2);
        EXPECT_TRUE(same_records(collect(*mid->clone(), pass), fresh));

        auto wrapped = make();
        collect(*wrapped, pass + 1); // runs next() to its false
        wrapped->reset();
        EXPECT_TRUE(same_records(collect(*wrapped, pass), fresh));
    }
}

// The same five cases on a chase kernel that relinks its network
// while it runs, so a rewind must undo the relinks as well.
TEST(Workloads, ChaseKernelRewindsReplayTheFreshStreamUnderRelinks)
{
    PointerChaseKernel::Params p;
    p.nodes = 1 << 10;
    p.chains = 4;
    p.chain_skew = 0.7;
    p.mutate_prob = 0.05;
    const std::size_t n = 4000;
    PointerChaseKernel built(p);
    const auto fresh = emit_n(built, n);

    PointerChaseKernel::Params still = p;
    still.mutate_prob = 0;
    PointerChaseKernel unrelinked(still);
    EXPECT_FALSE(same_records(emit_n(unrelinked, n), fresh))
        << "no relink moved the stream";

    PointerChaseKernel reset_first(p);
    reset_first.reset();
    EXPECT_TRUE(same_records(emit_n(reset_first, n), fresh));

    PointerChaseKernel untouched(p);
    EXPECT_TRUE(same_records(emit_n(*untouched.clone(), n), fresh));

    PointerChaseKernel mid(p);
    emit_n(mid, n / 2);
    EXPECT_TRUE(same_records(emit_n(*mid.clone(), n), fresh));

    built.reset(); // after n records and their relinks
    EXPECT_TRUE(same_records(emit_n(built, n), fresh));
}

TEST(Workloads, PassEndsAtLength)
{
    auto wl = make_benchmark("mcf", 0.001); // 2000 records
    sim::TraceRecord r;
    std::size_t n = 0;
    while (wl->next(r))
        ++n;
    EXPECT_EQ(n, 2000u);
    wl->reset();
    EXPECT_TRUE(wl->next(r));
}

TEST(Workloads, InstanceOffsetsSeparateAddressSpaces)
{
    auto a = make_benchmark("mcf", 0.01);
    auto b = make_benchmark("mcf", 0.01);
    b->set_instance(3);
    auto ra = collect(*a, 2000);
    auto rb = collect(*b, 2000);
    std::unordered_set<sim::Addr> blocks_a;
    for (const auto& r : ra)
        blocks_a.insert(sim::block_of(r.addr));
    for (const auto& r : rb)
        EXPECT_FALSE(blocks_a.count(sim::block_of(r.addr)));
}

TEST(Workloads, IrregularBenchmarksHaveTemporalRecurrence)
{
    // The successor of a block under a given PC must be stable across
    // laps for the bulk of accesses — that is what Triage exploits.
    auto wl = make_benchmark("mcf", 0.2);
    std::unordered_map<std::uint64_t, sim::Addr> last_by_pc;
    std::unordered_map<std::uint64_t, sim::Addr> successor;
    std::uint64_t stable = 0, transitions = 0;
    sim::TraceRecord r;
    for (int i = 0; i < 300000 && wl->next(r); ++i) {
        auto it = last_by_pc.find(r.pc);
        if (it != last_by_pc.end()) {
            std::uint64_t key = it->second;
            auto s = successor.find(key);
            if (s != successor.end()) {
                ++transitions;
                stable += s->second == sim::block_of(r.addr) ? 1 : 0;
            }
            successor[key] = sim::block_of(r.addr);
        }
        last_by_pc[r.pc] = sim::block_of(r.addr) ^ (r.pc << 48);
    }
    ASSERT_GT(transitions, 10000u);
    EXPECT_GT(static_cast<double>(stable) /
                  static_cast<double>(transitions),
              0.5);
}

TEST(Workloads, StreamingBenchmarkIsSequential)
{
    auto wl = make_benchmark("libquantum", 0.05);
    std::unordered_map<std::uint64_t, sim::Addr> last_by_pc;
    std::uint64_t sequential = 0, total = 0;
    sim::TraceRecord r;
    while (wl->next(r)) {
        auto it = last_by_pc.find(r.pc);
        if (it != last_by_pc.end()) {
            ++total;
            auto delta = static_cast<std::int64_t>(
                sim::block_of(r.addr) - it->second);
            sequential += (delta >= 0 && delta <= 4) ? 1 : 0;
        }
        last_by_pc[r.pc] = sim::block_of(r.addr);
    }
    ASSERT_GT(total, 1000u);
    EXPECT_GT(static_cast<double>(sequential) / static_cast<double>(total),
              0.7);
}

TEST(Workloads, PointerChaseEmitsDependencies)
{
    PointerChaseKernel::Params p;
    p.nodes = 1 << 12;
    p.chains = 4;
    PointerChaseKernel k(p);
    util::Rng rng(1);
    std::uint64_t deps = 0;
    sim::TraceRecord r;
    for (std::uint64_t i = 1; i <= 1000; ++i) {
        k.emit(rng, i, r);
        deps += r.dep_distance > 0 ? 1 : 0;
    }
    EXPECT_GT(deps, 900u);
}

TEST(Workloads, FootprintKernelStaysInRegionPatterns)
{
    FootprintKernel::Params p;
    p.regions = 256;
    FootprintKernel k(p);
    util::Rng rng(2);
    sim::TraceRecord r;
    // Touches within a region visit increasing offsets; consecutive
    // visits can hash to the same region (restarting the footprint), so
    // tolerate rare non-monotonic steps instead of forbidding them.
    std::uint64_t prev_region = ~0ULL;
    std::uint32_t prev_off = 0;
    int violations = 0;
    for (int i = 0; i < 5000; ++i) {
        k.emit(rng, i, r);
        std::uint64_t region = sim::block_of(r.addr) / 32;
        auto off =
            static_cast<std::uint32_t>(sim::block_of(r.addr) % 32);
        if (region == prev_region && off <= prev_off)
            ++violations;
        prev_region = region;
        prev_off = off;
    }
    EXPECT_LT(violations, 50); // < 1% of accesses
}

TEST(Workloads, MixesAreDeterministicAndSized)
{
    auto m1 = make_mixes(irregular_spec(), 4, 10, 42);
    auto m2 = make_mixes(irregular_spec(), 4, 10, 42);
    ASSERT_EQ(m1.size(), 10u);
    EXPECT_EQ(m1, m2);
    for (const auto& mix : m1) {
        EXPECT_EQ(mix.size(), 4u);
        for (const auto& b : mix) {
            EXPECT_NE(std::find(irregular_spec().begin(),
                                irregular_spec().end(), b),
                      irregular_spec().end());
        }
    }
}

TEST(Workloads, PaperMixesSplitIrregularAndMixed)
{
    auto mixes = paper_mixes(4, 80, 7);
    ASSERT_EQ(mixes.size(), 80u);
    std::unordered_set<std::string> irr(irregular_spec().begin(),
                                        irregular_spec().end());
    // First 30 mixes: irregular programs only.
    for (unsigned m = 0; m < 30; ++m) {
        for (const auto& b : mixes[m])
            EXPECT_TRUE(irr.count(b)) << b;
    }
    // The rest must include at least one regular program somewhere.
    bool saw_regular = false;
    for (unsigned m = 30; m < 80; ++m) {
        for (const auto& b : mixes[m])
            saw_regular |= !irr.count(b);
    }
    EXPECT_TRUE(saw_regular);
}

TEST(Workloads, ScaleChangesPassLength)
{
    auto small = make_benchmark("mcf", 0.01);
    auto large = make_benchmark("mcf", 0.02);
    EXPECT_EQ(small->length() * 2, large->length());
}

TEST(Workloads, BTreeProbeWalksDependentLevels)
{
    BTreeProbeKernel::Params p;
    p.levels = 4;
    p.keys = 1 << 10;
    BTreeProbeKernel k(p);
    util::Rng rng(3);
    sim::TraceRecord r;
    // Each probe is `levels` records: level 0 independent, the rest
    // dependent on their parent.
    for (int probe = 0; probe < 200; ++probe) {
        for (std::uint32_t l = 0; l < p.levels; ++l) {
            k.emit(rng, probe * p.levels + l, r);
            if (l == 0)
                // Point queries start fresh; scan probes chase the
                // previous leaf's sibling pointer.
                EXPECT_LE(r.dep_distance, 1);
            else
                EXPECT_EQ(r.dep_distance, 1);
        }
    }
}

TEST(Workloads, BTreeProbeResetMidProbeReplaysTheFreshStream)
{
    // A reset taken part-way through a probe, a scan probe included,
    // must leave no trace in the records that follow it: from the same
    // random draws, the reset kernel emits what a fresh one does.
    BTreeProbeKernel::Params p;
    p.levels = 3;
    p.keys = 1 << 10;
    p.point_query_prob = 0.5;
    auto emit = [](Kernel& k, util::Rng& rng, std::size_t n) {
        std::vector<sim::TraceRecord> v(n);
        for (std::size_t i = 0; i < n; ++i)
            k.emit(rng, i + 1, v[i]);
        return v;
    };
    for (std::size_t cut = 1; cut < 200; ++cut) {
        SCOPED_TRACE(cut);
        BTreeProbeKernel k(p);
        util::Rng rng(3);
        emit(k, rng, cut);
        k.reset();
        BTreeProbeKernel fresh(p);
        util::Rng fresh_rng = rng;
        EXPECT_TRUE(
            same_records(emit(k, rng, 50), emit(fresh, fresh_rng, 50)));
    }
}

TEST(Workloads, BTreeSameKeySamePath)
{
    BTreeProbeKernel::Params p;
    p.levels = 3;
    p.keys = 8; // few keys: paths recur quickly
    p.zipf_s = 0.1;
    BTreeProbeKernel k(p);
    util::Rng rng(5);
    sim::TraceRecord r;
    // A probe's path is a stable function of its key: with 8 distinct
    // keys there can be at most 8 distinct (inner, leaf) paths across
    // any number of probes.
    std::unordered_set<std::uint64_t> paths;
    for (int probe = 0; probe < 500; ++probe) {
        sim::Addr inner = 0;
        for (std::uint32_t l = 0; l < p.levels; ++l) {
            k.emit(rng, probe * p.levels + l, r);
            if (l == 1)
                inner = r.addr;
            if (l == 2)
                paths.insert(triage::util::mix64(inner) ^ r.addr);
        }
    }
    EXPECT_LE(paths.size(), 8u);
    EXPECT_GE(paths.size(), 2u);
}

TEST(PhasedWorkload, EmitsPhasesInOrder)
{
    using namespace workloads;
    std::vector<sim::TraceRecord> a(10, {0x1, 0x1000, false, 0, 0});
    std::vector<sim::TraceRecord> b(10, {0x2, 0x2000, false, 0, 0});
    std::vector<Phase> phases;
    phases.push_back(
        {std::make_unique<sim::VectorWorkload>("a", a), 5});
    phases.push_back(
        {std::make_unique<sim::VectorWorkload>("b", b), 3});
    PhasedWorkload wl("p", std::move(phases));
    sim::TraceRecord r;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(wl.next(r));
        EXPECT_EQ(r.pc, 0x1u);
    }
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(wl.next(r));
        EXPECT_EQ(r.pc, 0x2u);
    }
    EXPECT_FALSE(wl.next(r));
    wl.reset();
    ASSERT_TRUE(wl.next(r));
    EXPECT_EQ(r.pc, 0x1u);
}

TEST(PhasedWorkload, RestartsShortPhasesInternally)
{
    using namespace workloads;
    std::vector<sim::TraceRecord> tiny(2, {0x7, 0x7000, false, 0, 0});
    std::vector<Phase> phases;
    phases.push_back(
        {std::make_unique<sim::VectorWorkload>("tiny", tiny), 9});
    PhasedWorkload wl("loop", std::move(phases));
    sim::TraceRecord r;
    int n = 0;
    while (wl.next(r))
        ++n;
    EXPECT_EQ(n, 9);
}

TEST(PhasedWorkload, CloneReplaysIdentically)
{
    using namespace workloads;
    std::vector<Phase> phases;
    phases.push_back({make_benchmark("mcf", 0.01), 500});
    phases.push_back({make_benchmark("libquantum", 0.01), 500});
    PhasedWorkload wl("pc", std::move(phases));
    auto copy = wl.clone();
    sim::TraceRecord x;
    sim::TraceRecord y;
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(wl.next(x));
        ASSERT_TRUE(copy->next(y));
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.pc, y.pc);
    }
}

TEST(PhasedWorkload, ConcatenatesAndRewindsAllParts)
{
    // 0-record phases play each part to its end, no restart: a plain
    // concatenation, which the split-trace fidelity pair relies on.
    using namespace workloads;
    auto rec = [](sim::Addr a) {
        sim::TraceRecord r;
        r.pc = 1;
        r.addr = a;
        return r;
    };
    std::vector<Phase> parts;
    parts.push_back({std::make_unique<sim::VectorWorkload>(
                         "a", std::vector<sim::TraceRecord>{rec(1), rec(2)}),
                     0});
    parts.push_back({std::make_unique<sim::VectorWorkload>(
                         "b", std::vector<sim::TraceRecord>{rec(3)}),
                     0});
    PhasedWorkload chain("ab", std::move(parts));

    for (int pass = 0; pass < 2; ++pass) {
        sim::TraceRecord r;
        std::vector<sim::Addr> seen;
        while (chain.next(r))
            seen.push_back(r.addr);
        EXPECT_EQ(seen, (std::vector<sim::Addr>{1, 2, 3}))
            << "pass " << pass;
        chain.reset();
    }

    auto copy = chain.clone();
    sim::TraceRecord r;
    ASSERT_TRUE(copy->next(r));
    EXPECT_EQ(r.addr, 1u);
}
