/**
 * @file
 * Tests for the observability subsystem: stats registry, epoch
 * sampler, event trace, the JSON parser, and the end-to-end wiring
 * into the single-core harness (registry dump consistent with the
 * RunResult, epochs produced at the requested cadence).
 */
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>

#include <gtest/gtest.h>

#include "obs/event_trace.hpp"
#include "obs/json.hpp"
#include "obs/lifecycle.hpp"
#include "obs/observer.hpp"
#include "obs/perfetto.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "sim/multicore.hpp"
#include "stats/experiment.hpp"
#include "stats/report.hpp"
#include "workloads/spec.hpp"

namespace triage {
namespace {

using obs::json::Value;

// --- Registry -----------------------------------------------------------

TEST(Registry, BoundCounterReadsLiveField)
{
    obs::Registry reg;
    std::uint64_t hits = 0;
    reg.bind_counter("l2.hits", &hits);
    EXPECT_EQ(reg.read("l2.hits"), 0.0);
    hits = 41;
    EXPECT_EQ(reg.read("l2.hits"), 41.0);
    EXPECT_EQ(reg.kind("l2.hits"), obs::StatKind::Counter);
}

TEST(Registry, FormulaEvaluatesOnRead)
{
    obs::Registry reg;
    double x = 2.0;
    reg.add_formula("twice", [&x] { return 2.0 * x; });
    EXPECT_EQ(reg.read("twice"), 4.0);
    x = 10.0;
    EXPECT_EQ(reg.read("twice"), 20.0);
}

TEST(Registry, FreezeSnapshotsBoundStatsAndFormulas)
{
    obs::Registry reg;
    {
        // Sources live in an inner scope and are dead by read time —
        // the exact shape of the --mix use-after-free (review): bound
        // stats pointing into a system local to stats::run_mix.
        std::uint64_t hits = 41;
        reg.bind_counter("l2.hits", &hits);
        reg.add_formula("twice",
                        [&hits] { return 2.0 * static_cast<double>(hits); });
        reg.freeze();
        // Post-freeze source changes must be invisible.
        hits = 1000;
        EXPECT_DOUBLE_EQ(reg.read("l2.hits"), 41.0);
    }
    EXPECT_DOUBLE_EQ(reg.read("l2.hits"), 41.0);
    EXPECT_DOUBLE_EQ(reg.read("twice"), 82.0);
    reg.freeze(); // idempotent
    EXPECT_DOUBLE_EQ(reg.read("l2.hits"), 41.0);

    // The frozen registry still serializes.
    std::ostringstream os;
    obs::json::Writer w(os);
    reg.write_json(w);
    std::string err;
    auto v = obs::json::parse(os.str(), &err);
    ASSERT_TRUE(v.has_value()) << err;
    EXPECT_EQ(v->find_path("l2.hits")->number, 41.0);
}

TEST(RegistryDeathTest, RejectsNameNestingUnderExistingLeaf)
{
    // "a.b" as both a leaf and an object prefix would emit a duplicate
    // JSON key; registration must fail fast instead.
    obs::Registry reg;
    std::uint64_t v = 0;
    reg.bind_counter("a.b", &v);
    EXPECT_DEATH(reg.bind_counter("a.b.c", &v), "nests");
    EXPECT_DEATH(reg.bind_counter("a", &v), "nests");
    // Siblings and shared interior prefixes stay legal.
    reg.bind_counter("a.bc", &v);
    reg.bind_counter("a.b2.c", &v);
}

TEST(Registry, NamesSortedAndContains)
{
    obs::Registry reg;
    std::uint64_t v = 0;
    reg.bind_counter("b.y", &v);
    reg.bind_counter("a.z", &v);
    reg.bind_counter("a.x", &v);
    auto names = reg.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "a.x");
    EXPECT_EQ(names[1], "a.z");
    EXPECT_EQ(names[2], "b.y");
    EXPECT_TRUE(reg.contains("a.x"));
    EXPECT_FALSE(reg.contains("a.y"));
    reg.clear();
    EXPECT_EQ(reg.size(), 0u);
}

TEST(Registry, JsonDumpRoundTripsThroughParser)
{
    obs::Registry reg;
    std::uint64_t misses = 123;
    std::uint64_t evictions = 7;
    reg.bind_counter("core0.l2.demand_misses", &misses);
    reg.add_formula("core0.ipc", [] { return 1.5; });
    reg.bind_counter("llc.evictions", &evictions);

    std::ostringstream os;
    obs::json::Writer w(os);
    reg.write_json(w);
    std::string err;
    auto v = obs::json::parse(os.str(), &err);
    ASSERT_TRUE(v.has_value()) << err << "\n" << os.str();

    const Value* m = v->find_path("core0.l2.demand_misses");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->number, 123.0);
    const Value* ipc = v->find_path("core0.ipc");
    ASSERT_NE(ipc, nullptr);
    EXPECT_DOUBLE_EQ(ipc->number, 1.5);
    const Value* ev = v->find_path("llc.evictions");
    ASSERT_NE(ev, nullptr);
    EXPECT_EQ(ev->number, 7.0);
}

TEST(Registry, DumpKeepsLargeIntegersExact)
{
    // Integral formulas once printed at 10 significant digits
    // (12345678901 -> 1.23456789e+10); counters above 2^53 must not
    // pass through a double on their way out.
    obs::Registry reg;
    const std::uint64_t big = (std::uint64_t{1} << 60) + 1;
    reg.add_formula("core0.cycles", [] { return 12345678901.0; });
    reg.bind_counter("core0.huge", &big);
    std::ostringstream os;
    obs::json::Writer w(os);
    reg.write_json(w);
    const std::string text = os.str();
    EXPECT_NE(text.find("\"huge\": 1152921504606846977"), std::string::npos)
        << text;
    auto v = obs::json::parse(text);
    ASSERT_TRUE(v.has_value()) << text;
    EXPECT_EQ(v->find_path("core0.cycles")->number, 12345678901.0);
}

TEST(Registry, NonFiniteFormulaSerializesAsZero)
{
    obs::Registry reg;
    reg.add_formula("bad", [] { return std::nan(""); });
    std::ostringstream os;
    obs::json::Writer w(os);
    reg.write_json(w);
    auto v = obs::json::parse(os.str());
    ASSERT_TRUE(v.has_value()) << os.str();
    EXPECT_EQ(v->find_path("bad")->number, 0.0);
}

// --- Epoch sampler ------------------------------------------------------

TEST(EpochSampler, DeltaAndRateProbes)
{
    obs::EpochSampler s;
    s.configure(100);
    double instr = 0.0;
    double cycles = 0.0;
    s.add_delta("instr", [&] { return instr; });
    s.add_rate("ipc", [&] { return instr; }, [&] { return cycles; });
    s.add_level("level", [&] { return cycles; });

    instr = 1000;
    cycles = 500;
    s.begin(0); // baselines captured here
    instr = 1600;
    cycles = 900;
    s.sample(100);
    instr = 1700;
    cycles = 1400;
    s.sample(200);

    ASSERT_EQ(s.epochs().size(), 2u);
    const auto& e0 = s.epochs()[0];
    EXPECT_EQ(e0.begin, 0u);
    EXPECT_EQ(e0.end, 100u);
    EXPECT_DOUBLE_EQ(e0.values[0], 600.0);       // delta instr
    EXPECT_DOUBLE_EQ(e0.values[1], 600.0 / 400); // rate
    EXPECT_DOUBLE_EQ(e0.values[2], 900.0);       // level
    const auto& e1 = s.epochs()[1];
    EXPECT_DOUBLE_EQ(e1.values[0], 100.0);
    EXPECT_DOUBLE_EQ(e1.values[1], 100.0 / 500);
}

TEST(EpochSampler, RateWithStalledDenominatorIsZero)
{
    obs::EpochSampler s;
    s.configure(10);
    double num = 0.0;
    s.add_rate("r", [&] { return num; }, [] { return 1.0; });
    s.begin(0);
    num = 5.0;
    s.sample(10);
    ASSERT_EQ(s.epochs().size(), 1u);
    EXPECT_EQ(s.epochs()[0].values[0], 0.0);
}

TEST(EpochSampler, FinalizeClosesPartialEpochOnce)
{
    obs::EpochSampler s;
    s.configure(100);
    s.add_level("x", [] { return 1.0; });
    s.begin(0);
    s.sample(100);
    s.finalize(130);
    ASSERT_EQ(s.epochs().size(), 2u);
    EXPECT_EQ(s.epochs()[1].begin, 100u);
    EXPECT_EQ(s.epochs()[1].end, 130u);
    // Nothing pending: finalize is a no-op.
    s.finalize(130);
    EXPECT_EQ(s.epochs().size(), 2u);
}

TEST(EpochSampler, JsonRoundTrip)
{
    obs::EpochSampler s;
    s.configure(50);
    double v = 0.0;
    s.add_delta("core0.misses", [&] { return v; });
    s.begin(0);
    v = 10;
    s.sample(50);
    v = 30;
    s.sample(100);

    std::ostringstream os;
    obs::json::Writer w(os);
    s.write_json(w);
    std::string err;
    auto parsed = obs::json::parse(os.str(), &err);
    ASSERT_TRUE(parsed.has_value()) << err << "\n" << os.str();
    ASSERT_TRUE(parsed->is_array());
    ASSERT_EQ(parsed->array.size(), 2u);
    EXPECT_EQ(parsed->array[0].get("begin")->number, 0.0);
    EXPECT_EQ(parsed->array[0].get("end")->number, 50.0);
    EXPECT_EQ(parsed->array[0].get("core0.misses")->number, 10.0);
    EXPECT_EQ(parsed->array[1].get("core0.misses")->number, 20.0);
}

TEST(EpochSampler, DisabledCostsNothingAndResetDropsEpochs)
{
    obs::EpochSampler s;
    EXPECT_FALSE(s.enabled());
    s.finalize(100); // no begin(): must not crash or record
    EXPECT_TRUE(s.epochs().empty());
    s.configure(10);
    s.add_level("x", [] { return 2.0; });
    s.begin(0);
    s.sample(10);
    EXPECT_EQ(s.epochs().size(), 1u);
    s.reset();
    EXPECT_TRUE(s.epochs().empty());
}

// --- Event trace --------------------------------------------------------

TEST(EventTrace, DisabledEmitIsANoOp)
{
    obs::EventTrace t;
    t.emit(obs::EventKind::PrefetchIssued, 1, 2);
    EXPECT_EQ(t.total(), 0u);
    EXPECT_EQ(t.size(), 0u);
}

TEST(EventTrace, RecordsContextAndWrapsRing)
{
    obs::EventTrace t;
    t.enable(4);
    t.set_context(100, 2);
    for (std::uint64_t i = 0; i < 6; ++i)
        t.emit(obs::EventKind::MetaInsert, i, i + 1);
    EXPECT_EQ(t.total(), 6u);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.dropped(), 2u);
    // Oldest-first: events 2..5 survive.
    EXPECT_EQ(t.at(0).a0, 2u);
    EXPECT_EQ(t.at(3).a0, 5u);
    EXPECT_EQ(t.at(0).cycle, 100u);
    EXPECT_EQ(t.at(0).core, 2u);
}

TEST(EventTrace, JsonlSinkParsesLineByLine)
{
    obs::EventTrace t;
    t.enable(16);
    t.set_context(7, 1);
    t.emit(obs::EventKind::PartitionDecision, 3, 2);
    std::ostringstream os;
    t.write_jsonl(os);
    std::string line = os.str();
    ASSERT_FALSE(line.empty());
    auto v = obs::json::parse(line);
    ASSERT_TRUE(v.has_value()) << line;
    EXPECT_EQ(v->get("cycle")->number, 7.0);
    EXPECT_EQ(v->get("core")->number, 1.0);
    EXPECT_EQ(v->get("kind")->str, "partition_decision");
    EXPECT_EQ(v->get("a0")->number, 3.0);
    EXPECT_EQ(v->get("a1")->number, 2.0);
}

TEST(EventTrace, BinarySinkHeaderAndSize)
{
    obs::EventTrace t;
    t.enable(16);
    t.emit(obs::EventKind::MetaHit, 10, 20);
    t.emit(obs::EventKind::MetaEvict, 1, 2);
    std::ostringstream os;
    t.write_binary(os);
    const std::string b = os.str();
    ASSERT_GE(b.size(), 16u);
    EXPECT_EQ(b.substr(0, 4), "TRGT");
    // 16-byte header + 26 bytes per record.
    EXPECT_EQ(b.size(), 16u + 2u * 26u);
}

TEST(EventTrace, KindNamesAreStable)
{
    EXPECT_STREQ(obs::kind_name(obs::EventKind::PrefetchIssued),
                 "prefetch_issued");
    EXPECT_STREQ(obs::kind_name(obs::EventKind::OptgenVerdict),
                 "optgen_verdict");
}

// --- Prefetch lifecycle tracker -----------------------------------------

TEST(Lifecycle, ClassifiesEveryTerminalState)
{
    obs::LifecycleTracker lc;
    lc.reset(1);
    lc.set_trigger_pc(0x400100);
    lc.on_issue(0, 1);
    lc.on_issue(0, 2);
    lc.on_issue(0, 3);
    lc.on_issue(0, 4);
    lc.on_use(0, 1, /*late=*/false); // accurate
    lc.on_use(0, 2, /*late=*/true);  // late
    lc.on_evict(0, 3);               // early_evicted
    EXPECT_EQ(lc.open_records(), 1u);
    lc.finalize();                   // block 4 -> useless
    EXPECT_TRUE(lc.finalized());
    EXPECT_EQ(lc.open_records(), 0u);

    const obs::LifecycleCounts& c = lc.core_counts(0);
    EXPECT_EQ(c.issued, 4u);
    EXPECT_EQ(c.accurate, 1u);
    EXPECT_EQ(c.late, 1u);
    EXPECT_EQ(c.early_evicted, 1u);
    EXPECT_EQ(c.useless, 1u);
    EXPECT_EQ(c.closed(), c.issued);
    EXPECT_EQ(c.covered(), 2u);
    EXPECT_EQ(c.polluting(), 2u);
}

TEST(Lifecycle, DroppedIsNotPartOfIssued)
{
    obs::LifecycleTracker lc;
    lc.reset(1);
    lc.on_drop(0);
    lc.on_drop(0);
    lc.finalize();
    const obs::LifecycleCounts& c = lc.core_counts(0);
    EXPECT_EQ(c.dropped, 2u);
    EXPECT_EQ(c.issued, 0u);
    EXPECT_EQ(c.closed(), 0u);
}

TEST(Lifecycle, ToleratesUnknownBlocksAndStaysOffWhenUnarmed)
{
    obs::LifecycleTracker lc;
    EXPECT_FALSE(lc.enabled());
    lc.on_issue(0, 1); // unarmed: every hook must no-op
    lc.on_use(0, 1, false);
    lc.on_evict(0, 1);
    lc.on_drop(0);
    EXPECT_EQ(lc.total().issued, 0u);

    lc.reset(1);
    // Demand use / eviction of a line no prefetch opened (demand fill,
    // or the L1 stride traffic the hierarchy excludes) is ignored.
    lc.on_use(0, 99, false);
    lc.on_evict(0, 99);
    EXPECT_EQ(lc.total().issued, 0u);
    EXPECT_EQ(lc.total().covered(), 0u);
}

TEST(Lifecycle, ReissueOfResidentBlockClosesTheOldRecord)
{
    // The hierarchy can re-prefetch a block whose record is still open;
    // the old record must close (as useless churn) instead of leaking.
    obs::LifecycleTracker lc;
    lc.reset(1);
    lc.on_issue(0, 7);
    lc.on_issue(0, 7);
    EXPECT_EQ(lc.open_records(), 1u);
    lc.on_use(0, 7, false);
    lc.finalize();
    const obs::LifecycleCounts& c = lc.core_counts(0);
    EXPECT_EQ(c.issued, 2u);
    EXPECT_EQ(c.closed(), c.issued);
    EXPECT_EQ(c.accurate, 1u);
}

TEST(Lifecycle, AttributesCoverageAndPollutionToTriggerPcs)
{
    obs::LifecycleTracker lc;
    lc.reset(1);
    lc.set_trigger_pc(0xAAA);
    lc.on_issue(0, 1);
    lc.on_issue(0, 2);
    lc.on_use(0, 1, false);
    lc.on_use(0, 2, true);
    lc.set_trigger_pc(0xBBB);
    lc.on_issue(0, 3);
    lc.on_evict(0, 3);
    lc.finalize();

    auto cov = lc.top_by_coverage(4);
    ASSERT_FALSE(cov.empty());
    EXPECT_EQ(cov[0].pc, 0xAAAu);
    EXPECT_EQ(cov[0].counts.covered(), 2u);
    auto pol = lc.top_by_pollution(4);
    ASSERT_FALSE(pol.empty());
    EXPECT_EQ(pol[0].pc, 0xBBBu);
    EXPECT_EQ(pol[0].counts.polluting(), 1u);
}

TEST(Lifecycle, JsonRoundTrip)
{
    obs::LifecycleTracker lc;
    lc.reset(2);
    lc.set_trigger_pc(0x10);
    lc.on_issue(0, 1);
    lc.on_use(0, 1, false);
    lc.on_issue(1, 2);
    lc.finalize();

    std::ostringstream os;
    obs::json::Writer w(os);
    lc.write_json(w);
    std::string err;
    auto v = obs::json::parse(os.str(), &err);
    ASSERT_TRUE(v.has_value()) << err << "\n" << os.str();
    const Value* cores = v->get("cores");
    ASSERT_NE(cores, nullptr);
    ASSERT_EQ(cores->array.size(), 2u);
    EXPECT_EQ(cores->array[0].get("accurate")->number, 1.0);
    EXPECT_EQ(cores->array[1].get("useless")->number, 1.0);
    EXPECT_EQ(v->find_path("total.issued")->number, 2.0);
    EXPECT_EQ(v->get("open")->number, 0.0);
    ASSERT_TRUE(v->get("top_pcs_by_coverage")->is_array());
    ASSERT_TRUE(v->get("top_pcs_by_pollution")->is_array());
}

// --- Partition decision timeline ----------------------------------------

TEST(PartitionTimelineTest, RecordsPerCoreAndBoundsCapacity)
{
    obs::PartitionTimeline tl;
    tl.reset(2);
    tl.set_capacity(2);
    obs::PartitionSample s;
    s.core = 0;
    s.epoch = 1;
    s.level = 2;
    s.verdict = 1;
    s.size_bytes = 1 << 20;
    s.event = obs::PartitionEvent::Warmup;
    s.hit_rates = {0.5, 0.75};
    tl.record(s);
    s.core = 1;
    s.epoch = 1;
    s.event = obs::PartitionEvent::Hold;
    tl.record(s);
    s.epoch = 2;
    tl.record(s); // over capacity
    EXPECT_EQ(tl.samples().size(), 2u);
    EXPECT_EQ(tl.dropped(), 1u);

    std::ostringstream os;
    obs::json::Writer w(os);
    tl.write_json(w);
    std::string err;
    auto v = obs::json::parse(os.str(), &err);
    ASSERT_TRUE(v.has_value()) << err << "\n" << os.str();
    EXPECT_EQ(v->get("dropped")->number, 1.0);
    const Value* cores = v->get("cores");
    ASSERT_NE(cores, nullptr);
    ASSERT_EQ(cores->array.size(), 2u);
    ASSERT_EQ(cores->array[0].array.size(), 1u);
    const Value& first = cores->array[0].array[0];
    EXPECT_EQ(first.get("epoch")->number, 1.0);
    EXPECT_EQ(first.get("event")->str, "warmup");
    ASSERT_TRUE(first.get("hit_rates")->is_array());
    EXPECT_EQ(first.get("hit_rates")->array.size(), 2u);
}

TEST(PartitionTimelineTest, EventNamesAreStable)
{
    EXPECT_STREQ(obs::partition_event_name(obs::PartitionEvent::Warmup),
                 "warmup");
    EXPECT_STREQ(obs::partition_event_name(obs::PartitionEvent::Changed),
                 "changed");
    EXPECT_STREQ(obs::partition_event_name(obs::PartitionEvent::Gated),
                 "gated");
}

// --- Perfetto exporter --------------------------------------------------

TEST(Perfetto, JobSpansProduceWorkerTracks)
{
    // Workers 0 and 2 ran jobs; worker 1 (idle) gets no track.
    std::vector<obs::perfetto::JobSpan> jobs;
    jobs.push_back({2, "mcf / triage", 10, 50});
    jobs.push_back({0, "lbm / triage", 12, 40});
    jobs.push_back({2, "lbm / none", 55, 70});
    std::ostringstream os;
    obs::perfetto::write_trace(os, nullptr, jobs);

    std::string err;
    auto v = obs::json::parse(os.str(), &err);
    ASSERT_TRUE(v.has_value()) << err << "\n" << os.str();
    const Value* ev = v->get("traceEvents");
    ASSERT_NE(ev, nullptr);
    ASSERT_TRUE(ev->is_array());
    std::vector<double> worker_tracks;
    int spans = 0;
    for (const Value& e : ev->array) {
        if (e.get("ph")->str == "M" &&
            e.get("name")->str == "thread_name" &&
            e.get("pid")->number == 1.0)
            worker_tracks.push_back(e.get("tid")->number);
        if (e.get("ph")->str == "X") {
            ++spans;
            EXPECT_TRUE(e.get("ts")->is_number());
            EXPECT_GT(e.get("dur")->number, 0.0);
        }
    }
    EXPECT_EQ(worker_tracks, (std::vector<double>{0.0, 2.0}));
    EXPECT_EQ(spans, 3);
}

TEST(Perfetto, SimulationInstantsAndEpochSpans)
{
    obs::Observability o;
    o.trace.enable(64);
    o.trace.set_context(1000, 0);
    o.trace.emit(obs::EventKind::PartitionEpoch, 2, 1 << 20);
    o.trace.emit(obs::EventKind::PartitionDecision, 1, 2);
    o.trace.emit(obs::EventKind::PrefetchIssued, 0, 0); // filtered out
    o.sampler.configure(100);
    double x = 0.0;
    o.sampler.add_level("x", [&] { return x; });
    o.sampler.begin(0);
    o.sampler.sample(100);

    std::ostringstream os;
    obs::perfetto::write_trace(os, &o, {}, {});
    std::string err;
    auto v = obs::json::parse(os.str(), &err);
    ASSERT_TRUE(v.has_value()) << err << "\n" << os.str();
    bool saw_epoch = false;
    bool saw_partition_epoch = false;
    bool saw_partition_decision = false;
    bool saw_prefetch = false;
    for (const Value& e : v->get("traceEvents")->array) {
        const std::string& name = e.get("name")->str;
        if (name.rfind("epoch", 0) == 0 && e.get("ph")->str == "X")
            saw_epoch = true;
        if (name == "partition_epoch") {
            saw_partition_epoch = true;
            EXPECT_EQ(e.get("ph")->str, "i");
            EXPECT_EQ(e.get("ts")->number, 1000.0);
            EXPECT_EQ(e.find_path("args.level")->number, 2.0);
        }
        if (name == "partition_decision")
            saw_partition_decision = true;
        if (name == "prefetch_issued")
            saw_prefetch = true;
    }
    EXPECT_TRUE(saw_epoch);
    EXPECT_TRUE(saw_partition_epoch);
    EXPECT_TRUE(saw_partition_decision);
    EXPECT_FALSE(saw_prefetch) << "per-prefetch kinds must stay out";
}

// --- JSON parser --------------------------------------------------------

TEST(Json, ParsesScalarsAndNesting)
{
    auto v = obs::json::parse(
        R"({"a": {"b": [1, 2.5, -3e2]}, "s": "x\ny", "t": true, "n": null})");
    ASSERT_TRUE(v.has_value());
    const Value* arr = v->find_path("a.b");
    ASSERT_NE(arr, nullptr);
    ASSERT_EQ(arr->array.size(), 3u);
    EXPECT_EQ(arr->array[2].number, -300.0);
    EXPECT_EQ(v->get("s")->str, "x\ny");
    EXPECT_TRUE(v->get("t")->boolean);
    EXPECT_TRUE(v->get("n")->is_null());
}

TEST(Json, WriterEscapesRoundTrip)
{
    const std::string nasty = "q\"b\\n\nt\tc\x01";
    std::ostringstream os;
    obs::json::Writer w(os);
    w.begin_object().field(nasty, nasty).end();
    auto v = obs::json::parse(os.str());
    ASSERT_TRUE(v.has_value()) << os.str();
    ASSERT_EQ(v->object.size(), 1u);
    EXPECT_EQ(v->object.begin()->first, nasty);
    EXPECT_EQ(v->object.begin()->second.str, nasty);
}

TEST(Json, RejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(obs::json::parse("{", &err).has_value());
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(obs::json::parse("{\"a\": }", &err).has_value());
    EXPECT_FALSE(obs::json::parse("[1, 2,]", &err).has_value());
    EXPECT_FALSE(obs::json::parse("1 2", &err).has_value());
}

// --- End-to-end wiring --------------------------------------------------

TEST(ObservabilityIntegration, SingleCoreRunProducesEpochsAndStats)
{
    sim::MachineConfig cfg;
    sim::MultiCoreSystem sys(cfg, 1);
    obs::Observability o;
    o.sampler.configure(5000);
    o.trace.enable(1 << 12);
    sys.set_observability(&o);
    sys.set_prefetcher(0, stats::make_prefetcher("triage_dyn", 1));
    sys.bind(0, workloads::make_benchmark("mcf", 1.0));
    sim::RunResult r = sys.run(10000, 20000);

    // Epochs: 20000 records at 5000/epoch = 4 closed epochs.
    ASSERT_EQ(o.sampler.epochs().size(), 4u);
    EXPECT_EQ(o.sampler.epochs().back().end, 20000u);

    // The registry's view agrees with the RunResult where both exist.
    EXPECT_DOUBLE_EQ(o.registry.read("core0.l2.demand_misses"),
                     static_cast<double>(r.core0().l2.demand_misses));
    EXPECT_DOUBLE_EQ(o.registry.read("llc.demand_misses"),
                     static_cast<double>(r.llc.demand_misses));
    EXPECT_NEAR(o.registry.read("core0.ipc"), r.core0().ipc(), 0.05);
    EXPECT_GT(o.registry.read("core0.ipc"), 0.0);

    // Triage registered its store scope and the trace saw events.
    EXPECT_TRUE(o.registry.contains("core0.pf.store.hit_rate"));
    EXPECT_GT(o.trace.total(), 0u);

    // Full structured report parses and carries the epoch probes.
    std::ostringstream os;
    stats::write_stats_json(os, r, &o);
    std::string err;
    auto v = obs::json::parse(os.str(), &err);
    ASSERT_TRUE(v.has_value()) << err;
    const Value* epochs = v->get("epochs");
    ASSERT_NE(epochs, nullptr);
    ASSERT_TRUE(epochs->is_array());
    ASSERT_EQ(epochs->array.size(), 4u);
    for (const char* key : {"core0.ipc", "core0.coverage",
                            "core0.pf.accuracy", "core0.pf.meta_hit_rate",
                            "core0.meta_ways"}) {
        EXPECT_NE(epochs->array[0].get(key), nullptr)
            << "missing epoch probe " << key;
    }
    EXPECT_NE(v->find_path("stats.core0.l1.demand_misses"), nullptr);
    EXPECT_NE(v->find_path("run.cores"), nullptr);
    EXPECT_NE(v->find_path("trace.total"), nullptr);
}

TEST(ObservabilityIntegration, MixRegistryOutlivesTheSystem)
{
    // Regression (review): stats::run_mix's MultiCoreSystem is a local
    // variable, and the registry's bound stats and formulas pointed
    // into it — `triagesim --mix --stats-json` dumped dangling
    // pointers after run_mix returned. run() now freezes the bundle,
    // so reads and dumps must work on the run's snapshot afterwards.
    sim::MachineConfig cfg;
    stats::RunScale scale;
    scale.warmup_records = 2000;
    scale.measure_records = 8000;
    obs::Observability o;
    o.sampler.configure(4000);
    sim::RunResult r = stats::run_mix(cfg, {"mcf", "lbm"}, "triage_dyn",
                                      scale, 1, &o);

    EXPECT_DOUBLE_EQ(o.registry.read("core0.l2.demand_misses"),
                     static_cast<double>(r.per_core[0].l2.demand_misses));
    EXPECT_DOUBLE_EQ(o.registry.read("core1.l2.demand_misses"),
                     static_cast<double>(r.per_core[1].l2.demand_misses));
    EXPECT_GT(o.registry.read("core0.ipc"), 0.0);
    EXPECT_GT(o.registry.read("core1.ipc"), 0.0);
    EXPECT_EQ(o.sampler.epochs().size(), 2u);

    std::ostringstream os;
    stats::write_stats_json(os, r, &o);
    std::string err;
    auto v = obs::json::parse(os.str(), &err);
    ASSERT_TRUE(v.has_value()) << err;
    EXPECT_NE(v->find_path("stats.core1.l2.demand_misses"), nullptr);
}

TEST(ObservabilityIntegration, MixLifecycleReconcilesWithRunStats)
{
    sim::MachineConfig cfg;
    stats::RunScale scale;
    scale.warmup_records = 10000;
    scale.measure_records = 60000;
    obs::Observability o;
    o.sampler.configure(20000);
    sim::RunResult r = stats::run_mix(cfg, {"mcf", "omnetpp"},
                                      "triage_dyn", scale, 1, &o);

    // The tracker was armed for both cores and finalized by freeze().
    ASSERT_TRUE(o.lifecycle.enabled());
    EXPECT_TRUE(o.lifecycle.finalized());
    ASSERT_EQ(o.lifecycle.num_cores(), 2u);
    EXPECT_EQ(o.lifecycle.open_records(), 0u);

    // Per core, the terminal classes partition exactly the prefetches
    // the run counted as issued (the tracker's core invariant).
    for (unsigned c = 0; c < 2; ++c) {
        const obs::LifecycleCounts& lc = o.lifecycle.core_counts(c);
        EXPECT_EQ(lc.closed(), lc.issued) << "core " << c;
        EXPECT_EQ(lc.issued, r.per_core[c].l2pf.issued()) << "core " << c;
        EXPECT_EQ(lc.dropped, r.per_core[c].l2pf.dropped) << "core " << c;
    }

    // Each core samples its own epoch stream: the probe sets are
    // per-core-prefixed, not shared or cross-wired.
    const auto& names = o.sampler.probe_names();
    for (const char* key :
         {"core0.lifecycle.covered", "core1.lifecycle.covered",
          "core0.ipc", "core1.ipc"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), key),
                  names.end())
            << "missing probe " << key;
    }

    // The partition timeline is armed per core and any samples carry
    // core ids inside the configured range.
    EXPECT_EQ(o.partition_timeline.num_cores(), 2u);
    for (const obs::PartitionSample& s : o.partition_timeline.samples())
        EXPECT_LT(s.core, 2u);

    // The lifecycle block lands in the structured report and agrees.
    std::ostringstream os;
    stats::write_stats_json(os, r, &o);
    std::string err;
    auto v = obs::json::parse(os.str(), &err);
    ASSERT_TRUE(v.has_value()) << err;
    const Value* cores = v->find_path("lifecycle.cores");
    ASSERT_NE(cores, nullptr);
    ASSERT_EQ(cores->array.size(), 2u);
    EXPECT_EQ(cores->array[0].get("issued")->number,
              static_cast<double>(r.per_core[0].l2pf.issued()));
    EXPECT_NE(v->get("partition_timeline"), nullptr);
}

TEST(ObservabilityIntegration, ReRunReattachesWithoutDuplicates)
{
    sim::MachineConfig cfg;
    sim::MultiCoreSystem sys(cfg, 1);
    obs::Observability o;
    o.sampler.configure(5000);
    sys.set_observability(&o);
    sys.set_prefetcher(0, stats::make_prefetcher("bo", 1));
    auto wl = workloads::make_benchmark("lbm", 1.0);
    sys.bind(0, *wl);
    sys.run(2000, 10000);
    std::size_t n_stats = o.registry.size();
    EXPECT_EQ(o.sampler.epochs().size(), 2u);
    sys.bind(0, *wl); // a rewound copy, as the first run had
    sys.run(2000, 10000); // re-registration must not assert
    EXPECT_EQ(o.registry.size(), n_stats);
    EXPECT_EQ(o.sampler.epochs().size(), 2u); // series restarted
}

} // namespace
} // namespace triage
