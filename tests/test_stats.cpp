/**
 * @file
 * Tests for the stats library: metric math, table formatting, and the
 * prefetcher spec grammar of the experiment harness.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "prefetch/hybrid.hpp"
#include "stats/experiment.hpp"
#include "stats/metrics.hpp"
#include "stats/table.hpp"
#include "triage/triage.hpp"

using namespace triage;

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

namespace {

sim::RunResult
result_with(std::vector<double> ipcs, std::uint64_t traffic_bytes,
            std::uint64_t l2_misses = 0)
{
    sim::RunResult r;
    for (double ipc : ipcs) {
        sim::RunStats s;
        s.instructions = static_cast<std::uint64_t>(ipc * 1000000);
        s.cycles = 1000000;
        s.l2.demand_misses = l2_misses;
        r.per_core.push_back(s);
    }
    r.traffic.bytes[static_cast<unsigned>(sim::TrafficClass::DemandRead)] =
        traffic_bytes;
    return r;
}

} // namespace

TEST(Metrics, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(stats::geomean({}), 1.0);
    EXPECT_DOUBLE_EQ(stats::geomean({2.0}), 2.0);
    EXPECT_NEAR(stats::geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(stats::geomean({0.5, 2.0}), 1.0, 1e-12);
}

TEST(Metrics, SpeedupSingleCore)
{
    auto base = result_with({1.0}, 100);
    auto pf = result_with({1.3}, 100);
    EXPECT_NEAR(stats::speedup(pf, base), 1.3, 1e-9);
}

TEST(Metrics, SpeedupMultiCoreIsGeomeanOfRatios)
{
    auto base = result_with({1.0, 2.0}, 100);
    auto pf = result_with({2.0, 2.0}, 100); // ratios 2.0 and 1.0
    EXPECT_NEAR(stats::speedup(pf, base), std::sqrt(2.0), 1e-9);
}

TEST(Metrics, TrafficOverhead)
{
    auto base = result_with({1.0}, 1000);
    auto pf = result_with({1.0}, 1600);
    EXPECT_NEAR(stats::traffic_overhead(pf, base), 0.6, 1e-9);
    EXPECT_NEAR(stats::traffic_overhead(base, pf), -0.375, 1e-9);
}

TEST(Metrics, TrafficOverheadZeroBaseline)
{
    auto base = result_with({1.0}, 0);
    auto pf = result_with({1.0}, 100);
    EXPECT_DOUBLE_EQ(stats::traffic_overhead(pf, base), 0.0);
}

TEST(Metrics, MissReduction)
{
    auto base = result_with({1.0}, 100, 1000);
    auto pf = result_with({1.0}, 100, 400);
    EXPECT_NEAR(stats::miss_reduction(pf, base), 0.6, 1e-9);
}

TEST(Metrics, CoverageAndAccuracyFromRunStats)
{
    sim::RunStats s;
    s.l2pf.useful = 30;
    s.l2.demand_misses = 70;
    s.l2pf.filled_from_llc = 20;
    s.l2pf.issued_to_dram = 40;
    EXPECT_NEAR(s.coverage(), 0.3, 1e-9);
    EXPECT_NEAR(s.accuracy(), 0.5, 1e-9);
}

// ---------------------------------------------------------------------
// Table / formatting
// ---------------------------------------------------------------------

TEST(Metrics, GeomeanSkipsZeroNegativeAndNaN)
{
    // Regression: log(0) / log(-1) / log(nan) used to poison the whole
    // geomean with -inf or NaN; degenerate entries are now skipped.
    EXPECT_NEAR(stats::geomean({0.0, 4.0}), 4.0, 1e-12);
    EXPECT_NEAR(stats::geomean({-2.0, 1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(stats::geomean({std::nan(""), 9.0}), 9.0, 1e-12);
    double inf = std::numeric_limits<double>::infinity();
    EXPECT_NEAR(stats::geomean({inf, 9.0}), 9.0, 1e-12);
    // All entries degenerate: neutral element, not NaN.
    EXPECT_DOUBLE_EQ(stats::geomean({0.0, -1.0}), 1.0);
    EXPECT_TRUE(std::isfinite(stats::geomean({0.0})));
}

TEST(Metrics, SpeedupWithZeroIpcBaselineStaysFinite)
{
    // A core whose baseline window recorded no cycles (zero IPC) must
    // not turn the aggregate speedup into inf or NaN.
    auto base = result_with({0.0, 1.0}, 100);
    auto pf = result_with({1.2, 1.2}, 100);
    double sp = stats::speedup(pf, base);
    EXPECT_TRUE(std::isfinite(sp));
    EXPECT_NEAR(sp, 1.2, 1e-9);
}

TEST(Metrics, SpeedupWithZeroIpcUnderPrefetchStaysFinite)
{
    // Regression (review): a core that retires nothing WITH the
    // prefetcher enabled (hung run) contributes ratio 0, which the
    // geomean excludes — the result must stay finite and equal the
    // geomean of the healthy cores (a warning flags the exclusion).
    auto base = result_with({1.0, 1.0}, 100);
    auto pf = result_with({0.0, 2.0}, 100);
    double sp = stats::speedup(pf, base);
    EXPECT_TRUE(std::isfinite(sp));
    EXPECT_NEAR(sp, 2.0, 1e-9);
    // All cores hung: neutral element, still finite.
    auto pf0 = result_with({0.0, 0.0}, 100);
    EXPECT_DOUBLE_EQ(stats::speedup(pf0, base), 1.0);
}

TEST(Metrics, AveragesOfEmptyRunResultAreZero)
{
    sim::RunResult empty;
    EXPECT_DOUBLE_EQ(stats::avg_coverage(empty), 0.0);
    EXPECT_DOUBLE_EQ(stats::avg_accuracy(empty), 0.0);
}

TEST(Metrics, CoverageWithNoMissesAndNoPrefetchesIsZero)
{
    sim::RunStats s;
    EXPECT_DOUBLE_EQ(s.coverage(), 0.0);
    EXPECT_DOUBLE_EQ(s.accuracy(), 0.0);
    EXPECT_DOUBLE_EQ(s.ipc(), 0.0); // zero cycles must not divide
}

TEST(Table, AlignsColumns)
{
    stats::Table t({"a", "bench"});
    t.row({"xx", "1"});
    t.row({"y", "22"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    // Header and separator and two rows.
    EXPECT_NE(out.find("a   bench"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    EXPECT_NE(out.find("xx  1"), std::string::npos);
}

TEST(Table, Formatting)
{
    EXPECT_EQ(stats::fmt(1.2345, 2), "1.23");
    EXPECT_EQ(stats::fmt_pct(0.235), "+23.5%");
    EXPECT_EQ(stats::fmt_pct(-0.074), "-7.4%");
    EXPECT_EQ(stats::fmt_x(1.321), "1.321x");
}

// ---------------------------------------------------------------------
// Prefetcher spec grammar
// ---------------------------------------------------------------------

TEST(SpecGrammar, NoneIsNull)
{
    EXPECT_EQ(stats::make_prefetcher("none"), nullptr);
}

TEST(SpecGrammar, SimpleNames)
{
    for (const std::string spec :
         {"bo", "sms", "markov", "stms", "domino", "misb"}) {
        auto pf = stats::make_prefetcher(spec);
        ASSERT_NE(pf, nullptr) << spec;
        EXPECT_EQ(pf->name(), spec);
    }
}

TEST(SpecGrammar, TriageSizes)
{
    auto p512 = stats::make_prefetcher("triage_512KB");
    ASSERT_NE(p512, nullptr);
    auto* t512 = dynamic_cast<core::Triage*>(p512.get());
    ASSERT_NE(t512, nullptr);
    EXPECT_EQ(t512->store().capacity_bytes(), 512u * 1024u);

    auto p1m = stats::make_prefetcher("triage_1MB");
    auto* t1m = dynamic_cast<core::Triage*>(p1m.get());
    ASSERT_NE(t1m, nullptr);
    EXPECT_EQ(t1m->store().capacity_bytes(), 1024u * 1024u);
}

TEST(SpecGrammar, TriageVariants)
{
    auto dyn = stats::make_prefetcher("triage_dyn");
    auto* td = dynamic_cast<core::Triage*>(dyn.get());
    ASSERT_NE(td, nullptr);
    EXPECT_NE(td->partition(), nullptr);

    auto unl = stats::make_prefetcher("triage_unlimited");
    ASSERT_NE(unl, nullptr);
    EXPECT_EQ(unl->name(), "triage_unlimited");

    auto lru = stats::make_prefetcher("triage_256KB_lru_free");
    ASSERT_NE(lru, nullptr);
    auto* tl = dynamic_cast<core::Triage*>(lru.get());
    ASSERT_NE(tl, nullptr);
    EXPECT_EQ(tl->store().capacity_bytes(), 256u * 1024u);
    EXPECT_STREQ(
        const_cast<core::MetadataStore&>(tl->store()).repl()->name(),
        "lru");
}

TEST(SpecGrammar, HybridComposition)
{
    auto h = stats::make_prefetcher("bo+triage_dyn");
    ASSERT_NE(h, nullptr);
    auto* hy = dynamic_cast<prefetch::Hybrid*>(h.get());
    ASSERT_NE(hy, nullptr);
    EXPECT_EQ(hy->num_children(), 2u);
    EXPECT_EQ(h->name(), "bo+triage_dyn");
}

TEST(SpecGrammar, ThreeWayHybrid)
{
    auto h = stats::make_prefetcher("bo+sms+markov");
    auto* hy = dynamic_cast<prefetch::Hybrid*>(h.get());
    ASSERT_NE(hy, nullptr);
    EXPECT_EQ(hy->num_children(), 3u);
}

TEST(SpecGrammar, RunScaleParsing)
{
    const char* argv[] = {"prog", "--scale=0.5", "--warmup=123",
                          "--measure=456", "--mixes=9"};
    auto s = stats::RunScale::from_args(5, const_cast<char**>(argv));
    EXPECT_DOUBLE_EQ(s.workload_scale, 0.5);
    EXPECT_EQ(s.warmup_records, 123u);
    EXPECT_EQ(s.measure_records, 456u);
    EXPECT_TRUE(s.warmup_set);
    EXPECT_TRUE(s.measure_set);
    EXPECT_TRUE(s.scale_set);
    EXPECT_EQ(stats::RunScale::mixes_from_args(
                  5, const_cast<char**>(argv), 80),
              9u);
    EXPECT_EQ(stats::RunScale::mixes_from_args(
                  1, const_cast<char**>(argv), 80),
              80u);
}

TEST(SpecGrammar, RunScalePresenceFlagsDefaultToFalse)
{
    // The multi-core benches override defaults only for flags the user
    // actually passed — even a value equal to the single-core default
    // must register as explicitly provided.
    const char* argv[] = {"prog", "--warmup=200000"};
    auto s = stats::RunScale::from_args(2, const_cast<char**>(argv));
    EXPECT_TRUE(s.warmup_set);
    EXPECT_FALSE(s.measure_set);
    EXPECT_FALSE(s.scale_set);

    auto d = stats::RunScale::from_args(1, const_cast<char**>(argv));
    EXPECT_FALSE(d.warmup_set);
    EXPECT_FALSE(d.measure_set);
    EXPECT_FALSE(d.scale_set);
}

// ---------------------------------------------------------------------
// JSON reports
// ---------------------------------------------------------------------

#include "obs/json.hpp"
#include "stats/report.hpp"

TEST(JsonReport, EmitsParseableStructure)
{
    sim::RunResult r;
    sim::RunStats s;
    s.instructions = 1000;
    s.cycles = 500;
    s.l2pf.useful = 10;
    s.l2pf.issued_to_dram = 20;
    r.per_core.push_back(s);
    r.per_core.push_back(s);
    r.traffic.bytes[static_cast<unsigned>(
        sim::TrafficClass::DemandRead)] = 640;
    r.span = 500;

    std::ostringstream os;
    obs::json::Writer w(os);
    stats::write_json(w, r);
    const std::string j = os.str();
    // Structural smoke checks (a full parser is out of scope here; the
    // CLI test path validates with a real JSON parser).
    EXPECT_NE(j.find("\"cores\": ["), std::string::npos);
    EXPECT_NE(j.find("\"ipc\": 2"), std::string::npos);
    EXPECT_NE(j.find("\"pf_useful\": 10"), std::string::npos);
    EXPECT_NE(j.find("\"demand\": 640"), std::string::npos);
    EXPECT_NE(j.find("\"span_cycles\": 500"), std::string::npos);
    // Two core objects, comma-separated.
    EXPECT_NE(j.find("},"), std::string::npos);
    // Balanced braces.
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));
}
