/**
 * @file
 * Tests for the invariant & differential-fidelity harness
 * (docs/verification.md), plus named regressions for the bugs the
 * harness flushed out: the metadata Hawkeye's sampled-set count (now
 * only its clamp to a small geometry), the partition controller's
 * per-epoch utility-gate window, and the confirmation/cooldown
 * interplay around level changes.
 */
#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.hpp"
#include "exec/job.hpp"
#include "exec/lab.hpp"
#include "obs/json.hpp"
#include "obs/observer.hpp"
#include "replacement/hawkeye.hpp"
#include "replacement/lru.hpp"
#include "triage/metadata_store.hpp"
#include "triage/partition.hpp"
#include "util/rng.hpp"
#include "verify/diff.hpp"
#include "verify/invariants.hpp"
#include "workloads/phased.hpp"
#include "workloads/spec.hpp"

using namespace triage;
using core::PartitionConfig;
using core::PartitionController;

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

/** Collect self_check reports into a vector for inspection. */
std::vector<std::string>
collect_reports(const std::function<
                void(const std::function<void(const std::string&)>&)>& fn)
{
    std::vector<std::string> out;
    fn([&out](const std::string& msg) { out.push_back(msg); });
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Hawkeye sampled sets on a small geometry
// ---------------------------------------------------------------------

TEST(MetaHawkeyeSampling, SampledSetsClampToGeometry)
{
    // A structure with fewer sets than Hawkeye::SAMPLED_SETS samples
    // every set it has, and the policy still behaves.
    static_assert(replacement::Hawkeye::SAMPLED_SETS > 16);
    replacement::Hawkeye h(16, 4);
    for (std::uint32_t s = 0; s < 16; ++s) {
        h.on_miss(s, s + 1, 7);
        h.on_insert({.set = s, .way = 0, .tag = s + 1, .pc = 7});
    }
    EXPECT_LT(h.victim(3, 0, 4), 4u);
}

// ---------------------------------------------------------------------
// Partition controller: utility-gate window, confirmation, cooldown
// ---------------------------------------------------------------------

namespace {

/** Gate armed and judging from the first epoch at a level. */
PartitionConfig
gated_config()
{
    PartitionConfig cfg;
    cfg.confirm_epochs = 1;
    cfg.gate_min_accuracy = 0.5;
    cfg.gate_min_epochs = 1;
    cfg.gate_cooldown_epochs = 3;
    cfg.initial_level = 2;
    return cfg;
}

} // namespace

TEST(PartitionGate, FireCooldownRegrow)
{
    PartitionController pc(gated_config());
    // Rates that always justify the full-size store.
    const std::vector<double> good = {0.0, 0.9};

    // Epoch 1: actively prefetching, nothing consumed -> the gate fires,
    // steps one rung down and arms the cooldown.
    pc.force_epoch(good, 1000, 0);
    EXPECT_EQ(pc.level(), 1u);
    EXPECT_EQ(pc.cooldown(), 3u);
    EXPECT_EQ(pc.decision_stats().gate_fires, 1u);
    EXPECT_EQ(pc.decision_stats().changes, 1u);

    // Epochs 2-3: prefetching is accurate again and the sandboxes still
    // want the big store, but regrowth stays suppressed while cooling.
    // The change epoch consumed its issued/useful counts (regression:
    // level changes used to double-zero them) so these fresh accurate
    // epochs must not re-fire the gate.
    for (int i = 0; i < 2; ++i) {
        pc.force_epoch(good, 1000, 900);
        EXPECT_EQ(pc.level(), 1u) << "epoch " << i;
        EXPECT_EQ(pc.decision_stats().gate_fires, 1u);
    }
    EXPECT_EQ(pc.decision_stats().cooldown_suppressed, 2u);
    EXPECT_EQ(pc.cooldown(), 1u);

    // Epoch 4: cooldown expires, growth resumes.
    pc.force_epoch(good, 1000, 900);
    EXPECT_EQ(pc.level(), 2u);
    EXPECT_EQ(pc.decision_stats().gate_fires, 1u);
    EXPECT_EQ(pc.decision_stats().changes, 2u);
}

TEST(PartitionGate, AccuracyWindowIsPerEpoch)
{
    PartitionController pc(gated_config());
    const std::vector<double> good = {0.0, 0.9};

    // Accurate epoch: no fire.
    pc.force_epoch(good, 1000, 900);
    EXPECT_EQ(pc.decision_stats().gate_fires, 0u);
    EXPECT_EQ(pc.level(), 2u);

    // The next epoch is judged on its own counters alone: the 900
    // useful prefetches from the previous epoch must not rescue it.
    pc.force_epoch(good, 1000, 0);
    EXPECT_EQ(pc.decision_stats().gate_fires, 1u);
    EXPECT_EQ(pc.level(), 1u);
}

TEST(PartitionConfirm, VerdictFlipMidConfirmationNeverMoves)
{
    PartitionConfig cfg;
    cfg.confirm_epochs = 2;
    cfg.initial_level = 1;
    PartitionController pc(cfg);
    const std::vector<double> wants_two = {0.0, 0.9};
    const std::vector<double> wants_zero = {0.0, 0.0};

    // Grow verdict, then a flip to shrink, then grow again: each flip
    // restarts confirmation, so the level never moves even though two
    // (non-consecutive) epochs asked for growth.
    pc.force_epoch(wants_two);
    EXPECT_EQ(pc.level(), 1u);
    EXPECT_EQ(pc.pending_level(), 2u);
    EXPECT_EQ(pc.pending_count(), 1u);

    pc.force_epoch(wants_zero);
    EXPECT_EQ(pc.level(), 1u);
    EXPECT_EQ(pc.pending_level(), 0u);
    EXPECT_EQ(pc.pending_count(), 1u);

    pc.force_epoch(wants_two);
    EXPECT_EQ(pc.level(), 1u);
    EXPECT_EQ(pc.pending_level(), 2u);
    EXPECT_EQ(pc.pending_count(), 1u);
    EXPECT_EQ(pc.decision_stats().changes, 0u);
    EXPECT_EQ(pc.decision_stats().pending, 3u);

    // A second consecutive agreeing epoch finally confirms.
    pc.force_epoch(wants_two);
    EXPECT_EQ(pc.level(), 2u);
    EXPECT_EQ(pc.pending_count(), 0u);
    EXPECT_EQ(pc.decision_stats().changes, 1u);
}

TEST(PartitionConfirm, GateFiringDuringPendingGrowCancelsIt)
{
    PartitionConfig cfg;
    cfg.confirm_epochs = 2;
    cfg.gate_min_accuracy = 0.5;
    cfg.gate_min_epochs = 1;
    cfg.gate_cooldown_epochs = 4;
    cfg.initial_level = 1;
    PartitionController pc(cfg);
    const std::vector<double> good = {0.0, 0.9};

    // Epoch 1: accurate, sandboxes want level 2 -> pending grow.
    pc.force_epoch(good, 1000, 900);
    EXPECT_EQ(pc.pending_level(), 2u);
    EXPECT_EQ(pc.pending_count(), 1u);

    // Epoch 2: the gate fires mid-confirmation. Its downward verdict
    // replaces the pending grow instead of completing it.
    pc.force_epoch(good, 1000, 0);
    EXPECT_EQ(pc.level(), 1u);
    EXPECT_EQ(pc.decision_stats().gate_fires, 1u);
    EXPECT_EQ(pc.cooldown(), 4u);
    EXPECT_EQ(pc.pending_level(), 0u);
    EXPECT_EQ(pc.pending_count(), 1u);
    EXPECT_EQ(pc.decision_stats().changes, 0u);
}

TEST(PartitionConfirm, ExactHysteresisTiesHold)
{
    // Binary-exact rates pin the comparison operators: growth needs a
    // gain strictly above the hysteresis (`>`), shrinking needs a loss
    // strictly below it (`<`), so a gap of exactly 0.0625 moves nothing
    // in either direction.
    PartitionConfig cfg;
    cfg.hysteresis = 0.0625;
    cfg.confirm_epochs = 1;
    cfg.initial_level = 1;
    PartitionController pc(cfg);

    // Upward tie: 0.3125 - 0.25 == hysteresis exactly -> no grow.
    // Downward: 0.25 - 0 is well above it -> no shrink.
    pc.force_epoch({0.25, 0.3125});
    EXPECT_EQ(pc.level(), 1u);
    EXPECT_EQ(pc.decision_stats().holds, 1u);

    // Downward tie: 0.0625 - 0 == hysteresis exactly -> not "< h",
    // the store keeps its ways.
    pc.force_epoch({0.0625, 0.125});
    EXPECT_EQ(pc.level(), 1u);
    EXPECT_EQ(pc.decision_stats().holds, 2u);

    // One ulp above the tie grows, proving the ties were load-bearing.
    pc.force_epoch({0.25, 0.3125 + 1e-9});
    EXPECT_EQ(pc.level(), 2u);
}

TEST(PartitionSelfCheck, CleanControllerReportsNothing)
{
    PartitionController pc(gated_config());
    pc.force_epoch({0.0, 0.9}, 1000, 0);
    pc.force_epoch({0.0, 0.9}, 1000, 900);
    auto reports = collect_reports(
        [&pc](const std::function<void(const std::string&)>& r) {
            pc.self_check(r);
        });
    EXPECT_TRUE(reports.empty())
        << "first: " << (reports.empty() ? "" : reports.front());
}

// ---------------------------------------------------------------------
// Component self-checks under churn
// ---------------------------------------------------------------------

TEST(SelfCheck, CacheStaysConsistentUnderRandomChurn)
{
    cache::CacheGeometry geom{"verify", 16 * 1024, 8};
    auto sets = static_cast<std::uint32_t>(geom.size_bytes /
                                           (sim::BLOCK_SIZE * geom.assoc));
    cache::SetAssocCache c(geom,
                           std::make_unique<replacement::Lru>(sets,
                                                              geom.assoc));
    util::Rng rng(123);
    for (int i = 0; i < 20000; ++i) {
        sim::Addr block = rng.next_below(1024);
        switch (rng.next_below(4)) {
        case 0:
            c.access(block, rng.next_below(64), i, rng.chance(0.3));
            break;
        case 1:
            c.insert(block, rng.next_below(64), i, rng.chance(0.2),
                     rng.chance(0.3));
            break;
        case 2:
            c.invalidate(block);
            break;
        default:
            c.mark_dirty(block);
            break;
        }
    }
    auto reports = collect_reports(
        [&c](const std::function<void(const std::string&)>& r) {
            c.self_check(r);
        });
    EXPECT_TRUE(reports.empty())
        << "first: " << (reports.empty() ? "" : reports.front());
}

TEST(SelfCheck, MetadataStoreStaysConsistentAcrossResize)
{
    core::MetadataStoreConfig cfg;
    cfg.capacity_bytes = 64 * 1024;
    core::MetadataStore store(cfg);
    util::Rng rng(77);
    auto churn = [&](int rounds) {
        for (int i = 0; i < rounds; ++i) {
            sim::Addr trig = rng.next_below(8192);
            auto lk = store.probe(trig);
            store.commit_access(trig, lk, rng.next_below(64),
                                rng.chance(0.8));
            store.update(trig, rng.next_below(8192), rng.next_below(64));
        }
    };
    auto expect_clean = [&](const char* when) {
        auto reports = collect_reports(
            [&store](const std::function<void(const std::string&)>& r) {
                store.self_check(r);
            });
        EXPECT_TRUE(reports.empty())
            << when << ": "
            << (reports.empty() ? "" : reports.front());
        EXPECT_EQ(store.valid_entries(),
                  store.count_valid_entries_slow());
    };
    churn(20000);
    expect_clean("after initial churn");
    store.resize(16 * 1024); // shrink: rehash + overflow discard
    expect_clean("after shrink");
    churn(5000);
    store.resize(128 * 1024); // regrow
    churn(5000);
    expect_clean("after regrow");
}

// ---------------------------------------------------------------------
// InvariantSuite plumbing
// ---------------------------------------------------------------------

TEST(InvariantSuite, CountsChecksAndViolationsPerSweep)
{
    verify::InvariantSuite suite;
    suite.add_checker("always-clean",
                      [](const verify::InvariantSuite::ReportFn&) {});
    suite.add_checker("two-violations",
                      [](const verify::InvariantSuite::ReportFn& report) {
                          report("first");
                          report("second");
                      });
    suite.sweep();
    suite.sweep();
    EXPECT_EQ(suite.checks_run(), 4u); // 2 checkers x 2 sweeps
    EXPECT_EQ(suite.violations(), 4u);
    ASSERT_EQ(suite.recorded().size(), 4u);
    EXPECT_EQ(suite.recorded()[0].checker, "two-violations");
    EXPECT_EQ(suite.recorded()[0].message, "first");

    suite.clear();
    EXPECT_EQ(suite.checks_run(), 0u);
    EXPECT_EQ(suite.violations(), 0u);
    EXPECT_TRUE(suite.recorded().empty());
}

TEST(InvariantSuite, RecordingCapsButCountStaysExact)
{
    verify::InvariantSuite suite;
    suite.add_checker("chatty",
                      [](const verify::InvariantSuite::ReportFn& report) {
                          for (int i = 0; i < 100; ++i)
                              report("v" + std::to_string(i));
                      });
    suite.sweep();
    EXPECT_EQ(suite.violations(), 100u);
    EXPECT_EQ(suite.recorded().size(),
              verify::InvariantSuite::MAX_RECORDED);
}

TEST(InvariantSuite, WriteJsonShape)
{
    verify::InvariantSuite suite;
    suite.add_checker("demo",
                      [](const verify::InvariantSuite::ReportFn& report) {
                          report("broken \"here\"");
                      });
    suite.sweep();
    std::ostringstream os;
    obs::json::Writer w(os);
    suite.write_json(w);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"checks\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"violations\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"checker\": \"demo\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("broken \\\"here\\\""), std::string::npos) << json;
}

TEST(InvariantSuite, CleanTriageRunHasChecksAndNoViolations)
{
    obs::Observability obs;
    verify::InvariantSuite suite;
    obs.verifier = &suite;
    exec::Job j = bench_job("mcf", "triage_dyn", 4);
    j.obs = &obs;
    exec::run_job(j);
    EXPECT_GT(suite.checks_run(), 0u);
    EXPECT_EQ(suite.violations(), 0u);
    for (const auto& v : suite.recorded())
        ADD_FAILURE() << "[" << v.checker << "] " << v.message;
}

TEST(InvariantSuite, CleanMultiCoreRunHasChecksAndNoViolations)
{
    obs::Observability obs;
    verify::InvariantSuite suite;
    obs.verifier = &suite;
    exec::Job j;
    j.mix = {"mcf", "lbm"};
    j.pf_spec = "triage_dyn";
    j.degree = 4;
    j.scale = tiny_scale();
    j.obs = &obs;
    exec::run_job(j);
    EXPECT_GT(suite.checks_run(), 0u);
    EXPECT_EQ(suite.violations(), 0u);
    for (const auto& v : suite.recorded())
        ADD_FAILURE() << "[" << v.checker << "] " << v.message;
}

// ---------------------------------------------------------------------
// Differential fidelity, in-process small-budget editions of the
// tools/diff_fidelity pairs
// ---------------------------------------------------------------------

namespace {

void
expect_no_diff(const std::string& what,
               const std::vector<std::string>& diff)
{
    EXPECT_TRUE(diff.empty()) << what << " diverged in " << diff.size()
                              << " fields; first: " << diff.front();
}

} // namespace

TEST(DiffFidelity, Degree0TriageMatchesNoPrefetcher)
{
    auto baseline = exec::run_job(bench_job("mcf", "none"));
    auto disabled = exec::run_job(bench_job("mcf", "triage_dyn", 0));
    expect_no_diff("degree0", verify::diff_results(baseline, disabled));
}

TEST(DiffFidelity, OneProgramMixMatchesSingleCore)
{
    exec::Job single = bench_job("omnetpp", "triage_dyn", 4);
    exec::Job mix = single;
    mix.benchmark.clear();
    mix.mix = {"omnetpp"};
    expect_no_diff("mix1", verify::diff_results(exec::run_job(single),
                                                exec::run_job(mix)));
}

TEST(DiffFidelity, SplitTraceReplayMatchesUnsplit)
{
    auto src = workloads::make_benchmark("mcf");
    std::vector<sim::TraceRecord> records;
    sim::TraceRecord r;
    src->reset();
    for (int i = 0; i < 8000 && src->next(r); ++i)
        records.push_back(r);

    auto job_for = [&records](std::size_t cut) {
        exec::Job j;
        j.pf_spec = "triage_dyn";
        j.degree = 4;
        j.scale.warmup_records = 4000;
        j.scale.measure_records = 12000; // wraps: the seam replays often
        j.variant = cut == 0 ? std::string("t:whole")
                             : "t:split@" + std::to_string(cut);
        j.workload_factory = [&records, cut]() {
            if (cut == 0) {
                return std::unique_ptr<sim::Workload>(
                    std::make_unique<sim::VectorWorkload>("t", records));
            }
            std::vector<workloads::Phase> parts;
            parts.push_back({std::make_unique<sim::VectorWorkload>(
                "t.a", std::vector<sim::TraceRecord>(
                           records.begin(),
                           records.begin() +
                               static_cast<std::ptrdiff_t>(cut))),
                       0});
            parts.push_back({std::make_unique<sim::VectorWorkload>(
                "t.b", std::vector<sim::TraceRecord>(
                           records.begin() +
                               static_cast<std::ptrdiff_t>(cut),
                           records.end())),
                       0});
            return std::unique_ptr<sim::Workload>(
                std::make_unique<workloads::PhasedWorkload>(
                    "t", std::move(parts)));
        };
        return j;
    };

    const auto whole = exec::run_job(job_for(0));
    for (std::size_t cut : {std::size_t{1}, records.size() / 3,
                            records.size() - 1}) {
        expect_no_diff(
            "split@" + std::to_string(cut),
            verify::diff_results(whole, exec::run_job(job_for(cut))));
    }
}

TEST(DiffFidelity, ParallelLabMatchesSerial)
{
    auto sweep = [](unsigned workers) {
        exec::Lab lab({.jobs = workers});
        std::vector<exec::Lab::JobId> ids;
        for (const char* pf : {"none", "bo", "triage_dyn"})
            ids.push_back(lab.submit(bench_job("mcf", pf, 2)));
        std::vector<sim::RunResult> out;
        for (auto id : ids)
            out.push_back(lab.result(id));
        return out;
    };
    const auto serial = sweep(1);
    const auto parallel = sweep(3);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        expect_no_diff("jobs[" + std::to_string(i) + "]",
                       verify::diff_results(serial[i], parallel[i]));
    }
}

TEST(DiffFidelity, ComparatorActuallyDetectsDivergence)
{
    // Sanity for every pair above: two runs that genuinely differ must
    // produce named field diffs, or empty diffs prove nothing.
    auto off = exec::run_job(bench_job("mcf", "none"));
    auto on = exec::run_job(bench_job("mcf", "triage_dyn", 4));
    auto diff = verify::diff_results(off, on);
    EXPECT_FALSE(diff.empty());
}
