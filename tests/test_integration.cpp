/**
 * @file
 * Integration tests: whole-system runs combining workloads, the
 * hierarchy, and prefetchers, checking the paper's qualitative
 * relationships (who wins where) at small scale.
 */
#include <gtest/gtest.h>

#include "sim/multicore.hpp"
#include "stats/experiment.hpp"
#include "stats/metrics.hpp"
#include "workloads/spec.hpp"

using namespace triage;
using stats::RunScale;

namespace {

RunScale
small_scale()
{
    RunScale s;
    s.warmup_records = 150000;
    s.measure_records = 250000;
    s.workload_scale = 0.25;
    return s;
}

} // namespace

TEST(Integration, TriageSpeedsUpPointerChase)
{
    sim::MachineConfig cfg;
    // Unconfident-insert entries need the hot chains to lap twice
    // before prefetching, so give this test a full-size window.
    stats::RunScale scale;
    scale.warmup_records = 350000;
    scale.measure_records = 450000;
    scale.workload_scale = 0.5;
    auto base = stats::run_single(cfg, "mcf", "none", scale);
    auto pf = stats::run_single(cfg, "mcf", "triage_1MB", scale);
    double sp = stats::speedup(pf, base);
    EXPECT_GT(sp, 1.05) << "Triage must speed up the mcf analog";
    EXPECT_GT(stats::avg_coverage(pf), 0.1);
    EXPECT_GT(stats::avg_accuracy(pf), 0.7);
}

TEST(Integration, BoSpeedsUpStreaming)
{
    sim::MachineConfig cfg;
    auto scale = small_scale();
    auto base = stats::run_single(cfg, "libquantum", "none", scale);
    auto pf = stats::run_single(cfg, "libquantum", "bo", scale);
    EXPECT_GT(stats::speedup(pf, base), 1.02);
}

TEST(Integration, TemporalBeatsSpatialOnIrregular)
{
    sim::MachineConfig cfg;
    auto scale = small_scale();
    auto base = stats::run_single(cfg, "mcf", "none", scale);
    auto bo = stats::run_single(cfg, "mcf", "bo", scale);
    auto triage = stats::run_single(cfg, "mcf", "triage_1MB", scale);
    EXPECT_GT(stats::speedup(triage, base), stats::speedup(bo, base));
}

TEST(Integration, TriageDoesNotTankRegularWorkloads)
{
    sim::MachineConfig cfg;
    auto scale = small_scale();
    auto base = stats::run_single(cfg, "bwaves", "none", scale);
    auto dyn = stats::run_single(cfg, "bwaves", "triage_dyn", scale);
    EXPECT_GT(stats::speedup(dyn, base), 0.9);
}

TEST(Integration, TriageTrafficLowerThanIdealizedStms)
{
    sim::MachineConfig cfg;
    auto scale = small_scale();
    auto base = stats::run_single(cfg, "mcf", "none", scale);
    auto triage = stats::run_single(cfg, "mcf", "triage_1MB", scale);
    auto stms = stats::run_single(cfg, "mcf", "stms", scale);
    double t_triage = stats::traffic_overhead(triage, base);
    double t_stms = stats::traffic_overhead(stms, base);
    EXPECT_LT(t_triage, t_stms);
}

TEST(Integration, HybridAtLeastMatchesComponentsOnMixedWorkload)
{
    sim::MachineConfig cfg;
    auto scale = small_scale();
    auto base = stats::run_single(cfg, "gcc_166", "none", scale);
    auto bo = stats::run_single(cfg, "gcc_166", "bo", scale);
    auto hybrid =
        stats::run_single(cfg, "gcc_166", "bo+triage_dyn", scale);
    EXPECT_GT(stats::speedup(hybrid, base),
              stats::speedup(bo, base) * 0.95);
}

TEST(Integration, MulticoreRunCompletesAndReportsPerCore)
{
    sim::MachineConfig cfg;
    RunScale scale;
    scale.warmup_records = 40000;
    scale.measure_records = 60000;
    scale.workload_scale = 0.1;
    workloads::Mix mix{"mcf", "libquantum", "sphinx3", "bwaves"};
    auto res = stats::run_mix(cfg, mix, "triage_dyn", scale);
    ASSERT_EQ(res.per_core.size(), 4u);
    for (const auto& c : res.per_core) {
        EXPECT_GE(c.mem_records, scale.measure_records);
        EXPECT_GT(c.ipc(), 0.0);
        EXPECT_GT(c.cycles, 0u);
        EXPECT_GE(c.avg_metadata_ways, 0.0);
    }
}

TEST(Integration, MetadataEnergyCountedForTriageNotForNone)
{
    sim::MachineConfig cfg;
    auto scale = small_scale();
    auto base = stats::run_single(cfg, "mcf", "none", scale);
    auto triage = stats::run_single(cfg, "mcf", "triage_1MB", scale);
    EXPECT_EQ(base.per_core[0].energy.onchip_accesses, 0u);
    EXPECT_GT(triage.per_core[0].energy.onchip_accesses, 1000u);
    EXPECT_EQ(triage.per_core[0].energy.offchip_accesses, 0u);
}

TEST(Integration, MisbGeneratesOffchipMetadataTraffic)
{
    sim::MachineConfig cfg;
    auto scale = small_scale();
    auto misb = stats::run_single(cfg, "mcf", "misb", scale);
    EXPECT_GT(misb.traffic.of(sim::TrafficClass::MetadataRead), 0u);
    EXPECT_GT(misb.per_core[0].energy.offchip_accesses, 0u);
}

TEST(Integration, LlcPartitionActiveDuringTriageRun)
{
    sim::MachineConfig cfg;
    auto scale = small_scale();
    auto triage = stats::run_single(cfg, "mcf", "triage_1MB", scale);
    // 1 MB static store on a 2 MB LLC: 8 of 16 ways, the whole run.
    EXPECT_NEAR(triage.per_core[0].avg_metadata_ways, 8.0, 0.5);
}
