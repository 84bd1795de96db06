/**
 * @file
 * Tests for the host self-profiler (obs/profile): phase aggregation
 * under nesting, the LIFO-unwind invariant, the stats-JSON and
 * Perfetto exports, worker / checkpoint telemetry plumbed through the
 * Lab, and the opt-in log timestamp prefix. The profiler is a
 * process-wide singleton, so every test starts from Profiler::reset()
 * and disarms on the way out.
 */
#include <chrono>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "exec/job.hpp"
#include "exec/lab.hpp"
#include "obs/json.hpp"
#include "obs/perfetto.hpp"
#include "obs/profile.hpp"
#include "util/log.hpp"

namespace triage {
namespace {

using obs::json::Value;
using obs::prof::ProfScope;
using obs::prof::Profiler;

/** RAII: reset the singleton on entry and fully disarm on exit. */
struct ProfilerFixture {
    ProfilerFixture() { Profiler::instance().reset(); }
    ~ProfilerFixture()
    {
        Profiler::instance().disable();
        Profiler::instance().reset();
    }
};

void
spin_for_us(unsigned us)
{
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(us);
    while (std::chrono::steady_clock::now() < until) {
    }
}

// --- Phase timers -------------------------------------------------------

TEST(Profile, DisarmedScopesRecordNothing)
{
    ProfilerFixture fx;
    ASSERT_FALSE(Profiler::armed());
    {
        ProfScope a("alpha");
        ProfScope b("beta");
    }
    EXPECT_TRUE(Profiler::instance().phases().empty());
    EXPECT_EQ(Profiler::instance().wall_seconds(), 0.0);
}

TEST(Profile, PhasesAggregateNestedPaths)
{
    ProfilerFixture fx;
    Profiler::instance().enable();
    for (int i = 0; i < 3; ++i) {
        ProfScope outer("alpha");
        spin_for_us(200);
        {
            ProfScope inner("beta");
            spin_for_us(200);
        }
    }
    const auto phases = Profiler::instance().phases();
    ASSERT_TRUE(phases.count("alpha"));
    ASSERT_TRUE(phases.count("alpha.beta"));
    EXPECT_EQ(phases.at("alpha").count, 3u);
    EXPECT_EQ(phases.at("alpha.beta").count, 3u);
    // Inclusive timing: the parent covers its child.
    EXPECT_GE(phases.at("alpha").ns, phases.at("alpha.beta").ns);
    EXPECT_GT(phases.at("alpha.beta").ns, 0u);
}

TEST(Profile, AttributedCountsOnlyTopLevelPhases)
{
    ProfilerFixture fx;
    Profiler::instance().enable();
    {
        ProfScope outer("alpha");
        spin_for_us(500);
        ProfScope inner("beta");
        spin_for_us(500);
    }
    // "alpha" is top-level; "alpha.beta" is inside it and must not be
    // double-counted. External dotted paths stay out too.
    Profiler::instance().add_external("alpha.stall", 40'000'000, 2);
    const double attributed = Profiler::instance().attributed_seconds();
    const double wall = Profiler::instance().wall_seconds();
    EXPECT_GT(attributed, 0.0);
    EXPECT_LE(attributed, wall);
    const auto phases = Profiler::instance().phases();
    ASSERT_TRUE(phases.count("alpha.stall"));
    EXPECT_EQ(phases.at("alpha.stall").count, 2u);
    EXPECT_EQ(phases.at("alpha.stall").ns, 40'000'000u);
}

TEST(Profile, ThreadsAggregateIndependently)
{
    ProfilerFixture fx;
    Profiler::instance().enable();
    auto work = [] {
        ProfScope s("worker_phase");
        spin_for_us(300);
    };
    std::thread a(work), b(work);
    a.join();
    b.join();
    const auto phases = Profiler::instance().phases();
    ASSERT_TRUE(phases.count("worker_phase"));
    EXPECT_EQ(phases.at("worker_phase").count, 2u);
}

using ProfileDeathTest = ::testing::Test;

TEST(ProfileDeathTest, NonLifoUnwindDies)
{
    EXPECT_DEATH(
        {
            Profiler::instance().reset();
            Profiler::instance().enable();
            auto* outer = new ProfScope("outer");
            auto* inner = new ProfScope("inner");
            delete outer; // not the innermost active scope
            delete inner;
        },
        "ProfScope");
}

// --- Exports ------------------------------------------------------------

TEST(Profile, WriteJsonShapeParses)
{
    ProfilerFixture fx;
    Profiler::instance().enable();
    {
        ProfScope s("json_phase");
        spin_for_us(300);
    }
    Profiler::instance().set_counter("ckpt.mem_hits", 4);
    Profiler::instance().set_counter("ckpt.bytes_published", 1234);
    Profiler::instance().set_worker({0, 2, 5'000'000, 4096});
    std::ostringstream os;
    Profiler::instance().write_json(os);
    std::string err;
    auto root = obs::json::parse(os.str(), &err);
    ASSERT_TRUE(root.has_value()) << err << "\n" << os.str();
    EXPECT_TRUE(root->get("enabled")->boolean);
    EXPECT_EQ(root->get("backend"), nullptr);
    EXPECT_GT(root->get("wall_seconds")->number, 0.0);
    const Value* phase = root->get("phases")->get("json_phase");
    ASSERT_NE(phase, nullptr);
    // A phase is its entry count and its steady-clock seconds.
    EXPECT_EQ(phase->object.size(), 2u);
    EXPECT_EQ(phase->get("count")->number, 1.0);
    EXPECT_GT(phase->get("seconds")->number, 0.0);
    const Value* ckpt = root->get("counters")->get("ckpt");
    ASSERT_NE(ckpt, nullptr);
    EXPECT_EQ(ckpt->get("mem_hits")->number, 4.0);
    const Value* workers = root->get("workers");
    ASSERT_NE(workers, nullptr);
    ASSERT_EQ(workers->array.size(), 1u);
    EXPECT_EQ(workers->array[0].get("jobs")->number, 2.0);
    EXPECT_EQ(workers->array[0].get("peak_rss_kb")->number, 4096.0);
}

TEST(Profile, PerfettoRoundTripCarriesProfileTracks)
{
    ProfilerFixture fx;
    Profiler::instance().enable();
    {
        ProfScope s("trace_phase");
        spin_for_us(300);
    }
    std::ostringstream os;
    obs::perfetto::write_trace(os, nullptr, {}, {});
    std::string err;
    auto root = obs::json::parse(os.str(), &err);
    ASSERT_TRUE(root.has_value()) << err;
    const Value* events = root->get("traceEvents");
    ASSERT_NE(events, nullptr);
    bool saw_slice = false;
    for (const Value& e : events->array) {
        const Value* pid = e.get("pid");
        const Value* ph = e.get("ph");
        if (pid == nullptr || ph == nullptr || pid->number != 4)
            continue;
        ASSERT_NE(e.get("tid"), nullptr);
        // The profiler track holds track names and phase slices only.
        EXPECT_TRUE(ph->str == "M" || ph->str == "X") << ph->str;
        if (ph->str == "X" && e.get("name")->str == "trace_phase")
            saw_slice = true;
    }
    EXPECT_TRUE(saw_slice);
    // Opting out removes the profiler process entirely.
    std::ostringstream os2;
    obs::perfetto::TraceOptions opt;
    opt.include_profile = false;
    obs::perfetto::write_trace(os2, nullptr, {}, opt);
    EXPECT_EQ(os2.str().find("\"pid\": 4"), std::string::npos);
}

// --- Run + Lab integration ----------------------------------------------

TEST(Profile, RunJobAttributesWarmupAndMeasure)
{
    ProfilerFixture fx;
    Profiler::instance().enable();
    exec::Job j;
    j.benchmark = "mcf";
    j.pf_spec = "triage_dyn";
    j.scale.warmup_records = 5000;
    j.scale.measure_records = 10000;
    (void)exec::run_job(j);
    const auto phases = Profiler::instance().phases();
    ASSERT_TRUE(phases.count("warmup")) << "phases: " << phases.size();
    ASSERT_TRUE(phases.count("measure"));
    EXPECT_GT(phases.at("warmup").ns, 0u);
    EXPECT_GT(phases.at("measure").ns, 0u);
    // Serial run: total attribution cannot exceed wall time.
    EXPECT_LE(Profiler::instance().attributed_seconds(),
              Profiler::instance().wall_seconds());
}

TEST(Profile, LabPublishesWorkerAndCkptTelemetry)
{
    ProfilerFixture fx;
    Profiler::instance().enable();
    exec::LabOptions opt;
    opt.jobs = 1;
    opt.warm_checkpoints = true;
    exec::Lab lab(opt);
    for (std::uint64_t measure : {4000u, 8000u}) {
        exec::Job j;
        j.benchmark = "mcf";
        j.pf_spec = "triage_dyn";
        j.scale.warmup_records = 6000;
        j.scale.measure_records = measure;
        lab.submit(std::move(j));
    }
    lab.wait_all();
    lab.publish_profile();

    const auto workers = Profiler::instance().workers();
    ASSERT_EQ(workers.size(), 1u);
    EXPECT_EQ(workers[0].jobs, 2u);
    EXPECT_GT(workers[0].busy_ns, 0u);
    EXPECT_GT(workers[0].peak_rss_kb, 0u);

    const auto counters = Profiler::instance().counters();
    // Two jobs share one warm prefix: one miss produces the
    // checkpoint, the second job forks it from memory.
    ASSERT_TRUE(counters.count("ckpt.misses"));
    EXPECT_EQ(counters.at("ckpt.misses"), 1.0);
    ASSERT_TRUE(counters.count("ckpt.mem_hits"));
    EXPECT_EQ(counters.at("ckpt.mem_hits"), 1.0);
    ASSERT_TRUE(counters.count("ckpt.bytes_published"));
    EXPECT_GT(counters.at("ckpt.bytes_published"), 0.0);
    // The blob left the memory tier after the second job's fork.
    ASSERT_TRUE(counters.count("ckpt.bytes_mem"));
    EXPECT_EQ(counters.at("ckpt.bytes_mem"), 0.0);
    ASSERT_TRUE(counters.count("ckpt.skipped"));
    EXPECT_EQ(counters.at("ckpt.skipped"), 0.0);
    // The lab also dropped "job" phase scopes around each execution.
    const auto phases = Profiler::instance().phases();
    ASSERT_TRUE(phases.count("job"));
    EXPECT_EQ(phases.at("job").count, 2u);
    ASSERT_TRUE(phases.count("job.warmup"));
    ASSERT_TRUE(phases.count("job.measure"));
    ASSERT_TRUE(phases.count("job.snapshot.save"));
    ASSERT_TRUE(phases.count("job.snapshot.restore"));
}

TEST(Profile, PeakRssIsPlausible)
{
    const std::uint64_t kb = obs::prof::peak_rss_kb();
    // Any live process has at least a megabyte resident.
    EXPECT_GT(kb, 1024u);
}

// --- Log timestamps -----------------------------------------------------

TEST(Profile, LogTimestampPrefixFormat)
{
    const bool was = util::log_timestamps();
    util::set_log_timestamps(true);
    const std::string p1 = util::log_timestamp_prefix();
    const std::string p2 = util::log_timestamp_prefix();
    util::set_log_timestamps(was);
    EXPECT_EQ(p1.rfind("[t=", 0), 0u) << p1;
    EXPECT_NE(p1.find("ms +"), std::string::npos) << p1;
    EXPECT_EQ(p1.substr(p1.size() - 4), "ms] ") << p1;
    EXPECT_EQ(p2.rfind("[t=", 0), 0u) << p2;
}

TEST(Profile, LogTimestampsDefaultOff)
{
    // Golden tests compare log output byte-for-byte; the prefix must
    // stay opt-in (TRIAGE_LOG_TIMESTAMPS unset here).
    EXPECT_FALSE(util::log_timestamps());
}

} // namespace
} // namespace triage
