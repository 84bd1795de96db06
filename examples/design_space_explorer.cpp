/**
 * @file
 * Design-space exploration with the public API: sweep Triage's
 * metadata store size and replacement policy on one benchmark,
 * illustrating how to construct custom Triage configurations rather
 * than using the stock factories.
 *
 * The sweep is declared as exec::Lab jobs: custom configurations use a
 * prefetcher factory plus a variant tag (the tag keys memoization),
 * and `--jobs=N` runs the whole grid on N worker threads with results
 * identical to a serial run.
 *
 * Usage: design_space_explorer [benchmark] [--scale=F] [--jobs=N]
 */
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "exec/lab.hpp"
#include "sim/config.hpp"
#include "stats/experiment.hpp"
#include "stats/metrics.hpp"
#include "stats/table.hpp"
#include "triage/triage.hpp"
#include "workloads/spec.hpp"

using namespace triage;

int
main(int argc, char** argv)
{
    std::string bench = "sphinx3";
    if (argc > 1 && argv[1][0] != '-')
        bench = argv[1];
    sim::MachineConfig cfg;
    stats::RunScale scale = stats::RunScale::from_args(argc, argv);
    scale.warmup_records = 250000;
    scale.measure_records = 400000;

    std::cout << "Sweeping Triage's metadata store on '" << bench
              << "'\n\n";

    exec::Lab lab({.jobs = exec::Lab::jobs_from_args(argc, argv)});
    auto submit = [&](const std::string& variant,
                      const core::TriageConfig& tcfg) {
        exec::Job j;
        j.config = cfg;
        j.benchmark = bench;
        j.variant = variant;
        j.prefetcher_factory = [tcfg](unsigned) {
            return std::make_unique<core::Triage>(tcfg);
        };
        j.scale = scale;
        return lab.submit(std::move(j));
    };

    // Declare the whole grid before collecting any result, so the
    // workers can chew through it in parallel.
    exec::Job base_job;
    base_job.config = cfg;
    base_job.benchmark = bench;
    base_job.pf_spec = "none";
    base_job.scale = scale;
    auto base_id = lab.submit(std::move(base_job));

    struct Point {
        std::uint64_t kb;
        core::StoreRepl repl;
        exec::Lab::JobId id;
    };
    std::vector<Point> grid;
    for (std::uint64_t kb : {128, 256, 512, 1024}) {
        for (auto repl :
             {core::StoreRepl::Lru, core::StoreRepl::Hawkeye}) {
            core::TriageConfig tcfg;
            tcfg.static_bytes = kb * 1024;
            tcfg.repl = repl;
            std::string variant =
                "triage@" + std::to_string(kb) + "KB/" +
                (repl == core::StoreRepl::Lru ? "lru" : "hawkeye");
            grid.push_back({kb, repl, submit(variant, tcfg)});
        }
    }
    core::TriageConfig unlimited;
    unlimited.unlimited = true;
    unlimited.charge_llc_capacity = false;
    auto unlimited_id = submit("triage@unlimited", unlimited);

    const auto& base = lab.result(base_id);
    stats::Table t({"store", "replacement", "speedup", "coverage",
                    "store entries"});
    for (const auto& p : grid) {
        const auto& r = lab.result(p.id);
        t.row({std::to_string(p.kb) + "KB",
               p.repl == core::StoreRepl::Lru ? "lru" : "hawkeye",
               stats::fmt_x(stats::speedup(r, base)),
               stats::fmt_pct(stats::avg_coverage(r)),
               std::to_string(p.kb * 1024 / 4)});
    }
    {
        const auto& r = lab.result(unlimited_id);
        t.row({"unlimited", "-", stats::fmt_x(stats::speedup(r, base)),
               stats::fmt_pct(stats::avg_coverage(r)), "-"});
    }
    t.print(std::cout);
    std::cout << "\nHawkeye's benefit is largest when the store is "
                 "small; at 1 MB the gap narrows (paper Figure 9).\n";
    return 0;
}
