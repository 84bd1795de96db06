/**
 * @file
 * Trace record/replay walkthrough: capture a benchmark's reference
 * stream to a file, then replay the identical stream under several
 * prefetchers — the workflow for comparing prefetchers on externally
 * produced traces.
 *
 * Usage: trace_replay [benchmark] (default: xalancbmk)
 */
#include <cstdio>
#include <iostream>
#include <string>

#include "sim/multicore.hpp"
#include "stats/experiment.hpp"
#include "stats/metrics.hpp"
#include "stats/table.hpp"
#include "workloads/spec.hpp"
#include "workloads/trace_io.hpp"

using namespace triage;

int
main(int argc, char** argv)
{
    std::string bench = argc > 1 ? argv[1] : "xalancbmk";
    std::string path = "/tmp/triage_example_" + bench + ".tri";
    const std::uint64_t records = 600000;

    std::cout << "Recording " << records << " references of '" << bench
              << "' to " << path << "...\n";
    auto source = workloads::make_benchmark(bench, 0.5);
    auto written = workloads::save_trace(path, *source, records);
    if (written == 0) {
        std::cerr << "recording failed\n";
        return 1;
    }
    std::cout << "Recorded " << written << " records ("
              << written * 20 / 1024 << " KB on disk).\n\n";

    sim::MachineConfig cfg;
    const std::uint64_t warmup = 200000;
    const std::uint64_t measure = 350000;

    auto run = [&](const std::string& pf) {
        sim::MultiCoreSystem sys(cfg, 1);
        sys.set_prefetcher(0, stats::make_prefetcher(pf));
        sys.bind(0, workloads::load_trace(path));
        return sys.run(warmup, measure);
    };

    auto base = run("none");
    stats::Table t({"prefetcher", "speedup", "coverage", "accuracy"});
    for (const std::string pf :
         {"bo", "sms", "stms", "misb", "triage_dyn"}) {
        auto r = run(pf);
        t.row({pf, stats::fmt_x(stats::speedup(r, base)),
               stats::fmt_pct(stats::avg_coverage(r)),
               stats::fmt_pct(stats::avg_accuracy(r))});
    }
    t.print(std::cout);

    std::cout << "\nEvery prefetcher saw the byte-identical reference "
                 "stream — replay makes comparisons exactly "
                 "reproducible.\n";
    std::remove(path.c_str());
    return 0;
}
