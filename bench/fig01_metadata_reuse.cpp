/**
 * @file
 * Figure 1: metadata reuse distribution for mcf — a small fraction of
 * metadata entries receives most of the reuse, the observation that
 * makes an on-chip metadata store viable.
 *
 * Paper: with ~60K entries live, only 15% of entries are reused more
 * than 15 times.
 */
#include <algorithm>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "sim/multicore.hpp"
#include "triage/triage.hpp"

using namespace triage;
using namespace triage::bench;

int
main(int argc, char** argv)
{
    stats::banner(std::cout,
                  "Figure 1: Metadata reuse distribution (mcf)");
    sim::MachineConfig cfg;
    stats::RunScale scale = single_core_scale(argc, argv);
    // The paper's distribution comes from a 50 M-instruction SimPoint;
    // counting reuse needs enough laps for hot entries to accumulate
    // double-digit counts, so this figure runs a longer window than
    // the speedup benches.
    scale.measure_records =
        std::max<std::uint64_t>(scale.measure_records, 3000000);

    sim::MultiCoreSystem sys(cfg, 1);
    core::TriageConfig tcfg;
    tcfg.unlimited = true;
    tcfg.charge_llc_capacity = false;
    tcfg.track_reuse = true;
    sys.set_prefetcher(0, std::make_unique<core::Triage>(tcfg));
    sys.bind(0, workloads::make_benchmark("mcf", scale.workload_scale));
    sys.run(scale.warmup_records, scale.measure_records);

    auto* triage_pf =
        static_cast<core::Triage*>(sys.memory().prefetcher(0));
    std::vector<std::uint32_t> reuse;
    reuse.reserve(triage_pf->reuse_counts().size());
    for (const auto& [addr, count] : triage_pf->reuse_counts())
        reuse.push_back(count);
    std::sort(reuse.begin(), reuse.end(), std::greater<>());

    std::cout << "live metadata entries observed: " << reuse.size()
              << "\n\n";
    stats::Table t({"entry percentile", "reuse count"});
    for (double pct : {0.001, 0.01, 0.05, 0.10, 0.15, 0.25, 0.50, 0.75,
                       0.95}) {
        auto idx = static_cast<std::size_t>(
            pct * static_cast<double>(reuse.size()));
        if (idx >= reuse.size())
            idx = reuse.size() - 1;
        t.row({stats::fmt(pct * 100, 1) + "%",
               std::to_string(reuse.empty() ? 0 : reuse[idx])});
    }
    t.print(std::cout);

    std::uint64_t over15 = 0;
    for (auto c : reuse)
        over15 += c > 15 ? 1 : 0;
    double frac = reuse.empty()
                      ? 0.0
                      : static_cast<double>(over15) /
                            static_cast<double>(reuse.size());
    std::cout << "\n";
    paper_vs_measured("entries reused > 15 times", "~15%",
                      stats::fmt(frac * 100, 1) + "%");
    std::cout << "Shape check: reuse is heavily concentrated in the top "
                 "fraction of entries.\n";
    return 0;
}
