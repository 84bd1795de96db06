/**
 * @file
 * Section 3 / §4.6: the partition adapts to program phases. A workload
 * that alternates an irregular pointer-chase phase with a streaming
 * phase should see Triage-Dynamic's metadata ways rise in the
 * irregular phases and be handed back to data in the streaming ones.
 *
 * The run is chunked so the store size can be sampled over time —
 * regenerating, in table form, the behaviour behind the paper's claim
 * that "partition sizes are re-evaluated periodically to adapt to
 * changes in program phases".
 */
#include <iostream>
#include <memory>

#include "cache/hierarchy.hpp"
#include "common.hpp"
#include "sim/cpu.hpp"
#include "triage/triage.hpp"
#include "workloads/phased.hpp"

using namespace triage;
using namespace triage::bench;

int
main(int argc, char** argv)
{
    stats::banner(std::cout,
                  "Section 3: Partition adaptation across program "
                  "phases (irregular <-> streaming)");
    (void)argc;
    (void)argv;
    sim::MachineConfig cfg;

    // Build the phased workload: mcf-like, then libquantum-like, twice.
    const std::uint64_t PHASE = 800000;
    std::vector<workloads::Phase> phases;
    for (int rep = 0; rep < 2; ++rep) {
        phases.push_back(
            {workloads::make_benchmark("mcf", 2.0), PHASE});
        phases.push_back(
            {workloads::make_benchmark("libquantum", 2.0), PHASE});
    }
    workloads::PhasedWorkload wl("phased", std::move(phases));

    cache::MemorySystem mem(cfg, 1);
    sim::CoreModel cpu(cfg, mem, 0);
    auto triage_pf = core::make_triage_dynamic();
    auto* tp = triage_pf.get();
    mem.set_prefetcher(0, std::move(triage_pf));
    cpu.bind(&wl);

    stats::Table t({"records", "phase", "store size", "LLC meta ways",
                    "store entries"});
    const std::uint64_t CHUNK = 100000;
    for (std::uint64_t done = 0; done < 4 * PHASE; done += CHUNK) {
        cpu.run_records(CHUNK);
        const char* phase_name =
            (done / PHASE) % 2 == 0 ? "irregular (mcf)"
                                    : "streaming (libquantum)";
        t.row({std::to_string(done + CHUNK), phase_name,
               std::to_string(tp->current_store_bytes() / 1024) + "KB",
               std::to_string(mem.metadata_ways()),
               std::to_string(tp->store().valid_entries())});
    }
    t.print(std::cout);

    std::cout << "\nShape check: ways rise during the irregular phases "
                 "and are returned to data during the streaming ones "
                 "(the paper's phase-adaptation claim).\n";
    return 0;
}
