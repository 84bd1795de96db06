/**
 * @file
 * Glue between the simulation harnesses and the observability
 * subsystem: one call registers every component's counters into the
 * stats registry, installs the per-epoch probes the paper's trajectory
 * plots need (IPC, coverage, accuracy, metadata hit rate, way
 * allocation), attaches the event trace to the hierarchy, and arms the
 * prefetch lifecycle tracker and partition-decision timeline for the
 * run's core count.
 *
 * Registration happens at measurement start (after warmup), so
 * registry formulas that need "since measurement began" semantics
 * capture their baselines by value here.
 */
#ifndef TRIAGE_SIM_OBS_WIRING_HPP
#define TRIAGE_SIM_OBS_WIRING_HPP

#include <vector>

#include "obs/observer.hpp"

namespace triage::cache {
class MemorySystem;
} // namespace triage::cache

namespace triage::sim {

class CoreModel;

/**
 * Wire @p obs to a system at measurement start. Clears any previous
 * registration (safe across repeated runs), binds the hierarchy's
 * counters, adds per-core performance formulas baselined at the
 * current core state, installs epoch probes, and attaches the trace.
 * @p cores holds one CoreModel per hierarchy core, in order.
 */
void attach_observability(obs::Observability& obs,
                          cache::MemorySystem& mem,
                          const std::vector<CoreModel*>& cores);

} // namespace triage::sim

#endif // TRIAGE_SIM_OBS_WIRING_HPP
