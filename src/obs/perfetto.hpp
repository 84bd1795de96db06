/**
 * @file
 * Perfetto / Chrome trace-event JSON exporter.
 *
 * Serializes a run's observability data as one Chrome trace-event file
 * ({"traceEvents": [...]}) that loads directly in ui.perfetto.dev or
 * chrome://tracing. Three process tracks, each in its own time domain
 * (the format has a single "ts" axis; separating domains by pid keeps
 * them visually distinct and individually zoomable):
 *
 *  - pid 1 "lab": wall-clock job spans, one thread per Lab worker
 *    that ran a job (ts in real microseconds since the Lab was
 *    created);
 *  - pid 2 "simulation": decision instants filtered from the event
 *    trace — partition epochs/decisions, OPTgen verdicts, metadata
 *    resizes — one thread per core (ts in simulated cycles);
 *  - pid 3 "epochs": one complete span per sampler epoch carrying
 *    every probe value as args (ts in measured records);
 *  - pid 4 "host profiler": phase slices recorded by the host
 *    profiler (obs/profile.hpp), one thread per profiled host
 *    thread, plus hw.* counter tracks (cycles, instructions, LLC and
 *    branch misses) sampled at each slice end (ts in real
 *    microseconds since the profiler was enabled).
 *
 * Reuses the event_trace plumbing: nothing new is recorded during the
 * run; the exporter is a pure sink over EventTrace, EpochSampler and
 * the Lab's job spans.
 */
#ifndef TRIAGE_OBS_PERFETTO_HPP
#define TRIAGE_OBS_PERFETTO_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace triage::obs {

struct Observability;

namespace perfetto {

/** One executed Lab job, in wall-clock microseconds since Lab start. */
struct JobSpan {
    unsigned worker = 0;
    std::string label;
    std::uint64_t start_us = 0;
    std::uint64_t end_us = 0;
};

/** Exporter knobs. */
struct TraceOptions {
    /** Kinds of simulation instants to include (see perfetto.cpp). */
    bool include_simulation_events = true;
    /** Include the host profiler's phase slices + counter tracks when
     *  it recorded any (a disarmed profiler contributes nothing). */
    bool include_profile = true;
};

/**
 * Write the trace. @p obs may be null (job spans only). Event-trace
 * instants are included when the trace is enabled; epoch spans when
 * the sampler recorded any.
 */
void write_trace(std::ostream& os, const Observability* obs,
                 const std::vector<JobSpan>& jobs,
                 const TraceOptions& opt = {});

} // namespace perfetto
} // namespace triage::obs

#endif // TRIAGE_OBS_PERFETTO_HPP
