#include "obs/perfetto.hpp"

#include <algorithm>
#include <ostream>

#include "obs/json.hpp"
#include "obs/observer.hpp"
#include "obs/profile.hpp"

namespace triage::obs::perfetto {

namespace {

constexpr int PID_LAB = 1;
constexpr int PID_SIM = 2;
constexpr int PID_EPOCH = 3;
constexpr int PID_PROF = 4;

/** Metadata event naming a process (tid 0) or one of its threads. */
void
name_track(json::Writer& w, const char* what, int pid, int tid,
           const std::string& name)
{
    w.begin_object(false).field("name", what).field("ph", "M");
    w.field("pid", pid).field("tid", tid);
    w.key("args").begin_object().field("name", name).end().end();
}

void
name_process(json::Writer& w, int pid, const std::string& name)
{
    // tid 0 is fine for process metadata; the UI keys on "ph":"M".
    name_track(w, "process_name", pid, 0, name);
}

/** Opens a complete ("X") span event; the caller adds args or ends it. */
json::Writer&
span(json::Writer& w, const std::string& name, std::uint64_t ts,
     std::uint64_t dur, int pid, unsigned tid)
{
    w.begin_object(false).field("name", name).field("ph", "X");
    w.field("ts", ts).field("dur", dur).field("pid", pid);
    return w.field("tid", tid);
}

void
write_job_spans(json::Writer& w, const std::vector<JobSpan>& jobs)
{
    // One named track per worker that ran a job, in worker order.
    std::vector<unsigned> workers;
    for (const JobSpan& j : jobs)
        workers.push_back(j.worker);
    std::sort(workers.begin(), workers.end());
    workers.erase(std::unique(workers.begin(), workers.end()),
                  workers.end());
    name_process(w, PID_LAB, "lab scheduler (wall-clock us)");
    for (unsigned t : workers)
        name_track(w, "thread_name", PID_LAB, static_cast<int>(t),
                   "worker " + std::to_string(t));
    for (const JobSpan& j : jobs) {
        std::uint64_t dur =
            j.end_us > j.start_us ? j.end_us - j.start_us : 1;
        span(w, j.label, j.start_us, dur, PID_LAB, j.worker).end();
    }
}

void
write_simulation_events(json::Writer& w, const EventTrace& trace)
{
    bool named[256] = {};
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceEvent& e = trace.at(i);
        const char* name = nullptr;
        const char* k0 = nullptr;
        const char* k1 = nullptr;
        switch (e.kind) {
          case EventKind::PartitionEpoch:
            name = "partition_epoch";
            k0 = "level";
            k1 = "store_bytes";
            break;
          case EventKind::PartitionDecision:
            name = "partition_decision";
            k0 = "new_level";
            k1 = "old_level";
            break;
          case EventKind::OptgenVerdict:
            name = "optgen_verdict";
            k0 = "verdict";
            k1 = "hit_rate_ppm";
            break;
          case EventKind::MetaResize:
            name = "meta_resize";
            k0 = "new_bytes";
            k1 = "old_bytes";
            break;
          default:
            continue; // high-volume per-prefetch kinds stay out
        }
        if (!named[e.core]) {
            name_track(w, "thread_name", PID_SIM, e.core,
                       "core " + std::to_string(e.core));
            named[e.core] = true;
        }
        w.begin_object(false).field("name", name).field("ph", "i");
        w.field("s", "t").field("ts", e.cycle).field("pid", PID_SIM);
        w.field("tid", e.core).key("args").begin_object();
        w.field(k0, e.a0).field(k1, e.a1).end().end();
    }
}

void
write_epoch_spans(json::Writer& w, const EpochSampler& sampler)
{
    name_process(w, PID_EPOCH, "epochs (measured records)");
    name_track(w, "thread_name", PID_EPOCH, 0, "epochs");
    const auto& names = sampler.probe_names();
    const auto& epochs = sampler.epochs();
    for (std::size_t i = 0; i < epochs.size(); ++i) {
        const Epoch& e = epochs[i];
        std::uint64_t dur = e.end > e.begin ? e.end - e.begin : 1;
        span(w, "epoch " + std::to_string(i), e.begin, dur, PID_EPOCH, 0)
            .key("args")
            .begin_object();
        for (std::size_t p = 0; p < names.size() &&
                                p < e.values.size(); ++p)
            w.field(names[p], e.values[p]);
        w.end().end();
    }
}

void
write_profile_slices(json::Writer& w)
{
    auto& prof = prof::Profiler::instance();
    const auto slices = prof.slices();
    if (slices.empty())
        return;
    name_process(w, PID_PROF, "host profiler (wall-clock us)");
    bool named[64] = {};
    for (const auto& s : slices) {
        const unsigned tid = s.tid < 64 ? s.tid : 63;
        if (!named[tid]) {
            name_track(w, "thread_name", PID_PROF, static_cast<int>(tid),
                       "host thread " + std::to_string(tid));
            named[tid] = true;
        }
        const std::uint64_t ts = s.start_ns / 1000;
        const std::uint64_t dur = std::max<std::uint64_t>(
            1, s.dur_ns / 1000);
        span(w, s.path, ts, dur, PID_PROF, tid).end();
    }
}

} // namespace

void
write_trace(std::ostream& os, const Observability* obs,
            const std::vector<JobSpan>& jobs, const TraceOptions& opt)
{
    json::Writer w(os);
    w.begin_object().field("displayTimeUnit", "ms");
    w.key("traceEvents").begin_array();
    if (!jobs.empty())
        write_job_spans(w, jobs);
    if (obs != nullptr) {
        if (opt.include_simulation_events && obs->trace.size() > 0) {
            name_process(w, PID_SIM, "simulation (cycles)");
            write_simulation_events(w, obs->trace);
        }
        if (!obs->sampler.epochs().empty())
            write_epoch_spans(w, obs->sampler);
    }
    if (opt.include_profile)
        write_profile_slices(w);
    w.end().end();
    os << '\n';
}

} // namespace triage::obs::perfetto
