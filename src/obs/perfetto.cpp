#include "obs/perfetto.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "obs/observer.hpp"
#include "obs/profile.hpp"

namespace triage::obs::perfetto {

namespace {

constexpr int PID_LAB = 1;
constexpr int PID_SIM = 2;
constexpr int PID_EPOCH = 3;
constexpr int PID_PROF = 4;

/** Minimal JSON string escaping for names/labels. */
std::string
escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

std::string
num(double v)
{
    std::ostringstream os;
    os.precision(10);
    os << v;
    return os.str();
}

/** Emits events with the separating commas handled centrally. */
class EventWriter
{
  public:
    explicit EventWriter(std::ostream& os) : os_(os) {}

    std::ostream&
    begin()
    {
        os_ << (first_ ? "\n  " : ",\n  ");
        first_ = false;
        return os_;
    }

    void
    metadata(const char* what, int pid, int tid, const std::string& name)
    {
        begin() << "{\"name\": \"" << what << "\", \"ph\": \"M\", \"pid\": "
                << pid << ", \"tid\": " << tid
                << ", \"args\": {\"name\": \"" << escape(name) << "\"}}";
    }

    void
    process(int pid, const std::string& name)
    {
        // tid 0 is fine for process metadata; the UI keys on "ph":"M".
        metadata("process_name", pid, 0, name);
    }

    void
    thread(int pid, int tid, const std::string& name)
    {
        begin() << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": "
                << pid << ", \"tid\": " << tid
                << ", \"args\": {\"name\": \"" << escape(name) << "\"}}";
    }

    bool empty() const { return first_; }

  private:
    std::ostream& os_;
    bool first_ = true;
};

void
write_job_spans(EventWriter& w, const std::vector<JobSpan>& jobs)
{
    // One named track per worker that ran a job, in worker order.
    std::vector<unsigned> workers;
    for (const JobSpan& j : jobs)
        workers.push_back(j.worker);
    std::sort(workers.begin(), workers.end());
    workers.erase(std::unique(workers.begin(), workers.end()),
                  workers.end());
    w.process(PID_LAB, "lab scheduler (wall-clock us)");
    for (unsigned t : workers)
        w.thread(PID_LAB, static_cast<int>(t),
                 "worker " + std::to_string(t));
    for (const JobSpan& j : jobs) {
        std::uint64_t dur =
            j.end_us > j.start_us ? j.end_us - j.start_us : 1;
        w.begin() << "{\"name\": \"" << escape(j.label)
                  << "\", \"ph\": \"X\", \"ts\": " << j.start_us
                  << ", \"dur\": " << dur << ", \"pid\": " << PID_LAB
                  << ", \"tid\": " << j.worker << "}";
    }
}

void
write_simulation_events(EventWriter& w, const EventTrace& trace)
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
            w.thread(PID_SIM, e.core,
                     "core " + std::to_string(e.core));
            named[e.core] = true;
        }
        w.begin() << "{\"name\": \"" << name
                  << "\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " << e.cycle
                  << ", \"pid\": " << PID_SIM
                  << ", \"tid\": " << static_cast<int>(e.core)
                  << ", \"args\": {\"" << k0 << "\": " << e.a0 << ", \""
                  << k1 << "\": " << e.a1 << "}}";
    }
}

void
write_epoch_spans(EventWriter& w, const EpochSampler& sampler)
{
    w.process(PID_EPOCH, "epochs (measured records)");
    w.thread(PID_EPOCH, 0, "epochs");
    const auto& names = sampler.probe_names();
    const auto& epochs = sampler.epochs();
    for (std::size_t i = 0; i < epochs.size(); ++i) {
        const Epoch& e = epochs[i];
        std::uint64_t dur = e.end > e.begin ? e.end - e.begin : 1;
        auto& os = w.begin();
        os << "{\"name\": \"epoch " << i << "\", \"ph\": \"X\", \"ts\": "
           << e.begin << ", \"dur\": " << dur << ", \"pid\": " << PID_EPOCH
           << ", \"tid\": 0, \"args\": {";
        for (std::size_t p = 0; p < names.size() &&
                                p < e.values.size(); ++p) {
            os << (p == 0 ? "" : ", ") << "\"" << escape(names[p])
               << "\": " << num(e.values[p]);
        }
        os << "}}";
    }
}

void
write_profile_slices(EventWriter& w)
{
    auto& prof = prof::Profiler::instance();
    const auto slices = prof.slices();
    if (slices.empty())
        return;
    w.process(PID_PROF, "host profiler (wall-clock us)");
    bool named[64] = {};
    for (const auto& s : slices) {
        const unsigned tid = s.tid < 64 ? s.tid : 63;
        if (!named[tid]) {
            w.thread(PID_PROF, static_cast<int>(tid),
                     "host thread " + std::to_string(tid));
            named[tid] = true;
        }
        const std::uint64_t ts = s.start_ns / 1000;
        const std::uint64_t dur = std::max<std::uint64_t>(
            1, s.dur_ns / 1000);
        w.begin() << "{\"name\": \"" << escape(s.path)
                  << "\", \"ph\": \"X\", \"ts\": " << ts
                  << ", \"dur\": " << dur << ", \"pid\": " << PID_PROF
                  << ", \"tid\": " << tid << "}";
        // Counter samples at slice end: each point is the slice's
        // counter delta, making hot phases visible as spikes on the
        // hw.* tracks (all zero only when no backend produced data).
        if (s.has_hw) {
            w.begin() << "{\"name\": \"hw.cycles\", \"ph\": \"C\", "
                         "\"ts\": "
                      << ts + dur << ", \"pid\": " << PID_PROF
                      << ", \"tid\": " << tid << ", \"args\": {\"cycles\": " << s.hw.cycles
                      << "}}";
            w.begin() << "{\"name\": \"hw.instructions\", \"ph\": "
                         "\"C\", \"ts\": "
                      << ts + dur << ", \"pid\": " << PID_PROF
                      << ", \"tid\": " << tid << ", \"args\": {\"instructions\": "
                      << s.hw.instructions << "}}";
            w.begin() << "{\"name\": \"hw.llc_misses\", \"ph\": \"C\", "
                         "\"ts\": "
                      << ts + dur << ", \"pid\": " << PID_PROF
                      << ", \"tid\": " << tid << ", \"args\": {\"llc_misses\": "
                      << s.hw.llc_misses << "}}";
            w.begin() << "{\"name\": \"hw.branch_misses\", \"ph\": "
                         "\"C\", \"ts\": "
                      << ts + dur << ", \"pid\": " << PID_PROF
                      << ", \"tid\": " << tid << ", \"args\": {\"branch_misses\": "
                      << s.hw.branch_misses << "}}";
        }
    }
}

} // namespace

void
write_trace(std::ostream& os, const Observability* obs,
            const std::vector<JobSpan>& jobs, const TraceOptions& opt)
{
    os << "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [";
    EventWriter w(os);
    if (!jobs.empty())
        write_job_spans(w, jobs);
    if (obs != nullptr) {
        if (opt.include_simulation_events && obs->trace.size() > 0) {
            w.process(PID_SIM, "simulation (cycles)");
            write_simulation_events(w, obs->trace);
        }
        if (!obs->sampler.epochs().empty())
            write_epoch_spans(w, obs->sampler);
    }
    if (opt.include_profile)
        write_profile_slices(w);
    os << (w.empty() ? "]" : "\n]") << "}\n";
}

} // namespace triage::obs::perfetto
