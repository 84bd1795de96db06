#include "obs/profile.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>

#include "obs/json.hpp"
#include "util/log.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace triage::obs::prof {

namespace {

std::uint64_t
now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Per-thread profiling state: the scope stack and the dense tid. */
struct ThreadState {
    /** Active scopes, innermost last; entries are ProfScope addresses
     *  (for the LIFO check) paired with their names. */
    std::vector<std::pair<const void*, const char*>> stack;
    unsigned tid = ~0u;
    bool tid_set = false;
};

thread_local ThreadState t_state;

} // namespace

std::atomic<bool> Profiler::armed_{false};

Profiler&
Profiler::instance()
{
    static Profiler p;
    return p;
}

void
Profiler::enable()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (t0_ns_ == 0)
        t0_ns_ = now_ns();
    armed_.store(true, std::memory_order_relaxed);
}

void
Profiler::disable()
{
    armed_.store(false, std::memory_order_relaxed);
}

void
Profiler::reset()
{
    armed_.store(false, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(mu_);
    t0_ns_ = 0;
    phases_.clear();
    counters_.clear();
    workers_.clear();
    slices_.clear();
    slices_dropped_ = 0;
}

double
Profiler::wall_seconds() const
{
    std::lock_guard<std::mutex> lk(mu_);
    if (t0_ns_ == 0)
        return 0.0;
    return static_cast<double>(now_ns() - t0_ns_) * 1e-9;
}

double
Profiler::attributed_seconds() const
{
    std::lock_guard<std::mutex> lk(mu_);
    double s = 0.0;
    for (const auto& [path, ph] : phases_)
        if (path.find('.') == std::string::npos)
            s += static_cast<double>(ph.ns) * 1e-9;
    return s;
}

void
Profiler::add_external(const std::string& path, std::uint64_t ns,
                       std::uint64_t count)
{
    if (!armed())
        return;
    std::lock_guard<std::mutex> lk(mu_);
    Phase& ph = phases_[path];
    ph.count += count;
    ph.ns += ns;
}

void
Profiler::set_counter(const std::string& name, double v)
{
    std::lock_guard<std::mutex> lk(mu_);
    counters_[name] = v;
}

void
Profiler::add_counter(const std::string& name, double v)
{
    std::lock_guard<std::mutex> lk(mu_);
    counters_[name] += v;
}

void
Profiler::set_worker(const WorkerAccounting& w)
{
    std::lock_guard<std::mutex> lk(mu_);
    workers_[w.worker] = w;
}

std::map<std::string, Profiler::Phase>
Profiler::phases() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return phases_;
}

std::map<std::string, double>
Profiler::counters() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return counters_;
}

std::vector<Profiler::WorkerAccounting>
Profiler::workers() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<WorkerAccounting> out;
    out.reserve(workers_.size());
    for (const auto& [id, w] : workers_)
        out.push_back(w);
    return out;
}

std::vector<Profiler::Slice>
Profiler::slices() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return slices_;
}

void
Profiler::record_slice(std::uint64_t start_ns, std::uint64_t end_ns)
{
    ThreadState& ts = t_state;
    if (!ts.tid_set) {
        ts.tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
        ts.tid_set = true;
    }
    // Aggregation path: every active scope name on this thread,
    // dot-joined, the recording scope innermost (already on the stack).
    std::string path;
    for (const auto& [ptr, nm] : ts.stack) {
        if (!path.empty())
            path += '.';
        path += nm;
    }

    std::lock_guard<std::mutex> lk(mu_);
    Phase& ph = phases_[path];
    ph.count += 1;
    ph.ns += end_ns - start_ns;
    if (slices_.size() < slice_cap_) {
        Slice s;
        s.path = std::move(path);
        s.tid = ts.tid;
        s.start_ns = start_ns - std::min(start_ns, t0_ns_);
        s.dur_ns = end_ns - start_ns;
        slices_.push_back(std::move(s));
    } else {
        ++slices_dropped_;
    }
}

void
Profiler::write_json(json::Writer& w) const
{
    const double wall = wall_seconds();
    const double attributed = attributed_seconds();

    std::map<std::string, Phase> phases;
    std::map<std::string, double> counters;
    std::map<unsigned, WorkerAccounting> workers;
    std::uint64_t dropped;
    std::size_t n_slices;
    {
        std::lock_guard<std::mutex> lk(mu_);
        phases = phases_;
        counters = counters_;
        workers = workers_;
        dropped = slices_dropped_;
        n_slices = slices_.size();
    }

    w.begin_object();
    w.field("enabled", armed());
    w.field("wall_seconds", wall);
    w.field("attributed_seconds", attributed);
    w.field("attributed_frac", wall > 0.0 ? attributed / wall : 0.0);

    // Phase table: flat object keyed by full dotted path (paths embed
    // dots, so nesting them would collide with single-segment keys).
    w.key("phases").begin_object();
    for (const auto& [path, ph] : phases) {
        w.key(path).begin_object(false);
        w.field("count", ph.count);
        w.field("seconds", static_cast<double>(ph.ns) * 1e-9).end();
    }
    w.end();

    w.key("slices").begin_object(false);
    w.field("recorded", n_slices).field("dropped", dropped).end();

    // Summary counters, nested by dotted name like the registry dump
    // (so "ckpt.mem_hits" lands at profile.counters.ckpt.mem_hits).
    w.key("counters");
    json::write_nested(w, counters,
                       [](json::Writer& out, double v) { out.value(v); });

    w.key("workers").begin_array();
    for (const auto& [id, wa] : workers) {
        w.begin_object(false);
        w.field("worker", wa.worker).field("jobs", wa.jobs);
        w.field("busy_seconds", static_cast<double>(wa.busy_ns) * 1e-9);
        w.field("peak_rss_kb", wa.peak_rss_kb).end();
    }
    w.end().end();
}

void
ProfScope::begin(const char* name)
{
    name_ = name;
    active_ = true;
    t_state.stack.emplace_back(this, name);
    t0_ns_ = now_ns();
}

void
ProfScope::end()
{
    const std::uint64_t t1 = now_ns();
    ThreadState& ts = t_state;
    if (ts.stack.empty() || ts.stack.back().first != this) {
        util::fatal(std::string("ProfScope '") +
                    (name_ != nullptr ? name_ : "?") +
                    "' destroyed out of LIFO order: phase attribution "
                    "would be wrong");
    }
    // Record while this scope is still on the stack so the path
    // includes it, then pop.
    Profiler::instance().record_slice(t0_ns_, t1);
    ts.stack.pop_back();
    active_ = false;
}

std::uint64_t
peak_rss_kb()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru{};
    if (::getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0) {
#if defined(__APPLE__)
        return static_cast<std::uint64_t>(ru.ru_maxrss) / 1024; // bytes
#else
        return static_cast<std::uint64_t>(ru.ru_maxrss); // KiB
#endif
    }
#endif
#if defined(__linux__)
    // Fallback: VmHWM from /proc (containers with a stubbed getrusage).
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return static_cast<std::uint64_t>(
                std::strtoull(line.c_str() + 6, nullptr, 10));
    }
#endif
    return 0;
}

} // namespace triage::obs::prof
