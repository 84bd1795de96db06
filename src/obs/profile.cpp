#include "obs/profile.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <ostream>

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

/** JSON indentation helper matching the registry writer's style. */
std::string
pad(int indent)
{
    return std::string(static_cast<std::size_t>(indent) * 2, ' ');
}

std::vector<std::string>
split_segments(const std::string& name)
{
    std::vector<std::string> segs;
    std::size_t start = 0;
    while (true) {
        std::size_t dot = name.find('.', start);
        if (dot == std::string::npos) {
            segs.push_back(name.substr(start));
            break;
        }
        segs.push_back(name.substr(start, dot - start));
        start = dot + 1;
    }
    return segs;
}

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
Profiler::write_json(std::ostream& os, int indent) const
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

    const std::string p0 = pad(indent);
    const std::string p1 = pad(indent + 1);
    const std::string p2 = pad(indent + 2);
    os << "{\n";
    os << p1 << "\"enabled\": " << (armed() ? "true" : "false")
       << ",\n";
    os << p1 << "\"wall_seconds\": " << wall << ",\n";
    os << p1 << "\"attributed_seconds\": " << attributed << ",\n";
    os << p1 << "\"attributed_frac\": "
       << (wall > 0.0 ? attributed / wall : 0.0) << ",\n";

    // Phase table: flat object keyed by full dotted path (paths embed
    // dots, so nesting them would collide with single-segment keys).
    os << p1 << "\"phases\": {";
    bool first = true;
    for (const auto& [path, ph] : phases) {
        if (!first)
            os << ",";
        first = false;
        os << "\n"
           << p2 << "\"" << path << "\": {\"count\": " << ph.count
           << ", \"seconds\": " << static_cast<double>(ph.ns) * 1e-9
           << "}";
    }
    os << (first ? "" : "\n" + p1) << "},\n";

    os << p1 << "\"slices\": {\"recorded\": " << n_slices
       << ", \"dropped\": " << dropped << "},\n";

    // Summary counters, nested by dotted name like the registry writer
    // (so "ckpt.mem_hits" lands at profile.counters.ckpt.mem_hits).
    os << p1 << "\"counters\": {";
    std::vector<std::string> open_path;
    first = true;
    for (const auto& [name, v] : counters) {
        auto segs = split_segments(name);
        std::size_t common = 0;
        while (common < open_path.size() && common + 1 < segs.size() &&
               open_path[common] == segs[common])
            ++common;
        for (std::size_t i = open_path.size(); i > common; --i)
            os << "\n" << pad(indent + 1 + static_cast<int>(i)) << "}";
        open_path.resize(common);
        if (!first)
            os << ",";
        first = false;
        for (std::size_t i = common; i + 1 < segs.size(); ++i) {
            os << "\n"
               << pad(indent + 2 + static_cast<int>(i)) << "\""
               << segs[i] << "\": {";
            open_path.push_back(segs[i]);
        }
        os << "\n"
           << pad(indent + 2 + static_cast<int>(open_path.size()))
           << "\"" << segs.back() << "\": " << v;
    }
    for (std::size_t i = open_path.size(); i > 0; --i)
        os << "\n" << pad(indent + 1 + static_cast<int>(i)) << "}";
    os << (first ? "" : "\n" + p1) << "},\n";

    os << p1 << "\"workers\": [";
    first = true;
    for (const auto& [id, w] : workers) {
        if (!first)
            os << ",";
        first = false;
        os << "\n"
           << p2 << "{\"worker\": " << w.worker
           << ", \"jobs\": " << w.jobs << ", \"busy_seconds\": "
           << static_cast<double>(w.busy_ns) * 1e-9
           << ", \"peak_rss_kb\": " << w.peak_rss_kb << "}";
    }
    os << (first ? "" : "\n" + p1) << "]\n";
    os << p0 << "}";
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
