#include "obs/profile.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>

#include "util/log.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#define TRIAGE_HAVE_PERF_EVENT 1
#elif defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define TRIAGE_HAVE_RDTSC 1
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

bool
no_perf_env()
{
    const char* v = std::getenv("TRIAGE_PROF_NO_PERF");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

std::uint64_t
tsc_now()
{
#if defined(TRIAGE_HAVE_RDTSC)
    return __rdtsc();
#else
    return 0;
#endif
}

/**
 * One perf_event_open group: cycles leads, the other counters are
 * siblings so all four are scheduled (and multiplexed) together. A
 * sibling that fails to open is simply absent — its column reads 0 —
 * while a leader that fails to open drops the whole group to the
 * software backend. Groups are per thread (counters follow the opening
 * thread) and reopen lazily after Profiler::reset() via a generation
 * tag, which is what lets tests force the fallback with
 * TRIAGE_PROF_NO_PERF mid-process.
 */
struct PerfGroup {
    int fd = -1;          ///< leader fd (cycles); -1 = software backend
    int slot_of[4] = {-1, -1, -1, -1}; ///< counter idx -> value position
    unsigned n_open = 0;
    bool tried = false;
    std::uint64_t gen = 0;

    bool live() const { return fd >= 0; }

    void
    close_all()
    {
#if defined(TRIAGE_HAVE_PERF_EVENT)
        for (int f : sibling_fds)
            if (f >= 0)
                ::close(f);
        sibling_fds.clear();
        if (fd >= 0)
            ::close(fd);
#endif
        fd = -1;
        n_open = 0;
        for (int& s : slot_of)
            s = -1;
        tried = false;
    }

#if defined(TRIAGE_HAVE_PERF_EVENT)
    std::vector<int> sibling_fds;

    static int
    open_one(std::uint32_t type, std::uint64_t config, int group_fd)
    {
        perf_event_attr attr{};
        attr.type = type;
        attr.size = sizeof(attr);
        attr.config = config;
        attr.disabled = group_fd < 0 ? 1 : 0;
        attr.exclude_kernel = 1;
        attr.exclude_hv = 1;
        attr.read_format = PERF_FORMAT_GROUP |
                           PERF_FORMAT_TOTAL_TIME_ENABLED |
                           PERF_FORMAT_TOTAL_TIME_RUNNING;
        return static_cast<int>(::syscall(SYS_perf_event_open, &attr, 0,
                                          -1, group_fd, 0UL));
    }
#endif

    void
    open()
    {
        tried = true;
#if defined(TRIAGE_HAVE_PERF_EVENT)
        if (no_perf_env())
            return;
        static const struct {
            std::uint32_t type;
            std::uint64_t config;
        } events[4] = {
            {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
            {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
            {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
            {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
        };
        fd = open_one(events[0].type, events[0].config, -1);
        if (fd < 0)
            return; // EPERM / ENOENT / ENOSYS: software backend
        slot_of[0] = 0;
        n_open = 1;
        for (int i = 1; i < 4; ++i) {
            int sfd = open_one(events[i].type, events[i].config, fd);
            if (sfd < 0)
                continue;
            sibling_fds.push_back(sfd);
            slot_of[i] = static_cast<int>(n_open);
            ++n_open;
        }
        ::ioctl(fd, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
        ::ioctl(fd, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
        // A four-counter group can exceed the PMU's programmable
        // budget (NMI watchdog pinning a counter, older PMUs): the
        // opens all succeed but the group is never co-scheduled, and
        // every read reports time_running == 0 with all-zero values —
        // which used to reach the stats JSON as a plausible-looking
        // "instructions_per_access": 0. Probe after enabling; if the
        // group never runs, drop the optional cache/branch siblings
        // and retry, and if even the cycles+instructions pair cannot
        // schedule, fall back to the software backend for good.
        if (!probe_scheduled() && n_open > 2) {
            drop_optional_siblings();
            ::ioctl(fd, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
            ::ioctl(fd, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
        }
        if (!probe_scheduled()) {
            close_all();
            tried = true; // stay software; don't re-probe every scope
        }
#endif
    }

#if defined(TRIAGE_HAVE_PERF_EVENT)
    /**
     * True once a read shows time_running > 0. A couple of brief spin
     * rounds give the scheduler a chance to host the group; a group
     * that stays unscheduled across them never will be (it is wider
     * than the PMU).
     */
    bool
    probe_scheduled()
    {
        std::uint64_t raw[6];
        for (int round = 0; round < 4; ++round) {
            volatile std::uint64_t sink = 0;
            for (std::uint64_t i = 0; i < 4096; ++i)
                sink = sink + i;
            if (read_raw(raw) && raw[5] > 0)
                return true;
        }
        return false;
    }

    /** Close the cache/branch-miss siblings, keeping cycles+instrs. */
    void
    drop_optional_siblings()
    {
        std::vector<int> keep;
        unsigned slot = 1;
        for (int i = 1; i < 4; ++i) {
            if (slot_of[i] < 0)
                continue;
            const int sfd =
                sibling_fds[static_cast<std::size_t>(slot_of[i] - 1)];
            if (i >= 2) {
                ::close(sfd);
                slot_of[i] = -1;
            } else {
                keep.push_back(sfd);
                slot_of[i] = static_cast<int>(slot++);
            }
        }
        sibling_fds = std::move(keep);
        n_open = slot;
    }
#endif

    /**
     * Raw group read into @p out: [v0..v3 by counter index] + enabled
     * + running, zero-filled for absent counters. Returns false when
     * the group is not live (caller falls back to the TSC).
     */
    bool
    read_raw(std::uint64_t out[6])
    {
        std::memset(out, 0, 6 * sizeof(std::uint64_t));
        if (!live())
            return false;
#if defined(TRIAGE_HAVE_PERF_EVENT)
        // nr + time_enabled + time_running + up to 4 values.
        std::uint64_t buf[3 + 4] = {};
        const ssize_t want = static_cast<ssize_t>(
            (3 + static_cast<std::size_t>(n_open)) * sizeof(std::uint64_t));
        if (::read(fd, buf, static_cast<std::size_t>(want)) != want)
            return false;
        for (int i = 0; i < 4; ++i)
            if (slot_of[i] >= 0)
                out[i] = buf[3 + slot_of[i]];
        out[4] = buf[1]; // time_enabled
        out[5] = buf[2]; // time_running
        return true;
#else
        return false;
#endif
    }
};

/**
 * Delta of two raw group reads, multiplex-scaled via multiplex_scale.
 * Returns false — leaving @p out zeroed — when the group was enabled
 * but never scheduled: those all-zero deltas are an artifact of the
 * PMU not hosting the group, not a measurement of zero work.
 */
bool
scale_delta(const std::uint64_t a[6], const std::uint64_t b[6],
            HwSample& out)
{
    out = HwSample{};
    const double scale = multiplex_scale(b[4] - a[4], b[5] - a[5]);
    if (scale == 0.0)
        return false;
    auto d = [&](int i) {
        return static_cast<std::uint64_t>(
            static_cast<double>(b[i] - a[i]) * scale);
    };
    out.cycles = d(0);
    out.instructions = d(1);
    out.llc_misses = d(2);
    out.branch_misses = d(3);
    return true;
}

/** Per-thread profiling state: the scope stack and the counter group. */
struct ThreadState {
    /** Active scopes, innermost last; entries are ProfScope addresses
     *  (for the LIFO check) paired with their names. */
    std::vector<std::pair<const void*, const char*>> stack;
    PerfGroup group;
    unsigned tid = ~0u;
    bool tid_set = false;

    ~ThreadState() { group.close_all(); }
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

double
multiplex_scale(std::uint64_t d_enabled, std::uint64_t d_running)
{
    if (d_running == 0)
        return d_enabled == 0 ? 1.0 : 0.0;
    if (d_enabled > d_running)
        return static_cast<double>(d_enabled) /
               static_cast<double>(d_running);
    return 1.0;
}

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
    ++generation_;
    backend_.store(static_cast<std::uint8_t>(Backend::Unresolved),
                   std::memory_order_relaxed);
    phases_.clear();
    counters_.clear();
    workers_.clear();
    slices_.clear();
    slices_dropped_ = 0;
}

Backend
Profiler::backend()
{
    auto b = static_cast<Backend>(backend_.load(std::memory_order_relaxed));
    if (b != Backend::Unresolved)
        return b;
    // Resolve on the calling thread: open (or reopen) its group.
    ThreadState& ts = t_state;
    std::uint64_t gen;
    {
        std::lock_guard<std::mutex> lk(mu_);
        gen = generation_;
    }
    if (!ts.group.tried || ts.group.gen != gen) {
        ts.group.close_all();
        ts.group.gen = gen;
        ts.group.open();
    }
    b = ts.group.live() ? Backend::PerfEvent : Backend::Software;
    backend_.store(static_cast<std::uint8_t>(b),
                   std::memory_order_relaxed);
    return b;
}

const char*
Profiler::backend_name(Backend b)
{
    switch (b) {
    case Backend::PerfEvent:
        return "perf_event";
    case Backend::Software:
        return "software";
    case Backend::Unresolved:
        break;
    }
    return "unresolved";
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

std::uint64_t
Profiler::slices_dropped() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return slices_dropped_;
}

void
Profiler::record_slice(const char* name, std::uint64_t start_ns,
                       std::uint64_t end_ns, const HwSample& hw,
                       bool has_hw)
{
    ThreadState& ts = t_state;
    if (!ts.tid_set) {
        ts.tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
        ts.tid_set = true;
    }
    // Aggregation path: every active scope name on this thread,
    // dot-joined, with @p name innermost (already on the stack).
    std::string path;
    for (const auto& [ptr, nm] : ts.stack) {
        if (!path.empty())
            path += '.';
        path += nm;
    }
    (void)name;

    std::lock_guard<std::mutex> lk(mu_);
    Phase& ph = phases_[path];
    ph.count += 1;
    ph.ns += end_ns - start_ns;
    if (has_hw) {
        ph.hw.cycles += hw.cycles;
        ph.hw.instructions += hw.instructions;
        ph.hw.llc_misses += hw.llc_misses;
        ph.hw.branch_misses += hw.branch_misses;
        ph.hw_samples += 1;
    }
    if (slices_.size() < slice_cap_) {
        Slice s;
        s.path = std::move(path);
        s.tid = ts.tid;
        s.start_ns = start_ns - std::min(start_ns, t0_ns_);
        s.dur_ns = end_ns - start_ns;
        s.hw = hw;
        s.has_hw = has_hw;
        slices_.push_back(std::move(s));
    } else {
        ++slices_dropped_;
    }
}

void
Profiler::write_json(std::ostream& os, int indent)
{
    const Backend b = backend();
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
    os << p1 << "\"enabled\": " << (enabled() ? "true" : "false")
       << ",\n";
    os << p1 << "\"backend\": \"" << backend_name(b) << "\",\n";
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
           << ", \"hw_samples\": " << ph.hw_samples
           << ", \"cycles\": " << ph.hw.cycles
           << ", \"instructions\": " << ph.hw.instructions
           << ", \"llc_misses\": " << ph.hw.llc_misses
           << ", \"branch_misses\": " << ph.hw.branch_misses << "}";
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
    ThreadState& ts = t_state;
    Profiler& prof = Profiler::instance();
    std::uint64_t gen;
    {
        std::lock_guard<std::mutex> lk(prof.mu_);
        gen = prof.generation_;
    }
    if (!ts.group.tried || ts.group.gen != gen) {
        ts.group.close_all();
        ts.group.gen = gen;
        ts.group.open();
        const auto b =
            ts.group.live() ? Backend::PerfEvent : Backend::Software;
        // First resolver wins; threads disagreeing (one got EPERM)
        // keeps the first answer, which is fine for reporting.
        std::uint8_t expect =
            static_cast<std::uint8_t>(Backend::Unresolved);
        prof.backend_.compare_exchange_strong(
            expect, static_cast<std::uint8_t>(b),
            std::memory_order_relaxed);
    }
    name_ = name;
    active_ = true;
    ts.stack.emplace_back(this, name);
    t0_ns_ = now_ns();
    hw_live_ = ts.group.read_raw(hw0_);
    if (!hw_live_)
        hw0_[0] = tsc_now(); // software backend: cycles from TSC
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
    HwSample hw{};
    bool has_hw = false;
    if (hw_live_) {
        std::uint64_t hw1[6];
        if (ts.group.read_raw(hw1))
            has_hw = scale_delta(hw0_, hw1, hw);
    } else {
        const std::uint64_t c1 = tsc_now();
        if (c1 > hw0_[0] && hw0_[0] != 0) {
            hw.cycles = c1 - hw0_[0];
            has_hw = true;
        }
    }
    // Record while this scope is still on the stack so the path
    // includes it, then pop.
    Profiler::instance().record_slice(name_, t0_ns_, t1, hw, has_hw);
    ts.stack.pop_back();
    active_ = false;
}

struct HwStopwatch::Impl {
    PerfGroup group;
    std::uint64_t raw0[6] = {};
    std::uint64_t tsc0 = 0;
};

HwStopwatch::HwStopwatch() : impl_(new Impl)
{
    impl_->group.open();
}

HwStopwatch::~HwStopwatch()
{
    impl_->group.close_all();
}

bool
HwStopwatch::live() const
{
    return impl_->group.live();
}

Backend
HwStopwatch::backend() const
{
    return live() ? Backend::PerfEvent : Backend::Software;
}

void
HwStopwatch::start()
{
    if (!impl_->group.read_raw(impl_->raw0))
        impl_->tsc0 = tsc_now();
}

HwSample
HwStopwatch::stop(bool* hw_valid)
{
    HwSample s;
    bool valid = false;
    if (impl_->group.live()) {
        std::uint64_t raw1[6];
        if (impl_->group.read_raw(raw1))
            valid = scale_delta(impl_->raw0, raw1, s);
    } else {
        const std::uint64_t c1 = tsc_now();
        if (impl_->tsc0 != 0 && c1 > impl_->tsc0)
            s.cycles = c1 - impl_->tsc0;
    }
    if (hw_valid != nullptr)
        *hw_valid = valid;
    return s;
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
