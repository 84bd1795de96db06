#include "stats/metrics.hpp"

#include <cmath>
#include <limits>

#include "util/log.hpp"

namespace triage::stats {

double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return 1.0;
    // Non-positive or non-finite entries (a hung baseline's 0 IPC, a
    // 0/0 ratio) would poison every other value via log(); skip them,
    // but never silently — a dropped entry changes the mean's meaning.
    double log_sum = 0;
    std::size_t n = 0;
    for (double v : values) {
        if (!std::isfinite(v) || v <= 0.0)
            continue;
        log_sum += std::log(v);
        ++n;
    }
    if (n < values.size()) {
        TRIAGE_LOG_WARN("geomean: skipped ", values.size() - n,
                        " non-positive/non-finite of ", values.size(),
                        " entries");
    }
    if (n == 0)
        return 1.0;
    return std::exp(log_sum / static_cast<double>(n));
}

double
speedup(const sim::RunResult& with_pf, const sim::RunResult& baseline)
{
    TRIAGE_ASSERT(with_pf.per_core.size() == baseline.per_core.size());
    std::vector<double> ratios;
    ratios.reserve(with_pf.per_core.size());
    for (std::size_t c = 0; c < with_pf.per_core.size(); ++c) {
        double base_ipc = baseline.per_core[c].ipc();
        double pf_ipc = with_pf.per_core[c].ipc();
        if (base_ipc == 0.0) {
            // No meaningful ratio; geomean() skips the non-finite
            // placeholder rather than returning inf.
            util::warn(util::format_msg(
                "speedup: core ", c,
                " baseline IPC is zero; core excluded from geomean"));
            ratios.push_back(std::numeric_limits<double>::infinity());
        } else if (pf_ipc == 0.0) {
            // A core that retired nothing WITH prefetching enabled is
            // almost certainly a broken/hung prefetcher run, not a
            // slow one. The zero ratio is excluded from the geomean
            // (log(0) would poison it), so shout: the reported speedup
            // overstates reality.
            util::warn(util::format_msg(
                "speedup: core ", c,
                " IPC is zero with prefetching enabled (hung run?); "
                "core excluded from geomean — result overstated"));
            ratios.push_back(0.0);
        } else {
            ratios.push_back(pf_ipc / base_ipc);
        }
    }
    return geomean(ratios);
}

std::uint64_t
total_traffic(const sim::RunResult& r)
{
    return r.traffic.total();
}

double
traffic_overhead(const sim::RunResult& with_pf,
                 const sim::RunResult& baseline)
{
    double base = static_cast<double>(total_traffic(baseline));
    if (base == 0)
        return 0;
    return (static_cast<double>(total_traffic(with_pf)) - base) / base;
}

double
miss_reduction(const sim::RunResult& with_pf,
               const sim::RunResult& baseline)
{
    std::uint64_t base = 0;
    std::uint64_t pf = 0;
    for (const auto& c : baseline.per_core)
        base += c.l2.demand_misses;
    for (const auto& c : with_pf.per_core)
        pf += c.l2.demand_misses;
    if (base == 0)
        return 0;
    return (static_cast<double>(base) - static_cast<double>(pf)) /
           static_cast<double>(base);
}

double
avg_coverage(const sim::RunResult& r)
{
    if (r.per_core.empty())
        return 0.0;
    double sum = 0;
    for (const auto& c : r.per_core)
        sum += c.coverage();
    return sum / static_cast<double>(r.per_core.size());
}

double
avg_accuracy(const sim::RunResult& r)
{
    if (r.per_core.empty())
        return 0.0;
    double sum = 0;
    for (const auto& c : r.per_core)
        sum += c.accuracy();
    return sum / static_cast<double>(r.per_core.size());
}

Timeliness
avg_timeliness(const sim::RunResult& r)
{
    Timeliness t;
    if (r.per_core.empty())
        return t;
    for (const auto& c : r.per_core) {
        const auto& pf = c.l2pf;
        if (pf.issued() != 0)
            t.timely_accuracy += static_cast<double>(pf.useful - pf.late) /
                                 static_cast<double>(pf.issued());
        if (pf.useful != 0)
            t.late_fraction += static_cast<double>(pf.late) /
                               static_cast<double>(pf.useful);
    }
    const auto n = static_cast<double>(r.per_core.size());
    t.timely_accuracy /= n;
    t.late_fraction /= n;
    return t;
}

} // namespace triage::stats
