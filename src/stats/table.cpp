#include "stats/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "util/log.hpp"

namespace triage::stats {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    TRIAGE_ASSERT(!headers_.empty());
}

void
Table::row(std::vector<std::string> cells)
{
    TRIAGE_ASSERT(cells.size() == headers_.size(), "column count mismatch");
    rows_.push_back(std::move(cells));
}

void
Table::print(std::ostream& os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i)
        widths[i] = headers_[i].size();
    for (const auto& r : rows_) {
        for (std::size_t i = 0; i < r.size(); ++i)
            widths[i] = std::max(widths[i], r[i].size());
    }
    auto emit = [&](const std::vector<std::string>& cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            os << cells[i];
            if (i + 1 < cells.size())
                os << std::string(widths[i] - cells[i].size() + 2, ' ');
        }
        os << '\n';
    };
    emit(headers_);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
    for (const auto& r : rows_)
        emit(r);
}

std::string
fmt(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::string
fmt_pct(double fraction, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%+.*f%%", decimals,
                  fraction * 100.0);
    return buf;
}

std::string
fmt_x(double ratio, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*fx", decimals, ratio);
    return buf;
}

void
banner(std::ostream& os, const std::string& title)
{
    os << "\n== " << title << " ==\n";
}

} // namespace triage::stats
