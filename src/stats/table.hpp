/**
 * @file
 * Aligned plain-text table printer for bench output, plus small
 * number-formatting helpers so every figure harness reports the same
 * way (paper value vs measured value).
 */
#ifndef TRIAGE_STATS_TABLE_HPP
#define TRIAGE_STATS_TABLE_HPP

#include <iosfwd>
#include <string>
#include <vector>

namespace triage::stats {

/** Simple column-aligned table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append a row (must match the header count). */
    void row(std::vector<std::string> cells);

    void print(std::ostream& os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** "1.235" with @p decimals places. */
std::string fmt(double v, int decimals = 3);

/** "+23.5%" (signed percentage). */
std::string fmt_pct(double fraction, int decimals = 1);

/** "1.23x" speedup notation. */
std::string fmt_x(double ratio, int decimals = 3);

/** Print a section banner ("== Figure 5: ... =="). */
void banner(std::ostream& os, const std::string& title);

} // namespace triage::stats

#endif // TRIAGE_STATS_TABLE_HPP
