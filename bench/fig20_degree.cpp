/**
 * @file
 * Figure 20: sensitivity to prefetch degree (1-16) — speedup and
 * accuracy for BO, SMS, and Triage on the irregular SPEC subset.
 *
 * Paper: Triage grows from +23.5% (degree 1) to +36.2% (degree 8) and
 * saturates; BO reaches only +11.1% at degree 8 with 21.5% accuracy vs
 * Triage's 50.5%. Also prints timely accuracy and the late fraction
 * (stats::avg_timeliness), which the paper does not report.
 */
#include <iostream>

#include "common.hpp"

using namespace triage;
using namespace triage::bench;

int
main(int argc, char** argv)
{
    stats::banner(std::cout, "Figure 20: Sensitivity to prefetch degree");
    sim::MachineConfig cfg;
    SingleCoreLab lab(cfg, single_core_scale(argc, argv),
                      jobs_from_args(argc, argv));
    const auto& benches = workloads::irregular_spec();
    lab.declare_sweep(benches, {"bo", "sms", "triage_1MB"},
                      {1, 2, 4, 8, 16});

    const std::vector<std::string> cols = {"degree", "bo", "sms",
                                           "triage_1MB"};
    stats::Table sp(cols), acc(cols), timely(cols), late(cols);
    const auto pct = [&](double sum) {
        return stats::fmt(sum * 100 / static_cast<double>(benches.size()),
                          1) +
               "%";
    };
    for (std::uint32_t degree : {1u, 2u, 4u, 8u, 16u}) {
        std::vector<std::string> sp_row{std::to_string(degree)};
        std::vector<std::string> acc_row = sp_row, timely_row = sp_row,
                                 late_row = sp_row;
        for (const std::string pf : {"bo", "sms", "triage_1MB"}) {
            sp_row.push_back(stats::fmt_x(
                lab.geomean_speedup(benches, pf, degree)));
            double a = 0, ta = 0, lf = 0;
            for (const auto& b : benches) {
                const auto& r = lab.run(b, pf, degree);
                a += stats::avg_accuracy(r);
                const auto t = stats::avg_timeliness(r);
                ta += t.timely_accuracy;
                lf += t.late_fraction;
            }
            acc_row.push_back(pct(a));
            timely_row.push_back(pct(ta));
            late_row.push_back(pct(lf));
        }
        sp.row(sp_row);
        acc.row(acc_row);
        timely.row(timely_row);
        late.row(late_row);
    }
    stats::banner(std::cout, "Speedup");
    sp.print(std::cout);
    stats::banner(std::cout, "Accuracy");
    acc.print(std::cout);
    stats::banner(std::cout, "Timely accuracy");
    timely.print(std::cout);
    stats::banner(std::cout, "Late fraction");
    late.print(std::cout);
    std::cout << kAccuracyDefinitions;

    std::cout << "\n";
    paper_vs_measured(
        "Triage degree 1 -> 8", "+23.5% -> +36.2% (saturating)",
        stats::fmt_pct(lab.geomean_speedup(benches, "triage_1MB", 1) -
                       1) +
            " -> " +
            stats::fmt_pct(
                lab.geomean_speedup(benches, "triage_1MB", 8) - 1));
    std::cout << "Shape check: Triage stays far more accurate than BO "
                 "as degree grows.\n";
    return 0;
}
