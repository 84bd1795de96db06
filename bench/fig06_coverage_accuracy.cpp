/**
 * @file
 * Figure 6: coverage and accuracy on the irregular SPEC subset.
 *
 * Paper: coverage 42.0% (Triage) vs 13.0% (BO) vs 4.6% (SMS);
 * accuracy 77.2% (Triage) vs 43.3% (BO) vs 39.6% (SMS). Also prints
 * timely accuracy and the late fraction (stats::avg_timeliness), which
 * the paper does not report.
 */
#include <iostream>

#include "common.hpp"

using namespace triage;
using namespace triage::bench;

int
main(int argc, char** argv)
{
    stats::banner(std::cout,
                  "Figure 6: Prefetcher coverage and accuracy "
                  "(irregular SPEC)");
    sim::MachineConfig cfg;
    SingleCoreLab lab(cfg, single_core_scale(argc, argv),
                      jobs_from_args(argc, argv));

    const std::vector<std::string> pfs = {
        "bo", "sms", "triage_512KB", "triage_1MB", "triage_dyn"};
    lab.declare_sweep(workloads::irregular_spec(), pfs);

    struct Metric {
        const char* name;
        double (*of)(const sim::RunResult&);
    };
    const Metric metrics[] = {
        {"coverage", stats::avg_coverage},
        {"accuracy", stats::avg_accuracy},
        {"timely accuracy",
         [](const sim::RunResult& r) {
             return stats::avg_timeliness(r).timely_accuracy;
         }},
        {"late fraction",
         [](const sim::RunResult& r) {
             return stats::avg_timeliness(r).late_fraction;
         }},
    };
    for (const auto& metric : metrics) {
        stats::Table t({"benchmark", "bo", "sms", "triage_512KB",
                        "triage_1MB", "triage_dyn"});
        std::vector<double> sums(pfs.size(), 0.0);
        for (const auto& b : workloads::irregular_spec()) {
            std::vector<std::string> row{b};
            for (std::size_t i = 0; i < pfs.size(); ++i) {
                const double v = metric.of(lab.run(b, pfs[i]));
                sums[i] += v;
                row.push_back(stats::fmt(v * 100, 1) + "%");
            }
            t.row(row);
        }
        std::vector<std::string> avg{"average"};
        for (double s : sums) {
            avg.push_back(
                stats::fmt(s * 100 /
                               static_cast<double>(
                                   workloads::irregular_spec().size()),
                           1) +
                "%");
        }
        t.row(avg);
        stats::banner(std::cout, std::string("Prefetcher ") + metric.name);
        t.print(std::cout);
    }

    std::cout << "\nPaper reference: coverage Triage 42.0% / BO 13.0% / "
                 "SMS 4.6%; accuracy Triage 77.2% / BO 43.3% / SMS "
                 "39.6%.\n"
              << kAccuracyDefinitions;
    return 0;
}
