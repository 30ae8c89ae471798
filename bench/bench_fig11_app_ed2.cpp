/**
 * @file
 * Figure 11 — application energy-delay^2 and the paper's headline
 * percentages.
 *
 * The paper: "On average the NoX architecture outperforms the
 * non-speculative, Spec-Fast, and Spec-Accurate by 29.5%, 34.4%, and
 * 2.7% respectively on an energy-delay^2 basis." This bench prints
 * the same comparison for the reproduced workloads.
 */

#include <cmath>
#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "coherence/trace_generator.hpp"
#include "common/table.hpp"

int
main(int argc, char **argv)
{
    using namespace nox;

    Config config;
    config.parseArgs(argc, argv);
    bench::printHeader(
        "Figure 11: application energy-delay^2 performance", config);

    CmpParams params;
    const bool quick = config.getBool("quick", false);
    const double horizon =
        config.getDouble("horizon_ns", quick ? 8000.0 : 25000.0);
    const double warmup =
        config.getDouble("trace_warmup_ns", quick ? 20000.0 : 50000.0);
    const std::uint64_t seed = config.getUint("seed", 99);

    const auto archs = bench::archsFrom(config);
    const auto workloads = bench::workloadsFrom(config);
    const bench::Outputs out(config);
    config.requireAllUsed("bench_fig11_app_ed2");
    std::vector<std::string> headers{"workload"};
    for (RouterArch a : archs) {
        headers.push_back(std::string(archName(a)) + " ED2");
    }
    headers.push_back("NoX E/pkt[pJ]");
    Table table(headers);

    // Geometric-mean ratios vs NoX across workloads.
    std::map<RouterArch, double> log_ratio_sum;
    int workload_count = 0;

    for (const auto &name : workloads) {
        CoherenceTraceGenerator gen(params, findWorkload(name), seed);
        const Trace trace = gen.generate(horizon, warmup);

        std::map<RouterArch, AppResult> results;
        for (RouterArch arch : archs) {
            AppConfig c;
            c.arch = arch;
            results[arch] = runApplication(c, trace);
        }

        std::vector<std::string> row{name};
        for (RouterArch a : archs)
            row.push_back(Table::num(results[a].ed2, 0));
        row.push_back(
            Table::num(results.count(RouterArch::Nox)
                           ? results[RouterArch::Nox].energyPerPacketPj
                           : 0.0,
                       1));
        table.addRow(std::move(row));

        if (results.count(RouterArch::Nox)) {
            const double nox_ed2 = results[RouterArch::Nox].ed2;
            for (RouterArch a : archs) {
                if (a != RouterArch::Nox && nox_ed2 > 0.0)
                    log_ratio_sum[a] +=
                        std::log(results[a].ed2 / nox_ed2);
            }
            ++workload_count;
        }
    }

    std::cout << "--- Figure 11: average packet ED^2 [pJ*ns^2] ---\n";
    table.print(std::cout);
    bench::writeCsv(out, "fig11_app_ed2", table);

    if (workload_count > 0) {
        std::cout << "\nNoX ED^2 advantage (geomean, positive = NoX "
                     "better):\n";
        const std::map<RouterArch, double> paper{
            {RouterArch::NonSpeculative, 29.5},
            {RouterArch::SpecFast, 34.4},
            {RouterArch::SpecAccurate, 2.7}};
        for (RouterArch a : archs) {
            if (a == RouterArch::Nox)
                continue;
            const double ratio =
                std::exp(log_ratio_sum[a] / workload_count);
            std::cout << "  vs " << archName(a) << ": "
                      << Table::num((ratio - 1.0) * 100.0, 1) << "%";
            if (paper.count(a)) {
                std::cout << "   [paper: " << paper.at(a) << "%]";
            }
            std::cout << '\n';
        }
    }

    return 0;
}
