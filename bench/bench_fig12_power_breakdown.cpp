/**
 * @file
 * Figure 12 — total network dynamic power for 2 GB/s/node single-flit
 * uniform random traffic, broken into link / switch / buffer /
 * control / decode / clock components.
 *
 * Paper observations to compare against:
 *   - link power dominates, ~74% of all router power;
 *   - Spec-Accurate consumes ~4.6% more link energy but ~2.4% less
 *     switch energy than NoX, for ~2.5% more total power;
 *   - NoX decode energy is minimal;
 *   - Spec-Fast omitted (saturates below this load).
 */

#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "common/table.hpp"

int
main(int argc, char **argv)
{
    using namespace nox;

    Config config;
    config.parseArgs(argc, argv);
    bench::printHeader(
        "Figure 12: network dynamic power @ 2 GB/s/node uniform",
        config);

    const double rate = config.getDouble("rate_mbps", 2000.0);

    // The paper omits Spec-Fast here (its saturation bandwidth is
    // below the 2 GB/s/node operating point). Keep the same set
    // unless overridden.
    std::vector<RouterArch> archs;
    if (config.has("archs")) {
        archs = bench::archsFrom(config);
    } else {
        archs = {RouterArch::NonSpeculative, RouterArch::SpecAccurate,
                 RouterArch::Nox};
    }
    SyntheticConfig base;
    base.pattern = PatternKind::UniformRandom;
    base.injectionMBps = rate;
    bench::applyCommon(config, &base);
    config.requireAllUsed("bench_fig12_power_breakdown");

    Table table({"component", "NonSpec [W]", "Spec-Accurate [W]",
                 "NoX [W]"});
    std::map<RouterArch, EnergyBreakdown> breakdowns;
    std::map<RouterArch, double> power;
    std::map<RouterArch, double> window_ns;
    std::map<RouterArch, bool> saturated;

    for (RouterArch arch : archs) {
        SyntheticConfig c = base;
        c.arch = arch;
        const RunResult r = runSynthetic(c);
        breakdowns[arch] = r.energy;
        power[arch] = r.powerW;
        saturated[arch] = r.saturated;
        window_ns[arch] =
            static_cast<double>(c.measureCycles) * r.periodNs;
    }

    auto watts = [&](RouterArch a, double pj) {
        return window_ns.at(a) > 0.0 ? pj / window_ns.at(a) * 1e-3
                                     : 0.0;
    };
    auto row = [&](const char *name, auto accessor) {
        std::vector<std::string> r{name};
        for (RouterArch a : {RouterArch::NonSpeculative,
                             RouterArch::SpecAccurate,
                             RouterArch::Nox}) {
            if (!breakdowns.count(a)) {
                r.push_back("-");
                continue;
            }
            r.push_back(
                Table::num(watts(a, accessor(breakdowns.at(a))), 3));
        }
        table.addRow(std::move(r));
    };

    row("links (inter-tile)",
        [](const EnergyBreakdown &b) { return b.linkPj; });
    row("links (NIC-side)",
        [](const EnergyBreakdown &b) { return b.localPj; });
    row("input buffers",
        [](const EnergyBreakdown &b) { return b.bufferPj; });
    row("crossbar switch",
        [](const EnergyBreakdown &b) { return b.xbarPj; });
    row("arbitration+masks",
        [](const EnergyBreakdown &b) { return b.arbPj; });
    row("xor decode",
        [](const EnergyBreakdown &b) { return b.decodePj; });
    row("clock",
        [](const EnergyBreakdown &b) { return b.clockPj; });
    row("TOTAL", [](const EnergyBreakdown &b) { return b.totalPj(); });
    table.print(std::cout);

    for (RouterArch a : archs) {
        if (saturated[a])
            std::cout << "note: " << archName(a)
                      << " is saturated at this load\n";
    }

    if (breakdowns.count(RouterArch::Nox)) {
        const EnergyBreakdown &nox_b = breakdowns.at(RouterArch::Nox);
        std::cout << "\nlink share of NoX total: "
                  << Table::num(nox_b.linkFraction() * 100.0, 1)
                  << "%   [paper: ~74%]\n";
        if (breakdowns.count(RouterArch::SpecAccurate)) {
            const EnergyBreakdown &acc =
                breakdowns.at(RouterArch::SpecAccurate);
            std::cout << "Spec-Accurate vs NoX: link "
                      << Table::num(
                             (acc.linkPj / nox_b.linkPj - 1.0) * 100,
                             1)
                      << "% [paper: +4.6%], switch "
                      << Table::num(
                             (acc.xbarPj / nox_b.xbarPj - 1.0) * 100,
                             1)
                      << "% [paper: -2.4%], total power "
                      << Table::num((power[RouterArch::SpecAccurate] /
                                         power[RouterArch::Nox] -
                                     1.0) *
                                        100,
                                    1)
                      << "% [paper: +2.5%]\n";
        }
    }

    return 0;
}
