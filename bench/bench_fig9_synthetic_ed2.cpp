/**
 * @file
 * Figure 9 — synthetic traffic energy-delay^2.
 *
 * Same sweep axes as Figure 8, but reporting the paper's ED^2 metric
 * (average packet energy [pJ] x average latency^2 [ns^2]). The paper
 * observes that the Figure-8 trends are amplified here because the
 * NoX/non-speculative routers avoid misspeculation link energy.
 */

#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"

namespace nox {
namespace {

void
runPattern(PatternKind pattern, bool self_similar,
           const std::vector<RouterArch> &archs,
           const std::vector<double> &rates,
           const SyntheticConfig &base, const bench::Outputs &out)
{
    std::cout << "--- Figure 9: "
              << (self_similar ? "selfsimilar"
                               : patternName(pattern))
              << " traffic, energy-delay^2 [pJ*ns^2] ---\n";

    std::vector<std::string> headers{"MB/s/node"};
    for (RouterArch a : archs)
        headers.push_back(archName(a));
    Table table(headers);

    for (double rate : rates) {
        std::vector<std::string> row{Table::num(rate, 0)};
        for (RouterArch arch : archs) {
            SyntheticConfig c = base;
            c.arch = arch;
            c.pattern = pattern;
            c.selfSimilar = self_similar;
            c.injectionMBps = rate;
            const RunResult r = runSynthetic(c);
            row.push_back(r.saturated ? "sat"
                                      : Table::num(r.ed2, 0));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    bench::writeCsv(out, std::string("fig9_") +
                                (self_similar ? "selfsimilar"
                                              : patternName(pattern)),
                    table);
    std::cout << '\n';
}

} // namespace
} // namespace nox

int
main(int argc, char **argv)
{
    using namespace nox;

    Config config;
    config.parseArgs(argc, argv);
    bench::printHeader(
        "Figure 9: synthetic traffic energy-delay^2 vs injection "
        "bandwidth",
        config);

    const auto archs = bench::archsFrom(config);
    const auto rates = bench::ratesFrom(config);
    const auto patterns = bench::patternsFrom(config);
    SyntheticConfig base;
    bench::applyCommon(config, &base);
    const bench::Outputs out(config);
    config.requireAllUsed("bench_fig9_synthetic_ed2");

    for (PatternKind p : patterns)
        runPattern(p, false, archs, rates, base, out);
    runPattern(PatternKind::UniformRandom, true, archs, rates, base,
               out);
    return 0;
}
