/**
 * @file
 * Figure 10 — application average packet latency (plus Table 1).
 *
 * Generates a coherence packet trace per workload with the built-in
 * 64-core CMP model (the SPLASH-2/SPEC/TPC substitution documented in
 * DESIGN.md), then replays the identical trace through request+reply
 * networks of each router architecture at its own clock frequency
 * (§5.2 methodology). Reports average network latency [ns]; total
 * latency including source queueing is available via `total=true`.
 */

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
    bench::printHeader("Figure 10: application average packet latency",
                       config);

    CmpParams params;
    std::cout << "--- Table 1: Common System Parameters ---\n";
    params.printTable(std::cout);
    std::cout << '\n';

    const bool quick = config.getBool("quick", false);
    const double horizon =
        config.getDouble("horizon_ns", quick ? 8000.0 : 25000.0);
    const double warmup =
        config.getDouble("trace_warmup_ns", quick ? 20000.0 : 50000.0);
    const bool report_total = config.getBool("total", false);
    const std::uint64_t seed = config.getUint("seed", 99);

    const auto archs = bench::archsFrom(config);
    const auto workloads = bench::workloadsFrom(config);
    const bench::Outputs out(config);
    config.requireAllUsed("bench_fig10_app_latency");
    std::vector<std::string> headers{"workload", "GB/s/node", "ctrl%"};
    for (RouterArch a : archs)
        headers.push_back(archName(a));
    Table table(headers);

    std::map<RouterArch, double> latency_sum;
    int workload_count = 0;

    for (const auto &name : workloads) {
        CoherenceTraceGenerator gen(params, findWorkload(name), seed);
        const Trace trace = gen.generate(horizon, warmup);
        const double load = trace.bytesPerNsPerNode(64, 0) +
                            trace.bytesPerNsPerNode(64, 1);
        std::size_t ctrl = 0;
        for (const auto &r : trace.records)
            ctrl += (r.sizeBytes <= 8);

        std::vector<std::string> row{
            name, Table::num(load, 2),
            Table::num(100.0 * static_cast<double>(ctrl) /
                           static_cast<double>(trace.records.size()),
                       1)};
        for (RouterArch arch : archs) {
            AppConfig c;
            c.arch = arch;
            const AppResult r = runApplication(c, trace);
            const double lat =
                report_total ? r.avgTotalLatencyNs : r.avgLatencyNs;
            row.push_back(Table::num(lat, 2));
            latency_sum[arch] += lat;
        }
        table.addRow(std::move(row));
        ++workload_count;
    }
    std::cout << "--- Figure 10: average packet "
              << (report_total ? "total" : "network")
              << " latency [ns] ---\n";
    table.print(std::cout);
    bench::writeCsv(out, "fig10_app_latency", table);

    std::cout << "\nmean over workloads: ";
    for (RouterArch a : archs) {
        std::cout << archName(a) << "="
                  << Table::num(latency_sum[a] / workload_count, 2)
                  << "ns  ";
    }
    std::cout << '\n';

    return 0;
}
