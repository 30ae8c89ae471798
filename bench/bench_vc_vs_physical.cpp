/**
 * @file
 * §2.8: virtual channels vs multiple physical networks.
 *
 * "Multiple works have highlighted using multiple physical channels
 * as a potentially more power efficient alternative to conventional
 * virtual channel routers [1, 17, 27, 29]."
 *
 * Compares the paper's configuration — two physical 64-bit wormhole
 * networks (request + reply) of non-speculative routers — against a
 * single physical network whose non-speculative routers carry two
 * virtual channels (same per-class buffering: 4 flits/VC). Both are
 * driven by the same coherence trace. Reported: per-class latency,
 * energy per packet, and power, quantifying the §2.8 trade-off:
 * the VC network halves link/crossbar hardware but serializes both
 * classes over one link; the physical pair burns more idle clock
 * but isolates classes completely.
 */

#include <iostream>

#include "bench_util.hpp"
#include "coherence/trace_generator.hpp"
#include "common/table.hpp"
#include "noc/network.hpp"
#include "power/energy_model.hpp"
#include "power/timing_model.hpp"
#include "routers/factory.hpp"
#include "traffic/replay_source.hpp"

namespace nox {
namespace {

struct Outcome
{
    double reqLatNs = 0.0;
    double repLatNs = 0.0;
    double netLatNs = 0.0;
    double energyPerPacketPj = 0.0;
    double powerW = 0.0;
    bool drained = true;
};

/** The paper's two-physical-network configuration. */
Outcome
runPhysicalPair(const Trace &trace, double period_ns,
                const EnergyModel &energy)
{
    Outcome out;
    EnergyEvents events;
    Cycle span = 0;
    SampleStats all;
    std::uint64_t packets = 0;
    for (std::uint8_t netid : {std::uint8_t{0}, std::uint8_t{1}}) {
        NetworkParams params;
        auto net =
            makeNetwork(params, RouterArch::NonSpeculative);
        auto src = std::make_unique<ReplaySource>(
            trace.forNetwork(netid), period_ns);
        ReplaySource *replay = src.get();
        net->addSource(std::move(src));
        Cycle guard = 0;
        while ((!replay->done() || net->packetsInFlight() > 0) &&
               guard++ < 4000000) {
            net->step();
        }
        out.drained &= (net->packetsInFlight() == 0);
        (netid == 0 ? out.reqLatNs : out.repLatNs) =
            net->stats().latency.mean() * period_ns;
        all.merge(net->stats().netLatency);
        packets += net->stats().packetsEjected;
        events.merge(net->totalEnergyEvents());
        span = std::max(span, net->now());
    }
    out.netLatNs = all.mean() * period_ns;
    out.energyPerPacketPj =
        energy.energyOf(events).totalPj() /
        static_cast<double>(packets);
    out.powerW = energy.powerW(events, period_ns, span);
    return out;
}

/** One physical network, two virtual channels. */
Outcome
runVcNetwork(const Trace &trace, double period_ns,
             const EnergyModel &energy)
{
    NetworkParams params;
    params.router.vcCount = 2;
    auto net = makeNetwork(params, RouterArch::NonSpeculative);

    // Merge both trace classes onto the single network; injectPacket
    // maps Reply to VC1.
    std::vector<TraceRecord> all = trace.records;
    std::stable_sort(all.begin(), all.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         return a.timeNs < b.timeNs;
                     });
    auto src =
        std::make_unique<ReplaySource>(std::move(all), period_ns);
    ReplaySource *replay = src.get();
    net->addSource(std::move(src));

    Outcome out;
    Cycle guard = 0;
    while ((!replay->done() || net->packetsInFlight() > 0) &&
           guard++ < 4000000) {
        net->step();
    }
    out.drained = (net->packetsInFlight() == 0);
    const NetworkStats &s = net->stats();
    out.reqLatNs =
        s.latencyByClass[static_cast<int>(TrafficClass::Request)]
            .mean() *
        period_ns;
    out.repLatNs =
        s.latencyByClass[static_cast<int>(TrafficClass::Reply)]
            .mean() *
        period_ns;
    out.netLatNs = s.netLatency.mean() * period_ns;
    const EnergyEvents events = net->totalEnergyEvents();
    out.energyPerPacketPj =
        energy.energyOf(events).totalPj() /
        static_cast<double>(s.packetsEjected);
    out.powerW = energy.powerW(events, period_ns, net->now());
    return out;
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
        "§2.8: two physical networks vs one 2-VC network "
        "(non-speculative routers)",
        config);

    const bool quick = config.getBool("quick", false);
    const double horizon =
        config.getDouble("horizon_ns", quick ? 8000.0 : 20000.0);
    const double warmup =
        config.getDouble("trace_warmup_ns", quick ? 20000.0 : 50000.0);
    const auto workloads = bench::workloadsFrom(config);
    const bench::Outputs out(config);
    config.requireAllUsed("bench_vc_vs_physical");

    const Technology tech = Technology::tsmc65();
    const PhysicalParams phys;
    const TimingModel tm(tech, phys);
    const double period =
        tm.clockPeriodNs(RouterArch::NonSpeculative);
    const EnergyModel energy(tech, RouterArch::NonSpeculative, phys);

    // Per-class columns are total latency (including source-queue
    // time): the honest signal when one class saturates its channel.
    Table t({"workload", "config", "req total [ns]",
             "reply total [ns]", "all net [ns]", "E/pkt [pJ]",
             "power [W]"});

    CmpParams params;
    for (const auto &name : workloads) {
        CoherenceTraceGenerator gen(params, findWorkload(name), 99);
        const Trace trace = gen.generate(horizon, warmup);

        const Outcome phys_pair =
            runPhysicalPair(trace, period, energy);
        const Outcome vc = runVcNetwork(trace, period, energy);

        t.addRow({name, "2 physical",
                  Table::num(phys_pair.reqLatNs, 2),
                  Table::num(phys_pair.repLatNs, 2),
                  Table::num(phys_pair.netLatNs, 2),
                  Table::num(phys_pair.energyPerPacketPj, 1),
                  Table::num(phys_pair.powerW, 3)});
        t.addRow({name, "1 net, 2 VCs", Table::num(vc.reqLatNs, 2),
                  Table::num(vc.repLatNs, 2),
                  Table::num(vc.netLatNs, 2),
                  Table::num(vc.energyPerPacketPj, 1),
                  Table::num(vc.powerW, 3)});
    }
    t.print(std::cout);
    bench::writeCsv(out, "vc_vs_physical", t);

    std::cout << "\n(the physical pair isolates classes completely "
                 "and spreads load over twice the links; the VC "
                 "network halves the wire/switch hardware but time-"
                 "multiplexes one link — §2.8's trade-off)\n";

    return 0;
}
