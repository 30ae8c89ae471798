/**
 * @file
 * A small network that carries every kind of snapshot state at once:
 * a 3x3 mesh with soft faults (retry buffers, fault log), kill+heal
 * churn (dead entities, pending heals), the E2E transport (window,
 * timeouts, flow filters), metrics windows, provenance spans and a
 * small trace ring. Shared by the golden-image and mutation tests.
 */

#ifndef NOX_TESTS_SNAPSHOT_FULL_STATE_NETWORK_HPP
#define NOX_TESTS_SNAPSHOT_FULL_STATE_NETWORK_HPP

#include <memory>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "routers/factory.hpp"
#include "traffic/bernoulli_source.hpp"
#include "traffic/patterns.hpp"

namespace nox {

/** A capture cycle after the first churn wave's kills (200) and
 *  before its heals (350), with transport retries armed. */
inline constexpr Cycle kFullStateMidChurn = 300;

inline std::unique_ptr<Network>
buildFullStateNetwork(RouterArch arch, SchedulingMode mode,
                      int vc_count = 1)
{
    NetworkParams params;
    params.width = 3;
    params.height = 3;
    params.schedulingMode = mode;
    params.router.vcCount = vc_count;

    FaultParams &f = params.faults;
    f.enabled = true;
    f.bitflipRate = 0.002;
    f.dropRate = 0.002;
    f.creditLossRate = 0.001;
    f.seed = 0x601DE4;
    f.e2eTransport = true;
    f.e2eTimeout = 60;
    f.churnWaves = 2;
    f.churnStart = 200;
    f.churnPeriod = 400;
    f.churnHealAfter = 150;
    f.churnLinks = 1;
    f.churnRouters = 1;

    ObsParams &obs = params.obs;
    obs.trace.enabled = true;
    obs.trace.capacity = 256;
    obs.trace.flightPath = "";
    obs.metrics.enabled = true;
    obs.metrics.interval = 64;
    obs.metrics.heatmap = false;
    obs.prov.enabled = true;

    auto net = makeNetwork(params, arch);
    static const Mesh mesh(3, 3);
    static const DestinationPattern pattern(
        PatternKind::UniformRandom, mesh, 0.2);
    Rng seeder(0x601DE5);
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        net->addSource(std::make_unique<BernoulliSource>(
            n, pattern, 0.08, 3, seeder.next()));
    }
    net->setMeasurementWindow(100, 500);
    return net;
}

} // namespace nox

#endif // NOX_TESTS_SNAPSHOT_FULL_STATE_NETWORK_HPP
