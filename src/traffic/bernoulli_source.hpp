/**
 * @file
 * Open-loop Bernoulli packet source: the standard injection process
 * for latency-vs-load sweeps (Figure 8/9 of the paper).
 */

#ifndef NOX_TRAFFIC_BERNOULLI_SOURCE_HPP
#define NOX_TRAFFIC_BERNOULLI_SOURCE_HPP

#include "common/rng.hpp"
#include "noc/traffic_source.hpp"
#include "traffic/patterns.hpp"

namespace nox {

/**
 * Injects fixed-size packets with independent per-cycle Bernoulli
 * trials so that the offered load equals @p flits_per_cycle.
 */
class BernoulliSource : public TrafficSource
{
  public:
    /**
     * @param self this source's node
     * @param pattern destination chooser (not owned; outlives source)
     * @param flits_per_cycle offered load in flits/node/cycle
     * @param packet_flits flits per packet (the paper's synthetic
     *        traffic is single-flit)
     * @param seed private RNG seed
     */
    BernoulliSource(NodeId self, const DestinationPattern &pattern,
                    double flits_per_cycle, int packet_flits,
                    std::uint64_t seed);

    void tick(Cycle now, PacketInjector &inj) override;

    void serialize(snap::Writer &w) const override { walk(w, *this); }
    void restore(snap::Reader &r) override { walk(r, *this); }

    double offeredLoad() const { return flitsPerCycle_; }

  private:
    template <class Ar, class Self>
    static void walk(Ar &ar, Self &self);

    NodeId self_;
    const DestinationPattern &pattern_;
    double flitsPerCycle_;
    int packetFlits_;
    double packetProb_;
    Rng rng_;
};

} // namespace nox

#endif // NOX_TRAFFIC_BERNOULLI_SOURCE_HPP
