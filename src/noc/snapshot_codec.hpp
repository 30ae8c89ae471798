/**
 * @file
 * Snapshot walks for the small value types shared across the NoC
 * layer: flits, FIFOs, energy counters and the aggregate statistics
 * blocks. Each is one function template visited by both archives
 * (see snapshot/io.hpp), so `ar(flit)` inside any component's walk
 * writes or restores it with one field list.
 */

#ifndef NOX_NOC_SNAPSHOT_CODEC_HPP
#define NOX_NOC_SNAPSHOT_CODEC_HPP

#include "noc/energy_events.hpp"
#include "noc/fifo.hpp"
#include "noc/flit.hpp"
#include "noc/network_stats.hpp"
#include "snapshot/io.hpp"

namespace nox::snap {

template <class Ar>
void
walk(Ar &ar, Field<Ar, FlitDesc> &d)
{
    ar(d.uid, d.packet, d.seq, d.packetSize, d.src, d.dest, d.payload,
       d.createCycle, d.injectCycle);
    ar.enumeration(d.cls, TrafficClass::Reply);
    ar(d.vc, d.flowSeq);
}

template <class Ar>
void
walk(Ar &ar, Field<Ar, WireFlit> &f)
{
    ar(f.payload, f.encoded, f.vc, f.crc);
    const std::size_t n = ar.count(f.parts.size());
    if constexpr (Ar::kReading) {
        for (std::size_t i = 0; i < n; ++i) {
            FlitDesc d;
            ar(d);
            f.parts.push_back(d);
        }
    } else {
        for (const FlitDesc &d : f.parts)
            ar(d);
    }
}

/** Capacity is construction geometry, checked on read. The restored
 *  FIFO holds the same flits in the same order (physical head
 *  position is irrelevant to behaviour). */
template <class Ar>
void
walk(Ar &ar, Field<Ar, FlitFifo> &f)
{
    ar.expect(std::uint64_t{f.capacity()},
              "FIFO capacity mismatch (wrong geometry)");
    const std::size_t n = ar.count(f.size());
    if constexpr (Ar::kReading) {
        ar.check(n <= f.capacity(), "FIFO occupancy exceeds capacity");
        while (!f.empty())
            f.pop();
        for (std::size_t i = 0; i < n; ++i) {
            WireFlit w;
            ar(w);
            f.push(std::move(w));
        }
    } else {
        for (std::size_t i = 0; i < n; ++i)
            ar(f.at(i));
    }
}

template <class Ar>
void
walk(Ar &ar, Field<Ar, EnergyEvents> &e)
{
    ar(e.bufferWrites, e.bufferReads, e.xbarInputDrives,
       e.xbarOutputCycles, e.linkFlits, e.linkWastedCycles,
       e.localLinkFlits, e.localLinkWasted, e.arbDecisions,
       e.allocEvals, e.decodeOps, e.decodeLatches, e.maskUpdates,
       e.abortCycles, e.misspecCycles, e.cycles);
}

template <class Ar>
void
walk(Ar &ar, Field<Ar, FaultStats> &s)
{
    ar(s.faultsInjected, s.bitflipsInjected, s.dropsInjected,
       s.creditsLostInjected, s.faultsDetected, s.retransmissions,
       s.creditResyncs, s.corruptedEscapes, s.decodeMismatches,
       s.hardLinkFaults, s.hardRouterFaults, s.tableRebuilds,
       s.flitsLostHard, s.packetsLostHard, s.e2eRetransmits,
       s.dupSuppressed, s.deliveryFailures, s.linkHeals, s.routerHeals,
       s.unreachableRejected, s.flowReorders, s.ageAlarms);
}

template <class Ar>
void
walk(Ar &ar, Field<Ar, NetworkStats> &s)
{
    ar.tag(fourcc("STAT"));
    ar(s.packetsInjected, s.flitsInjected, s.packetsEjected,
       s.flitsEjected, s.measureStart, s.measureEnd, s.latency,
       s.netLatency, s.latencyHist, s.latencyByClass);
    ar(s.packetsMeasured, s.packetsMeasuredDone, s.flitsEjectedInWindow,
       s.flitsCreatedInWindow, s.maxSourceQueueFlits, s.faults);
}

} // namespace nox::snap

#endif // NOX_NOC_SNAPSHOT_CODEC_HPP
