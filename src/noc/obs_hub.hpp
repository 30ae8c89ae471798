/**
 * @file
 * The Network's observer hub: the six observers and the Network state
 * only they use, built, dispatched, snapshotted and flushed in one
 * place.
 *
 * The hub lives next to Network because its end-of-step and flush
 * work reads the routers, NICs and active-set flags. It never mutates
 * simulation state, with one deliberate exception: the
 * divergence knob (NetworkParams::debugPerturbCycle) fires from the
 * end-of-step sequence, between the checkpoint and the digest stride.
 *
 * Hot-path event hooks do not go through the hub: routers, NICs, the
 * fault injector and the Network itself keep raw TraceRecorder and
 * LatencyProvenance pointers (nullptr = off), so a disabled observer
 * still costs one predictable branch per event.
 */

#ifndef NOX_NOC_OBS_HUB_HPP
#define NOX_NOC_OBS_HUB_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "obs/obs_params.hpp"

namespace nox {

class Network;

class ObsHub
{
  public:
    /** Build the observers @p params enables for @p routers routers. */
    ObsHub(const ObsParams &params, int routers);

    TraceRecorder *tracer() const { return tracer_.get(); }
    MetricsSampler *metrics() const { return metrics_.get(); }
    LatencyProvenance *provenance() const { return prov_.get(); }
    PhaseProfiler *profiler() const { return profiler_.get(); }
    RunTelemetry *telemetry() const { return telemetry_.get(); }
    DigestLedger *digest() const { return digest_.get(); }

    /** Connect to the fully wired @p net: hand the routers, NICs and
     *  fault injector their event hooks, seed the SchedWake edge flags
     *  and write the digest header (it needs the fingerprint). */
    void connect(Network &net);

    /** Arm the periodic checkpoint (see Network::installCheckpoint). */
    void installCheckpoint(Cycle interval,
                           std::function<void(Network &)> hook);

    /** Top of a step, tracing only: stamp the cycle and, under a
     *  retiring kernel, emit SchedWake for components that (re)entered
     *  the active set since the previous cycle. */
    void beginCycle(const Network &net, bool retire);

    /** True when endStep() has any work: a sampling observer, a
     *  checkpoint or the divergence knob is armed. */
    bool endStepArmed() const { return endStepArmed_; }

    /** End of a step (after ++now), each part on its due cycle only:
     *  metrics window, checkpoint hook and its telemetry note,
     *  divergence knob, digest stride, heartbeat — in that order. */
    void endStep(Network &net);

    /** End of run: close the final partial metrics window and write
     *  every configured export (see Network::finishObservability). */
    void finish(const Network &net);

    /** The observers' fingerprint fragment (trace, metrics, prov). */
    void fingerprint(std::ostream &os) const;

    /** Snapshot: the hub's bookkeeping (SchedWake edge flags, metrics
     *  window baselines), walked after the network's active flags. */
    template <class Ar, class Self>
    static void walkBookkeeping(Ar &ar, Self &self);

    /** Snapshot: the serialized observers (trace recorder, metrics
     *  sampler, provenance), walked between faults and transport. */
    template <class Ar, class Self>
    static void walkObservers(Ar &ar, Self &self);

  private:
    /** Close the metrics window ending at the network's cycle. */
    void sampleMetricsWindow(const Network &net);

    std::unique_ptr<TraceRecorder> tracer_;
    std::unique_ptr<MetricsSampler> metrics_;
    std::unique_ptr<LatencyProvenance> prov_;
    /** Self-profiler and heartbeat: per-process wall-clock observers,
     *  so deliberately neither serialized nor fingerprinted — a
     *  resumed run may toggle them freely. */
    std::unique_ptr<PhaseProfiler> profiler_;
    std::unique_ptr<RunTelemetry> telemetry_;
    /** State-digest ledger: per-run *output* about the trajectory,
     *  not simulation state — neither serialized nor fingerprinted,
     *  so a bisection re-run may restore a digest-off checkpoint
     *  into a digest-on network. */
    std::unique_ptr<DigestLedger> digest_;

    /** Per-router counter values at the last closed metrics window
     *  (to form window deltas of the monotonic counters). */
    std::vector<std::uint64_t> lastLinkFlits_;
    std::vector<std::uint64_t> lastCollisions_;

    /** Previous-cycle active flags (SchedWake edge detection; only
     *  maintained when tracing a retiring kernel). */
    std::vector<std::uint8_t> prevRouterActive_;
    std::vector<std::uint8_t> prevNicActive_;

    /** Periodic checkpoint trigger (0 = disabled). */
    Cycle checkpointInterval_ = 0;
    std::function<void(Network &)> checkpointHook_;

    bool endStepArmed_ = false;
};

} // namespace nox

#endif // NOX_NOC_OBS_HUB_HPP
