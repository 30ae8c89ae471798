#include "noc/obs_hub.hpp"

#include "noc/network.hpp"
#include "noc/snapshot_codec.hpp"

namespace nox {

ObsHub::ObsHub(const ObsParams &params, int routers)
{
    // The recorder, sampler and provenance are passive observers —
    // they read committed state and counters but never mutate router,
    // NIC, RNG or stats state, so enabling them cannot change a run.
    // The profiler reads only the host clock and the heartbeat reads
    // committed counters (observer-effect tested like the rest).
    const auto nr = static_cast<std::size_t>(routers);
    if (params.trace.enabled)
        tracer_ = std::make_unique<TraceRecorder>(params.trace);
    if (params.metrics.enabled) {
        metrics_ = std::make_unique<MetricsSampler>(params.metrics,
                                                    routers);
        lastLinkFlits_.assign(nr, 0);
        lastCollisions_.assign(nr, 0);
    }
    if (params.prov.enabled)
        prov_ = std::make_unique<LatencyProvenance>(params.prov);
    if (params.profile.enabled)
        profiler_ = std::make_unique<PhaseProfiler>(params.profile,
                                                    routers);
    if (params.telemetry.enabled)
        telemetry_ = std::make_unique<RunTelemetry>(params.telemetry);
    if (params.digest.enabled)
        digest_ = std::make_unique<DigestLedger>(params.digest);
    endStepArmed_ = metrics_ || telemetry_ || digest_;
}

void
ObsHub::connect(Network &net)
{
    for (auto &r : net.routers_)
        r->attachObservers(tracer_.get(), prov_.get());
    for (auto &nic : net.nics_)
        nic->attachObservers(tracer_.get(), prov_.get());
    if (net.faults_)
        net.faults_->attachTracer(tracer_.get());
    if (tracer_) {
        prevRouterActive_ = net.routerActive_;
        prevNicActive_ = net.nicActive_;
    }
    if (digest_)
        digest_->writeHeader(net.fingerprint());
    if (net.params_.debugPerturbCycle != 0)
        endStepArmed_ = true;
}

void
ObsHub::installCheckpoint(Cycle interval,
                          std::function<void(Network &)> hook)
{
    NOX_ASSERT(interval > 0, "checkpoint interval must be positive");
    checkpointInterval_ = interval;
    checkpointHook_ = std::move(hook);
    endStepArmed_ = true;
}

void
ObsHub::beginCycle(const Network &net, bool retire)
{
    tracer_->beginCycle(net.now_);
    if (!retire)
        return;
    // A component whose flag went 0 -> 1 since the last cycle's edge
    // scan was woken by some staging (or fresh traffic); record the
    // edge against the cycle it first gets evaluated as active.
    for (NodeId r = 0; r < net.numRouters(); ++r) {
        if (net.routerActive_[r] && !prevRouterActive_[r])
            tracer_->record(TraceEventKind::SchedWake, r, -1, 0);
        prevRouterActive_[r] = net.routerActive_[r];
    }
    for (NodeId n = 0; n < net.numNodes(); ++n) {
        if (net.nicActive_[n] && !prevNicActive_[n])
            tracer_->record(TraceEventKind::SchedWake, n, -1, 0, 0,
                            true);
        prevNicActive_[n] = net.nicActive_[n];
    }
}

void
ObsHub::endStep(Network &net)
{
    PhaseProfiler *const prof = profiler_.get();
    const Cycle now = net.now_;
    if (metrics_ && metrics_->windowEnds(now)) {
        ProfScope ps(prof, SimPhase::ObsFlush);
        sampleMetricsWindow(net);
    }
    if (checkpointInterval_ != 0 && now % checkpointInterval_ == 0 &&
        checkpointHook_) {
        ProfScope ps(prof, SimPhase::Checkpoint);
        checkpointHook_(net);
        if (telemetry_)
            telemetry_->noteCheckpoint(now);
    }

    // Deliberate-divergence knob (test/debug only): fires after the
    // kernel committed the step ending at now, before the digest
    // stride below — so the first differing stride carries exactly
    // this cycle (see NetworkParams::debugPerturbCycle).
    const NetworkParams &p = net.params_;
    if (p.debugPerturbCycle != 0 && now == p.debugPerturbCycle)
        net.router(p.debugPerturbRouter).debugPerturb();

    if (digest_ && digest_->due(now)) {
        ProfScope ps(prof, SimPhase::ObsFlush);
        digest_->record(net.computeDigestStride(digest_->scratch()));
    }
    if (telemetry_ && telemetry_->due(now)) {
        ProfScope ps(prof, SimPhase::ObsFlush);
        TelemetrySample s = net.telemetrySample();
        s.checkpointAge = telemetry_->checkpointAge(now);
        telemetry_->beat(s);
    }
}

void
ObsHub::sampleMetricsWindow(const Network &net)
{
    std::vector<RouterWindowSample> samples;
    samples.reserve(net.routers_.size());
    for (NodeId r = 0; r < net.numRouters(); ++r) {
        const Router &router = net.router(r);
        RouterWindowSample s;
        s.bufferedFlits = router.bufferedFlits();
        const std::uint64_t link = router.energy().linkFlits;
        const std::uint64_t coll = router.xorCollisions();
        s.linkFlits =
            static_cast<std::uint32_t>(link - lastLinkFlits_[r]);
        s.xorCollisions =
            static_cast<std::uint32_t>(coll - lastCollisions_[r]);
        lastLinkFlits_[r] = link;
        lastCollisions_[r] = coll;
        s.retryPending = router.retryPending();
        s.active = net.routerActive_[r] != 0;
        samples.push_back(s);
    }
    metrics_->recordWindow(net.now_, std::move(samples),
                           net.activeRouters(), net.activeNics());
}

void
ObsHub::finish(const Network &net)
{
    const NetworkParams &p = net.params_;
    if (metrics_) {
        if (metrics_->openWindowDirty(net.now_))
            sampleMetricsWindow(net);
        if (!metrics_->params().jsonlPath.empty())
            metrics_->writeJsonl(metrics_->params().jsonlPath);
    }
    if (tracer_ && !tracer_->params().chromePath.empty()) {
        tracer_->writeChromeTrace(tracer_->params().chromePath, p.width,
                                  p.concentration);
    }
    // End-of-run flight dump: a deterministic input for offline
    // timeline reconstruction (trace_tool analyze) even when no
    // failure trigger fired during the run.
    if (tracer_ && tracer_->params().flightOnExit &&
        !tracer_->flightDumped())
        tracer_->triggerFlightDump("end-of-run", {});
    if (prov_ && !prov_->params().jsonlPath.empty())
        prov_->writeJsonl(prov_->params().jsonlPath);
    if (profiler_) {
        // Derived work counters come from the routers' monotonic
        // energy-event counters — free on the hot path, exact here.
        for (NodeId r = 0; r < net.numRouters(); ++r) {
            const EnergyEvents &e = net.router(r).energy();
            profiler_->recordRouterWork(
                r, e.linkFlits + e.localLinkFlits, e.arbDecisions);
        }
        if (!profiler_->params().jsonlPath.empty()) {
            profiler_->writeJsonl(
                profiler_->params().jsonlPath,
                {p.width, p.height, archName(net.router(0).arch()),
                 schedulingModeName(p.schedulingMode)});
        }
    }
}

void
ObsHub::fingerprint(std::ostream &os) const
{
    os << " trace=" << (tracer_ ? 1 : 0);
    if (tracer_)
        os << "/" << tracer_->params().capacity;
    os << " metrics=" << (metrics_ ? 1 : 0);
    if (metrics_)
        os << "/" << metrics_->params().interval;
    os << " prov=" << (prov_ ? 1 : 0);
}

template <class Ar, class Self>
void
ObsHub::walkBookkeeping(Ar &ar, Self &self)
{
    const auto flags = [&ar](auto &v) {
        for (auto &f : v)
            snap::as<bool>(ar, f);
    };
    ar.expect(!self.prevRouterActive_.empty(),
              "trace-activity state presence mismatch (wrong config)");
    flags(self.prevRouterActive_);
    flags(self.prevNicActive_);
    ar.expect(!self.lastLinkFlits_.empty(),
              "metrics window-counter presence mismatch (wrong config)");
    for (auto &v : self.lastLinkFlits_)
        ar(v);
    for (auto &v : self.lastCollisions_)
        ar(v);
}

template <class Ar, class Self>
void
ObsHub::walkObservers(Ar &ar, Self &self)
{
    const auto optional = [&ar](auto &component, const char *why) {
        ar.expect(component != nullptr, why);
        if (component)
            ar(*component);
    };
    optional(self.tracer_,
             "trace recorder presence mismatch (wrong config)");
    optional(self.metrics_,
             "metrics sampler presence mismatch (wrong config)");
    optional(self.prov_, "provenance presence mismatch (wrong config)");
}

template void ObsHub::walkBookkeeping(snap::Writer &, const ObsHub &);
template void ObsHub::walkBookkeeping(snap::Reader &, ObsHub &);
template void ObsHub::walkObservers(snap::Writer &, const ObsHub &);
template void ObsHub::walkObservers(snap::Reader &, ObsHub &);

} // namespace nox
