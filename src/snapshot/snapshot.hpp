/**
 * @file
 * Network-level snapshot assembly: glue between the Network's
 * serialize()/restore() and the on-disk container (file.hpp).
 *
 * Three verbs:
 *   - captureNetwork() builds a SnapshotFile with META + NETW
 *     sections;
 *   - loadSnapshotFile() reads + frame-validates a snapshot path;
 *   - restoreNetwork() cross-checks the construction fingerprint and
 *     overwrites a freshly built Network's dynamic state.
 *
 * Every failure mode — I/O, corruption, truncation, version or
 * configuration mismatch — surfaces as a SnapshotError with a
 * human-readable reason; a bad snapshot can never silently resume.
 *
 * The tools compose them through writeCheckpoint() and
 * resumeOrDie(): one checkpoint writer and one resume reader, which
 * also carry the tool's own RUNR section (its run-phase state,
 * walked like any component — see io.hpp).
 */

#ifndef NOX_SNAPSHOT_SNAPSHOT_HPP
#define NOX_SNAPSHOT_SNAPSHOT_HPP

#include <string>

#include "common/log.hpp"
#include "noc/network.hpp"
#include "snapshot/file.hpp"

namespace nox::snap {

/** Assemble a snapshot image of @p net: META (producing @p tool,
 *  cycle, construction fingerprint) followed by the complete NETW
 *  dynamic state. Call between steps only. */
SnapshotFile captureNetwork(const Network &net,
                            const std::string &tool);

/** Read and frame-validate the snapshot at @p path. Throws
 *  SnapshotError on I/O failure, corruption, truncation or an
 *  unsupported version. */
SnapshotFile loadSnapshotFile(const std::string &path);

/**
 * Restore @p net — freshly constructed with the same configuration —
 * from @p file. The META fingerprint must match net.fingerprint();
 * on success the network is bit-identical to the captured one and
 * the META record is returned (the caller resumes at meta.cycle).
 */
SnapshotMeta restoreNetwork(Network &net, const SnapshotFile &file);

/**
 * Capture @p net, append a RUNR section holding @p runner (any type
 * the archives can walk) and write the image crash-safely to @p path,
 * keeping @p keep snapshots (see writeSnapshotFileAtomic). Throws
 * SnapshotError on I/O failure.
 */
template <class Runner>
void
writeCheckpoint(const Network &net, const std::string &tool,
                const Runner &runner, const std::string &path, int keep)
{
    SnapshotFile image = captureNetwork(net, tool);
    Writer w;
    w.tag(kSectionRunner);
    w(runner);
    image.sections.push_back({kSectionRunner, w.take()});
    writeSnapshotFileAtomic(path, encodeSnapshotFile(image), keep);
}

/**
 * Restore @p net from the snapshot at @p path and, given a @p runner,
 * walk the image's RUNR section back into it. Any SnapshotError is a
 * user error: fatal "cannot resume from '<path>': <reason>", exit 1.
 */
template <class... Runner>
SnapshotMeta
resumeOrDie(Network &net, const std::string &path, Runner &...runner)
{
    static_assert(sizeof...(Runner) <= 1, "at most one RUNR state");
    try {
        const SnapshotFile file = loadSnapshotFile(path);
        const SnapshotMeta meta = restoreNetwork(net, file);
        if constexpr (sizeof...(Runner) == 1) {
            const Section &sec = file.require(kSectionRunner);
            Reader r(sec.payload.data(), sec.payload.size());
            r.tag(kSectionRunner);
            r(runner...);
            r.expectEnd();
        }
        return meta;
    } catch (const SnapshotError &e) {
        fatal("cannot resume from '", path, "': ", e.what());
    }
}

} // namespace nox::snap

#endif // NOX_SNAPSHOT_SNAPSHOT_HPP
