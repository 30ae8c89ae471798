/**
 * @file
 * Seeded mutation test of the snapshot reader: every single-byte
 * corruption of a NETW payload that passes the section CRC (the image
 * is re-encoded, so the CRC is fresh) must either restore or throw a
 * SnapshotError — never crash, hang, allocate without bound or escape
 * as another exception type. Run under ASan/UBSan by the sanitize
 * build, this also proves the reader never reads out of bounds or
 * trips undefined behaviour on hostile input.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "full_state_network.hpp"
#include "snapshot/snapshot.hpp"

namespace nox {
namespace {

constexpr int kMutants = 2000;
constexpr std::uint64_t kMutationSeed = 0x5A17ED;

TEST(SnapshotMutation, EverySingleByteMutantRestoresOrIsRejected)
{
    const auto make = [] {
        return buildFullStateNetwork(RouterArch::Nox,
                                     SchedulingMode::ActivityDriven);
    };
    auto donor = make();
    donor->run(kFullStateMidChurn);
    const snap::SnapshotFile image = snap::captureNetwork(*donor, "test");
    ASSERT_EQ(image.sections.at(1).tag, snap::kSectionNetwork);
    const std::vector<std::uint8_t> &payload =
        image.sections.at(1).payload;

    Rng rng(kMutationSeed);
    int rejected = 0;
    for (int m = 0; m < kMutants; ++m) {
        snap::SnapshotFile mutant = image;
        const std::size_t at = rng.nextBounded(payload.size());
        const auto flip =
            static_cast<std::uint8_t>(1 + rng.nextBounded(255));
        mutant.sections[1].payload[at] ^= flip;
        const std::vector<std::uint8_t> bytes =
            snap::encodeSnapshotFile(mutant);

        auto net = make();
        try {
            snap::restoreNetwork(
                *net, snap::decodeSnapshotFile(bytes.data(), bytes.size()));
        } catch (const snap::SnapshotError &) {
            ++rejected;
        } catch (const std::exception &e) {
            FAIL() << "mutant " << m << " (byte " << at << " ^= "
                   << int{flip} << ") escaped as a non-snapshot error: "
                   << e.what();
        }
    }
    // Both outcomes must actually occur, or the mutants are not
    // exercising the reader.
    EXPECT_GT(rejected, 0);
    EXPECT_LT(rejected, kMutants);
    std::cout << "[ mutation ] " << rejected << " of " << kMutants
              << " mutants rejected\n";
}

} // namespace
} // namespace nox
