/**
 * @file
 * Pinned-fingerprint check: simulate() on the 12 suite guests under
 * the paper's four algorithms must reproduce the fingerprints
 * recorded in perfbench/pins/guest.pins, under per-event and batched
 * dispatch alike. Both dispatch styles run one loop, so the
 * equivalence oracles compare that loop with itself; the recorded
 * pins are what catches a change that moves every leg the same way.
 * The pin file is only read here; perfbench regenerates it.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "dynopt/dynopt_system.hpp"
#include "testing/differential.hpp"
#include "workloads/workloads.hpp"

namespace rsel {
namespace {

/** The suite's program-synthesis seed the pins were recorded at. */
constexpr std::uint64_t buildSeed = 42;
/** The executor seed checked (the first of the pinned pool). */
constexpr std::uint64_t execSeed = 7;

/** Pin key -> "<folded fingerprint> <events>". */
std::map<std::string, std::string>
loadPins()
{
    std::map<std::string, std::string> pins;
    std::ifstream in(RSEL_GUEST_PINS);
    if (!in) {
        ADD_FAILURE() << "cannot open " RSEL_GUEST_PINS;
        return pins;
    }
    std::string key;
    std::string fp;
    std::string events;
    while (in >> key >> fp >> events)
        pins[key] = fp + " " + events;
    return pins;
}

/** The pin entry of a result: folded fingerprint, events. */
std::string
pinEntry(const SimResult &result)
{
    return testing::foldedFingerprint(result) + " " +
           std::to_string(result.events);
}

void
checkSuite(Dispatch dispatch)
{
    const std::map<std::string, std::string> pins = loadPins();
    ASSERT_FALSE(pins.empty()) << "no pins read from " RSEL_GUEST_PINS;
    for (const WorkloadInfo &info : workloadSuite()) {
        const Program prog = info.build(buildSeed);
        for (const Algorithm algo : allAlgorithms) {
            SimOptions opts;
            opts.maxEvents = info.defaultEvents;
            opts.seed = execSeed;
            opts.dispatch = dispatch;
            opts.batchSize = 509; // prime: batches cut regions anywhere
            const std::string key = info.name + "/" +
                                    std::to_string(execSeed) + "/" +
                                    algorithmName(algo);
            const auto pin = pins.find(key);
            ASSERT_NE(pin, pins.end()) << "no pin for " << key;
            EXPECT_EQ(pinEntry(simulate(prog, algo, opts)), pin->second)
                << key;
        }
    }
}

TEST(PinnedFingerprintTest, BatchedMatchesPins)
{
    checkSuite(Dispatch::Batched);
}

TEST(PinnedFingerprintTest, PerEventMatchesPins)
{
    checkSuite(Dispatch::PerEvent);
}

} // namespace
} // namespace rsel
