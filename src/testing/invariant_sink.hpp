/**
 * @file
 * Per-event invariant checking around a DynOptSystem.
 *
 * The InvariantSink interposes between an event source (Executor or
 * TraceReplayer) and a DynOptSystem and asserts, on every event and
 * at finish(), the three invariant families of the testing
 * subsystem. Whatever the producer's batch size, it hands the system
 * one event at a time, so every check sees the system's state right
 * after that event:
 *
 *  - Transparency: the block stream the optimized system executes —
 *    interpreter steps plus code-cache steps — equals the raw
 *    architectural stream block-for-block. Checked via the system's
 *    StepTrace probe: when a block executes from the cache, the
 *    region's block at the reported position must be exactly the
 *    architectural block.
 *  - Conservation: instructions split exactly between interpreter
 *    and cache; the sink's independent event/instruction counts
 *    must equal the finished SimResult's, and the result's internal
 *    identities (SimResult::conservationError) must close.
 *  - Region legality: every region a selector emits must be
 *    CFG-legal — trace blocks form a connected path of real edges
 *    with no duplicate blocks, multi-path members are reachable
 *    from the region entry through member-only real edges — and the
 *    incoming stream itself must follow real CFG edges with
 *    consistent taken/fall-through annotations.
 *
 * Violations throw InvariantViolation naming the invariant, the
 * event index, and the offending blocks.
 */

#ifndef RSEL_TESTING_INVARIANT_SINK_HPP
#define RSEL_TESTING_INVARIANT_SINK_HPP

#include <stdexcept>
#include <string>

#include "dynopt/dynopt_system.hpp"
#include "testing/cfg_oracle.hpp"

namespace rsel {
namespace testing {

/** Thrown when a checked invariant fails. */
class InvariantViolation : public std::runtime_error
{
  public:
    explicit InvariantViolation(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** FNV-1a initial basis, the stream-hash seed. */
constexpr std::uint64_t fnvOffset = 0xcbf29ce484222325ull;

/** Fold one byte into an FNV-1a hash. */
inline std::uint64_t
fnvByte(std::uint64_t h, std::uint8_t b)
{
    return (h ^ b) * 0x100000001b3ull;
}

/** Fold one (block id, taken) event into an FNV-1a hash. */
inline std::uint64_t
fnvEvent(std::uint64_t h, BlockId id, bool taken)
{
    h = fnvByte(h, static_cast<std::uint8_t>(id));
    h = fnvByte(h, static_cast<std::uint8_t>(id >> 8));
    h = fnvByte(h, static_cast<std::uint8_t>(id >> 16));
    h = fnvByte(h, static_cast<std::uint8_t>(id >> 24));
    return fnvByte(h, taken ? 1 : 0);
}

/**
 * The checking sink. Forwards every event to the wrapped system as a
 * one-event batch and reads the system's lastStep() after each.
 */
class InvariantSink : public PerEventSink
{
  public:
    /**
     * @param prog   program being run.
     * @param system the system under test; must outlive the sink and
     *               must not receive events from elsewhere.
     */
    InvariantSink(const Program &prog, DynOptSystem &system);

    /** Check, forward, check again. @throws InvariantViolation. */
    bool onEvent(const ExecEvent &event) override;

    /**
     * Finish the wrapped system, cross-check its SimResult against
     * this sink's independent accounting, and return the result.
     * @throws InvariantViolation on any mismatch.
     */
    SimResult finish();

    /** Events observed. */
    std::uint64_t events() const { return events_; }

    /** Instructions observed (sum of block sizes). */
    std::uint64_t totalInsts() const { return insts_; }

    /** FNV-1a hash over the (block id, taken) event stream. */
    std::uint64_t streamHash() const { return hash_; }

  private:
    [[noreturn]] void violate(const std::string &invariant,
                              const std::string &detail) const;

    /** Stream legality: CFG edge + annotation consistency. */
    void checkStream(const ExecEvent &ev) const;

    /** Transparency of the system's disposition of `ev`. */
    void checkDisposition(const ExecEvent &ev);

    /** Validate regions installed since the last event. */
    void checkNewRegions();
    void checkRegion(const Region &region) const;

    const Program &prog_;
    DynOptSystem &system_;
    CfgOracle oracle_;
    /** The reused one-event batch each event is forwarded in. */
    EventBatch one_;
    const BasicBlock *prev_ = nullptr;
    bool prevHalted_ = false;
    std::uint64_t events_ = 0;
    std::uint64_t insts_ = 0;
    std::uint64_t cachedInsts_ = 0;
    std::uint64_t interpretedInsts_ = 0;
    std::uint64_t hash_ = fnvOffset;
    std::size_t checkedRegions_ = 0;
};

} // namespace testing
} // namespace rsel

#endif // RSEL_TESTING_INVARIANT_SINK_HPP
