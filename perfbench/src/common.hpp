/**
 * @file
 * Shared pieces of the rselect benchmark: clocks, the in-memory span
 * recorder, the forwarding selector and counting cache listener that
 * attribute time and work to layers from outside the library, the
 * pinned-fingerprint store, and the result line.
 *
 * The benchmark drives the library only through its public calls.
 * Every span and counter is taken at the benchmark's own call
 * boundaries (rep -> cell or runService -> batch), never inside the
 * program.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dynopt/dynopt_system.hpp"
#include "runtime/code_cache.hpp"
#include "selection/selector.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds between two steady-clock readings. */
inline std::int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** Seconds between two steady-clock readings. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** CPU time consumed by every thread of this process, in seconds. */
double processCpuSeconds();

/**
 * Peak resident set size of this process so far (VmHWM), in MiB.
 * The workloads read it once, after set-up and warm-up: a fixed
 * amount of work, so the figure does not creep with the number of
 * timed repetitions that fit in a run (the allocator's retained
 * memory grows slowly across repeated service runs).
 */
double peakRssMb();

/**
 * Set-ups timed back to back before each timed repetition; setup_s
 * is their median. All but the first find their data in cache, so
 * the median moves less with the host's memory load than one cold
 * set-up per repetition did (0.47 against 0.70 ms on a quiet and a
 * busy host).
 */
constexpr int setupRepeats = 5;

/** Median of `values`. @pre non-empty. */
double median(std::vector<double> values);

/** Fold a SimResult's fingerprint (FNV-1a 64) into 16 hex digits. */
std::string foldedFingerprint(const rsel::SimResult &result);

/** What one invocation of the benchmark was asked to do. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Directory holding guest.pins and fleet.pins. */
    std::string pinsDir;
    /** Where a traced run writes its spans (empty: keep in memory). */
    std::string spansPath;
};

/**
 * Pinned outputs: key -> "<folded fingerprint> <events>". Recorded
 * once per commit by --write-pins; every run compares against them.
 */
class Pins
{
  public:
    /** Load `path`. @throws rsel::FatalError if it cannot be read. */
    static Pins load(const std::string &path);

    /** Write `entries` sorted by key, one per line. */
    static void save(const std::string &path,
                     const std::map<std::string, std::string> &entries);

    /**
     * Compare `result` with the pin for `key`.
     * @return empty when they agree, else what differs.
     */
    std::string check(const std::string &key,
                      const rsel::SimResult &result) const;

    /** The pinned entry value for a result. */
    static std::string entryFor(const rsel::SimResult &result);

  private:
    std::map<std::string, std::string> entries_;
};

/**
 * Failure accounting: one operation is one guest x selector cell or
 * one tenant. The first failures print to stderr with their cause.
 */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one operation; `error` empty means it succeeded. */
    void record(const std::string &what, const std::string &error);
};

/**
 * Run one operation. @return what `op` returns (empty for success),
 * or the exception it threw, described.
 */
template <typename Op>
std::string
guarded(Op &&op)
{
    try {
        return op();
    } catch (const std::exception &e) {
        return std::string("exception: ") + e.what();
    }
}

/**
 * Check one finished run: pinned fingerprint, conservation
 * identities and the event count the driving loop delivered.
 * @return empty when all hold, else the first failure.
 */
std::string checkRun(const Pins &pins, const std::string &key,
                     const rsel::SimResult &result,
                     std::uint64_t deliveredEvents);

/**
 * In-memory span recorder. A span is a named interval with the
 * index of the span that caused it (-1 for a root).
 */
class Tracer
{
  public:
    struct Span
    {
        std::uint16_t name;
        std::int32_t parent;
        std::int64_t startNs;
        std::int64_t endNs;
    };

    /** Record a finished span. @return its index. */
    std::int32_t add(const char *name, std::int32_t parent,
                     Clock::time_point start, Clock::time_point end);

    /** Open a span whose end is set later by close(). */
    std::int32_t open(const char *name, std::int32_t parent);

    /** Close a span opened by open(). */
    void close(std::int32_t index);

    /** Write every span as TSV (index, parent, name, start, end). */
    void write(const std::string &path) const;

  private:
    std::uint16_t intern(const char *name);

    Clock::time_point origin_ = Clock::now();
    std::vector<std::string> names_;
    std::vector<Span> spans_;
};

/** Work and time counted by TimedSelector. */
struct SelectorCounters
{
    std::uint64_t calls = 0;
    std::uint64_t regions = 0;
    std::int64_t ns = 0;
};

/**
 * A forwarding RegionSelector, installed with useCustom, that times
 * every call into the wrapped selector and counts the regions it
 * returns. Every answer is the inner selector's, so results are
 * byte-identical to running the inner selector directly.
 */
class TimedSelector final : public rsel::RegionSelector
{
  public:
    TimedSelector(std::unique_ptr<rsel::RegionSelector> inner,
                  SelectorCounters &counters)
        : inner_(std::move(inner)), counters_(counters)
    {}

    std::optional<rsel::RegionSpec>
    onInterpreted(const rsel::SelectorEvent &event) override;
    std::optional<rsel::RegionSpec>
    onCacheEnter(const rsel::BasicBlock &entry) override;
    void onCacheDisruption(rsel::CacheDisruption kind) override
    {
        inner_->onCacheDisruption(kind);
    }
    std::size_t maxLiveCounters() const override
    {
        return inner_->maxLiveCounters();
    }
    std::uint64_t peakObservedTraceBytes() const override
    {
        return inner_->peakObservedTraceBytes();
    }
    std::uint64_t markSweepRegions() const override
    {
        return inner_->markSweepRegions();
    }
    std::uint64_t markSweepMultiIterRegions() const override
    {
        return inner_->markSweepMultiIterRegions();
    }
    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<rsel::RegionSelector> inner_;
    SelectorCounters &counters_;
};

/**
 * The selector attachAlgorithm() would attach for `algo` under
 * `opts`, built for wrapping in a TimedSelector. The pinned
 * fingerprints catch any drift from attachAlgorithm's mapping.
 */
std::unique_ptr<rsel::RegionSelector>
makeSelector(rsel::Algorithm algo, const rsel::Program &prog,
             const rsel::CodeCache &cache, const rsel::SimOptions &opts);

/** Counts code-cache structural mutations (CodeCache::Listener). */
class CountingListener final : public rsel::CodeCache::Listener
{
  public:
    std::uint64_t inserts = 0;
    std::uint64_t drops = 0;

    void onRegionInserted(const rsel::Region &, std::uint64_t) override
    {
        ++inserts;
    }
    void onRegionDropped(const rsel::Region &, std::uint64_t,
                         rsel::CodeCache::DropReason) override
    {
        ++drops;
    }
};

/**
 * What the traced loop measured over one repetition. Times are
 * summed over the spans of that name; counts are summed over the
 * runs of the repetition.
 */
struct LayerSums
{
    std::int64_t buildNs = 0;
    std::int64_t fillNs = 0;
    std::int64_t dispatchNs = 0;
    std::int64_t finishNs = 0;
    SelectorCounters selector;
    CountingListener listener;
    std::uint64_t events = 0;
    std::uint64_t transitions = 0;
    std::uint64_t regenerations = 0;
    std::uint64_t cachedInsts = 0;
    std::uint64_t totalInsts = 0;
};

/**
 * Attach `algo` to `sys`. Untraced (`sums` null) this is exactly
 * attachAlgorithm(); traced, the selector is wrapped in a
 * TimedSelector and a CountingListener observes the cache.
 */
void attachSelector(rsel::DynOptSystem &sys, rsel::Algorithm algo,
                    const rsel::SimOptions &opts, LayerSums *sums);

/** The outcome of one driven run. */
struct Driven
{
    rsel::SimResult result;
    /** Events the loop delivered to the system. */
    std::uint64_t events = 0;
};

/**
 * The split fillBatch -> onBatch loop: deliver up to `budget` events
 * of `exec` to `sys` in batches of `batchEvents`, then finish(). It
 * gives the same results as simulate() and soloTenantRun(). With
 * `sums` set, each batch records a fill and a dispatch span under
 * `parent`, and finish() a finish span.
 */
Driven drive(rsel::Executor &exec, rsel::DynOptSystem &sys,
             std::uint64_t budget, std::size_t batchEvents,
             LayerSums *sums, Tracer *tracer, std::int32_t parent);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What a workload run reports. */
struct Outcome
{
    Tally tally;
    std::vector<Metric> metrics;
};

/**
 * The per-layer metrics every traced run reports, in order, with
 * their units. A workload fills the ones that apply to it; the rest
 * stay 0 and print as "n/a" in the human-readable table.
 */
class LayerTable
{
  public:
    LayerTable();

    /** Set a metric. @pre `name` is one of the table's metrics. */
    void set(const std::string &name, double value);

    /** Append every metric, in table order, to `out`. */
    void appendTo(Outcome &out) const;

    /**
     * Set the metrics the traced loop measures: the median over
     * `reps` of each repetition's value.
     */
    void setFromLoop(const std::vector<LayerSums> &reps);

    /** Print "name value unit" rows ("n/a" for unset ones). */
    void print() const;

  private:
    struct Row
    {
        std::string name;
        std::string unit;
        double value = 0;
        bool set = false;
    };
    std::vector<Row> rows_;
};

/** Print the host/compiler/build stamp line. */
void printStamp(const Options &opts, const std::string &commit,
                std::size_t jobs);

/** Print the result as the final stdout line (one JSON object). */
void printResult(const Outcome &outcome);

/** The guest workloads ("guest-trace", "guest-combined"). */
Outcome runGuest(const Options &opts, bool combined);

/** The multi-tenant service workload ("service-fleet"). */
Outcome runFleet(const Options &opts);

/** Pool workers the service workload runs with. */
std::size_t fleetJobs();

/** Record guest.pins / fleet.pins under `dir`. */
void writeGuestPins(const std::string &dir);
void writeFleetPins(const std::string &dir);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
