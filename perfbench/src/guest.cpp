/**
 * @file
 * The guest workloads: the 12 suite programs, one guest at a time on
 * one thread, through the split fillBatch -> onBatch loop with an
 * unbounded cache.
 *
 *  - guest-trace runs NET and LEI. Nearly all time goes to the
 *    executor and the trace fast path; combination and the service
 *    stay idle, so changes there should not move it.
 *  - guest-combined runs NET+comb and LEI+comb. Multi-path regions
 *    take the per-event path, plus combination profiling.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "support/random.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

using namespace rsel;

namespace {

/** Program-synthesis seed (rselect-sim's default). */
constexpr std::uint64_t buildSeed = 42;
/**
 * The executor seeds a run draws from, one per program: the pool
 * starts at rselect-sim's default of 7. The pins cover every seed in
 * the pool, so any --seed is checked.
 */
constexpr std::uint64_t execSeedBase = 7;
constexpr std::uint64_t execSeedPool = 8;

const Algorithm traceAlgos[] = {Algorithm::Net, Algorithm::Lei};
const Algorithm combinedAlgos[] = {Algorithm::NetCombined,
                                   Algorithm::LeiCombined};

/** One guest x selector run. */
struct Cell
{
    const Program *prog;
    const WorkloadInfo *info;
    std::uint64_t execSeed;
    Algorithm algo;
};

std::string
pinKey(const WorkloadInfo &info, std::uint64_t execSeed, Algorithm algo)
{
    return info.name + "/" + std::to_string(execSeed) + "/" +
           algorithmName(algo);
}

std::vector<Program>
buildSuite()
{
    std::vector<Program> suite;
    for (const WorkloadInfo &info : workloadSuite())
        suite.push_back(info.build(buildSeed));
    return suite;
}

std::vector<Cell>
makeCells(const std::vector<Program> &suite, std::uint64_t seed,
          bool combined)
{
    Rng rng(seed);
    std::vector<Cell> cells;
    for (std::size_t p = 0; p < suite.size(); ++p) {
        const std::uint64_t execSeed =
            execSeedBase + rng.nextBelow(execSeedPool);
        for (const Algorithm algo : combined ? combinedAlgos : traceAlgos)
            cells.push_back(
                Cell{&suite[p], &workloadSuite()[p], execSeed, algo});
    }
    return cells;
}

/** One repetition's wall time, per-cell times and the events it ran. */
struct Rep
{
    double seconds = 0;
    std::uint64_t events = 0;
    /** Wall and CPU time of each cell, in cell order. */
    std::vector<double> cellSeconds;
    std::vector<double> cellCpuSeconds;

    double eventsPerSecond() const { return events / seconds; }
};

/**
 * One pass over the cells with each cell timed at its fastest
 * repetition: wall and CPU seconds, each summed over the cells. A
 * shared host's other load only adds time to a cell; it moved whole
 * repetitions by up to 1.6x within one run (perfbench/README.md,
 * Steadiness).
 */
std::pair<double, double>
fastestPass(const std::vector<Rep> &reps)
{
    double wall = 0;
    double cpu = 0;
    for (std::size_t i = 0; i < reps.front().cellSeconds.size(); ++i) {
        double bestWall = reps.front().cellSeconds[i];
        double bestCpu = reps.front().cellCpuSeconds[i];
        for (const Rep &rep : reps) {
            bestWall = std::min(bestWall, rep.cellSeconds[i]);
            bestCpu = std::min(bestCpu, rep.cellCpuSeconds[i]);
        }
        wall += bestWall;
        cpu += bestCpu;
    }
    return {wall, cpu};
}

/**
 * Run every cell once. Checks happen after the clock stops. With
 * `sums` set, the run is traced: a rep span, a cell span per cell,
 * and batch spans below each.
 */
Rep
runRep(const std::vector<Cell> &cells, const Pins &pins, Tally &tally,
       LayerSums *sums, Tracer *tracer)
{
    std::vector<Driven> runs(cells.size());
    std::vector<std::string> errors(cells.size());
    Rep rep;
    rep.cellSeconds.resize(cells.size());
    rep.cellCpuSeconds.resize(cells.size());
    const std::int32_t repSpan = sums ? tracer->open("rep", -1) : -1;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &cell = cells[i];
        const double cellCpu0 = processCpuSeconds();
        const Clock::time_point cellT0 = Clock::now();
        const std::int32_t cellSpan =
            sums ? tracer->open("cell", repSpan) : -1;
        errors[i] = guarded([&] {
            DynOptSystem sys(*cell.prog);
            attachSelector(sys, cell.algo, SimOptions{}, sums);
            Executor exec(*cell.prog, cell.execSeed);
            runs[i] = drive(exec, sys, cell.info->defaultEvents,
                            defaultBatchSize, sums, tracer, cellSpan);
            return std::string();
        });
        if (sums)
            tracer->close(cellSpan);
        rep.cellSeconds[i] = secondsBetween(cellT0, Clock::now());
        rep.cellCpuSeconds[i] = processCpuSeconds() - cellCpu0;
    }
    rep.seconds = secondsBetween(t0, Clock::now());
    if (sums)
        tracer->close(repSpan);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &cell = cells[i];
        const std::string key = pinKey(*cell.info, cell.execSeed, cell.algo);
        tally.record(key, errors[i].empty()
                              ? checkRun(pins, key, runs[i].result,
                                         runs[i].events)
                              : errors[i]);
        rep.events += runs[i].events;
    }
    return rep;
}

} // namespace

Outcome
runGuest(const Options &opts, bool combined)
{
    const Pins pins = Pins::load(opts.pinsDir + "/guest.pins");
    Outcome out;

    // setup_s: the programs are built setupRepeats times before the
    // warm-up and again, discarded, before every timed repetition, so
    // the median samples the same machine states the timed phase does.
    std::vector<double> setup;
    const auto timedSetup = [&setup] {
        std::vector<Program> suite;
        for (int i = 0; i < setupRepeats; ++i) {
            const Clock::time_point t0 = Clock::now();
            suite = buildSuite();
            setup.push_back(secondsBetween(t0, Clock::now()));
        }
        return suite;
    };
    const std::vector<Program> suite = timedSetup();
    const std::vector<Cell> cells = makeCells(suite, opts.seed, combined);

    // Warm-up: the first repetition in a process runs slower (cold
    // allocator and caches); it is checked but not timed.
    runRep(cells, pins, out.tally, nullptr, nullptr);
    const double peakRss = peakRssMb();

    std::vector<Rep> reps;
    std::vector<double> rates;
    std::vector<double> tracedRates;
    std::vector<double> loop;
    std::vector<double> outside;
    std::vector<LayerSums> layers;
    Tracer tracer;
    const Clock::time_point start = Clock::now();
    while (secondsBetween(start, Clock::now()) < opts.seconds ||
           rates.size() < 3) {
        timedSetup();
        reps.push_back(runRep(cells, pins, out.tally, nullptr, nullptr));
        rates.push_back(reps.back().eventsPerSecond());
        std::printf("perfbench: rep %zu: %.0f events/s\n", rates.size(),
                    rates.back());
        if (!opts.trace)
            continue;
        // Traced repetitions alternate with untraced ones, so the
        // tracing overhead compares runs made under the same load.
        layers.emplace_back();
        const Rep traced =
            runRep(cells, pins, out.tally, &layers.back(), &tracer);
        tracedRates.push_back(traced.eventsPerSecond());
        const LayerSums &l = layers.back();
        loop.push_back(1e-9 * static_cast<double>(l.fillNs + l.dispatchNs));
        outside.push_back(traced.seconds - loop.back());
        std::printf("perfbench: traced rep %zu: %.0f events/s\n",
                    tracedRates.size(), tracedRates.back());
    }

    if (!opts.trace) {
        const auto [wall, cpu] = fastestPass(reps);
        const double events = static_cast<double>(reps.front().events);
        std::printf("perfbench: fastest pass: %.0f events/s over %zu "
                    "repetitions (median repetition %.0f events/s)\n",
                    events / wall, reps.size(), median(rates));
        out.metrics = {
            {"events_per_s", events / wall, "1/s"},
            {"cpu_ns_per_event", 1e9 * cpu / events, "ns"},
            {"setup_s", median(setup), "s"},
            {"peak_rss_mb", peakRss, "MiB"},
        };
        return out;
    }
    LayerTable table;
    table.set("workloads.build_ms", 1e3 * median(setup));
    table.setFromLoop(layers);
    // One guest at a time, the benchmark's own batch loop plays the
    // service's slice loop: outside it are system construction and
    // finish().
    table.set("service.loop_s", median(loop));
    table.set("service.outside_loop_s", median(outside));
    table.set("trace.overhead", 1 - median(tracedRates) / median(rates));
    table.print();
    table.appendTo(out);
    if (!opts.spansPath.empty())
        tracer.write(opts.spansPath);
    return out;
}

void
writeGuestPins(const std::string &dir)
{
    // The reference leg is simulate() itself, so a benchmark run
    // matching the pins also shows that its split loop equals it.
    const std::vector<Program> suite = buildSuite();
    std::map<std::string, std::string> entries;
    for (std::size_t p = 0; p < suite.size(); ++p) {
        const WorkloadInfo &info = workloadSuite()[p];
        for (std::uint64_t s = 0; s < execSeedPool; ++s)
            for (const Algorithm algo : allAlgorithms) {
                SimOptions sim;
                sim.maxEvents = info.defaultEvents;
                sim.seed = execSeedBase + s;
                entries[pinKey(info, sim.seed, algo)] =
                    Pins::entryFor(simulate(suite[p], algo, sim));
            }
    }
    Pins::save(dir + "/guest.pins", entries);
}

} // namespace perfbench
