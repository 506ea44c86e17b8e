/**
 * @file
 * The service-fleet workload: 2048 seed-derived tenants covering all
 * seven selectors share a 1 MiB arena (512-byte quotas, so regions
 * are flushed and re-selected all the time), with a derived fault
 * plan armed on every odd tenant seed. It stresses what the guest
 * workloads leave idle: cold per-tenant set-up, per-slice pool
 * submission, arena mirroring, cache writes and the armed fault path.
 */

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "service/selection_service.hpp"
#include "support/random.hpp"
#include "testing/random_program.hpp"

namespace perfbench {

using namespace rsel;
using namespace rsel::service;

namespace {

/** Tenants per run, drawn from a pinned universe twice as large. */
constexpr std::size_t fleetSize = 2048;
constexpr std::uint64_t universeSize = 2 * fleetSize;
constexpr std::uint64_t arenaKb = 1024;
/** Per-tenant event budget: about two 4096-event slices. */
constexpr std::uint64_t tenantEvents = 8000;
constexpr std::uint64_t sliceEvents = 4096;
/** Untimed repetitions absorbing the slow first runService calls. */
constexpr int warmupReps = 3;

TenantSpec
deriveTenant(std::uint64_t tenantSeed)
{
    TenantSpec spec = TenantSpec::fromSeed(tenantSeed);
    if (tenantSeed % 2 == 1)
        spec.faults = resilience::FaultPlan::fromSeed(tenantSeed);
    return spec;
}

/** The run's tenant seeds: `fleetSize` of the universe, by `seed`. */
std::vector<std::uint64_t>
drawTenantSeeds(std::uint64_t seed)
{
    std::vector<std::uint64_t> all(universeSize);
    std::iota(all.begin(), all.end(), 0);
    Rng rng(seed);
    for (std::size_t i = 0; i < fleetSize; ++i)
        std::swap(all[i], all[i + rng.nextBelow(universeSize - i)]);
    all.resize(fleetSize);
    std::sort(all.begin(), all.end());
    return all;
}

ServiceConfig
makeConfig(std::vector<TenantSpec> tenants, std::size_t jobs)
{
    ServiceConfig config;
    config.tenants = std::move(tenants);
    config.jobs = jobs;
    config.cacheKb = arenaKb;
    config.eventsOverride = tenantEvents;
    config.sliceEvents = sliceEvents;
    return config;
}

/** One runService call, timed, with every tenant checked. */
struct ServiceRun
{
    double seconds = 0;
    double cpuSeconds = 0;
    ServiceReport report;
};

ServiceRun
runServiceOnce(const ServiceConfig &config, const Pins &pins,
               Tally &tally)
{
    ServiceRun run;
    const double cpu0 = processCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    const std::string error = guarded([&] {
        run.report = runService(config);
        return std::string();
    });
    run.seconds = secondsBetween(t0, Clock::now());
    run.cpuSeconds = processCpuSeconds() - cpu0;
    if (!error.empty())
        for (const TenantSpec &spec : config.tenants)
            tally.record("service " + spec.name, error);
    for (const TenantReport &t : run.report.tenants)
        tally.record("service " + t.name,
                     t.aborted ? "tenant aborted"
                               : checkRun(pins, t.name, t.result,
                                          t.result.events));
    return run;
}

/** Sum of soloTenantRun wall time over the fleet. */
double
runSolo(const ServiceConfig &config, const Pins &pins, Tally &tally)
{
    double seconds = 0;
    for (const TenantSpec &spec : config.tenants) {
        const Clock::time_point t0 = Clock::now();
        tally.record("solo " + spec.name, guarded([&] {
                         const SimResult r = soloTenantRun(
                             spec, tenantLimitsFor(config, spec),
                             tenantEvents);
                         seconds += secondsBetween(t0, Clock::now());
                         return checkRun(pins, spec.name, r, r.events);
                     }));
    }
    return seconds;
}

/**
 * Replay every tenant solo through the benchmark's own traced loop,
 * with the service's limits, fault plan and slice size.
 * @return the summed wall time of the runs, checks excluded (as in
 * runSolo, so the two compare).
 */
double
runReplay(const ServiceConfig &config, const Pins &pins, Tally &tally,
          LayerSums &sums, Tracer &tracer)
{
    const std::int32_t repSpan = tracer.open("replay", -1);
    double seconds = 0;
    for (const TenantSpec &spec : config.tenants) {
        const std::int32_t tenantSpan = tracer.open("tenant", repSpan);
        const std::string error = guarded([&] {
            const Clock::time_point t0 = Clock::now();
            const Program prog = testing::generateProgram(spec.program);
            const Clock::time_point t1 = Clock::now();
            tracer.add("build", tenantSpan, t0, t1);
            sums.buildNs += nsBetween(t0, t1);
            DynOptSystem sys(prog, tenantLimitsFor(config, spec));
            attachSelector(sys, spec.algo, tenantSimOptions(spec), &sums);
            sys.armFaults(spec.faults);
            Executor exec(prog, spec.program.execSeed);
            const Driven run = drive(exec, sys, tenantEvents, sliceEvents,
                                     &sums, &tracer, tenantSpan);
            seconds += secondsBetween(t0, Clock::now());
            return checkRun(pins, spec.name, run.result, run.events);
        });
        tracer.close(tenantSpan);
        tally.record("replay " + spec.name, error);
    }
    tracer.close(repSpan);
    return seconds;
}

} // namespace

std::size_t
fleetJobs()
{
    // Half the processors, at most 4, so a worker rarely waits for a
    // processor the host took away. On a shared 4-processor VM, with
    // one worker per processor the median rate fell by ~40% when other
    // load arrived; with two it moved by a few percent.
    return std::clamp<std::size_t>(std::thread::hardware_concurrency() / 2,
                                   1, 4);
}

Outcome
runFleet(const Options &opts)
{
    const Pins pins = Pins::load(opts.pinsDir + "/fleet.pins");
    Outcome out;

    const std::vector<std::uint64_t> seeds = drawTenantSeeds(opts.seed);
    // setup_s: the tenant specs are derived setupRepeats times before
    // the warm-up and again, discarded, before every timed repetition,
    // so the median samples the same machine states the timed phase
    // does.
    std::vector<double> setup;
    const auto timedSetup = [&] {
        std::vector<TenantSpec> tenants;
        for (int i = 0; i < setupRepeats; ++i) {
            const Clock::time_point t0 = Clock::now();
            tenants.clear();
            for (const std::uint64_t s : seeds)
                tenants.push_back(deriveTenant(s));
            setup.push_back(secondsBetween(t0, Clock::now()));
        }
        return tenants;
    };
    const std::vector<TenantSpec> tenants = timedSetup();
    const std::size_t jobs = fleetJobs();
    const ServiceConfig config = makeConfig(tenants, jobs);

    for (int i = 0; i < warmupReps; ++i)
        runServiceOnce(config, pins, out.tally);
    const double peakRss = peakRssMb();

    if (!opts.trace) {
        std::vector<double> rates;
        double fastest = 0;
        double leastCpu = 0;
        double events = 0;
        const Clock::time_point start = Clock::now();
        while (secondsBetween(start, Clock::now()) < opts.seconds ||
               rates.size() < 3) {
            timedSetup();
            const ServiceRun run = runServiceOnce(config, pins, out.tally);
            events = static_cast<double>(run.report.totalEvents);
            rates.push_back(events / run.seconds);
            fastest = rates.size() == 1 ? run.seconds
                                        : std::min(fastest, run.seconds);
            leastCpu = rates.size() == 1
                           ? run.cpuSeconds
                           : std::min(leastCpu, run.cpuSeconds);
            std::printf("perfbench: rep %zu: %.0f events/s\n",
                        rates.size(), rates.back());
        }
        // The fastest repetition, as in the guest workloads: the
        // host's other load only adds time to a repetition.
        std::printf("perfbench: fastest repetition: %.0f events/s over "
                    "%zu repetitions (median %.0f events/s)\n",
                    events / fastest, rates.size(), median(rates));
        out.metrics = {
            {"events_per_s", events / fastest, "1/s"},
            {"cpu_ns_per_event", 1e9 * leastCpu / events, "ns"},
            {"setup_s", median(setup), "s"},
            {"peak_rss_mb", peakRss, "MiB"},
        };
        return out;
    }

    // Traced repetition: the service at `jobs` and at one worker,
    // every tenant through soloTenantRun, then every tenant through
    // the traced loop. All four legs are checked against the pins.
    const ServiceConfig serial = makeConfig(tenants, 1);
    std::vector<double> loop, outside, efficiency, overVsSolo,
        contention, admissions, highWater, overhead;
    std::vector<LayerSums> layers;
    Tracer tracer;
    const Clock::time_point start = Clock::now();
    while (secondsBetween(start, Clock::now()) < opts.seconds ||
           layers.size() < 2) {
        const std::int32_t repSpan = tracer.open("rep", -1);
        const Clock::time_point t0 = Clock::now();
        const ServiceRun parallel = runServiceOnce(config, pins, out.tally);
        const Clock::time_point t1 = Clock::now();
        tracer.add("runService", repSpan, t0, t1);
        const ServiceRun one = runServiceOnce(serial, pins, out.tally);
        tracer.add("runService.jobs1", repSpan, t1, Clock::now());
        const double soloSeconds = runSolo(config, pins, out.tally);
        layers.emplace_back();
        const double replaySeconds =
            runReplay(config, pins, out.tally, layers.back(), tracer);
        tracer.close(repSpan);

        const ServiceReport &r = parallel.report;
        loop.push_back(r.seconds);
        outside.push_back(parallel.seconds - r.seconds);
        efficiency.push_back(one.seconds /
                             (static_cast<double>(jobs) * parallel.seconds));
        overVsSolo.push_back(one.seconds / soloSeconds);
        contention.push_back(static_cast<double>(r.arena.shardContention));
        admissions.push_back(static_cast<double>(r.arena.admissions));
        highWater.push_back(static_cast<double>(r.arena.highWaterBytes));
        overhead.push_back(1 - soloSeconds / replaySeconds);
        std::printf("perfbench: traced rep %zu: runService %.3f s "
                    "(loop %.3f s), jobs=1 %.3f s, solo %.3f s, "
                    "traced replay %.3f s\n",
                    layers.size(), parallel.seconds, r.seconds,
                    one.seconds, soloSeconds, replaySeconds);
    }

    std::vector<double> buildMs;
    for (const LayerSums &l : layers)
        buildMs.push_back(1e-6 * static_cast<double>(l.buildNs));
    LayerTable table;
    table.setFromLoop(layers);
    table.set("workloads.build_ms", median(buildMs));
    table.set("service.loop_s", median(loop));
    table.set("service.outside_loop_s", median(outside));
    table.set("service.parallel_efficiency", median(efficiency));
    table.set("service.overhead_vs_solo", median(overVsSolo));
    table.set("arena.shard_contention", median(contention));
    table.set("arena.admissions", median(admissions));
    table.set("arena.high_water_bytes", median(highWater));
    table.set("trace.overhead", median(overhead));
    table.print();
    table.appendTo(out);
    if (!opts.spansPath.empty())
        tracer.write(opts.spansPath);
    return out;
}

void
writeFleetPins(const std::string &dir)
{
    // The reference leg is soloTenantRun, under the limits a fleet of
    // fleetSize tenants gives each one (the quota depends only on the
    // tenant count, not on which tenants are drawn).
    std::vector<TenantSpec> universe;
    for (std::uint64_t s = 0; s < universeSize; ++s)
        universe.push_back(deriveTenant(s));
    ServiceConfig config = makeConfig(
        std::vector<TenantSpec>(universe.begin(),
                                universe.begin() + fleetSize),
        1);
    std::map<std::string, std::string> entries;
    for (const TenantSpec &spec : universe)
        entries[spec.name] = Pins::entryFor(soloTenantRun(
            spec, tenantLimitsFor(config, spec), tenantEvents));
    Pins::save(dir + "/fleet.pins", entries);
}

} // namespace perfbench
