#include "common.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "selection/boa_selector.hpp"
#include "selection/lei_selector.hpp"
#include "selection/net_selector.hpp"
#include "selection/wrs_selector.hpp"
#include "support/error.hpp"
#include "testing/differential.hpp"

namespace perfbench {

using namespace rsel;

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: ru_maxrss survives exec, so
    // it would report the launching script's peak when that is larger.
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    fatal("no VmHWM in /proc/self/status");
}

double
median(std::vector<double> values)
{
    RSEL_ASSERT(!values.empty(), "median of nothing");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

std::string
foldedFingerprint(const SimResult &result)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64,
                  fnv1a(testing::resultFingerprint(result)));
    return buf;
}

Pins
Pins::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read pinned fingerprints '" + path + "'");
    Pins pins;
    std::string key;
    std::string fp;
    std::string events;
    while (in >> key >> fp >> events)
        pins.entries_[key] = fp + " " + events;
    if (pins.entries_.empty())
        fatal("no pinned fingerprints in '" + path + "'");
    return pins;
}

void
Pins::save(const std::string &path,
           const std::map<std::string, std::string> &entries)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write pinned fingerprints '" + path + "'");
    for (const auto &[key, value] : entries)
        out << key << ' ' << value << '\n';
    if (!out.flush())
        fatal("short write to '" + path + "'");
}

std::string
Pins::entryFor(const SimResult &result)
{
    return foldedFingerprint(result) + " " +
           std::to_string(result.events);
}

std::string
Pins::check(const std::string &key, const SimResult &result) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return "no pinned fingerprint for " + key;
    const std::string got = entryFor(result);
    if (got != it->second)
        return "fingerprint/events " + got + " != pinned " + it->second;
    return {};
}

void
Tally::record(const std::string &what, const std::string &error)
{
    ++attempted;
    if (error.empty())
        return;
    if (++failed <= 20)
        std::cerr << "perfbench: FAILED " << what << ": " << error << '\n';
}

std::string
checkRun(const Pins &pins, const std::string &key,
         const SimResult &result, std::uint64_t deliveredEvents)
{
    if (result.events != deliveredEvents)
        return "result counts " + std::to_string(result.events) +
               " events, the loop delivered " +
               std::to_string(deliveredEvents);
    const std::string conservation = result.conservationError();
    if (!conservation.empty())
        return "conservation: " + conservation;
    return pins.check(key, result);
}

std::int32_t
Tracer::add(const char *name, std::int32_t parent,
            Clock::time_point start, Clock::time_point end)
{
    spans_.push_back(Span{intern(name), parent, nsBetween(origin_, start),
                          nsBetween(origin_, end)});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

std::int32_t
Tracer::open(const char *name, std::int32_t parent)
{
    const Clock::time_point now = Clock::now();
    return add(name, parent, now, now);
}

void
Tracer::close(std::int32_t index)
{
    spans_[static_cast<std::size_t>(index)].endNs =
        nsBetween(origin_, Clock::now());
}

void
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write spans to '" + path + "'");
    out << "index\tparent\tname\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << i << '\t' << s.parent << '\t' << names_[s.name] << '\t'
            << s.startNs << '\t' << s.endNs << '\n';
    }
    if (!out.flush())
        fatal("short write to '" + path + "'");
}

std::uint16_t
Tracer::intern(const char *name)
{
    for (std::size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return static_cast<std::uint16_t>(i);
    names_.emplace_back(name);
    return static_cast<std::uint16_t>(names_.size() - 1);
}

std::optional<RegionSpec>
TimedSelector::onInterpreted(const SelectorEvent &event)
{
    const Clock::time_point t0 = Clock::now();
    std::optional<RegionSpec> spec = inner_->onInterpreted(event);
    counters_.ns += nsBetween(t0, Clock::now());
    ++counters_.calls;
    counters_.regions += spec.has_value() ? 1 : 0;
    return spec;
}

std::optional<RegionSpec>
TimedSelector::onCacheEnter(const BasicBlock &entry)
{
    const Clock::time_point t0 = Clock::now();
    std::optional<RegionSpec> spec = inner_->onCacheEnter(entry);
    counters_.ns += nsBetween(t0, Clock::now());
    ++counters_.calls;
    counters_.regions += spec.has_value() ? 1 : 0;
    return spec;
}

std::unique_ptr<RegionSelector>
makeSelector(Algorithm algo, const Program &prog, const CodeCache &cache,
             const SimOptions &opts)
{
    switch (algo) {
      case Algorithm::Net:
      case Algorithm::NetCombined: {
        NetConfig cfg = opts.net;
        cfg.combine = algo == Algorithm::NetCombined;
        return std::make_unique<NetSelector>(prog, cache, cfg);
      }
      case Algorithm::Lei:
      case Algorithm::LeiCombined: {
        LeiConfig cfg = opts.lei;
        cfg.combine = algo == Algorithm::LeiCombined;
        return std::make_unique<LeiSelector>(prog, cache, cfg);
      }
      case Algorithm::Mojo: {
        NetConfig cfg = opts.net;
        cfg.combine = false;
        if (cfg.exitThreshold == 0)
            cfg.exitThreshold = cfg.hotThreshold / 2;
        return std::make_unique<NetSelector>(prog, cache, cfg);
      }
      case Algorithm::Boa:
        return std::make_unique<BoaSelector>(prog, cache, opts.boa);
      case Algorithm::Wrs:
        return std::make_unique<WrsSelector>(prog, cache, opts.wrs);
    }
    fatal("unknown algorithm");
}

void
attachSelector(DynOptSystem &sys, Algorithm algo, const SimOptions &opts,
               LayerSums *sums)
{
    if (sums == nullptr) {
        attachAlgorithm(sys, algo, opts);
        return;
    }
    sys.useCustom([&](const Program &prog, const CodeCache &cache) {
        return std::make_unique<TimedSelector>(
            makeSelector(algo, prog, cache, opts), sums->selector);
    });
    sys.setCacheListener(&sums->listener);
}

Driven
drive(Executor &exec, DynOptSystem &sys, std::uint64_t budget,
      std::size_t batchEvents, LayerSums *sums, Tracer *tracer,
      std::int32_t parent)
{
    EventBatch batch;
    batch.reserve(batchEvents);
    Driven out;
    while (out.events < budget) {
        const auto want = static_cast<std::size_t>(
            std::min<std::uint64_t>(batchEvents, budget - out.events));
        const Clock::time_point t0 =
            sums ? Clock::now() : Clock::time_point{};
        const std::uint64_t got = exec.fillBatch(batch, want);
        if (got == 0)
            break;
        if (sums) {
            const Clock::time_point t1 = Clock::now();
            sys.onBatch(batch);
            const Clock::time_point t2 = Clock::now();
            sums->fillNs += nsBetween(t0, t1);
            sums->dispatchNs += nsBetween(t1, t2);
            tracer->add("fill", parent, t0, t1);
            tracer->add("dispatch", parent, t1, t2);
        } else {
            sys.onBatch(batch);
        }
        out.events += got;
        if (got < want)
            break;
    }
    const Clock::time_point t0 = Clock::now();
    out.result = sys.finish();
    if (sums == nullptr)
        return out;
    const Clock::time_point t1 = Clock::now();
    tracer->add("finish", parent, t0, t1);
    sums->finishNs += nsBetween(t0, t1);
    sums->events += out.events;
    sums->transitions += out.result.regionTransitions;
    sums->regenerations += out.result.cacheRegenerations;
    sums->cachedInsts += out.result.cachedInsts;
    sums->totalInsts += out.result.totalInsts;
    return out;
}

LayerTable::LayerTable()
{
    // perfbench/README.md names the end-to-end metric and workload
    // each of these should move.
    const std::pair<const char *, const char *> rows[] = {
        {"workloads.build_ms", "ms"},
        {"program.fill_ns_per_event", "ns"},
        {"dynopt.self_ns_per_event", "ns"},
        {"runtime.region_transitions_per_kevent", "1/kevent"},
        {"selection.ns_per_call", "ns"},
        {"selection.calls_per_kevent", "1/kevent"},
        {"selection.regions_per_kcall", "1/kcall"},
        {"runtime.hit_rate", "ratio"},
        {"runtime.inserts", "count"},
        {"runtime.drops", "count"},
        {"runtime.regenerations", "count"},
        {"metrics.finish_ms", "ms"},
        {"service.loop_s", "s"},
        {"service.outside_loop_s", "s"},
        {"service.parallel_efficiency", "ratio"},
        {"service.overhead_vs_solo", "ratio"},
        {"arena.shard_contention", "count"},
        {"arena.admissions", "count"},
        {"arena.high_water_bytes", "bytes"},
        {"trace.overhead", "ratio"},
    };
    for (const auto &[name, unit] : rows)
        rows_.push_back(Row{name, unit});
}

void
LayerTable::set(const std::string &name, double value)
{
    for (Row &row : rows_)
        if (row.name == name) {
            row.value = std::isfinite(value) ? value : 0.0;
            row.set = true;
            return;
        }
    RSEL_ASSERT(false, "unknown per-layer metric");
}

void
LayerTable::setFromLoop(const std::vector<LayerSums> &reps)
{
    const auto med = [&](auto perRep) {
        std::vector<double> values;
        for (const LayerSums &r : reps)
            values.push_back(perRep(r));
        return median(values);
    };
    const auto per = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    set("program.fill_ns_per_event", med([&](const LayerSums &r) {
            return per(r.fillNs, r.events);
        }));
    set("dynopt.self_ns_per_event", med([&](const LayerSums &r) {
            return per(r.dispatchNs - r.selector.ns, r.events);
        }));
    set("runtime.region_transitions_per_kevent",
        med([&](const LayerSums &r) {
            return per(1e3 * r.transitions, r.events);
        }));
    set("selection.ns_per_call", med([&](const LayerSums &r) {
            return per(r.selector.ns, r.selector.calls);
        }));
    set("selection.calls_per_kevent", med([&](const LayerSums &r) {
            return per(1e3 * r.selector.calls, r.events);
        }));
    set("selection.regions_per_kcall", med([&](const LayerSums &r) {
            return per(1e3 * r.selector.regions, r.selector.calls);
        }));
    set("runtime.hit_rate", med([&](const LayerSums &r) {
            return per(r.cachedInsts, r.totalInsts);
        }));
    set("runtime.inserts", med([](const LayerSums &r) {
            return double(r.listener.inserts);
        }));
    set("runtime.drops", med([](const LayerSums &r) {
            return double(r.listener.drops);
        }));
    set("runtime.regenerations", med([](const LayerSums &r) {
            return double(r.regenerations);
        }));
    set("metrics.finish_ms",
        med([](const LayerSums &r) { return 1e-6 * r.finishNs; }));
}

void
LayerTable::appendTo(Outcome &out) const
{
    for (const Row &row : rows_)
        out.metrics.push_back(Metric{row.name, row.value, row.unit});
}

void
LayerTable::print() const
{
    for (const Row &row : rows_) {
        if (row.set)
            std::printf("  %-40s %16.6g %s\n", row.name.c_str(),
                        row.value, row.unit.c_str());
        else
            std::printf("  %-40s %16s\n", row.name.c_str(), "n/a");
    }
}

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

/** Keeps the probe's loop from being optimised away. */
volatile std::uint64_t probeSink = 0;

/**
 * Best of 20 timings of a fixed chain of dependent integer steps, in
 * microseconds. It reads no memory, so it follows only the processor's
 * clock: on a shared host it took 300 us in some periods and 414-481
 * us in others, and the benchmark's rates moved with it.
 */
double
clockProbeUs()
{
    double best = 0;
    for (int i = 0; i < 20; ++i) {
        const Clock::time_point t0 = Clock::now();
        std::uint64_t x = 12345;
        for (int k = 0; k < 200000; ++k) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            x ^= x >> 17;
        }
        probeSink = x;
        const double us = 1e-3 * static_cast<double>(
                                     nsBetween(t0, Clock::now()));
        best = i == 0 ? us : std::min(best, us);
    }
    return best;
}

} // namespace

void
printStamp(const Options &opts, const std::string &commit,
           std::size_t jobs)
{
    std::printf("perfbench: workload=%s seed=%" PRIu64
                " seconds=%g trace=%d\n",
                opts.workload.c_str(), opts.seed, opts.seconds,
                opts.trace ? 1 : 0);
    std::printf("perfbench: host nproc=%u cpu=\"%s\" compiler=\"%s\" "
                "build_type=%s commit=%s jobs=%zu clock_probe_us=%.0f\n",
                std::thread::hardware_concurrency(), cpuModel().c_str(),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                commit.c_str(), jobs, clockProbeUs());
}

void
printResult(const Outcome &outcome)
{
    const Tally &t = outcome.tally;
    std::printf("perfbench: error_rate=%.6g (%" PRIu64 " of %" PRIu64
                " operations failed)\n",
                t.attempted ? static_cast<double>(t.failed) /
                                  static_cast<double>(t.attempted)
                            : 1.0,
                t.failed, t.attempted);
    std::ostringstream os;
    os << "{\"correct\": "
       << (t.failed == 0 && t.attempted > 0 ? "true" : "false")
       << ", \"attempted\": " << t.attempted
       << ", \"failed\": " << t.failed << ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : outcome.metrics) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        os << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
           << value << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
}

} // namespace perfbench
