/**
 * @file
 * Every figure and table of the reproduction, from one driver.
 *
 *   figures [name...] [options]
 *
 * The paper's evaluation is one experiment: the synthetic suite runs
 * under NET, LEI and their combined forms, and each figure reads a
 * few SimResult fields from it. Each figure here is one function in
 * the registry at the bottom; with no name, all of them run in
 * registry order. Every suite run is simulated once per invocation
 * and shared by all figures that ask for the same options, so the
 * full sweep simulates each (workload, algorithm) grid once. The
 * common flags are those of bench_util (--events, --seed, ...).
 *
 * Exit codes: 0 clean, 1 when the interprocedural gate of
 * table_optimization_opportunities is violated, 2 on a bad option,
 * workload or figure name.
 */

#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <tuple>

#include "bench_util.hpp"
#include "resilience/fault_plan.hpp"
#include "support/exit_codes.hpp"
#include "testing/inter_check.hpp"

using namespace rsel;
using namespace rsel::bench;

namespace {

using Results = std::vector<SimResult>;
/** A SimResult field, or a ratio derived from one run. */
using Metric = std::function<double(const SimResult &)>;

/** The four configurations the paper's tables compare. */
const std::pair<const char *, Algorithm> paperConfigs[] = {
    {"NET", Algorithm::Net},
    {"LEI", Algorithm::Lei},
    {"comb NET", Algorithm::NetCombined},
    {"comb LEI", Algorithm::LeiCombined}};

/** Every BenchOptions field a figure overrides; the other fields
 *  stay as the command line set them for the whole invocation. */
auto
runKey(const BenchOptions &o)
{
    return std::make_tuple(o.net.hotThreshold, o.net.profWindow,
                           o.net.minOccur, o.lei.hotThreshold,
                           o.lei.bufferCapacity, o.lei.profWindow,
                           o.lei.minOccur, o.icache.sizeBytes,
                           o.icache.lineBytes, o.icache.ways);
}

/**
 * The suite runs of one invocation, keyed by runKey, so a sweep
 * point that equals the command-line options reuses the runs every
 * other figure shares.
 */
class Suites
{
  public:
    explicit Suites(BenchOptions base) : base_(std::move(base)) {}

    const BenchOptions &base() const { return base_; }

    /** Results of `algo` under `opts`, in suite order. */
    const Results &results(const BenchOptions &opts, Algorithm algo)
    {
        return runnerFor(opts).results(algo);
    }

    /** Results of `algo` under the command-line options. */
    const Results &results(Algorithm algo)
    {
        return results(base_, algo);
    }

    /** The workloads being run. @throws FatalError on a bad filter. */
    const std::vector<const WorkloadInfo *> &workloads()
    {
        return runnerFor(base_).workloads();
    }

    /** False once a figure's in-binary gate has failed. */
    bool gatesHeld = true;

  private:
    SuiteRunner &runnerFor(const BenchOptions &opts)
    {
        return runners_.try_emplace(runKey(opts), opts).first->second;
    }

    BenchOptions base_;
    std::map<decltype(runKey(BenchOptions{})), SuiteRunner> runners_;
};

// ---------------------------------------------------------------
// Tables built from columns. A per-workload table has one row per
// workload and an "average" summary row holding each averaged
// column's mean; a suite-means table has one row per configuration.
// ---------------------------------------------------------------

/** One column of a table: a value per workload and its format. */
struct Column
{
    std::string header;
    /** The column's value on the i-th workload. */
    std::function<double(std::size_t)> value;
    std::function<std::string(double)> format;
    /** Whether the summary row shows the column mean. */
    bool averaged = true;
};

std::function<std::string(double)>
percentCells(int decimals = 1)
{
    return [decimals](double v) { return formatPercent(v, decimals); };
}

std::function<std::string(double)>
decimalCells(int decimals)
{
    return [decimals](double v) { return formatDouble(v, decimals); };
}

std::string
countCell(double v)
{
    return std::to_string(static_cast<std::uint64_t>(v));
}

/** `metric` of one algorithm, per workload. */
std::function<double(std::size_t)>
of(const Results &rs, Metric metric)
{
    return [&rs, metric](std::size_t i) { return metric(rs[i]); };
}

/** An integer column with no average. */
Column
count(std::string header, const Results &rs, Metric metric)
{
    return {std::move(header), of(rs, std::move(metric)), countCell,
            false};
}

/** A ratio of one algorithm, as an averaged percentage. */
Column
percent(std::string header, const Results &rs, Metric metric,
        int decimals = 1)
{
    return {std::move(header), of(rs, std::move(metric)),
            percentCells(decimals)};
}

/** `metric` of `num` relative to `den`, as an averaged percentage. */
Column
relative(std::string header, const Results &num, const Results &den,
         Metric metric)
{
    return {std::move(header),
            [&num, &den, metric](std::size_t i) {
                return ratio(metric(num[i]), metric(den[i]));
            },
            percentCells()};
}

/** A column's values, one per workload. */
std::vector<double>
valuesOf(Suites &suites, const Column &column)
{
    std::vector<double> values;
    for (std::size_t i = 0; i < suites.workloads().size(); ++i)
        values.push_back(column.value(i));
    return values;
}

/** Print a per-workload table with the paper note under it. */
void
printPerWorkload(Suites &suites, const std::string &title,
                 const std::vector<Column> &columns,
                 const std::string &paperNote)
{
    std::vector<std::string> headers{"benchmark"};
    std::vector<std::vector<double>> values;
    for (const Column &c : columns) {
        headers.push_back(c.header);
        values.push_back(valuesOf(suites, c));
    }
    Table table(title, headers);
    const auto &workloads = suites.workloads();
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        std::vector<std::string> cells{workloads[i]->name};
        for (std::size_t c = 0; c < columns.size(); ++c)
            cells.push_back(columns[c].format(values[c][i]));
        table.addRow(cells);
    }
    std::vector<std::string> summary{"average"};
    for (std::size_t c = 0; c < columns.size(); ++c)
        summary.push_back(columns[c].averaged
                              ? columns[c].format(mean(values[c]))
                              : "");
    table.addSummaryRow(summary);
    printFigure(table, paperNote);
}

/** One row of a suite-averages table: a label and its columns. */
using MeanRow = std::pair<std::string, std::vector<Column>>;

/** Print one row per configuration, each cell a column's mean over
 *  the suite; the first row's column headers head the table. */
void
printSuiteMeans(Suites &suites, const std::string &title,
                const std::string &rowHeader,
                const std::vector<MeanRow> &rows,
                const std::string &paperNote)
{
    std::vector<std::string> headers{rowHeader};
    for (const Column &c : rows.front().second)
        headers.push_back(c.header);
    Table table(title, headers);
    for (const auto &[label, columns] : rows) {
        std::vector<std::string> cells{label};
        for (const Column &c : columns)
            cells.push_back(c.format(mean(valuesOf(suites, c))));
        table.addRow(cells);
    }
    printFigure(table, paperNote);
}

/** The four paper configurations of `metric`, one column each. */
std::vector<Column>
fourConfigs(Suites &suites, const BenchOptions &opts, Metric metric,
            const std::function<std::string(double)> &format)
{
    std::vector<Column> columns;
    for (const auto &[header, algo] : paperConfigs)
        columns.push_back(
            {header, of(suites.results(opts, algo), metric), format});
    return columns;
}

/** `metric` under NET, combined NET, LEI and combined LEI, with the
 *  combined/base ratio after each pair. */
std::vector<Column>
combinedVsBase(Suites &suites, const Metric &metric)
{
    const Results &net = suites.results(Algorithm::Net);
    const Results &cnet = suites.results(Algorithm::NetCombined);
    const Results &lei = suites.results(Algorithm::Lei);
    const Results &clei = suites.results(Algorithm::LeiCombined);
    return {count("NET", net, metric),
            count("comb NET", cnet, metric),
            relative("combNET/NET", cnet, net, metric),
            count("LEI", lei, metric),
            count("comb LEI", clei, metric),
            relative("combLEI/LEI", clei, lei, metric)};
}

// ---------------------------------------------------------------
// Figures 7-12: LEI against NET.
// ---------------------------------------------------------------

/** Figure 7: the improvement of LEI over NET in selecting traces that
 *  span cycles. Lighter bars in the paper = increase in the spanned
 *  cycle ratio (selection-side); darker bars = increase in the
 *  executed cycle ratio (execution-side). */
void
fig07SpanningCycles(Suites &suites)
{
    const Results &net = suites.results(Algorithm::Net);
    const Results &lei = suites.results(Algorithm::Lei);
    auto noAverage = [](Column c) {
        c.averaged = false;
        return c;
    };
    auto increase = [&](std::string header, Metric m) {
        return Column{std::move(header),
                      [&net, &lei, m](std::size_t i) {
                          return (m(lei[i]) - m(net[i])) * 100.0;
                      },
                      decimalCells(1)};
    };
    printPerWorkload(
        suites,
        "Figure 7 — cycle spanning, LEI relative to NET "
        "(percentage-point increase)",
        {noAverage(percent("spanned NET", net, &SimResult::spannedCycleRatio)),
         noAverage(percent("spanned LEI", lei, &SimResult::spannedCycleRatio)),
         increase("spanned +pp", &SimResult::spannedCycleRatio),
         noAverage(percent("executed NET", net,
                       &SimResult::executedCycleRatio)),
         noAverage(percent("executed LEI", lei,
                       &SimResult::executedCycleRatio)),
         increase("executed +pp", &SimResult::executedCycleRatio)},
        "LEI spans more cycles than NET on every benchmark, "
        "raising the spanned-cycle ratio by ~5 points overall; "
        "the executed-cycle ratio rises with it (the two are "
        "highly correlated), with crafty and parser gaining "
        "least.");
}

/** Figure 8: code expansion and region transitions of LEI relative
 *  to NET. */
void
fig08ExpansionTransitions(Suites &suites)
{
    const Results &net = suites.results(Algorithm::Net);
    const Results &lei = suites.results(Algorithm::Lei);
    printPerWorkload(
        suites, "Figure 8 — LEI relative to NET",
        {count("expansion NET", net, &SimResult::expansionInsts),
         count("expansion LEI", lei, &SimResult::expansionInsts),
         relative("expansion ratio", lei, net,
                  &SimResult::expansionInsts),
         count("transitions NET", net, &SimResult::regionTransitions),
         count("transitions LEI", lei, &SimResult::regionTransitions),
         relative("transitions ratio", lei, net,
                  &SimResult::regionTransitions)},
        "LEI averages 92% of NET's code expansion (crafty is "
        "the exception at >=100%) and 80% of NET's region "
        "transitions (parser gains nothing); the benchmarks "
        "where LEI spans the most additional cycles improve "
        "the most.");
}

/** Figures 9 and 10: a count of NET and LEI with their ratio. */
void
leiOverNet(Suites &suites, const std::string &title,
           const Metric &metric, const std::string &paperNote)
{
    const Results &net = suites.results(Algorithm::Net);
    const Results &lei = suites.results(Algorithm::Lei);
    printPerWorkload(suites, title,
                     {count("NET", net, metric), count("LEI", lei, metric),
                      relative("LEI/NET", lei, net, metric)},
                     paperNote);
}

/** Figure 9: minimum number of traces required to cover 90% of the
 *  instructions executed by each benchmark (absolute sizes, NET vs
 *  LEI). */
void
fig09CoverSet(Suites &suites)
{
    leiOverNet(suites, "Figure 9 — 90% cover set size (number of regions)",
               &SimResult::coverSet90,
               "LEI requires a significantly smaller 90% cover set "
               "on every benchmark, an 18% average reduction; the "
               "cover-set size is the paper's proxy for real-system "
               "performance.");
}

/** Figure 10: maximum number of profiling counters in use at any
 *  point, LEI relative to NET. */
void
fig10Counters(Suites &suites)
{
    leiOverNet(suites, "Figure 10 — peak live counters, LEI relative to NET",
               &SimResult::maxLiveCounters,
               "LEI needs only about two-thirds of NET's counter "
               "memory: a counter requires not just a backward-branch "
               "or cache-exit target but one still present in the "
               "500-entry history buffer. (Synthetic-suite caveat: "
               "our programs are far smaller than SPECint2000, so "
               "fewer cold targets exist for NET to waste counters "
               "on and the ratio is noisier — see EXPERIMENTS.md.)");
}

/** Figures 11 and 12: an averaged percentage of NET and LEI. */
void
netAndLei(Suites &suites, const std::string &title, const Metric &metric,
          const std::string &paperNote)
{
    printPerWorkload(
        suites, title,
        {percent("NET", suites.results(Algorithm::Net), metric),
         percent("LEI", suites.results(Algorithm::Lei), metric)},
        paperNote);
}

/** Figure 11: the proportion of instructions selected by NET and LEI
 *  that are exit-dominated duplication (Section 4.1). */
void
fig11ExitDominatedDup(Suites &suites)
{
    netAndLei(suites,
              "Figure 11 — exit-dominated duplication "
              "(% of selected instructions)",
              &SimResult::exitDominatedDupRatio,
              "exit-dominated traces duplicate 1-7% of all selected "
              "instructions; LEI usually shows more exit-dominated "
              "duplication than NET (the same opportunity exists "
              "even though LEI selects less code overall).");
}

/** Figure 12: the proportion of traces selected by NET and LEI that
 *  are exit-dominated (Section 4.1). eon is the paper's outlier: its
 *  tiny shared constructors dominate a trace for every hot caller. */
void
fig12ExitDominatedTraces(Suites &suites)
{
    netAndLei(suites, "Figure 12 — exit-dominated traces (% of regions)",
              &SimResult::exitDominatedRegionRatio,
              "on average 15% of NET traces and 22% of LEI traces "
              "are exit-dominated (typically 10-25% per benchmark), "
              "with eon a clear outlier because of its widely "
              "shared constructor traces.");
}

// ---------------------------------------------------------------
// Figures 16-19: trace combination.
// ---------------------------------------------------------------

/** Figure 16: reduction in the number of region transitions under
 *  trace combination (combined NET vs NET, combined LEI vs LEI). */
void
fig16CombinationTransitions(Suites &suites)
{
    printPerWorkload(
        suites,
        "Figure 16 — region transitions, combined relative to base",
        combinedVsBase(suites, &SimResult::regionTransitions),
        "combining NET traces leaves 85% of the transitions "
        "on average (vortex may rise ~1%); combining LEI "
        "traces leaves only 64% — LEI traces are especially "
        "well-suited to combination.");
}

/** Figure 17: reduction in the 90% cover set size under trace
 *  combination. */
void
fig17CombinationCoverSet(Suites &suites)
{
    printPerWorkload(
        suites,
        "Figure 17 — 90% cover set size, combined relative to base",
        combinedVsBase(suites, &SimResult::coverSet90),
        "combination shrinks NET cover sets by 15% and LEI "
        "cover sets by 28% on average; gzip under NET is the "
        "only increase (one trace) and bzip2 the only case "
        "where LEI benefits less than NET (its LEI cover set "
        "is already tiny).");
}

/** Figure 18: maximum memory required to store observed traces,
 *  reported as a percentage of the estimated code-cache size (code
 *  bytes plus a conservative 10 bytes per exit stub — Section
 *  4.3.4). */
void
fig18CombinationMemory(Suites &suites)
{
    const Results &cnet = suites.results(Algorithm::NetCombined);
    const Results &clei = suites.results(Algorithm::LeiCombined);
    printPerWorkload(
        suites,
        "Figure 18 — peak observed-trace storage "
        "(% of estimated cache size)",
        {count("comb NET bytes", cnet, &SimResult::peakObservedTraceBytes),
         percent("comb NET %", cnet, &SimResult::observedMemoryRatio),
         count("comb LEI bytes", clei, &SimResult::peakObservedTraceBytes),
         percent("comb LEI %", clei, &SimResult::observedMemoryRatio)},
        "average profiling-memory overhead is 6% of the cache "
        "for combined NET (never above 12%) and 13% for "
        "combined LEI (never above 18%); LEI needs more "
        "because its traces are longer and its entrances stay "
        "under observation longer.");
}

/** Figure 19: effect of trace combination on the number of exit
 *  stubs produced by NET and LEI. */
void
fig19CombinationExitStubs(Suites &suites)
{
    printPerWorkload(
        suites, "Figure 19 — exit stubs, combined relative to base",
        combinedVsBase(suites, &SimResult::exitStubs),
        "combination eliminates 18% of NET's exit stubs and "
        "26% of LEI's; together with selecting fewer "
        "instructions this shrinks the cache by 7% (NET) and "
        "9% (LEI), offsetting the Figure 18 profiling memory.");
}

// ---------------------------------------------------------------
// Text numbers of Sections 3.2, 4.2.3, 4.3, 5 and 6.
// ---------------------------------------------------------------

/** Hit rates under all four configurations (text numbers from
 *  Sections 3.2 and 4.3). */
void
tableHitRate(Suites &suites)
{
    printPerWorkload(
        suites, "Hit rate (% of instructions executed from the cache)",
        fourConfigs(suites, suites.base(), &SimResult::hitRate,
                    percentCells(2)),
        "hit rates stay above 98-99% everywhere; LEI is "
        "slightly below NET (mcf 99.80->98.31, gcc "
        "99.37->98.98 are the biggest drops), combined NET is "
        "slightly above NET, combined LEI averages 0.1% below "
        "LEI.");
}

/** Average trace size (Section 3.2.2 text: despite copying fewer
 *  instructions overall, LEI's traces are larger). */
void
tableTraceSize(Suites &suites)
{
    printPerWorkload(
        suites, "Average region size (instructions)",
        fourConfigs(suites, suites.base(), &SimResult::avgRegionInsts,
                    decimalCells(1)),
        "LEI's average trace grows from NET's 14.8 to 18.3 "
        "instructions while total expansion falls — fewer, "
        "larger regions; combination grows regions further.");
}

/** Section 4.3.1 text numbers: trace combination avoids roughly 65%
 *  of exit-dominated duplication and 40% of exit-dominated regions. */
void
tableExitDominationReduction(Suites &suites)
{
    const Results &net = suites.results(Algorithm::Net);
    const Results &cnet = suites.results(Algorithm::NetCombined);
    const Results &lei = suites.results(Algorithm::Lei);
    const Results &clei = suites.results(Algorithm::LeiCombined);
    // Both algorithms pooled: a metric of NET plus LEI (or of their
    // combined forms).
    auto pooled = [](const Results &a, const Results &b, Metric m) {
        return [&a, &b, m](std::size_t i) { return m(a[i]) + m(b[i]); };
    };
    auto sums = [&](std::string header, const Results &a, const Results &b,
                    Metric m) {
        return Column{std::move(header), pooled(a, b, std::move(m)),
                      decimalCells(0), false};
    };
    auto reduction = [&](std::string header, Metric m) {
        return Column{std::move(header),
                      [comb = pooled(cnet, clei, m),
                       base = pooled(net, lei, m)](std::size_t i) {
                          return ratio(comb(i), base(i));
                      },
                      percentCells()};
    };
    const Metric regions = &SimResult::exitDominatedRegions;
    const Metric dup = &SimResult::exitDominatedDupInsts;
    printPerWorkload(
        suites,
        "Exit domination under trace combination (combined "
        "vs base, both algorithms pooled)",
        {sums("regions base", net, lei, regions),
         sums("regions comb", cnet, clei, regions),
         reduction("regions ratio", regions),
         sums("dup insts base", net, lei, dup),
         sums("dup insts comb", cnet, clei, dup),
         reduction("dup ratio", dup)},
        "combining traces avoids ~65% of exit-dominated "
        "duplication and ~40% of exit-dominated regions; the "
        "residual comes from the finite T_prof sample and "
        "phase changes making the window unrepresentative.");
}

/** Sections 4.3.2/4.3.3 text numbers: combined NET selects 98% as
 *  many instructions as NET and combined LEI 99% as many as LEI; the
 *  total region count falls 9% (NET) and 30% (LEI). */
void
tableCombinationExpansion(Suites &suites)
{
    const Results &net = suites.results(Algorithm::Net);
    const Results &cnet = suites.results(Algorithm::NetCombined);
    const Results &lei = suites.results(Algorithm::Lei);
    const Results &clei = suites.results(Algorithm::LeiCombined);
    printPerWorkload(
        suites, "Code expansion and region count under combination",
        {relative("exp combNET/NET", cnet, net, &SimResult::expansionInsts),
         relative("exp combLEI/LEI", clei, lei, &SimResult::expansionInsts),
         relative("regions combNET/NET", cnet, net,
                  &SimResult::regionCount),
         relative("regions combLEI/LEI", clei, lei,
                  &SimResult::regionCount)},
        "combination does not inflate expansion (98% for NET, "
        "99% for LEI: the T_min filter slightly outweighs the "
        "extra rejoining paths) and cuts the number of "
        "regions selected by 9% (NET) and 30% (LEI).");
}

/** Section 6 headline comparison: the combined algorithms (LEI with
 *  trace combination) against plain NET. */
void
tableConclusion(Suites &suites)
{
    const Results &net = suites.results(Algorithm::Net);
    const Results &clei = suites.results(Algorithm::LeiCombined);
    printPerWorkload(
        suites, "Conclusion — combined LEI relative to plain NET",
        {relative("expansion", clei, net, &SimResult::expansionInsts),
         relative("exit stubs", clei, net, &SimResult::exitStubs),
         relative("transitions", clei, net, &SimResult::regionTransitions),
         relative("90% cover set", clei, net, &SimResult::coverSet90)},
        "combined LEI vs NET: 91% of the code expansion, 68% "
        "of the exit stubs, ~50% of the region transitions, "
        "and a 90% cover set 44% smaller on average (>25% "
        "smaller on every benchmark).");
}

/** Section 4.2.3 practicality claim: the mark-rejoining-paths
 *  dataflow visits blocks in post order, so marks almost always
 *  settle in one sweep — "roughly 0.1% of regions that mark blocks
 *  in the first iteration proceed to mark additional blocks in the
 *  second." */
void
tableMarkingIterations(Suites &suites)
{
    Table table("Mark-rejoining-paths sweeps (combined NET + LEI)",
                {"benchmark", "regions marked", "needed 2nd sweep",
                 "fraction"});

    const Results &cnet = suites.results(Algorithm::NetCombined);
    const Results &clei = suites.results(Algorithm::LeiCombined);

    std::uint64_t totalMarked = 0, totalMulti = 0;
    for (std::size_t i = 0; i < cnet.size(); ++i) {
        const std::uint64_t marked =
            cnet[i].markSweepRegions + clei[i].markSweepRegions;
        const std::uint64_t multi = cnet[i].markSweepMultiIterRegions +
                                    clei[i].markSweepMultiIterRegions;
        totalMarked += marked;
        totalMulti += multi;
        table.addRow({cnet[i].workload, std::to_string(marked),
                      std::to_string(multi),
                      formatPercent(ratio(static_cast<double>(multi),
                                          static_cast<double>(marked),
                                          0.0))});
    }
    table.addSummaryRow(
        {"total", std::to_string(totalMarked),
         std::to_string(totalMulti),
         formatPercent(ratio(static_cast<double>(totalMulti),
                             static_cast<double>(totalMarked), 0.0))});

    printFigure(table,
                "~0.1% of regions whose first sweep marks blocks need "
                "a second sweep (back edges can delay propagation); "
                "in practice the dataflow is linear in the edges.");
}

/** Section 4.3 footnote: "setting T_prof = 5 and T_min = 2 results
 *  in smaller but similar improvements" — the profiling window can
 *  be shortened when observation overhead matters. */
void
tableTprofSensitivity(Suites &suites)
{
    std::vector<MeanRow> rows;
    for (const auto &[label, tprof, tmin] :
         {std::tuple{"T_prof=15 T_min=5", 15u, 5u},
          std::tuple{"T_prof=5  T_min=2", 5u, 2u}}) {
        BenchOptions opts = suites.base();
        opts.net.profWindow = opts.lei.profWindow = tprof;
        opts.net.minOccur = opts.lei.minOccur = tmin;
        const Results &lei = suites.results(opts, Algorithm::Lei);
        const Results &clei = suites.results(opts, Algorithm::LeiCombined);
        rows.push_back(
            {label,
             {relative("transitions ratio", clei, lei,
                       &SimResult::regionTransitions),
              relative("cover-set ratio", clei, lei, &SimResult::coverSet90),
              percent("profiling memory", clei,
                      &SimResult::observedMemoryRatio)}});
    }
    printSuiteMeans(suites,
                    "Combination window sensitivity (combined LEI vs "
                    "LEI, suite averages)",
                    "window", rows,
                    "the small window yields smaller but similar "
                    "improvements, with less profiling memory — the "
                    "balance can be struck per deployment.");
}

/** Section 5 comparison: every shipped selection algorithm on the
 *  full suite. The paper argues that the related techniques — Mojo's
 *  lower exit threshold, BOA's per-branch profiling, Wiggins/
 *  Redstone's sampling — identify hot traces more carefully but do
 *  not address separation or duplication; combination does. The
 *  90% cover set is the quality proxy (Bala et al. found it a
 *  perfect predictor of real performance: smaller set, faster run). */
void
tableRelatedSelectors(Suites &suites)
{
    const std::vector<std::pair<const char *, Algorithm>> others{
        {"Mojo", Algorithm::Mojo},
        {"BOA", Algorithm::Boa},
        {"WRS", Algorithm::Wrs},
        {"LEI", Algorithm::Lei},
        {"LEI+comb", Algorithm::LeiCombined}};
    const Results &net = suites.results(Algorithm::Net);

    // The cover table prints absolute sizes per workload but
    // averages each algorithm's size relative to NET.
    std::vector<std::string> headers{"benchmark", "NET"};
    for (const auto &[name, algo] : others)
        headers.push_back(name);
    Table cover("90% cover set size by algorithm", headers);
    std::vector<std::vector<double>> coverRatios(others.size());
    for (std::size_t i = 0; i < net.size(); ++i) {
        std::vector<std::string> cells{net[i].workload,
                                       std::to_string(net[i].coverSet90)};
        for (std::size_t a = 0; a < others.size(); ++a) {
            const SimResult &r = suites.results(others[a].second)[i];
            cells.push_back(std::to_string(r.coverSet90));
            coverRatios[a].push_back(
                ratio(r.coverSet90, net[i].coverSet90));
        }
        cover.addRow(cells);
    }
    std::vector<std::string> summary{"avg vs NET", "100%"};
    for (const std::vector<double> &r : coverRatios)
        summary.push_back(formatPercent(mean(r)));
    cover.addSummaryRow(summary);
    printFigure(cover,
                "more careful single-path selection (Mojo, BOA, WRS) "
                "cannot match the cover-set reduction of cycle-based "
                "selection plus combination.");

    std::vector<Column> trans;
    for (const auto &[name, algo] : others)
        trans.push_back(relative(name, suites.results(algo), net,
                                 &SimResult::regionTransitions));
    printPerWorkload(suites, "Region transitions relative to NET", trans,
                     "Mojo reduces separation delay but still optimizes "
                     "related traces apart; only LEI and combination cut "
                     "transitions decisively.");
}

// ---------------------------------------------------------------
// Extensions, ablations and validations (not paper figures).
// ---------------------------------------------------------------

/**
 * Bounded-cache extension study (paper Section 2.3, deferred to
 * future work): "our region-selection algorithms should help improve
 * the performance of dynamic optimization systems with bounded code
 * caches, because our algorithms reduce code duplication and produce
 * fewer cached regions. This improves memory performance, reduces
 * the overhead of cache management, and regenerates fewer evicted
 * regions."
 *
 * For each workload the cache is capped at 50% of NET's unbounded
 * footprint and the four configurations run under FIFO eviction;
 * the table reports regenerations (re-translation work) and the
 * bounded hit rate.
 */
void
tableBoundedCache(Suites &suites)
{
    const BenchOptions &base = suites.base();
    Table table("Bounded cache at 50% of NET's footprint (FIFO): "
                "regenerations and hit rate",
                {"benchmark", "regen NET", "regen LEI",
                 "regen combNET", "regen combLEI", "hit NET",
                 "hit combLEI"});

    std::vector<double> regens[std::size(paperConfigs)];
    const Results &unbounded = suites.results(Algorithm::Net);
    for (std::size_t i = 0; i < unbounded.size(); ++i) {
        const WorkloadInfo *w = suites.workloads()[i];
        Program prog = w->build(base.buildSeed);
        SimOptions opts = base.simOptions();
        opts.maxEvents =
            base.events != 0 ? base.events : w->defaultEvents;
        opts.cache.capacityBytes =
            unbounded[i].estimatedCacheBytes / 2;
        opts.cache.policy = CacheLimits::Policy::Fifo;

        std::vector<std::string> cells{w->name};
        std::vector<SimResult> rs;
        for (std::size_t a = 0; a < std::size(paperConfigs); ++a) {
            rs.push_back(simulate(prog, paperConfigs[a].second, opts));
            regens[a].push_back(
                static_cast<double>(rs[a].cacheRegenerations));
            cells.push_back(std::to_string(rs[a].cacheRegenerations));
        }
        cells.push_back(formatPercent(rs.front().hitRate(), 2));
        cells.push_back(formatPercent(rs.back().hitRate(), 2));
        table.addRow(cells);
    }
    std::vector<std::string> summary{"average"};
    for (const std::vector<double> &r : regens)
        summary.push_back(formatDouble(mean(r), 1));
    summary.insert(summary.end(), {"", ""}); // no average hit rate
    table.addSummaryRow(summary);

    printFigure(table,
                "(extension, not a paper figure) the paper predicts "
                "fewer regenerations for algorithms that cache fewer, "
                "less duplicated regions — combined LEI should "
                "regenerate the least.");
}

/** Ablation: LEI's history-buffer capacity. The paper fixes it at 500
 *  ("small enough to require little memory but large enough to
 *  capture very long cycles and those with frequently executing
 *  nested cycles") without a sweep — this table supplies one. Too
 *  small a buffer misses long cycles entirely (their targets are
 *  evicted before recurring); beyond a few hundred entries the
 *  returns vanish. */
void
ablationBufferSize(Suites &suites)
{
    const Results &net = suites.results(Algorithm::Net);
    std::vector<MeanRow> rows;
    for (std::size_t capacity : {8u, 32u, 128u, 500u, 2000u}) {
        BenchOptions opts = suites.base();
        opts.lei.bufferCapacity = capacity;
        const Results &lei = suites.results(opts, Algorithm::Lei);
        rows.push_back(
            {std::to_string(capacity),
             {{"regions", of(lei, &SimResult::regionCount), decimalCells(1)},
              relative("cover90 vs NET", lei, net, &SimResult::coverSet90),
              relative("transitions vs NET", lei, net,
                       &SimResult::regionTransitions),
              percent("executed cycles", lei,
                      &SimResult::executedCycleRatio),
              percent("hit rate", lei, &SimResult::hitRate, 2)}});
    }
    printSuiteMeans(suites, "LEI vs buffer capacity (suite averages)",
                    "capacity", rows,
                    "(ablation, not a paper figure) the paper's "
                    "500-entry choice sits on the flat part of the "
                    "curve: small buffers cannot hold interprocedural "
                    "cycles, very large ones add nothing.");
}

/** Ablation: hot-threshold sensitivity. NET's published threshold is
 *  50 and LEI's 35 ("as LEI counts only certain executions of a
 *  backward branch ... a smaller value should be used"; the paper
 *  chose 35 without run-time tuning). This table sweeps both: low
 *  thresholds select cold paths eagerly (more regions, more
 *  expansion), high thresholds delay coverage (lower hit rate at a
 *  fixed budget). */
void
ablationThresholds(Suites &suites)
{
    std::vector<MeanRow> rows;
    auto sweep = [&](Algorithm algo, std::uint32_t threshold) {
        BenchOptions opts = suites.base();
        if (algo == Algorithm::Net)
            opts.net.hotThreshold = threshold;
        else
            opts.lei.hotThreshold = threshold;
        const Results &rs = suites.results(opts, algo);
        auto average = [&](std::string header, Metric m, int decimals) {
            return Column{std::move(header), of(rs, std::move(m)),
                          decimalCells(decimals)};
        };
        rows.push_back(
            {algorithmName(algo) + " T=" + std::to_string(threshold),
             {average("regions", &SimResult::regionCount, 1),
              average("expansion", &SimResult::expansionInsts, 0),
              average("cover90", &SimResult::coverSet90, 1),
              average("transitions", &SimResult::regionTransitions, 0),
              percent("hit rate", rs, &SimResult::hitRate, 2)}});
    };
    for (std::uint32_t t : {10u, 25u, 50u, 100u, 200u})
        sweep(Algorithm::Net, t);
    for (std::uint32_t t : {10u, 20u, 35u, 70u, 140u})
        sweep(Algorithm::Lei, t);

    printSuiteMeans(suites, "Threshold sweep (suite averages)", "config",
                    rows,
                    "(ablation, not a paper figure) the published 50/35 "
                    "pair balances eager selection of cold paths "
                    "against delayed coverage; the cover set is fairly "
                    "flat around it, consistent with the paper not "
                    "tuning it.");
}

/** Locality measured directly: the paper uses region transitions as
 *  its locality-of-execution proxy ("fewer region transitions implies
 *  better locality") because separation hurts instruction-cache
 *  performance. This table closes the loop by running a scaled-down
 *  L1 instruction cache over the code-cache layout of each
 *  algorithm. */
void
tableIcacheLocality(Suites &suites)
{
    // Tight geometry: the synthetic hot footprints are ~100x smaller
    // than SPECint2000's, so the modelled cache must be tighter still
    // for separation to show.
    BenchOptions opts = suites.base();
    opts.icache = {1024, 32, 1};
    printPerWorkload(
        suites,
        "I-cache miss rate of cached execution "
        "(1 KiB, direct-mapped, 32 B lines)",
        fourConfigs(suites, opts, &SimResult::icacheMissRate,
                    percentCells(2)),
        "(validation of the paper's proxy, not a paper "
        "figure) the transition reductions of Figures 8 and "
        "16 should translate into lower instruction-fetch "
        "miss rates, with combined LEI the lowest.");
}

/** Footnote 9 of the paper: the memory model ignores "the memory
 *  required for links between regions in the cache", noting that
 *  "our algorithms are very likely to reduce the number of such
 *  links, as fewer regions are selected and each contains more
 *  related code." This table measures the exercised link pairs
 *  directly. */
void
tableRegionLinks(Suites &suites)
{
    std::vector<Column> columns =
        fourConfigs(suites, suites.base(), &SimResult::interRegionLinks,
                    countCell);
    for (Column &c : columns)
        c.averaged = false;
    columns.push_back(relative("combLEI/NET",
                               suites.results(Algorithm::LeiCombined),
                               suites.results(Algorithm::Net),
                               &SimResult::interRegionLinks));
    printPerWorkload(suites, "Distinct region-to-region links", columns,
                     "the combined algorithms maintain far fewer links "
                     "between regions, validating the paper's footnote 9 "
                     "expectation.");
}

/**
 * Graceful-degradation study (robustness extension, not a paper
 * figure): the deterministic fault injector drives translation
 * failures, block invalidations, flush storms and selector resets at
 * increasing intensity, and the table reports how far each selection
 * algorithm's completion (cache hit rate) degrades while the system
 * absorbs every fault — the run must finish, conserve instructions,
 * and fall back to interpretation only where recovery gives up
 * (blacklisted entrances).
 */
void
tableFaultDegradation(Suites &suites)
{
    const std::pair<const char *, const char *> levels[] = {
        {"none", "f1"},
        {"light", "f1,tfail=5,inval=20,flush=2,reset=1"},
        {"moderate", "f1,tfail=20,inval=150,flush=20,reset=10"},
        {"heavy", "f1,tfail=50,inval=600,flush=80,reset=40"}};
    const Algorithm algos[] = {Algorithm::Net, Algorithm::LeiCombined};

    Table table("Degradation under deterministic fault injection "
                "(suite averages)",
                {"fault level", "hit NET", "hit combLEI", "faults",
                 "invalidated", "retrans", "blacklisted"});

    const BenchOptions &base = suites.base();
    for (const auto &[name, plan] : levels) {
        SimOptions opts = base.simOptions();
        opts.faults = resilience::FaultPlan::parse(plan);
        std::vector<double> hitRates[2];
        resilience::RecoveryStats total; // both algorithms pooled
        for (const WorkloadInfo *w : suites.workloads()) {
            Program prog = w->build(base.buildSeed);
            opts.maxEvents =
                base.events != 0 ? base.events : w->defaultEvents;
            for (std::size_t a = 0; a < 2; ++a) {
                const SimResult r = simulate(prog, algos[a], opts);
                hitRates[a].push_back(r.hitRate());
                total.mergeFrom(r.recovery);
            }
        }
        table.addRow({name, formatPercent(mean(hitRates[0]), 2),
                      formatPercent(mean(hitRates[1]), 2),
                      std::to_string(total.faultsInjected),
                      std::to_string(total.regionsInvalidated),
                      std::to_string(total.retranslations),
                      std::to_string(total.blacklistedEntrances)});
    }

    printFigure(table,
                "(robustness extension) hit rate should fall "
                "monotonically with fault intensity while every run "
                "completes; blacklisting should stay rare below the "
                "heavy level, where persistent translation failures "
                "push hot entrances back to pure interpretation.");
}

/** "bound / observed" as a ratio cell ("-" when nothing ran). */
std::string
tightness(std::uint64_t bound, std::uint64_t observed)
{
    if (observed == 0)
        return "-";
    return formatDouble(static_cast<double>(bound) /
                            static_cast<double>(observed),
                        2);
}

/**
 * Section 4.4 quantified: structural optimization opportunities of
 * the regions each algorithm caches. The paper argues (without
 * numbers) that multi-path regions optimize better: both sides of
 * if-else statements present (compensation-free redundancy
 * elimination), join points visible to the optimizer, and cycles
 * with in-region preheaders (loop-invariant code motion, which even
 * a cycle-spanning trace cannot do).
 *
 * The second table extends the argument across call boundaries: the
 * interprocedural analyzer's per-workload inlining opportunities
 * (call sites, hot-loop sites, sound duplication-growth bound)
 * against the measured dynamic call behaviour, with the tightness
 * ratio bound/observed and the share of dynamic calls flowing
 * through the top quartile of the ranked table. A gate re-checks
 * every sound claim (callee sets, return edges, bound chain) and
 * fails the run on any violation.
 */
void
tableOptimizationOpportunities(Suites &suites)
{
    Table table("Optimization-opportunity structure (suite totals)",
                {"metric", "NET", "LEI", "comb NET", "comb LEI"});
    auto addRow = [&](const std::string &name, const Metric &metric) {
        std::vector<std::string> cells{name};
        for (const auto &[header, algo] : paperConfigs) {
            std::uint64_t total = 0;
            for (const SimResult &r : suites.results(algo))
                total += static_cast<std::uint64_t>(metric(r));
            cells.push_back(std::to_string(total));
        }
        table.addRow(cells);
    };
    addRow("regions selected", &SimResult::regionCount);
    addRow("regions with internal cycle",
           &SimResult::regionsWithInternalCycle);
    addRow("LICM-capable regions", &SimResult::licmCapableRegions);
    addRow("regions with both if-else sides",
           &SimResult::dualSplitRegions);
    addRow("internal join blocks", &SimResult::joinBlocksTotal);
    printFigure(table,
                "single-path traces can never contain both sides of "
                "a split or a join; only the combined algorithms "
                "produce regions where redundancy elimination needs "
                "no compensation code and loops have in-region "
                "preheaders for invariant code motion.");

    const BenchOptions &opts = suites.base();
    Table inter("Interprocedural opportunities vs dynamic calls",
                {"workload", "callSites", "hotSites", "staticBound",
                 "dynCalls", "observedInsts", "tightness",
                 "topQuartile"});
    bool held = true;
    for (const WorkloadInfo *w : suites.workloads()) {
        const Program prog = w->build(opts.buildSeed);
        const std::uint64_t events =
            opts.events != 0 ? opts.events : w->defaultEvents;
        const testing::InterValidation val =
            testing::validateInterprocedural(prog, events, opts.seed);
        if (!val.error.empty()) {
            std::printf("%s: %s\n", w->name.c_str(), val.error.c_str());
            held = false;
        }
        analysis::AnalysisManager mgr;
        const analysis::OpportunityReport opp =
            analysis::analyzeInlineOpportunities(mgr.interFacts(prog));
        inter.addRow({w->name,
                      std::to_string(opp.ranked.size()),
                      std::to_string(opp.hotLoopSites),
                      std::to_string(val.dupGrowthBoundInsts),
                      std::to_string(val.callTransfers),
                      std::to_string(val.observedCalleeInsts),
                      tightness(val.dupGrowthBoundInsts,
                                val.observedCalleeInsts),
                      formatDouble(val.topQuartileCallShare, 2)});
    }
    inter.print(std::cout);
    std::printf("%s\n", held ? "interprocedural bounds held"
                             : "interprocedural bounds VIOLATED");
    suites.gatesHeld = suites.gatesHeld && held;
}

struct Figure
{
    const char *name;
    void (*run)(Suites &);
};

/** Every figure, in the order a run with no name prints them. */
const Figure figureRegistry[] = {
    {"fig07_spanning_cycles", fig07SpanningCycles},
    {"fig08_expansion_transitions", fig08ExpansionTransitions},
    {"fig09_cover_set", fig09CoverSet},
    {"fig10_counters", fig10Counters},
    {"fig11_exit_dominated_dup", fig11ExitDominatedDup},
    {"fig12_exit_dominated_traces", fig12ExitDominatedTraces},
    {"fig16_combination_transitions", fig16CombinationTransitions},
    {"fig17_combination_cover_set", fig17CombinationCoverSet},
    {"fig18_combination_memory", fig18CombinationMemory},
    {"fig19_combination_exit_stubs", fig19CombinationExitStubs},
    {"table_hit_rate", tableHitRate},
    {"table_trace_size", tableTraceSize},
    {"table_exit_domination_reduction", tableExitDominationReduction},
    {"table_combination_expansion", tableCombinationExpansion},
    {"table_conclusion", tableConclusion},
    {"table_marking_iterations", tableMarkingIterations},
    {"table_tprof_sensitivity", tableTprofSensitivity},
    {"table_related_selectors", tableRelatedSelectors},
    {"table_bounded_cache", tableBoundedCache},
    {"ablation_buffer_size", ablationBufferSize},
    {"ablation_thresholds", ablationThresholds},
    {"table_icache_locality", tableIcacheLocality},
    {"table_region_links", tableRegionLinks},
    {"table_fault_degradation", tableFaultDegradation},
    {"table_optimization_opportunities", tableOptimizationOpportunities},
};

} // namespace

int
main(int argc, char **argv)
{
    std::string names;
    for (const Figure &f : figureRegistry)
        names += std::string("\n  ") + f.name;
    std::vector<std::string> requested;
    const BenchOptions opts = parseArgs(
        argc, argv,
        "Print the paper's figures and tables: figures [name...] "
        "[options]\nWith no name, every figure runs, in this order:" +
            names,
        &requested);

    std::vector<const Figure *> selected;
    for (const std::string &name : requested) {
        const Figure *found = nullptr;
        for (const Figure &f : figureRegistry)
            if (name == f.name)
                found = &f;
        if (found == nullptr) {
            std::cerr << "error: unknown figure '" << name
                      << "'; valid names:" << names << '\n';
            return ExitUsageError;
        }
        selected.push_back(found);
    }
    if (selected.empty())
        for (const Figure &f : figureRegistry)
            selected.push_back(&f);

    try {
        Suites suites(opts);
        suites.workloads(); // reject a bad --workload before any output
        for (const Figure *f : selected)
            f->run(suites);
        return suites.gatesHeld ? ExitOk : ExitRuntimeFault;
    } catch (const FatalError &e) {
        std::cerr << "error: " << e.what() << '\n';
        return ExitUsageError;
    }
}
