/**
 * @file
 * rselect-perfbench: the repository's benchmark program.
 *
 *   rselect-perfbench --workload guest-trace --seed 1 --seconds 35 \
 *       --trace 0 --pins perfbench/pins
 *   rselect-perfbench --write-pins perfbench/pins
 *
 * A run prints a host/build stamp, one line per repetition and, when
 * traced, the per-layer table; its last stdout line is one JSON
 * object with the keys correct, attempted, failed and metrics.
 * Exit codes: 0 = ran (correctness is in the JSON), 1 = runtime
 * fault, 2 = usage error.
 */

#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/exit_codes.hpp"

using namespace rsel;

int
main(int argc, char **argv)
{
    CliOptions cli;
    cli.define("workload", "",
               "guest-trace | guest-combined | service-fleet");
    cli.define("seed", "1", "workload seed (selects the inputs)");
    cli.define("seconds", "10", "length of the timed phase");
    cli.define("trace", "0",
               "1 = traced run reporting the per-layer metrics");
    cli.define("pins", "perfbench/pins",
               "directory of the pinned fingerprints");
    cli.define("spans", "", "traced runs write their spans here (TSV)");
    cli.define("commit", "unknown", "commit id stamped on the result");
    cli.define("write-pins", "",
               "record guest.pins and fleet.pins in this directory "
               "and exit");
    try {
        cli.parse(argc, argv);
        if (cli.helpRequested()) {
            std::cout << cli.usage(argv[0]);
            return ExitOk;
        }
        if (!cli.get("write-pins").empty()) {
            perfbench::writeGuestPins(cli.get("write-pins"));
            perfbench::writeFleetPins(cli.get("write-pins"));
            return ExitOk;
        }
        perfbench::Options opts;
        opts.workload = cli.get("workload");
        opts.seed = cli.getUint("seed");
        opts.seconds = cli.getDouble("seconds");
        opts.trace = cli.getBool("trace");
        opts.pinsDir = cli.get("pins");
        opts.spansPath = cli.get("spans");
        if (!(opts.seconds > 0 && opts.seconds <= 120))
            fatal("--seconds must be in (0, 120]");
        const bool fleet = opts.workload == "service-fleet";
        if (!fleet && opts.workload != "guest-trace" &&
            opts.workload != "guest-combined")
            fatal("unknown --workload '" + opts.workload + "'");

        perfbench::printStamp(opts, cli.get("commit"),
                              fleet ? perfbench::fleetJobs() : 1);
        const perfbench::Outcome outcome =
            fleet ? perfbench::runFleet(opts)
                  : perfbench::runGuest(
                        opts, opts.workload == "guest-combined");
        perfbench::printResult(outcome);
        return ExitOk;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return ExitUsageError;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "runtime fault: %s\n", e.what());
        return ExitRuntimeFault;
    }
}
