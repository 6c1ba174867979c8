/**
 * @file
 * Benchmark binary: runs one workload in this process.
 *
 *   perfbench --workload <apps_dram|solvers_small|serving_mix>
 *             --seed <n> --seconds <s> [--mode run|traced|counts]
 *             [--trace-out <chrome-trace.json>]
 *
 * The last line of standard output is `PERFBENCH_RESULT <json>` (or
 * `PERFBENCH_COUNTS <json>` in counts mode); run.py turns it into the
 * benchmark's result line.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <apps_dram|solvers_small|"
                 "serving_mix> --seed <n> --seconds <s> [--mode "
                 "run|traced|counts] [--trace-out <path>]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::strtoull(value, nullptr, 10);
        else if (key == "--seconds")
            args.seconds = std::strtod(value, nullptr);
        else if (key == "--mode")
            args.mode = value;
        else if (key == "--trace-out")
            args.traceOut = value;
        else
            return usage();
    }
    if (argc % 2 == 0 || !(args.seconds > 0.0) ||
        (args.mode != "run" && args.mode != "traced" &&
         args.mode != "counts"))
        return usage();
    perfbench::printHeader(args);
    if (args.workload == "apps_dram")
        return perfbench::runAppsDram(args);
    if (args.workload == "solvers_small")
        return perfbench::runSolversSmall(args);
    if (args.workload == "serving_mix")
        return perfbench::runServingMix(args);
    return usage();
}
