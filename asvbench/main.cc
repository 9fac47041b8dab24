/**
 * asv_sysbench — one workload of the ASV system benchmark per
 * process.
 *
 *   asv_sysbench --workload <asv_camera|sgm_camera|serve_fleet>
 *                --seed <n> --seconds <s> [--trace 0|1]
 *                [--trace-out <file.json>]
 *
 * Prints one line per metric, then a one-line JSON result as the
 * last line of stdout. Exit code 0 only when every output check
 * passed. See README.md for the metrics and workloads.
 */

#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "harness.hh"
#include "workloads.hh"

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "asv_sysbench: " << why
              << "\nusage: asv_sysbench --workload <asv_camera|"
                 "sgm_camera|serve_fleet> --seed <n> --seconds <s> "
                 "[--trace 0|1] [--trace-out <file>]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    asvbench::Options opt;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            const std::string val = argv[++i];
            if (arg == "--workload")
                opt.workload = val;
            else if (arg == "--seed")
                opt.seed = std::stoull(val);
            else if (arg == "--seconds")
                opt.seconds = std::stod(val);
            else if (arg == "--trace")
                opt.trace = std::stoi(val) != 0;
            else if (arg == "--trace-out")
                opt.traceOut = val;
            else
                usage("unknown argument " + arg);
        }
    } catch (const std::logic_error &e) {
        usage(std::string("bad number: ") + e.what());
    }
    if (!(opt.seconds > 0.0 && opt.seconds <= 3600.0))
        usage("--seconds must be in (0, 3600]");

    asvbench::RunResult (*run)(const asvbench::Options &) = nullptr;
    if (opt.workload == "asv_camera")
        run = asvbench::runAsvCamera;
    else if (opt.workload == "sgm_camera")
        run = asvbench::runSgmCamera;
    else if (opt.workload == "serve_fleet")
        run = asvbench::runServeFleet;
    else
        usage("unknown workload '" + opt.workload + "'");

    try {
        const asvbench::RunResult r = run(opt);
        asvbench::printReport(std::cout, opt.workload, r);
        return r.correct && r.failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "asv_sysbench: " << opt.workload << ": " << e.what()
                  << "\n";
        return 1;
    }
}
