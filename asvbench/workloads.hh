/**
 * @file
 * The three closed-loop workloads of the system benchmark. Each runs
 * in its own process (one per invocation of asv_sysbench), builds
 * its scenes from the seed, sets up, warms up, runs the timed phase,
 * and checks every delivered map outside the timed intervals.
 */

#ifndef ASVBENCH_WORKLOADS_HH
#define ASVBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "harness.hh"

namespace asvbench
{

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20.0; //!< length of the timed phase
    bool trace = false;    //!< per-layer run instead of end-to-end
    std::string traceOut;  //!< Chrome trace file (traced run only)
};

/** One ISM camera at 320x240 with a DNN key-frame matcher. */
RunResult runAsvCamera(const Options &opt);

/** One 640x480 camera through SGM on every frame. */
RunResult runSgmCamera(const Options &opt);

/** Eight 160x120 cameras sharing one serve::Server. */
RunResult runServeFleet(const Options &opt);

} // namespace asvbench

#endif // ASVBENCH_WORKLOADS_HH
