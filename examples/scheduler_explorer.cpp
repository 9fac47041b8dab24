/**
 * @file
 * Interactive scheduler exploration tool: pick a zoo network and a
 * hardware configuration on the command line and get the per-layer
 * schedule chosen by the constrained optimizer — tile sizes, reuse
 * order, rounds, DRAM traffic and the latency split between compute
 * and memory. The tool a performance engineer would reach for when
 * porting a new stereo DNN to the accelerator.
 *
 * Usage: scheduler_explorer [network] [peDim] [bufferMB]
 *   network:  DispNet | FlowNetC | GC-Net | PSMNet | DCGAN | ...
 *   peDim:    PE array dimension (default 24)
 *   bufferMB: on-chip buffer in MB (default 1.5)
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "deconv/transform.hh"
#include "dnn/zoo.hh"
#include "sim/accelerator.hh"

namespace
{

int
run(int argc, char **argv)
{
    using namespace asv;

    const std::string name = argc > 1 ? argv[1] : "FlowNetC";
    sched::HardwareConfig hw;
    if (argc > 2)
        hw.peRows = hw.peCols = std::atoi(argv[2]);
    if (argc > 3)
        hw.bufferBytes =
            int64_t(std::atof(argv[3]) * 1024 * 1024);

    const dnn::Network net = dnn::zoo::buildByName(name);
    std::printf("network %s on %dx%d PEs, %.2f MB buffer, "
                "%.1f GB/s\n\n",
                net.name().c_str(), hw.peRows, hw.peCols,
                hw.bufferBytes / 1048576.0, hw.dramGbps);

    const auto cost =
        sim::simulateNetwork(net, hw, sim::Variant::Ilar);

    std::printf("%-22s %-8s %10s %10s %8s %7s %9s %6s %5s\n",
                "layer", "kind", "cycles", "MACs(M)", "DRAM-MB",
                "rounds", "tile-span", "order", "ILAR");
    for (const auto &l : cost.layers) {
        if (l.sched.latencyCycles == 0)
            continue;
        const char *order =
            l.sched.order == sched::ReuseOrder::IfmapResident
                ? "ifmap"
                : "wght";
        std::printf("%-22s %-8s %10lld %10.1f %8.2f %7d %9d "
                    "%6s %5s\n",
                    l.name.c_str(), dnn::toString(l.kind),
                    (long long)l.sched.latencyCycles,
                    l.sched.macs / 1e6,
                    l.sched.traffic.total() / 1048576.0,
                    l.sched.rounds, l.sched.tileRows, order,
                    l.sched.usedIlar ? "yes" : "-");
    }

    std::printf("\nTOTAL: %.2f ms, %.1f GMACs, %.1f MB DRAM, "
                "%.2f mJ (%.1f FPS)\n",
                1e3 * cost.seconds(hw), cost.macs / 1e9,
                cost.traffic.total() / 1048576.0,
                1e3 * cost.energy.total(), cost.fps(hw));
    std::printf("energy: mac %.2f + rf %.2f + sram %.2f + dram "
                "%.2f + scalar %.2f + leak %.2f mJ\n",
                1e3 * cost.energy.macJ, 1e3 * cost.energy.rfJ,
                1e3 * cost.energy.sramJ, 1e3 * cost.energy.dramJ,
                1e3 * cost.energy.scalarJ,
                1e3 * cost.energy.leakageJ);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // An unknown network or an unschedulable hardware size is the
    // user's error: the library throws, the tool reports it.
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
