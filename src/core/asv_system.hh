/**
 * @file
 * System-level ASV simulation (Sec. 5): the full stereo vision
 * system combining the ISM algorithm with the deconvolution
 * optimizations on the co-designed accelerator.
 *
 * Key frames run the stereo DNN on the systolic accelerator (with or
 * without the deconvolution optimizations). Non-key frames run the
 * OF + BM pipeline mapped onto the same hardware (Sec. 5.1): Gaussian
 * blur and SAD block matching on the (SAD-extended) PE array,
 * compute-flow / matrix-update on the extended scalar unit. The
 * sequencer selects key frames with a static propagation window
 * (Sec. 5.2).
 */

#ifndef ASV_CORE_ASV_SYSTEM_HH
#define ASV_CORE_ASV_SYSTEM_HH

#include <memory>

#include "core/ism.hh"
#include "dnn/network.hh"
#include "sched/schedule.hh"
#include "sim/accelerator.hh"
#include "sim/energy.hh"
#include "stereo/matcher.hh"

namespace asv::core
{

/** The four system variants of the evaluation (Sec. 6.2). */
enum class SystemVariant
{
    Baseline, //!< stereo DNN every frame, generic accelerator
    IsmOnly,  //!< ISM algorithm, unoptimized DNN on key frames
    DcoOnly,  //!< deconv optimizations, DNN every frame
    IsmDco,   //!< full ASV
};

const char *toString(SystemVariant v);

/** System-level configuration. */
struct SystemConfig
{
    /** Frame geometry for the OF/BM stages (qHD per Sec. 5.2). */
    int frameWidth = 960;
    int frameHeight = 540;

    /**
     * ISM cost parameters at deployment scale: motion at quarter
     * resolution, 5x5 blocks, +-2 refinement — the configuration
     * whose non-key cost is ~87 Mops at qHD (Sec. 3.3).
     */
    IsmParams ism{4, 2, 2, 64, 4, {2, 2, 3, 1.2, 5}};
};

/** Latency/energy of one frame class. */
struct FrameCost
{
    double seconds = 0.0;
    double energyJ = 0.0;
};

/** Result of a system-level simulation. */
struct SystemResult
{
    SystemVariant variant = SystemVariant::Baseline;
    FrameCost keyFrame;     //!< DNN inference frame
    FrameCost nonKeyFrame;  //!< OF + BM frame (zero for non-ISM)
    FrameCost average;      //!< amortized over the window
    sim::NetworkCost dnnCost;
    int64_t nonKeyOps = 0;

    double
    fps() const
    {
        return average.seconds > 0 ? 1.0 / average.seconds : 0.0;
    }
};

/**
 * Simulate the steady-state per-frame cost of a variant.
 *
 * @param net     stereo DNN used on key frames
 * @param hw      accelerator resources
 * @param variant system variant
 * @param cfg     system configuration
 * @param em      energy constants
 */
SystemResult simulateSystem(const dnn::Network &net,
                            const sched::HardwareConfig &hw,
                            SystemVariant variant,
                            const SystemConfig &cfg = {},
                            const sim::EnergyModel &em = {});

/**
 * As above, but with an explicit key-frame engine. A matcher whose
 * ops() is positive (a classical engine: SGM, full-search BM — the
 * Fig. 1 baselines) replaces DNN inference on key frames: its op
 * count is charged to the SAD-extended PE array the way non-key
 * frames are, giving the classical end of the Fig. 1
 * accuracy/performance frontier at system level. A null matcher or
 * one reporting 0 ops (the oracle) falls back to the DNN cost model
 * — identical to the overload above.
 */
SystemResult simulateSystem(const dnn::Network &net,
                            const sched::HardwareConfig &hw,
                            SystemVariant variant,
                            const std::shared_ptr<const stereo::Matcher> &key_matcher,
                            const SystemConfig &cfg = {},
                            const sim::EnergyModel &em = {});

/**
 * Cost of one non-key frame on the accelerator: OF conv ops and BM
 * SAD ops on the PE array, point-wise OF ops on the scalar unit,
 * frame traffic through DRAM.
 */
FrameCost nonKeyFrameCost(const sched::HardwareConfig &hw,
                          const SystemConfig &cfg,
                          const sim::EnergyModel &em);

} // namespace asv::core

#endif // ASV_CORE_ASV_SYSTEM_HH
