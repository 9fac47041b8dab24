#include "data/oracle.hh"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/logging.hh"
#include "common/math_util.hh"

namespace asv::data
{

OracleModel
OracleModel::forNetwork(const std::string &name)
{
    OracleModel m;
    m.network = name;
    if (name == "DispNet") {
        m.outlierRate = 0.043;
    } else if (name == "FlowNetC") {
        m.outlierRate = 0.056;
        m.subpixelSigma = 0.55;
    } else if (name == "GC-Net") {
        m.outlierRate = 0.029;
        m.subpixelSigma = 0.40;
    } else if (name == "PSMNet") {
        m.outlierRate = 0.023;
        m.subpixelSigma = 0.35;
    } else {
        throw std::invalid_argument("no oracle calibration for network " +
                                    name);
    }
    return m;
}

stereo::DisparityMap
oracleInference(const stereo::DisparityMap &gt,
                const OracleModel &model, Rng &rng)
{
    const int w = gt.width(), h = gt.height();
    stereo::DisparityMap pred(w, h);

    // 1. Fill occluded pixels from the nearest valid left/right
    // neighbor in the same row (DNNs hallucinate there).
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            float d = gt.at(x, y);
            if (!stereo::isValidDisparity(d)) {
                for (int r = 1; r < w; ++r) {
                    if (x - r >= 0 &&
                        stereo::isValidDisparity(gt.at(x - r, y))) {
                        d = gt.at(x - r, y);
                        break;
                    }
                    if (x + r < w &&
                        stereo::isValidDisparity(gt.at(x + r, y))) {
                        d = gt.at(x + r, y);
                        break;
                    }
                }
                if (!stereo::isValidDisparity(d))
                    d = 0.f;
            }
            pred.at(x, y) = d;
        }
    }

    // 2. Sub-pixel Gaussian noise everywhere.
    for (int64_t i = 0; i < pred.size(); ++i) {
        pred.data()[i] = std::max(
            0.f, pred.data()[i] +
                     float(rng.normal(0.0, model.subpixelSigma)));
    }

    // 3. Clustered outliers: seed blobs until the target fraction of
    // pixels is covered.
    const int r = model.outlierBlobRadius;
    const double blob_area = (2 * r + 1) * (2 * r + 1) * 0.7;
    const int64_t target =
        int64_t(model.outlierRate * double(w) * double(h));
    int64_t placed = 0;
    while (placed < target) {
        const int cx = rng.uniformInt(0, w - 1);
        const int cy = rng.uniformInt(0, h - 1);
        const float err = float(
            rng.uniformReal(model.outlierMinError,
                            model.outlierMaxError)) *
            (rng.bernoulli(0.5) ? 1.f : -1.f);
        for (int dy = -r; dy <= r; ++dy) {
            for (int dx = -r; dx <= r; ++dx) {
                if (dx * dx + dy * dy > r * r + 1)
                    continue;
                const int x = cx + dx, y = cy + dy;
                if (x < 0 || x >= w || y < 0 || y >= h)
                    continue;
                pred.at(x, y) =
                    std::max(0.f, pred.at(x, y) + err);
            }
        }
        placed += int64_t(blob_area);
    }
    return pred;
}

OracleMatcher::OracleMatcher(OracleModel model, uint64_t seed)
    : model_(std::move(model)), seed_(seed)
{
}

void
OracleMatcher::bindGroundTruth(GroundTruthFn ground_truth)
{
    MutexLock lock(mutex_);
    groundTruth_ = std::move(ground_truth);
}

void
OracleMatcher::reseed(uint64_t seed)
{
    MutexLock lock(mutex_);
    seed_ = seed;
}

uint64_t
OracleMatcher::perCallSeed(uint64_t seed,
                           const stereo::DisparityMap &gt)
{
    // FNV-1a over the dimensions and raw disparity bytes...
    uint64_t h = 0xcbf29ce484222325ull;
    const auto mixByte = [&h](unsigned char b) {
        h ^= b;
        h *= 0x100000001b3ull;
    };
    const auto mixWord = [&](uint64_t v) {
        for (int i = 0; i < 8; ++i)
            mixByte(static_cast<unsigned char>(v >> (8 * i)));
    };
    mixWord(static_cast<uint64_t>(gt.width()));
    mixWord(static_cast<uint64_t>(gt.height()));
    const unsigned char *bytes =
        reinterpret_cast<const unsigned char *>(gt.data());
    const size_t nbytes = size_t(gt.size()) * sizeof(float);
    for (size_t i = 0; i < nbytes; ++i)
        mixByte(bytes[i]);
    // ...mixed with the instance seed through a splitmix64 round so
    // nearby seeds do not produce correlated noise streams.
    uint64_t z = seed ^ h;
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

stereo::DisparityMap
OracleMatcher::compute(const image::Image &left,
                       const image::Image &right,
                       const ExecContext &ctx) const
{
    (void)ctx; // the error process is sequential by construction
    stereo::DisparityMap gt;
    uint64_t seed;
    {
        // The provider runs under the lock (providers need not be
        // thread-safe); hashing + inference run outside it.
        MutexLock lock(mutex_);
        if (!groundTruth_)
            throw std::runtime_error(
                "OracleMatcher: no ground-truth provider bound "
                "(call bindGroundTruth() before compute())");
        gt = groundTruth_(left, right);
        seed = seed_;
    }
    if (gt.empty() || gt.width() != left.width() ||
        gt.height() != left.height())
        throw std::runtime_error(
            "OracleMatcher: ground-truth provider returned a map "
            "that does not match the submitted pair");
    Rng rng(perCallSeed(seed, gt));
    return oracleInference(gt, model_, rng);
}

int64_t
OracleMatcher::ops(int width, int height) const
{
    (void)width;
    (void)height;
    return 0;
}

std::shared_ptr<stereo::Matcher>
makeOracleMatcher(const stereo::MatcherOptions &opts)
{
    const std::string network = opts.getString("network", "DispNet");
    if (network != "DispNet" && network != "FlowNetC" &&
        network != "GC-Net" && network != "PSMNet")
        throw std::invalid_argument(
            "oracle matcher: no calibration for network '" + network +
            "' (known: DispNet, FlowNetC, GC-Net, PSMNet)");
    OracleModel model = OracleModel::forNetwork(network);
    model.subpixelSigma =
        opts.getDouble("subpixelSigma", model.subpixelSigma);
    model.outlierRate =
        opts.getDouble("outlierRate", model.outlierRate);
    model.outlierMinError =
        opts.getDouble("outlierMinError", model.outlierMinError);
    model.outlierMaxError =
        opts.getDouble("outlierMaxError", model.outlierMaxError);
    model.outlierBlobRadius =
        opts.getInt("outlierBlobRadius", model.outlierBlobRadius);
    const uint64_t seed = opts.getUInt64("seed", 0x5EED'A511u);
    opts.finish("oracle");
    return std::make_shared<OracleMatcher>(model, seed);
}

} // namespace asv::data
