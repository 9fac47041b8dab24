#include "data/scene.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "image/ops.hh"

namespace asv::data
{

image::Image
makeTexture(int width, int height, float scale, Rng &rng)
{
    image::Image tex(width, height);
    // Two octaves of bilinear value noise for matchable texture.
    for (int octave = 0; octave < 2; ++octave) {
        const float s = scale / float(1 << octave);
        const int gw = std::max(2, int(width / s) + 2);
        const int gh = std::max(2, int(height / s) + 2);
        image::Image grid(gw, gh);
        for (int y = 0; y < gh; ++y)
            for (int x = 0; x < gw; ++x)
                grid.at(x, y) =
                    float(rng.uniformReal(0.0, 255.0));
        const float amp = octave == 0 ? 0.7f : 0.3f;
        for (int y = 0; y < height; ++y) {
            for (int x = 0; x < width; ++x) {
                tex.at(x, y) += amp * grid.sample(x / s, y / s);
            }
        }
    }
    return tex;
}

Scene::Scene(const SceneConfig &cfg, Rng &rng) : cfg_(cfg)
{
    require(cfg.width >= 32 && cfg.height >= 32,
            "scene too small to be meaningful");
    require(cfg.maxDisparity > cfg.minDisparity,
            "disparity range is empty");

    const int pad = int(cfg.maxDisparity) + 48;

    if (cfg.groundStrips > 0) {
        // Road-like striped background: horizontal strips whose
        // disparity increases toward the bottom of the frame.
        const int strip_h = ceilDiv(cfg.height, cfg.groundStrips);
        for (int s = 0; s < cfg.groundStrips; ++s) {
            SceneLayer layer;
            layer.texture = makeTexture(cfg.width + 2 * pad,
                                        strip_h, cfg.textureScale,
                                        rng);
            layer.x = float(-pad);
            layer.y = float(s * strip_h);
            // Top strip is far (sky/buildings), bottom is near road.
            const float t = float(s) / float(cfg.groundStrips - 1);
            layer.disparity =
                cfg.minDisparity +
                t * 0.6f * (cfg.maxDisparity - cfg.minDisparity);
            layers_.push_back(std::move(layer));
        }
    } else {
        SceneLayer bg;
        bg.texture = makeTexture(cfg.width + 2 * pad,
                                 cfg.height + 16, cfg.textureScale,
                                 rng);
        bg.x = float(-pad);
        bg.y = -8.f;
        bg.vx = float(rng.uniformReal(-0.4, 0.4));
        bg.disparity = cfg.minDisparity;
        layers_.push_back(std::move(bg));
    }

    for (int i = 0; i < cfg.numObjects; ++i) {
        SceneLayer obj;
        const int ow = rng.uniformInt(cfg.width / 8, cfg.width / 3);
        const int oh =
            rng.uniformInt(cfg.height / 6, cfg.height / 3);
        obj.texture =
            makeTexture(ow, oh, cfg.textureScale * 0.7f, rng);
        if (i < cfg.flatObjects) {
            // Near-constant surface: keep 5% of the texture
            // contrast around a random base intensity.
            const float base =
                float(rng.uniformReal(60.0, 200.0));
            for (auto &v : obj.texture.flat())
                v = base + 0.05f * (v - base);
        }
        obj.x = float(rng.uniformReal(0, cfg.width - ow));
        obj.y = float(rng.uniformReal(0, cfg.height - oh));
        obj.vx = float(rng.uniformReal(-cfg.maxSpeed, cfg.maxSpeed));
        obj.vy = float(
            rng.uniformReal(-cfg.maxSpeed / 2, cfg.maxSpeed / 2));
        obj.disparity =
            float(rng.uniformReal(cfg.minDisparity + 2.0,
                                  cfg.maxDisparity));
        obj.disparityDrift = float(rng.uniformReal(
            -cfg.maxDisparityDrift, cfg.maxDisparityDrift));
        layers_.push_back(std::move(obj));
    }

    // Painter order: far to near (background strips keep their
    // position: they never overlap each other vertically).
    std::stable_sort(layers_.begin() + (cfg.groundStrips > 0
                                            ? cfg.groundStrips
                                            : 1),
                     layers_.end(),
                     [](const SceneLayer &a, const SceneLayer &b) {
                         return a.disparity < b.disparity;
                     });
}

StereoFrame
Scene::render(Rng &rng) const
{
    const int w = cfg_.width, h = cfg_.height;
    StereoFrame f;
    f.left = image::Image(w, h);
    f.right = image::Image(w, h);
    f.gtDisparity = stereo::DisparityMap(w, h);
    f.gtDisparity.fill(stereo::kInvalidDisparity);
    f.gtFlowLeft = flow::FlowField(w, h);

    image::Image right_disp(w, h, stereo::kInvalidDisparity);

    for (const SceneLayer &layer : layers_) {
        const int tw = layer.texture.width();
        const int th = layer.texture.height();
        const float d = layer.disparity;

        // Left view: texture at (layer.x, layer.y).
        const int ly0 =
            std::max(0, int(std::floor(layer.y)));
        const int ly1 =
            std::min(h, int(std::ceil(layer.y + th)));
        const int lx0 =
            std::max(0, int(std::floor(layer.x)));
        const int lx1 =
            std::min(w, int(std::ceil(layer.x + tw)));
        for (int y = ly0; y < ly1; ++y) {
            for (int x = lx0; x < lx1; ++x) {
                const float u = x - layer.x;
                const float v = y - layer.y;
                if (u < 0 || u > tw - 1 || v < 0 || v > th - 1)
                    continue;
                f.left.at(x, y) = layer.texture.sample(u, v);
                f.gtDisparity.at(x, y) = d;
                f.gtFlowLeft.u.at(x, y) = layer.vx;
                f.gtFlowLeft.v.at(x, y) = layer.vy;
            }
        }

        // Right view: shifted left by the layer disparity.
        const float rx_off = layer.x - d;
        const int rx0 = std::max(0, int(std::floor(rx_off)));
        const int rx1 = std::min(w, int(std::ceil(rx_off + tw)));
        for (int y = ly0; y < ly1; ++y) {
            for (int x = rx0; x < rx1; ++x) {
                const float u = x - rx_off;
                const float v = y - layer.y;
                if (u < 0 || u > tw - 1 || v < 0 || v > th - 1)
                    continue;
                f.right.at(x, y) = layer.texture.sample(u, v);
                right_disp.at(x, y) = d;
            }
        }
    }

    // Validity: a left pixel survives iff its right-image
    // correspondence still belongs to the same disparity layer
    // (i.e., it is not occluded in the right view).
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const float d = f.gtDisparity.at(x, y);
            if (!stereo::isValidDisparity(d))
                continue;
            const int xr = int(std::lround(x - d));
            if (xr < 0 || xr >= w ||
                std::abs(right_disp.at(xr, y) - d) > 0.5f) {
                f.gtDisparity.at(x, y) = stereo::kInvalidDisparity;
            }
        }
    }

    // Photometric sensor noise (never applied to ground truth).
    if (cfg_.photometricNoise > 0.f) {
        for (int64_t i = 0; i < f.left.size(); ++i) {
            f.left.data()[i] += float(
                rng.normal(0.0, cfg_.photometricNoise));
            f.right.data()[i] += float(
                rng.normal(0.0, cfg_.photometricNoise));
        }
    }
    return f;
}

void
Scene::advance()
{
    for (size_t i = 0; i < layers_.size(); ++i) {
        SceneLayer &layer = layers_[i];
        layer.x += layer.vx;
        layer.y += layer.vy;
        layer.disparity =
            clamp(layer.disparity + layer.disparityDrift,
                  cfg_.minDisparity, cfg_.maxDisparity);

        // Bounce objects back into the frame.
        const int tw = layer.texture.width();
        const int th = layer.texture.height();
        if (layer.x + tw < cfg_.width / 4.f ||
            layer.x > cfg_.width * 3 / 4.f)
            layer.vx = -layer.vx;
        if (layer.y + th < cfg_.height / 4.f ||
            layer.y > cfg_.height * 3 / 4.f)
            layer.vy = -layer.vy;
    }
}

StereoFrame
Scene::renderAndAdvance(Rng &rng)
{
    StereoFrame f = render(rng);
    advance();
    return f;
}

StereoSequence
generateSequence(const SceneConfig &cfg, int num_frames,
                 uint64_t seed)
{
    Rng rng(seed);
    Scene scene(cfg, rng);
    StereoSequence seq;
    for (int t = 0; t < num_frames; ++t)
        seq.frames.push_back(scene.renderAndAdvance(rng));
    return seq;
}

std::vector<StereoSequence>
sceneFlowDataset(int sequences, int frames_per_sequence, int width,
                 int height, uint64_t seed)
{
    std::vector<StereoSequence> out;
    for (int i = 0; i < sequences; ++i) {
        SceneConfig cfg;
        cfg.width = width;
        cfg.height = height;
        cfg.numObjects = 5 + (i % 4);
        cfg.minDisparity = 3.f + float(i % 3);
        cfg.maxDisparity = 32.f + float(i % 5) * 4.f;
        out.push_back(generateSequence(cfg, frames_per_sequence,
                                       seed * 1000 + i));
    }
    return out;
}

std::vector<StereoSequence>
kittiDataset(int sequences, int width, int height, uint64_t seed)
{
    std::vector<StereoSequence> out;
    for (int i = 0; i < sequences; ++i) {
        SceneConfig cfg;
        cfg.width = width;
        cfg.height = height;
        cfg.numObjects = 4 + (i % 3);
        cfg.minDisparity = 2.f;
        cfg.maxDisparity = 48.f;
        cfg.groundStrips = 6;
        cfg.maxSpeed = 3.0f; // driving: stronger horizontal motion
        out.push_back(
            generateSequence(cfg, 2, seed * 1000 + i));
    }
    return out;
}

} // namespace asv::data
