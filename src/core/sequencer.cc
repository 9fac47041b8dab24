#include "core/sequencer.hh"

#include "common/logging.hh"
#include "image/ops.hh"

namespace asv::core
{

StaticSequencer::StaticSequencer(int propagation_window)
    : window_(propagation_window)
{
    require(window_ >= 1, "propagation window must be >= 1");
}

bool
StaticSequencer::isKeyFrame(const image::Image &, int64_t frame_index)
{
    return frame_index % window_ == 0;
}

AdaptiveSequencer::AdaptiveSequencer(double change_threshold,
                                     int max_window)
    : threshold_(change_threshold), maxWindow_(max_window)
{
    require(max_window >= 1, "max window must be >= 1");
    require(change_threshold > 0.0, "change threshold must be positive");
}

void
AdaptiveSequencer::reset()
{
    sinceKey_ = 0;
    lastKey_ = image::Image();
}

bool
AdaptiveSequencer::isKeyFrame(const image::Image &left,
                              int64_t frame_index)
{
    bool key = false;
    if (frame_index == 0 || lastKey_.empty()) {
        key = true;
    } else if (sinceKey_ + 1 >= maxWindow_) {
        key = true;
    } else if (left.width() == lastKey_.width() &&
               left.height() == lastKey_.height()) {
        key = image::meanAbsDiff(left, lastKey_) > threshold_;
    } else {
        key = true; // resolution change: restart
    }

    if (key) {
        lastKey_ = left;
        sinceKey_ = 0;
    } else {
        ++sinceKey_;
    }
    return key;
}

void
AdaptiveSequencer::keyFrameForced(const image::Image &left)
{
    // The frame ran as a key frame even though isKeyFrame() said no:
    // re-anchor the reference image and the window counter so change
    // detection tracks the key frame that actually executed.
    lastKey_ = left;
    sinceKey_ = 0;
}

std::unique_ptr<KeyFrameSequencer>
makeStaticSequencer(int pw)
{
    return std::make_unique<StaticSequencer>(pw);
}

std::unique_ptr<KeyFrameSequencer>
makeAdaptiveSequencer(double change_threshold, int max_window)
{
    return std::make_unique<AdaptiveSequencer>(change_threshold,
                                               max_window);
}

} // namespace asv::core
