#include "sched/optimizer.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/logging.hh"
#include "common/math_util.hh"

namespace asv::sched
{

namespace
{

/** One sub-convolution as seen by the scheduler. */
struct SubInfo
{
    int64_t taps = 0;        //!< kernel tap count (product)
    int64_t outElems = 0;    //!< total output positions
    double outRatio = 0.0;   //!< outElems / ifmap positions
    int64_t filterBytes = 0; //!< taps * I * bytes
    int64_t count = 0;       //!< number of filters (out channels)
};

/** A group of sub-convolutions sharing one ifmap. */
struct GroupModel
{
    int64_t ifElems = 0; //!< ifmap spatial positions
    int64_t inChannels = 0;
    int64_t bytesPerElem = 2;
    double overlap = 1.0; //!< halo multiplier for partial tiles
    std::vector<SubInfo> subs;

    int64_t posBytes() const { return inChannels * bytesPerElem; }

    int64_t
    ifBytes(int64_t span) const
    {
        if (span >= ifElems)
            return ifElems * posBytes();
        return static_cast<int64_t>(
            std::ceil(double(span) * overlap)) * posBytes();
    }
};

GroupModel
buildGroup(const deconv::TransformedLayer &layer,
           const std::vector<size_t> &sub_idx, int bytes_per_elem)
{
    GroupModel g;
    g.inChannels = layer.inChannels;
    g.bytesPerElem = bytes_per_elem;
    // Batched inputs stack along the tiled dimension; per-image
    // halo is negligible at this granularity.
    g.ifElems = layer.batch * tensor::numElems(layer.ifmapSpatial);

    // Halo overlap: along each tiled dimension a partial tile reads
    // (kernel - 1) extra positions; charged multiplicatively.
    double overlap = 1.0;
    for (size_t d = 0; d < layer.ifmapSpatial.size(); ++d) {
        int64_t max_k = 1;
        for (size_t s : sub_idx) {
            const auto &dims = layer.subConvs[s].dims;
            max_k = std::max(max_k, dims[d].taps);
        }
        overlap *= 1.0 + double(max_k - 1) /
                             double(layer.ifmapSpatial[d]);
    }
    g.overlap = overlap;

    for (size_t s : sub_idx) {
        const deconv::SubConv &sc = layer.subConvs[s];
        if (sc.empty())
            continue;
        SubInfo si;
        si.taps = tensor::numElems(sc.kernelExtents());
        si.outElems =
            layer.batch * tensor::numElems(sc.outExtents());
        si.outRatio = double(si.outElems) / double(g.ifElems);
        si.filterBytes = si.taps * g.inChannels * g.bytesPerElem;
        si.count = layer.outChannels;
        g.subs.push_back(si);
    }
    return g;
}

/** Filters taken from each sub-kernel in one round. */
using RoundTake = std::vector<int64_t>;

/** A packed round pattern and how many times it repeats. */
struct RoundPattern
{
    RoundTake take;
    int64_t repeats = 1;
};

int64_t
ofBytesPerFilter(const GroupModel &g, size_t k, int64_t span)
{
    const double out = double(std::min(span, g.ifElems)) *
                       g.subs[k].outRatio;
    return static_cast<int64_t>(std::ceil(out)) * g.bytesPerElem;
}

/**
 * Pack one round: choose filters per sub-kernel within @p cap_bytes.
 *
 * Greedy (the paper's heuristic): prioritize filters from large
 * sub-kernels, taking as many of each as fit. With @p exact_dp a
 * bounded-knapsack dynamic program (capacity quantized to 64-byte
 * units) maximizes the MAC value instead; the exhaustive tests use
 * it to bound the greedy optimality gap.
 */
RoundTake
packRound(const GroupModel &g, const std::vector<int64_t> &remaining,
          int64_t span, int64_t cap_bytes, bool exact_dp)
{
    const size_t n = g.subs.size();
    RoundTake take(n, 0);
    if (cap_bytes <= 0)
        return take;

    std::vector<int64_t> item_w(n);
    std::vector<double> item_v(n);
    for (size_t k = 0; k < n; ++k) {
        item_w[k] = g.subs[k].filterBytes + ofBytesPerFilter(g, k,
                                                             span);
        item_v[k] = double(g.subs[k].taps) * g.inChannels *
                    double(std::min(span, g.ifElems)) *
                    g.subs[k].outRatio;
    }

    if (!exact_dp) {
        // Large sub-kernels first (Sec. 4.2).
        std::vector<size_t> order(n);
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            return g.subs[a].taps > g.subs[b].taps;
        });
        int64_t cap = cap_bytes;
        for (size_t k : order) {
            if (remaining[k] <= 0 || item_w[k] <= 0)
                continue;
            const int64_t fit =
                std::min<int64_t>(remaining[k], cap / item_w[k]);
            take[k] = fit;
            cap -= fit * item_w[k];
        }
        return take;
    }

    // Exact bounded knapsack: binary-split counts into 0/1 items.
    constexpr int64_t unit = 64;
    const int64_t capq = cap_bytes / unit;
    if (capq <= 0)
        return take;

    struct Item
    {
        size_t sub;
        int64_t count;
        int64_t wq;
        double val;
    };
    std::vector<Item> items;
    for (size_t k = 0; k < n; ++k) {
        int64_t c = remaining[k], b = 1;
        while (c > 0) {
            const int64_t m = std::min(b, c);
            items.push_back({k, m, ceilDiv(item_w[k] * m, unit),
                             item_v[k] * m});
            c -= m;
            b *= 2;
        }
    }

    std::vector<double> best(capq + 1, 0.0);
    std::vector<std::vector<uint8_t>> keep(
        items.size(), std::vector<uint8_t>(capq + 1, 0));
    for (size_t i = 0; i < items.size(); ++i) {
        if (items[i].wq > capq)
            continue;
        for (int64_t c = capq; c >= items[i].wq; --c) {
            const double v = best[c - items[i].wq] + items[i].val;
            if (v > best[c]) {
                best[c] = v;
                keep[i][c] = 1;
            }
        }
    }
    int64_t c = capq;
    for (size_t i = items.size(); i-- > 0;) {
        if (keep[i][c]) {
            take[items[i].sub] += items[i].count;
            c -= items[i].wq;
        }
    }
    return take;
}

/**
 * Pack all filters into rounds by iterating the single-round packer
 * until every filter is assigned (Eq. 11), collapsing repeated
 * patterns.
 */
bool
packAllRounds(const GroupModel &g, int64_t span, int64_t cap_bytes,
              bool exact_dp, std::vector<RoundPattern> &out)
{
    out.clear();
    std::vector<int64_t> remaining(g.subs.size());
    for (size_t k = 0; k < g.subs.size(); ++k)
        remaining[k] = g.subs[k].count;

    auto left = [&]() {
        return std::accumulate(remaining.begin(), remaining.end(),
                               int64_t(0));
    };

    while (left() > 0) {
        RoundTake take =
            packRound(g, remaining, span, cap_bytes, exact_dp);
        int64_t taken =
            std::accumulate(take.begin(), take.end(), int64_t(0));
        if (taken == 0)
            return false; // not even one filter fits

        // Repeat the same pattern while it remains feasible.
        int64_t reps = std::numeric_limits<int64_t>::max();
        for (size_t k = 0; k < take.size(); ++k)
            if (take[k] > 0)
                reps = std::min(reps, remaining[k] / take[k]);
        reps = std::max<int64_t>(reps, 1);
        for (size_t k = 0; k < take.size(); ++k) {
            take[k] = std::min(take[k], remaining[k]);
            remaining[k] -= take[k] * reps;
        }
        out.push_back({std::move(take), reps});
        panic_if(out.size() > 4096, "round packing diverged");
    }
    return true;
}

/** Cycle cost of one round on the PE array (Eq. 6). */
int64_t
roundComputeCycles(const GroupModel &g, const RoundTake &take,
                   int64_t span, const HardwareConfig &hw)
{
    int64_t cycles = 0;
    const int64_t fill_drain = hw.peRows + hw.peCols;
    for (size_t k = 0; k < take.size(); ++k) {
        if (take[k] == 0)
            continue;
        const double out =
            double(std::min(span, g.ifElems)) * g.subs[k].outRatio;
        const double macs =
            double(g.subs[k].taps) * g.inChannels * take[k] * out;
        cycles += ceilDiv(static_cast<int64_t>(std::ceil(macs)),
                          hw.peCount()) +
                  fill_drain;
    }
    return cycles;
}

int64_t
roundWeightBytes(const GroupModel &g, const RoundTake &take)
{
    int64_t bytes = 0;
    for (size_t k = 0; k < take.size(); ++k)
        bytes += take[k] * g.subs[k].filterBytes;
    return bytes;
}

int64_t
roundOfmapBytes(const GroupModel &g, const RoundTake &take,
                int64_t span)
{
    int64_t bytes = 0;
    for (size_t k = 0; k < take.size(); ++k)
        bytes += take[k] * ofBytesPerFilter(g, k, span);
    return bytes;
}

/**
 * Evaluate a complete schedule for a group under a chosen span and
 * reuse order; returns latency/traffic, or nothing if infeasible.
 */
bool
evaluate(const GroupModel &g, int64_t span, ReuseOrder order,
         int64_t cap_bytes, const HardwareConfig &hw, bool exact_dp,
         LayerSchedule &sched)
{
    const int64_t if_bytes_full = g.ifBytes(span);
    const int64_t cap_rounds = cap_bytes - if_bytes_full;
    if (cap_rounds <= 0)
        return false;

    std::vector<RoundPattern> rounds;
    if (!packAllRounds(g, span, cap_rounds, exact_dp, rounds))
        return false;

    const double bw = hw.dramBytesPerCycle();
    const int64_t tiles = ceilDiv(g.ifElems, span);
    const int64_t last_span = g.ifElems - (tiles - 1) * span;

    sched = LayerSchedule{};
    sched.tileRows = static_cast<int>(std::min<int64_t>(
        span, std::numeric_limits<int>::max()));
    sched.order = order;

    // Total MACs for reporting.
    double macs = 0;
    for (const auto &s : g.subs)
        macs += double(s.taps) * g.inChannels * s.count * s.outElems;
    sched.macs = static_cast<int64_t>(macs);

    auto tile_spans = [&](auto &&fn) {
        if (tiles > 1)
            fn(span, tiles - 1);
        fn(last_span, int64_t(1));
    };

    int64_t lat = 0, comp = 0, mem = 0, nrounds = 0, sram = 0;
    DramTraffic tr;

    if (order == ReuseOrder::IfmapResident) {
        // Outer: ifmap tiles (resident); inner: filter rounds.
        tile_spans([&](int64_t s, int64_t tcount) {
            const int64_t ifb = g.ifBytes(s);
            int64_t tile_lat = 0, tile_comp = 0, tile_mem = 0;
            bool first = true;
            for (const auto &rp : rounds) {
                const int64_t lc =
                    roundComputeCycles(g, rp.take, s, hw);
                const int64_t wb = roundWeightBytes(g, rp.take);
                const int64_t ob = roundOfmapBytes(g, rp.take, s);
                int64_t lm = static_cast<int64_t>(
                    std::ceil(double(wb + ob) / bw));
                const int64_t lm_first =
                    lm + static_cast<int64_t>(
                             std::ceil(double(ifb) / bw));
                // First round of the tile also fills the ifmap.
                tile_lat += std::max(lc, first ? lm_first : lm) +
                            (rp.repeats - 1) * std::max(lc, lm);
                tile_comp += lc * rp.repeats;
                tile_mem += lm * rp.repeats +
                            (first ? lm_first - lm : 0);
                first = false;
                nrounds += rp.repeats * tcount;
                tr.weightBytes += wb * rp.repeats * tcount;
                tr.ofmapBytes += ob * rp.repeats * tcount;
                // Each round streams its working set through SRAM.
                sram += (ifb + wb + ob) * rp.repeats * tcount;
            }
            lat += tile_lat * tcount;
            comp += tile_comp * tcount;
            mem += tile_mem * tcount;
            tr.ifmapBytes += ifb * tcount;
        });
    } else {
        // Outer: filter rounds (weights resident); inner: ifmap
        // tiles streaming through.
        for (const auto &rp : rounds) {
            const int64_t wb = roundWeightBytes(g, rp.take);
            int64_t round_lat = 0, round_comp = 0, round_mem = 0;
            bool first = true;
            tile_spans([&](int64_t s, int64_t tcount) {
                const int64_t ifb = g.ifBytes(s);
                const int64_t lc =
                    roundComputeCycles(g, rp.take, s, hw);
                const int64_t ob = roundOfmapBytes(g, rp.take, s);
                int64_t lm = static_cast<int64_t>(
                    std::ceil(double(ifb + ob) / bw));
                const int64_t lm_first =
                    lm + static_cast<int64_t>(
                             std::ceil(double(wb) / bw));
                round_lat += std::max(lc, first ? lm_first : lm) +
                             (tcount - 1) * std::max(lc, lm);
                round_comp += lc * tcount;
                round_mem += lm * tcount +
                             (first ? lm_first - lm : 0);
                first = false;
                tr.ifmapBytes += ifb * tcount * rp.repeats;
                tr.ofmapBytes += ob * tcount * rp.repeats;
                sram += (ifb + wb + ob) * tcount * rp.repeats;
            });
            lat += round_lat * rp.repeats;
            comp += round_comp * rp.repeats;
            mem += round_mem * rp.repeats;
            nrounds += rp.repeats * tiles;
            tr.weightBytes += wb * rp.repeats;
        }
    }

    sched.latencyCycles = lat;
    sched.computeCycles = comp;
    sched.memoryCycles = mem;
    sched.sramBytes = sram;
    sched.rounds = static_cast<int>(
        std::min<int64_t>(nrounds, std::numeric_limits<int>::max()));
    sched.traffic = tr;
    return true;
}

/** Geometric span candidates: ifElems, ifElems/2, ..., down to 1. */
std::vector<int64_t>
spanCandidates(int64_t if_elems)
{
    std::vector<int64_t> spans;
    for (int64_t s = if_elems; s >= 1; s = s / 2)
        spans.push_back(s);
    if (spans.back() != 1)
        spans.push_back(1);
    return spans;
}

/**
 * Optimize one group: best (span, beta) by evaluated latency, with
 * DRAM traffic as the tie-breaker — among schedules within 2% of
 * the best latency the one moving the fewest bytes wins (latency is
 * the paper's objective, Eq. 3; the tie-break keeps the energy win
 * of ILAR from being squandered by latency-equivalent but
 * traffic-heavy choices).
 */
bool
optimizeGroup(const GroupModel &g, const HardwareConfig &hw,
              bool exact_dp, LayerSchedule &best)
{
    bool found = false;
    for (int64_t span : spanCandidates(g.ifElems)) {
        for (ReuseOrder order : {ReuseOrder::IfmapResident,
                                 ReuseOrder::WeightResident}) {
            LayerSchedule s;
            if (!evaluate(g, span, order, hw.workingBytes(), hw,
                          exact_dp, s))
                continue;
            if (!found) {
                best = s;
                found = true;
                continue;
            }
            const double tol = 1.02;
            const bool much_faster =
                double(s.latencyCycles) * tol <
                double(best.latencyCycles);
            const bool tied_but_lighter =
                double(s.latencyCycles) <=
                    double(best.latencyCycles) * tol &&
                s.traffic.total() < best.traffic.total();
            if (much_faster || tied_but_lighter)
                best = s;
        }
    }
    return found;
}

/**
 * Fixed untuned schedule for the DCT-only ablation: weight-resident
 * order with the largest power-of-two span whose ifmap tile occupies
 * at most half the working buffer.
 */
bool
naiveGroup(const GroupModel &g, const HardwareConfig &hw,
           LayerSchedule &out)
{
    int64_t span = g.ifElems;
    while (span > 1 && g.ifBytes(span) > hw.workingBytes() / 2)
        span /= 2;
    return evaluate(g, span, ReuseOrder::WeightResident,
                    hw.workingBytes(), hw, false, out);
}

} // namespace

LayerSchedule
scheduleTransformedLayer(const deconv::TransformedLayer &layer,
                         const HardwareConfig &hw, OptMode mode)
{
    // Collect non-empty sub-convolutions.
    std::vector<size_t> all;
    for (size_t i = 0; i < layer.subConvs.size(); ++i)
        if (!layer.subConvs[i].empty())
            all.push_back(i);
    panic_if(all.empty(), "layer ", layer.name,
             " has no non-empty sub-convolutions");

    LayerSchedule total;
    total.layerName = layer.name;

    const bool ilar = mode == OptMode::Ilar && layer.fromDeconv &&
                      all.size() > 1;
    if (ilar) {
        GroupModel g = buildGroup(layer, all, hw.bytesPerElem);
        LayerSchedule s;
        require(optimizeGroup(g, hw, false, s),
                "no feasible ILAR schedule for layer ", layer.name);
        s.layerName = layer.name;
        s.usedIlar = true;
        return s;
    }

    // Per-sub-convolution scheduling (Naive / ConvR, and any
    // single-sub-conv layer).
    for (size_t i : all) {
        GroupModel g = buildGroup(layer, {i}, hw.bytesPerElem);
        LayerSchedule s;
        if (mode == OptMode::Naive) {
            require(naiveGroup(g, hw, s),
                    "no feasible naive schedule for layer ", layer.name);
        } else {
            require(optimizeGroup(g, hw, false, s),
                    "no feasible schedule for layer ", layer.name);
        }
        total += s;
        total.tileRows = s.tileRows;
        total.order = s.order;
    }
    return total;
}

LayerSchedule
scheduleTransformedLayerExact(const deconv::TransformedLayer &layer,
                              const HardwareConfig &hw)
{
    std::vector<size_t> all;
    for (size_t i = 0; i < layer.subConvs.size(); ++i)
        if (!layer.subConvs[i].empty())
            all.push_back(i);
    panic_if(all.empty(), "layer ", layer.name,
             " has no non-empty sub-convolutions");

    GroupModel g = buildGroup(layer, all, hw.bytesPerElem);
    require(g.ifElems <= 4096,
            "exact solver is restricted to small layers");

    LayerSchedule best;
    bool found = false;
    for (int64_t span = 1; span <= g.ifElems; ++span) {
        for (ReuseOrder order : {ReuseOrder::IfmapResident,
                                 ReuseOrder::WeightResident}) {
            LayerSchedule s;
            if (!evaluate(g, span, order, hw.workingBytes(), hw,
                          true, s))
                continue;
            if (!found || s.latencyCycles < best.latencyCycles) {
                best = s;
                found = true;
            }
        }
    }
    require(found, "no feasible exact schedule for layer ", layer.name);
    best.layerName = layer.name;
    best.usedIlar = layer.fromDeconv && all.size() > 1;
    return best;
}

LayerSchedule
scheduleDenseLayer(const dnn::LayerDesc &layer,
                   const HardwareConfig &hw,
                   const BufferPartition &part)
{
    // Build a single-sub-conv group. Deconvolution executes densely
    // over the zero-inserted upsampled ifmap (its full size is what
    // streams from DRAM in the baseline).
    GroupModel g;
    g.inChannels = layer.inChannels;
    g.bytesPerElem = hw.bytesPerElem;

    const tensor::Shape out = layer.outSpatial();
    int64_t if_elems = 1;
    double overlap = 1.0;
    for (size_t d = 0; d < layer.inSpatial.size(); ++d) {
        int64_t extent = layer.inSpatial[d];
        if (layer.kind == dnn::LayerKind::Deconv)
            extent = out[d] + layer.kernel[d] - 1; // upsampled
        if_elems *= extent;
        const int64_t k =
            layer.kernel.empty() ? 1 : layer.kernel[d];
        overlap *= 1.0 + double(k - 1) / double(extent);
    }
    g.ifElems = layer.batch * if_elems;
    g.overlap = overlap;

    SubInfo si;
    si.taps = layer.kernel.empty() ? 1
                                   : tensor::numElems(layer.kernel);
    if (layer.kind == dnn::LayerKind::CostVolume)
        si.taps = 1;
    si.outElems = layer.batch * tensor::numElems(out);
    si.outRatio = double(si.outElems) / double(g.ifElems);
    si.filterBytes = si.taps * g.inChannels * g.bytesPerElem;
    si.count = layer.outChannels;
    g.subs.push_back(si);

    // Static partition: span limited by the ifmap budget, filters
    // per round by the weight budget; always weight-resident.
    const int64_t if_budget = static_cast<int64_t>(
        part.ifmapFrac * hw.workingBytes());
    const int64_t wo_budget = static_cast<int64_t>(
        (part.weightFrac + part.ofmapFrac) * hw.workingBytes());

    int64_t span = g.ifElems;
    while (span > 1 && g.ifBytes(span) > if_budget)
        span /= 2;

    LayerSchedule s;
    // The evaluate() capacity check subtracts the ifmap bytes, so
    // pass the combined budget of all three partitions.
    require(evaluate(g, span, ReuseOrder::WeightResident,
                     g.ifBytes(span) + wo_budget, hw, false, s),
            "no feasible baseline schedule for layer ", layer.name);
    s.layerName = layer.name;
    s.macs = layer.macs(); // dense, zeros included
    return s;
}

BufferPartition
chooseStaticPartition(const std::vector<dnn::LayerDesc> &layers,
                      const HardwareConfig &hw)
{
    BufferPartition best;
    int64_t best_lat = std::numeric_limits<int64_t>::max();
    for (int fi = 1; fi <= 8; ++fi) {
        for (int fw = 1; fw + fi <= 9; ++fw) {
            BufferPartition p;
            p.ifmapFrac = fi / 10.0;
            p.weightFrac = fw / 10.0;
            p.ofmapFrac = 1.0 - p.ifmapFrac - p.weightFrac;
            int64_t lat = 0;
            for (const auto &l : layers) {
                if (l.kind == dnn::LayerKind::Activation ||
                    l.kind == dnn::LayerKind::Pooling)
                    continue;
                lat += scheduleDenseLayer(l, hw, p).latencyCycles;
            }
            if (lat < best_lat) {
                best_lat = lat;
                best = p;
            }
        }
    }
    return best;
}

LayerSchedule
scheduleScalarLayer(const dnn::LayerDesc &layer,
                    const HardwareConfig &hw)
{
    LayerSchedule s;
    s.layerName = layer.name;
    const int64_t ops = layer.macs();
    s.macs = ops;
    // The scalar unit runs at scalarClockGhz with scalarLanes lanes;
    // express latency in accelerator cycles.
    const double ops_per_cycle = hw.scalarLanes *
                                 (hw.scalarClockGhz / hw.clockGhz);
    s.computeCycles = static_cast<int64_t>(
        std::ceil(double(ops) / ops_per_cycle));
    s.latencyCycles = s.computeCycles;
    // Point-wise layers stream activations through the buffer once.
    s.sramBytes = 2 * layer.outActivations() * hw.bytesPerElem;
    s.rounds = 1;
    return s;
}

} // namespace asv::sched
