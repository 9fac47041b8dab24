/**
 * @file
 * Runtime-dispatched SIMD kernel layer for the stereo, optical-flow
 * and DNN hot paths.
 *
 * The inner loops that dominate classical stereo — census
 * bit-packing, XOR+popcount Hamming cost rows, SAD accumulation for
 * block matching, and the semi-global aggregation recurrence — plus
 * the f32 GEMM tile and bias+ReLU epilogue behind the deconv/DNN path
 * and the separable filter row behind Farnebäck flow carry 8-32x
 * of data-level parallelism that scalar per-pixel loops leave on the
 * table. This layer exposes them as a table of function
 * pointers (`Kernels`) with one implementation per ISA, selected once
 * at startup:
 *
 *  - detection order: AVX2 > NEON > scalar, via cpuid
 *    (`__builtin_cpu_supports`); only levels both compiled into the
 *    binary and supported by the host CPU are eligible
 *    (supportedLevels());
 *  - override with `ASV_SIMD=scalar|avx2|neon|native`
 *    ("native" = best supported, the default). Requesting a level the
 *    host or build cannot run ends the process with exit code 1 —
 *    the one exit in the library, since the table is resolved on the
 *    first kernel call, possibly on a pool worker;
 *  - tests force a level programmatically with setLevel().
 *
 * Each per-ISA implementation lives in its own translation unit
 * (simd_<isa>.cc) compiled with that ISA's target flags, so the rest
 * of the library keeps the portable baseline ABI and illegal
 * instructions can never leak into the dispatch path.
 *
 * Bit-identity contract: every level produces results bit-identical
 * to the scalar reference, for every kernel and every input. The
 * census kernel is pure integer/predicate arithmetic, so this is
 * automatic; the SAD kernel (SadBlockFn) puts one *pixel* in each
 * lane and keeps each lane's double-precision accumulation in the
 * scalar loop's order, so it is exact floating point; the aggregation
 * kernel's saturating uint16 lane arithmetic provably reproduces the
 * scalar clamped-uint32 order (see AggregateRowFn); the fused
 * pixel-major cost row (CostRowFn, feeding the streaming SGM without
 * a resident volume) is again pure integer arithmetic. The f32 GEMM
 * tile (GemmTileFn) is exact too: the reference accumulates with
 * std::fmaf, and every vector table has a fused multiply-add (AVX2
 * is only built and dispatched together with FMA; NEON's FMLA is
 * baseline), so each lane replays the chain bit for bit. The
 * separable-row filter (SepRowF32Fn / SepRowF64Fn, the Farnebäck blur
 * and moment passes) is exact the other way round: one IEEE multiply
 * and one IEEE add per tap, never fused. No level has a tolerance
 * lane. Adding an ISA means porting the eight kernels under the same
 * contract (see docs/KERNELS.md for the full contract, sentinel
 * conventions, and a porting guide).
 */

#ifndef ASV_COMMON_SIMD_HH
#define ASV_COMMON_SIMD_HH

#include <cstdint>
#include <vector>

namespace asv::simd
{

/** Instruction-set level of a kernel table. */
enum class Level {
    Scalar = 0, //!< portable reference (always available)
    Avx2 = 1,   //!< x86 AVX2 + FMA (popcount-by-nibble, 256-bit lanes)
    Neon = 2,   //!< aarch64 NEON (Advanced SIMD, baseline on armv8-a)
};

/**
 * Census bit-pack for interior pixels [x0, x1) of one row.
 *
 * @p rows holds the 2*radius+1 y-clamped row base pointers (index t
 * corresponds to dy = t - radius; rows[radius] is the center row).
 * For each x, writes out[x] = the (2r+1)^2-1 neighbor-less-than-center
 * bits in (dy, dx) raster order, MSB first — exactly the scalar
 * censusTransform() encoding. The caller guarantees x0 >= radius and
 * x1 <= width - radius so no x-clamping is needed.
 */
using CensusRowFn = void (*)(const float *const *rows, int radius,
                             int x0, int x1, uint64_t *out);

/**
 * SAD of a block of pixels against a window of disparity candidates —
 * the block-matching search. Pixels sit in the vector lanes.
 *
 * @p lrows / @p rrows hold the 2*radius+1 row pointers of the
 * left/right image around the center row (index t is dy = t - radius),
 * already widened to double. For pixel i in [0, n) at x = x0 + i and
 * candidate j in [0, nd) at d = d0 + j, writes
 *
 *   cost[j * n + i] = sum over t ascending, then dx ascending, of
 *                     |lrows[t][x + dx] - rrows[t][x + dx - d]|
 *
 * in double precision: one IEEE subtract, abs and add per tap, in the
 * scalar loop's order. Widening a float is exact, so every (pixel,
 * candidate) sum equals the per-pixel float SAD loop bit for bit at
 * every level; the vector bodies keep one accumulator per lane and
 * never reassociate. The caller guarantees every tap it reads is
 * addressable: the block matcher edge-replicates each row, which
 * also reproduces image::Image::atClamped at the borders.
 */
using SadBlockFn = void (*)(const double *const *lrows,
                            const double *const *rrows, int radius,
                            int x0, int n, int d0, int nd,
                            double *cost);

/**
 * One pixel of the semi-global aggregation recurrence across all
 * @p nd disparities (the uint16 lanes), plus the horizontal-min
 * reduction. For each d in [0, nd):
 *
 *   cur[d]    = sat16(cost[d] + min(prev[d], prev[d-1] + p1,
 *                                   prev[d+1] + p1, prev_min + p2)
 *                     - prev_min)
 *   total[d] += cur[d]
 *
 * and the return value is min(cur[0..nd)) — the prev_min of the next
 * pixel along the path. cost/cur/total are dense length-nd slices
 * (pixel-major); @p prev_min must equal min(prev[0..nd)).
 *
 * Sentinel contract: the caller guarantees prev[-1] and prev[nd] are
 * readable and hold 0xFFFF. A 0xFFFF neighbor can never win the min
 * against prev[d] <= 0xFFFF, so the vector bodies need no first/last
 * lane special cases and stay bit-identical to the scalar reference,
 * which skips the out-of-range neighbors by branching.
 *
 * Bit-identity: the scalar reference computes in uint32 and clamps to
 * 0xFFFF. Because prev[d] <= 0xFFFF is always a min candidate, a
 * saturating uint16 add can never change which candidate wins, and
 * best - prev_min never underflows (every candidate >= prev_min), so
 * saturating uint16 lane arithmetic replays the scalar order exactly.
 * The caller must pass p1, p2 already clamped to [0, 0xFFFF] — a
 * penalty above 0xFFFF can never win either, so clamping at the call
 * site preserves the unclamped scalar semantics.
 */
using AggregateRowFn = uint16_t (*)(const uint16_t *cost,
                                    const uint16_t *prev,
                                    uint16_t prev_min, int nd,
                                    uint16_t p1, uint16_t p2,
                                    uint16_t *cur, uint32_t *total);

/**
 * Fused census->Hamming cost row in pixel-major layout — the
 * generation half of the streaming SGM fusion. Given one census row
 * of the left image (@p cl) and the same row of the right image
 * (@p cr), writes the matching-cost slice of every pixel for a dense
 * window of @p ndw disparity candidates starting at @p dlo:
 *
 *   for x in [0, w), j in [0, ndw):
 *     d = dlo + j
 *     out[x * ndw + j] = popcount(cl[x] ^ cr[max(x - d, 0)])
 *
 * The x - d < 0 clamp is SGM's left-border rule (candidates beyond
 * the left edge compare against column 0). The
 * layout is exactly the per-pixel slice AggregateRowFn consumes, so
 * an aggregation wavefront can eat the row with no transpose and no
 * resident volume. @p dlo > 0 with ndw < full range is the
 * range-pruned mode's per-row search window.
 *
 * Pure integer XOR+popcount — bit-identity across levels is automatic.
 */
using CostRowFn = void (*)(const uint64_t *cl, const uint64_t *cr,
                           int w, int dlo, int ndw, uint16_t *out);

/**
 * One register tile of an f32 GEMM — the DNN-path microkernel behind
 * convNd / deconv::DeconvPlan / dnn::NetworkRuntime. Computes
 *
 *   for r in [0, m), j in [0, n):
 *     acc = +0.0f
 *     for i in [0, k):        // ascending
 *       acc = fma(a[r * lda + i], b[rows[i] * ldb + j], acc)
 *     out[r * ldo + j] = acc
 *
 * i.e. an m x n block of A * B', where A is row-major with leading
 * dimension @p lda and row i of B' is row rows[i] of a row-major
 * matrix B with leading dimension @p ldb. The row table lets several
 * filter banks read their own rows of one shared operand (the
 * deconvolution phases' sub-windows of the union im2col, Sec. 4.2's
 * ILAR); a plain convolution passes the identity. Entries may repeat
 * and need not ascend. The table's tile shape bounds the block:
 * m <= Kernels::gemmMr and n <= Kernels::gemmNr (kMaxGemmMr x
 * kMaxGemmNr at most). An edge tile (m < MR or n < NR) goes through
 * the same entry. A column strip that im2col packed passes its width
 * (NR, or less for the last strip) as ldb; a direct (pointwise)
 * operand passes its row length. The
 * kernel *writes* (does not accumulate into) @p out, so pooled
 * buffers need no pre-zeroing. Vector lanes broadcast a[r * lda + i]
 * and vectorize across j — no horizontal reductions — so each lane
 * replays the scalar per-output accumulation order.
 *
 * Exactness contract: the reference uses std::fmaf (one rounding per
 * step), and every vector lane is a hardware fused multiply-add
 * (AVX2's VFMADD, NEON's FMLA), so every level is bit-identical to it
 * for all finite inputs. NaN *payloads*
 * may differ between a software fmaf and hardware FMA; NaN *positions*
 * always propagate identically. See docs/KERNELS.md.
 */
using GemmTileFn = void (*)(const float *a, int64_t lda, const float *b,
                            int64_t ldb, const uint32_t *rows, int k,
                            int m, int n, float *out, int64_t ldo);

/** Largest register tile any table's gemmTile computes (AVX2's). */
constexpr int kMaxGemmMr = 4;
constexpr int kMaxGemmNr = 24;

/**
 * Fused bias + optional ReLU epilogue applied in place to one output
 * row: out[j] = relu ? max-like(out[j] + bias) : out[j] + bias, where
 * the ReLU is exactly `v > 0 ? v : +0` — NaN and -0 both map to +0
 * (the x86 maxps(v, 0) semantics; the NEON lane uses compare+select
 * because FMAX would propagate NaN). Plain IEEE adds: bit-identical
 * across every level for non-NaN inputs.
 */
using BiasReluRowFn = void (*)(float *out, int n, float bias,
                               bool relu);

/**
 * One output row of a separable (1-D) filter — the Gaussian blur and
 * polynomial-expansion moment passes of Farnebäck flow. Given
 * @p ntaps row pointers and taps, computes
 *
 *   for x in [0, n):
 *     acc = +0.0 (double)
 *     for t in [0, ntaps):        // ascending
 *       acc += k[t] * rows[t][x]
 *     out[x] = float(acc)
 *
 * A horizontal interior pass hands rows[t] = row + t (each lane reads
 * a shifted window of one row); a vertical pass hands the y-clamped
 * row pointers. Each lane's accumulator stays in a register for the
 * whole tap loop — no scratch row.
 *
 * Two flavours, differing only in the product's precision:
 *  - SepRowF32Fn (f32 taps): the product k[t] * rows[t][x] is
 *    rounded to f32, then widened and summed in f64 — the blur's
 *    sequence;
 *  - SepRowF64Fn (f64 taps): the pixel is widened to f64 and both
 *    product and sum are f64 — the moment passes' sequence.
 *
 * Exactness contract: every lane replays the scalar per-output
 * sequence (one IEEE multiply, one IEEE add per tap, same order), so
 * every level is bit-identical to the reference for all inputs. The
 * one way to break it is a fused multiply-add, which is why vector
 * bodies spell out mul + add and the library builds with
 * -ffp-contract=off (docs/KERNELS.md).
 */
using SepRowF32Fn = void (*)(const float *const *rows, const float *k,
                             int ntaps, int n, float *out);
using SepRowF64Fn = void (*)(const float *const *rows, const double *k,
                             int ntaps, int n, float *out);

/** One ISA's kernel table. */
struct Kernels
{
    const char *name;     //!< "scalar" / "avx2" / "neon"
    Level level;          //!< ISA this table was compiled for
    CensusRowFn censusRow;
    SadBlockFn sadBlock;
    AggregateRowFn aggregateRow;
    CostRowFn costRow;
    GemmTileFn gemmTile;
    int gemmMr;           //!< gemmTile's tile rows (filters), MR
    int gemmNr;           //!< gemmTile's tile columns, NR: the packed
                          //!< im2col strip width
    BiasReluRowFn biasReluRow;
    SepRowF32Fn sepRowF32;
    SepRowF64Fn sepRowF64;
};

/**
 * The active kernel table. Selected on first use from ASV_SIMD (or
 * cpuid when unset/"native"); stable afterwards unless setLevel() is
 * called. Call sites fetch the table once per kernel invocation and
 * pass it down, so a concurrent setLevel() never tears a computation.
 */
const Kernels &kernels();

/** Level / name of the active table. */
Level activeLevel();
const char *activeName();

/** Static name of @p level ("scalar", "avx2", "neon"). */
const char *levelName(Level level);

/**
 * Kernel table for @p level, or nullptr when the host CPU cannot run
 * it or the build did not compile it (e.g. NEON on x86).
 */
const Kernels *kernelsFor(Level level);

/** True if kernelsFor(level) would return a table. */
bool levelSupported(Level level);

/**
 * Every level this host + build supports, in ascending Level order:
 * always Level::Scalar first, so the best level is last. The one list
 * that dispatch, tests and benchmarks sweep.
 */
const std::vector<Level> &supportedLevels();

/** Best level this host + build supports (supportedLevels().back()). */
Level bestSupported();

/**
 * Force the active table (tests and tools; not a hot-path API).
 * Throws std::invalid_argument if @p level is unsupported on this
 * host/build.
 */
void setLevel(Level level);

namespace detail
{

/** Per-ISA table getters; nullptr when not compiled into the build. */
const Kernels *scalarKernels();
const Kernels *avx2Kernels();
const Kernels *neonKernels();

} // namespace detail

} // namespace asv::simd

#endif // ASV_COMMON_SIMD_HH
