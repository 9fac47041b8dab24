#!/usr/bin/env bash
# Run the kernel microbenchmarks, the frames-in-flight streaming
# benchmark, the engine-API dispatch-overhead benchmark, the
# multi-stream serving benchmark, and the per-ISA Fig. 11 / Fig. 13
# wall-time benchmarks (transformed deconvolution and the DNN
# refinement forward pass on the f32 GEMM route, with the analytic
# simulator figures attached as sim_* counters), and
# record the combined results as JSON, seeding the perf trajectory
# tracked across PRs. The kernel run includes BM_SteadyStateAlloc,
# whose allocs_per_frame / pool_hit_rate counters record the
# BufferPool zero-allocation contract alongside the timings (the
# hard gate for it is alloc_baseline_test, not this script).
#
# Usage: bench/run_benchmarks.sh [--check|--check-only] [output.json]
#   BUILD_DIR   build tree to use (default: build-bench, configured
#               as Release — never a developer's ./build cache)
#   ASV_THREADS worker count for the threaded kernels (default: all)
#
# --check: perf-regression gate. Instead of (only) writing results,
# compare the fresh run against the committed BENCH_kernels.json
# baseline for the named kernels and exit nonzero if any slowed down
# by more than the threshold. --check-only skips the build/run and
# just compares an existing results file (the required positional
# argument) against the baseline — CI uses this so the gate reuses
# the run the bench job already made. Knobs:
#   ASV_BENCH_CHECK_THRESHOLD  max allowed fresh/baseline real_time
#                              ratio (default 1.5, i.e. +50% — wide
#                              because the 1-CPU shared CI runners
#                              are noisy; CI runs this step
#                              advisory / continue-on-error)
#   ASV_BENCH_CHECK_KERNELS    regex of benchmark names to gate
#                              (default: the census,
#                              aggregate-row, fused cost-row and
#                              conv-GEMM SIMD sweeps, every deconv
#                              datapoint (the per-ISA BM_Deconv
#                              sweep and the BM_DeconvTransformed /
#                              BM_DeconvReference pair), the
#                              per-ISA Fig. 11 / Fig. 13 wall-time
#                              datapoints, the end-to-end
#                              BM_Sgm/{256,512,1024} datapoints, plus
#                              block matching (full and guided) and
#                              the per-ISA ISM propagation;
#                              datapoints absent from the committed
#                              baseline are reported as new and
#                              skipped, so the gate degrades
#                              gracefully when a baseline predates a
#                              kernel)
set -euo pipefail

cd "$(dirname "$0")/.."

# Both the results merge and the --check gate are python3.
command -v python3 >/dev/null 2>&1 || {
    echo "run_benchmarks.sh requires python3" >&2
    exit 2
}

CHECK=0
RUN=1
if [[ "${1:-}" == "--check" ]]; then
    CHECK=1
    shift
elif [[ "${1:-}" == "--check-only" ]]; then
    CHECK=1
    RUN=0
    shift
fi

# A dedicated build tree by default: the harness forces Release and
# must not silently reconfigure a developer's ./build cache.
BUILD_DIR="${BUILD_DIR:-build-bench}"
BASELINE="BENCH_kernels.json"
if [[ $CHECK -eq 1 ]]; then
    if [[ $RUN -eq 0 ]]; then
        [[ -n "${1:-}" ]] || {
            echo "--check-only needs an existing results file" >&2
            exit 2
        }
        OUT="$1"
        [[ -f "$OUT" ]] || {
            echo "--check-only: no such results file: $OUT" >&2
            exit 2
        }
    else
        OUT="${1:-$(mktemp /tmp/asv-bench-check-XXXX.json)}"
    fi
    # The gate must never clobber (or compare a file against itself
    # as) the committed baseline.
    if [[ "$(readlink -f "$OUT")" == "$(readlink -f "$BASELINE")" ]]
    then
        echo "check mode refuses to use the baseline ($BASELINE)" \
             "as the fresh-results file" >&2
        exit 2
    fi
else
    OUT="${1:-BENCH_kernels.json}"
fi
THRESHOLD="${ASV_BENCH_CHECK_THRESHOLD:-1.5}"
KERNELS="${ASV_BENCH_CHECK_KERNELS:-^BM_Census/|^BM_AggregateRow/|^BM_FusedCostRow/|^BM_ConvGemm/|^BM_Deconv|^BM_Fig11|^BM_Fig13|^BM_Sgm/(256|512|1024)|^BM_BlockMatching|^BM_IsmPropagate}"

if [[ $RUN -eq 1 ]]; then

# Force an optimized library build: benchmark numbers from a debug
# tree poison the perf trajectory (BENCH_kernels.json once recorded
# "library_build_type": "debug").
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j --target bench_kernels bench_stream \
    bench_matcher_dispatch bench_serve \
    bench_fig11_deconv_breakdown bench_fig13_eyeriss_gpu

KERNELS_JSON="$(mktemp)"
STREAM_JSON="$(mktemp)"
DISPATCH_JSON="$(mktemp)"
SERVE_JSON="$(mktemp)"
FIG11_JSON="$(mktemp)"
FIG13_JSON="$(mktemp)"
trap 'rm -f "$KERNELS_JSON" "$STREAM_JSON" "$DISPATCH_JSON" \
    "$SERVE_JSON" "$FIG11_JSON" "$FIG13_JSON"' EXIT

"$BUILD_DIR/bench_kernels" \
    --benchmark_format=json \
    --benchmark_out="$KERNELS_JSON" \
    --benchmark_out_format=json

"$BUILD_DIR/bench_stream" \
    --benchmark_format=json \
    --benchmark_out="$STREAM_JSON" \
    --benchmark_out_format=json

"$BUILD_DIR/bench_matcher_dispatch" \
    --benchmark_format=json \
    --benchmark_out="$DISPATCH_JSON" \
    --benchmark_out_format=json

"$BUILD_DIR/bench_serve" \
    --benchmark_format=json \
    --benchmark_out="$SERVE_JSON" \
    --benchmark_out_format=json

"$BUILD_DIR/bench_fig11_deconv_breakdown" \
    --benchmark_format=json \
    --benchmark_out="$FIG11_JSON" \
    --benchmark_out_format=json

"$BUILD_DIR/bench_fig13_eyeriss_gpu" \
    --benchmark_format=json \
    --benchmark_out="$FIG13_JSON" \
    --benchmark_out_format=json

# Append the streaming and dispatch datapoints to the kernel
# results so one file carries the whole trajectory, and stamp the
# asv build type actually configured (google-benchmark's own
# "library_build_type" describes the benchmark library, not us).
ASV_BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
    "$BUILD_DIR/CMakeCache.txt")"
ASV_BUILD_TYPE="$ASV_BUILD_TYPE" \
python3 - "$KERNELS_JSON" "$STREAM_JSON" "$DISPATCH_JSON" \
    "$SERVE_JSON" "$FIG11_JSON" "$FIG13_JSON" "$OUT" <<'PY'
import json, os, sys
kernels, extras, out = sys.argv[1], sys.argv[2:-1], sys.argv[-1]
with open(kernels) as f:
    merged = json.load(f)
for path in extras:
    with open(path) as f:
        merged["benchmarks"] += json.load(f)["benchmarks"]
merged["context"]["asv_build_type"] = os.environ.get(
    "ASV_BUILD_TYPE", "unknown")
with open(out, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
PY

echo "wrote $OUT"

fi # RUN

if [[ $CHECK -eq 1 ]]; then
    ASV_BENCH_CHECK_THRESHOLD="$THRESHOLD" \
    ASV_BENCH_CHECK_KERNELS="$KERNELS" \
    python3 - "$BASELINE" "$OUT" <<'PY'
import json, os, re, sys

baseline_path, fresh_path = sys.argv[1], sys.argv[2]
threshold = float(os.environ["ASV_BENCH_CHECK_THRESHOLD"])
pattern = re.compile(os.environ["ASV_BENCH_CHECK_KERNELS"])

# Normalize every datapoint to nanoseconds of real_time, keyed by
# the benchmark name (aggregates, if any, are skipped).
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
def load(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b["name"]
        if "real_time" not in b:
            continue
        out[name] = b["real_time"] * UNIT_NS.get(
            b.get("time_unit", "ns"), 1.0)
    return out

base = load(baseline_path)
fresh = load(fresh_path)

rows, failed, missing = [], [], []
for name in sorted(fresh):
    if not pattern.search(name):
        continue
    if name not in base:
        missing.append(name)
        continue
    ratio = fresh[name] / base[name] if base[name] else float("inf")
    rows.append((name, base[name], fresh[name], ratio))
    if ratio > threshold:
        failed.append(name)

print(f"perf check vs {baseline_path} "
      f"(threshold {threshold:.2f}x on real_time):")
for name, b, f_, r in rows:
    flag = " << REGRESSION" if name in failed else ""
    print(f"  {name:<40} {b/1e6:10.3f}ms -> {f_/1e6:10.3f}ms "
          f"({r:5.2f}x){flag}")
for name in missing:
    print(f"  {name:<40} (new datapoint, no baseline)")
if not rows:
    print("  no gated kernels matched both runs", file=sys.stderr)
    sys.exit(2)
if failed:
    print(f"{len(failed)} kernel(s) regressed beyond "
          f"{threshold:.2f}x", file=sys.stderr)
    sys.exit(1)
print("perf check passed")
PY
fi
