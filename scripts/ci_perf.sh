#!/usr/bin/env bash
# Perf smoke for CI: build the bench binaries (optimized, no sanitizer),
# then run tools/benchgate.py in the smoke profile — every bench binary
# N times with --json, aggregated into BENCH_*.json and gated against
# the newest committed baseline (exit non-zero on a wall-clock
# regression beyond the threshold, or a per-burst counter budget
# violation — see COUNTER_GATES in tools/benchgate.py).
#
# The pipeline benchmark's smoke rides along: it builds perfbench/
# against src/ (in .bench_build) and runs every workload ~1 s in both
# trace modes, checking its outputs — so a rename of a src/ name that
# perfbench calls fails here rather than only at the benchmark gate.
#
# Two profiler stages ride along:
#   profile-smoke  run dsp_micro + decoder_ablation with --prof-folded
#                  and assert (tools/profcat.py --assert-stages) that
#                  the pipeline instrumentation still records every
#                  expected stage — a silent scope removal fails CI.
#   prof-off       configure a throwaway -DCARAOKE_PROF=OFF build of one
#                  bench binary and nm-check that it carries zero
#                  profiler machinery symbols (the compiled-out
#                  zero-cost contract). Skip with PROF_OFF_CHECK=0.
#
# Environment knobs:
#   BUILD_DIR   build tree to use            (default build-perf)
#   PROFILE     smoke | full                 (default smoke)
#   REPEATS     runs per bench               (default 3)
#   THRESHOLD   fractional slowdown gate     (default 0.10)
#   OUT         consolidated report path     (default BENCH_PR10.tmp.json,
#               gitignored so CI runs never dirty the tree)
#   GATE_ARGS   extra benchgate.py args (e.g. --update-baseline)
#   PROF_OFF_CHECK  1 to run the prof-off nm check (default 1)
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-perf}"
PROFILE="${PROFILE:-smoke}"
REPEATS="${REPEATS:-3}"
THRESHOLD="${THRESHOLD:-0.10}"
OUT="${OUT:-BENCH_PR10.tmp.json}"
PROF_OFF_CHECK="${PROF_OFF_CHECK:-1}"

echo "=== ci_perf: building benches (${BUILD_DIR}) ==="
cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${BUILD_DIR}" -j --target \
  bench_fig04_collision_spectrum bench_eq7_counting_probability \
  bench_fig08_decoding_averaging bench_fig11_counting_accuracy \
  bench_fig12_traffic_monitoring bench_fig13_localization_accuracy \
  bench_fig14_multipath_profile bench_fig15_speed_accuracy \
  bench_fig16_identification_time bench_power_budget \
  bench_mac_csma_ablation bench_decoder_ablation \
  bench_backend_ingest_durable bench_fleet_scrape bench_expo_serve \
  bench_dsp_micro bench_sfft_vs_fft >/dev/null

echo "=== ci_perf: benchgate (${PROFILE}, x${REPEATS}, gate ${THRESHOLD}) ==="
# shellcheck disable=SC2086
python3 tools/benchgate.py \
  --build-dir "${BUILD_DIR}" \
  --profile "${PROFILE}" \
  --repeats "${REPEATS}" \
  --threshold "${THRESHOLD}" \
  --out "${OUT}" \
  ${GATE_ARGS:-}

echo "=== ci_perf: pipeline benchmark smoke (perfbench) ==="
python3 perfbench/run.py --smoke

echo "=== ci_perf: profile smoke (folded dumps + expected stages) ==="
PROF_DIR="$(mktemp -d)"
trap 'rm -rf "${PROF_DIR}"' EXIT
"${BUILD_DIR}/bench/bench_dsp_micro" --benchmark_min_time=0.01 \
  --prof-folded "${PROF_DIR}/dsp_micro.folded" >/dev/null
python3 tools/profcat.py "${PROF_DIR}/dsp_micro.folded" \
  --assert-stages dsp.fft,dsp.window,dsp.peak,dsp.goertzel,dsp.spectrum,core.analyze
"${BUILD_DIR}/bench/bench_decoder_ablation" 1 \
  --prof-folded "${PROF_DIR}/decoder_ablation.folded" >/dev/null
python3 tools/profcat.py "${PROF_DIR}/decoder_ablation.folded" \
  --assert-stages core.decode,phy.cfo,core.coherent_sum,phy.manchester

if [[ "${PROF_OFF_CHECK}" == "1" ]]; then
  echo "=== ci_perf: prof-off zero-cost check (nm) ==="
  OFF_DIR="${BUILD_DIR}-prof-off"
  cmake -B "${OFF_DIR}" -S . -DCMAKE_BUILD_TYPE=Release \
    -DCARAOKE_PROF=OFF >/dev/null
  cmake --build "${OFF_DIR}" -j --target bench_decoder_ablation >/dev/null
  cmake -DNM="$(command -v nm)" \
    -DBINARY="${OFF_DIR}/bench/bench_decoder_ablation" \
    -P tests/prof_symbols_check.cmake
fi

echo "=== ci_perf: OK ==="
