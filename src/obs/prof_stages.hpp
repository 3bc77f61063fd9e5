// Central registry of hot-path profiler stage names.
//
// Every CARAOKE_PROF_SCOPE in src/ must name its stage through one of
// these constants — never a raw string literal at the call site. The
// `profstage` rule in tools/caraoke_lint.py enforces both halves: stage
// names here must be dotted-lowercase and unique (they key folded
// flamegraph frames, the /profile JSON, and the benchgate counter
// gates, so a rename is a dashboard-breaking event), and a raw literal
// in a scope macro elsewhere is a finding. Adding a stage means adding
// a constant here AND refreshing PROFSTAGE_BASELINE in caraoke_lint.py
// — the same explicit-acknowledgement pairing the wire-format baseline
// uses.
//
// Taxonomy: `<layer>.<stage>` mirroring the per-burst pipeline
// (window -> fft -> peak -> cfo -> coherent_sum -> manchester ->
// decode) plus the composite entry points that wrap them. A reader
// daemon's measurement window roots at its four steps: sim.query (per
// query), core.count, core.observe and core.decode (per combine).
#pragma once

namespace caraoke::obs::prof::stage {

// sim: the world model, so reader cost and simulated-air cost share one
// trie and one clock.
inline constexpr char kQuery[] = "sim.query";

// dsp: leaf kernels of the per-burst pipeline.
inline constexpr char kWindow[] = "dsp.window";
inline constexpr char kFft[] = "dsp.fft";
inline constexpr char kPeak[] = "dsp.peak";
inline constexpr char kSpectrum[] = "dsp.spectrum";
inline constexpr char kGoertzel[] = "dsp.goertzel";

// phy: demodulation stages.
inline constexpr char kCfo[] = "phy.cfo";
inline constexpr char kDemod[] = "phy.demod";
inline constexpr char kManchester[] = "phy.manchester";

// core: composite pipeline entry points.
inline constexpr char kAnalyze[] = "core.analyze";
inline constexpr char kCount[] = "core.count";
inline constexpr char kObserve[] = "core.observe";
inline constexpr char kDecode[] = "core.decode";
inline constexpr char kCoherentSum[] = "core.coherent_sum";
inline constexpr char kChase[] = "core.chase";
inline constexpr char kTimingSearch[] = "core.timing_search";

}  // namespace caraoke::obs::prof::stage
