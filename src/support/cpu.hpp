#pragma once

/// \file cpu.hpp
/// Runtime CPU-feature detection and SIMD dispatch policy (PR 7).
///
/// The sync round kernels' packed-lane gather has an AVX2 path
/// (sync/simd_gather.hpp) that must be selected at runtime: the same
/// binary runs on machines with and without AVX2, and the tests exercise
/// the scalar fallback on AVX2 hardware by forcing dispatch the other way.
/// Resolution order:
///
///   1. a process-wide override installed by set_simd_override() — the
///      test hook the SIMD/scalar equivalence suite uses to pin both
///      paths against each other on one machine;
///   2. cpuid detection: AVX2 requires CPUID.7.0:EBX[5], plus
///      CPUID.1:ECX OSXSAVE+AVX and XCR0 confirming the OS saves YMM
///      state (a kernel that does not context-switch the upper halves
///      makes AVX2 execution unsafe even when the CPU has it).
///
/// Building with -DPAPC_DISABLE_SIMD (the CI -mno-avx2 job) compiles the
/// AVX2 kernel out entirely; detection then reports scalar regardless of
/// the hardware, so the dispatch site needs no #ifdefs of its own.
///
/// The dispatch decision never changes results: the SIMD kernel is a
/// bit-identical value gather (pinned by tests/sync/simd_equivalence_
/// test.cpp), so this is a pure throughput knob.

namespace papc::support {

/// SIMD instruction tiers the kernels dispatch over. Ordered: a level
/// implies every lower one.
enum class SimdLevel {
    kScalar = 0,
    kAvx2 = 1,
};

/// Human-readable level name ("scalar", "avx2") for logs and bench labels.
[[nodiscard]] const char* simd_level_name(SimdLevel level);

/// What the hardware (and the build) supports: cpuid-detected, cached
/// after the first call. Reports kScalar when PAPC_DISABLE_SIMD was set
/// at build time, on non-x86-64 targets, or when the OS does not enable
/// YMM state.
[[nodiscard]] SimdLevel detected_simd();

/// The level the kernels should use right now: the override if one is
/// installed, else detected_simd(). Cheap enough for per-strip checks
/// (one relaxed atomic load + cached statics).
[[nodiscard]] SimdLevel active_simd();

/// Installs a process-wide dispatch override (test hook). Requesting a
/// level above detected_simd() is clamped to what the machine can run —
/// callers that must know whether AVX2 really executed should check
/// active_simd() afterwards.
void set_simd_override(SimdLevel level);

/// Removes the override; active_simd() falls back to detection.
void clear_simd_override();

}  // namespace papc::support
