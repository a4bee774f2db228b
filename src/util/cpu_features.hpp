// Runtime CPU feature detection, shared by every runtime-dispatched
// kernel in the repo (the SHA-NI digest path in persist/digest.cpp and
// the AVX2/AVX-512 Top-K SpMV kernels in simd/).
//
// The probe runs once per process and is cached; environment overrides
// force the portable paths so fallback code stays testable on hardware
// that would otherwise always dispatch to the wide units:
//
//   TOPK_NO_AVX      disable AVX2 *and* AVX-512 (scalar SpMV kernels)
//   TOPK_NO_AVX512   disable AVX-512 only (AVX2 kernels still run)
//   TOPK_NO_SHA_NI   disable the SHA-NI SHA-256 compression loop
//
// Because the probe is cached, one process only ever exercises one
// implementation per kernel; CI re-runs the suites with the overrides
// set to pin every path (see .github/workflows/ci.yml).
#pragma once

namespace topk::util {

/// The instruction-set extensions the repo dispatches on.  All fields
/// are false on non-x86 builds or non-GNU compilers (the dispatched
/// kernels are compiled out there too, so the flags and the code agree
/// by construction).
struct CpuFeatures {
  /// AVX2 + FMA: the 256-bit float kernels.
  bool avx2 = false;
  /// AVX-512F (implies avx2 here): the 512-bit float kernels.
  bool avx512 = false;
  /// SHA + SSE4.1 + SSSE3: the SHA-NI SHA-256 compression loop.
  bool sha_ni = false;
};

/// The cached per-process probe (CPUID via __builtin_cpu_supports,
/// masked by the TOPK_NO_* environment overrides read once at first
/// call).
[[nodiscard]] const CpuFeatures& cpu_features() noexcept;

/// std::thread::hardware_concurrency() with the standard's "0 =
/// unknown" mapped to 1.  The one definition of the fallback every
/// "threads = 0 means hardware" option resolves through, by way of
/// util::resolve_fanout_threads (thread_pool.hpp) — it used to be
/// copy-pasted per call site, where the copies could drift.
/// tools/lint.py (-Wraw-hwconcurrency) forbids direct
/// hardware_concurrency() calls outside util/.
[[nodiscard]] int default_thread_count() noexcept;

}  // namespace topk::util
