#include "simd/topk_simd.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/cpu_features.hpp"
#include "util/thread_pool.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define TOPK_SIMD_DISPATCH 1
#include <immintrin.h>
#endif

namespace topk::simd {

namespace {

/// Screen positions [pos_begin, pos_end), writing the f32 score of
/// position p to scores[p - pos_begin].  xpad is the query padded with
/// zeros to a kBlockCols multiple, so full-width block loads never run
/// past the vector.  Under the gather strategy both bounds are
/// multiples of kBlockCols (whole groups).  The scan's rounding error
/// is covered by the layout's precomputed screen_bound() (times
/// ||x||_2), so the kernels accumulate nothing but the score itself.
using ScanFn = void (*)(const BlockedCsr&, const float*, std::uint32_t,
                        std::uint32_t, float*);

// Positions screened per scan call: the score staging buffer stays
// L1 resident and the filter loop runs on warm results.  A multiple of
// kBlockCols so gather chunks hold whole groups.
constexpr std::uint32_t kChunkRows = 1024;

// ------------------------------------------------------- scalar kernels

void scan_blocked_scalar(const BlockedCsr& layout, const float* xpad,
                         std::uint32_t pos_begin, std::uint32_t pos_end,
                         float* scores) {
  const std::uint64_t* bp = layout.block_ptr().data();
  const std::uint32_t* bid = layout.block_id().data();
  const float* vals = layout.block_vals().data();
  for (std::uint32_t r = pos_begin; r < pos_end; ++r) {
    float score = 0.0f;
    for (std::uint64_t b = bp[r]; b < bp[r + 1]; ++b) {
      const float* v = vals + static_cast<std::size_t>(b) * kBlockCols;
      const float* xb = xpad + static_cast<std::size_t>(bid[b]) * kBlockCols;
      for (std::uint32_t j = 0; j < kBlockCols; ++j) {
        score += v[j] * xb[j];
      }
    }
    scores[r - pos_begin] = score;
  }
}

void scan_gather_scalar(const BlockedCsr& layout, const float* xpad,
                        std::uint32_t pos_begin, std::uint32_t pos_end,
                        float* scores) {
  const std::uint64_t* off = layout.group_off().data();
  const std::uint32_t* c32 = layout.group_cols().data();
  const std::uint16_t* c16 =
      layout.narrow_cols() ? layout.group_cols16().data() : nullptr;
  const float* vals = layout.group_vals().data();
  for (std::uint32_t p = pos_begin; p < pos_end; p += kBlockCols) {
    const std::uint32_t g = p / kBlockCols;
    const std::uint64_t terms = off[g + 1] - off[g];
    const std::size_t base = static_cast<std::size_t>(off[g]) * kBlockCols;
    const float* v = vals + base;
    float score[kBlockCols] = {};
    for (std::uint64_t t = 0; t < terms; ++t) {
      const std::size_t slot = static_cast<std::size_t>(t) * kBlockCols;
      for (std::uint32_t lane = 0; lane < kBlockCols; ++lane) {
        const std::uint32_t col = c16 != nullptr ? c16[base + slot + lane]
                                                 : c32[base + slot + lane];
        score[lane] += v[slot + lane] * xpad[col];
      }
    }
    for (std::uint32_t lane = 0; lane < kBlockCols; ++lane) {
      scores[p - pos_begin + lane] = score[lane];
    }
  }
}

#ifdef TOPK_SIMD_DISPATCH

// --------------------------------------------------------- AVX2 kernels

__attribute__((target("avx2"))) inline float hsum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

__attribute__((target("avx2,fma"))) void scan_blocked_avx2(
    const BlockedCsr& layout, const float* xpad, std::uint32_t pos_begin,
    std::uint32_t pos_end, float* scores) {
  const std::uint64_t* bp = layout.block_ptr().data();
  const std::uint32_t* bid = layout.block_id().data();
  const float* vals = layout.block_vals().data();
  for (std::uint32_t r = pos_begin; r < pos_end; ++r) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    for (std::uint64_t b = bp[r]; b < bp[r + 1]; ++b) {
      const float* v = vals + static_cast<std::size_t>(b) * kBlockCols;
      const float* xb = xpad + static_cast<std::size_t>(bid[b]) * kBlockCols;
      acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(v), _mm256_loadu_ps(xb), acc0);
      acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(v + 8),
                             _mm256_loadu_ps(xb + 8), acc1);
    }
    scores[r - pos_begin] = hsum256(_mm256_add_ps(acc0, acc1));
  }
}

/// Loads 8 column indices at flat slot `slot`, widening from 16-bit
/// when the narrow array is in use (c16 non-null).
__attribute__((target("avx2"))) inline __m256i load_idx8(
    const std::uint32_t* c32, const std::uint16_t* c16, std::size_t slot) {
  if (c16 != nullptr) {
    return _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(c16 + slot)));
  }
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c32 + slot));
}

__attribute__((target("avx2,fma"))) void scan_gather_avx2(
    const BlockedCsr& layout, const float* xpad, std::uint32_t pos_begin,
    std::uint32_t pos_end, float* scores) {
  const std::uint64_t* off = layout.group_off().data();
  const std::uint32_t* c32 = layout.group_cols().data();
  const std::uint16_t* c16 =
      layout.narrow_cols() ? layout.group_cols16().data() : nullptr;
  const float* vals = layout.group_vals().data();
  for (std::uint32_t p = pos_begin; p < pos_end; p += kBlockCols) {
    const std::uint32_t g = p / kBlockCols;
    const std::uint64_t terms = off[g + 1] - off[g];
    const std::size_t base = static_cast<std::size_t>(off[g]) * kBlockCols;
    const float* v = vals + base;
    // One lane per row: accumulate the group's 16 rows in two ymm
    // halves and store them straight out — no horizontal reduction.
    __m256 acc_lo = _mm256_setzero_ps();
    __m256 acc_hi = _mm256_setzero_ps();
    for (std::uint64_t t = 0; t < terms; ++t) {
      const std::size_t slot = static_cast<std::size_t>(t) * kBlockCols;
      const __m256i idx_lo = load_idx8(c32, c16, base + slot);
      const __m256i idx_hi = load_idx8(c32, c16, base + slot + 8);
      const __m256 xv_lo = _mm256_i32gather_ps(xpad, idx_lo, 4);
      const __m256 xv_hi = _mm256_i32gather_ps(xpad, idx_hi, 4);
      acc_lo = _mm256_fmadd_ps(_mm256_loadu_ps(v + slot), xv_lo, acc_lo);
      acc_hi = _mm256_fmadd_ps(_mm256_loadu_ps(v + slot + 8), xv_hi, acc_hi);
    }
    _mm256_storeu_ps(scores + (p - pos_begin), acc_lo);
    _mm256_storeu_ps(scores + (p - pos_begin) + 8, acc_hi);
  }
}

// ------------------------------------------------------ AVX-512 kernels

// GCC 12's unmasked _mm512_i32gather_ps / _mm512_reduce_add_ps expand
// through _mm512_undefined_ps(), which trips -Wmaybe-uninitialized at
// the system-header line; the lanes are fully overwritten, so silence
// it for these kernels only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

__attribute__((target("avx512f"))) void scan_blocked_avx512(
    const BlockedCsr& layout, const float* xpad, std::uint32_t pos_begin,
    std::uint32_t pos_end, float* scores) {
  const std::uint64_t* bp = layout.block_ptr().data();
  const std::uint32_t* bid = layout.block_id().data();
  const float* vals = layout.block_vals().data();
  for (std::uint32_t r = pos_begin; r < pos_end; ++r) {
    // One 16-lane register per block; two independent accumulators
    // hide the FMA latency across even/odd blocks.
    __m512 acc_a = _mm512_setzero_ps();
    __m512 acc_b = _mm512_setzero_ps();
    const std::uint64_t end = bp[r + 1];
    std::uint64_t b = bp[r];
    for (; b + 1 < end; b += 2) {
      const __m512 v0 =
          _mm512_loadu_ps(vals + static_cast<std::size_t>(b) * kBlockCols);
      const __m512 x0 = _mm512_loadu_ps(
          xpad + static_cast<std::size_t>(bid[b]) * kBlockCols);
      const __m512 v1 = _mm512_loadu_ps(
          vals + static_cast<std::size_t>(b + 1) * kBlockCols);
      const __m512 x1 = _mm512_loadu_ps(
          xpad + static_cast<std::size_t>(bid[b + 1]) * kBlockCols);
      acc_a = _mm512_fmadd_ps(v0, x0, acc_a);
      acc_b = _mm512_fmadd_ps(v1, x1, acc_b);
    }
    if (b < end) {
      const __m512 v0 =
          _mm512_loadu_ps(vals + static_cast<std::size_t>(b) * kBlockCols);
      const __m512 x0 = _mm512_loadu_ps(
          xpad + static_cast<std::size_t>(bid[b]) * kBlockCols);
      acc_a = _mm512_fmadd_ps(v0, x0, acc_a);
    }
    scores[r - pos_begin] = _mm512_reduce_add_ps(_mm512_add_ps(acc_a, acc_b));
  }
}

/// Loads 16 column indices at flat slot `slot`, widening from 16-bit
/// when the narrow array is in use (c16 non-null).
__attribute__((target("avx512f"))) inline __m512i load_idx16(
    const std::uint32_t* c32, const std::uint16_t* c16, std::size_t slot) {
  if (c16 != nullptr) {
    return _mm512_cvtepu16_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c16 + slot)));
  }
  return _mm512_loadu_si512(static_cast<const void*>(c32 + slot));
}

__attribute__((target("avx512f"))) void scan_gather_avx512(
    const BlockedCsr& layout, const float* xpad, std::uint32_t pos_begin,
    std::uint32_t pos_end, float* scores) {
  const std::uint64_t* off = layout.group_off().data();
  const std::uint32_t* c32 = layout.group_cols().data();
  const std::uint16_t* c16 =
      layout.narrow_cols() ? layout.group_cols16().data() : nullptr;
  const float* vals = layout.group_vals().data();
  for (std::uint32_t p = pos_begin; p < pos_end; p += kBlockCols) {
    const std::uint32_t g = p / kBlockCols;
    const std::uint64_t terms = off[g + 1] - off[g];
    const std::size_t base = static_cast<std::size_t>(off[g]) * kBlockCols;
    const float* v = vals + base;
    // One lane per row: the group's 16 rows finish in one register —
    // no horizontal reduction.  Two accumulators over even/odd terms
    // hide the FMA latency behind the gathers.
    __m512 acc_a = _mm512_setzero_ps();
    __m512 acc_b = _mm512_setzero_ps();
    std::uint64_t t = 0;
    for (; t + 1 < terms; t += 2) {
      const std::size_t slot = static_cast<std::size_t>(t) * kBlockCols;
      const __m512i idx0 = load_idx16(c32, c16, base + slot);
      const __m512i idx1 = load_idx16(c32, c16, base + slot + kBlockCols);
      const __m512 xv0 = _mm512_i32gather_ps(idx0, xpad, 4);
      const __m512 xv1 = _mm512_i32gather_ps(idx1, xpad, 4);
      acc_a = _mm512_fmadd_ps(_mm512_loadu_ps(v + slot), xv0, acc_a);
      acc_b = _mm512_fmadd_ps(_mm512_loadu_ps(v + slot + kBlockCols), xv1,
                              acc_b);
    }
    if (t < terms) {
      const std::size_t slot = static_cast<std::size_t>(t) * kBlockCols;
      const __m512i idx = load_idx16(c32, c16, base + slot);
      const __m512 xv = _mm512_i32gather_ps(idx, xpad, 4);
      acc_a = _mm512_fmadd_ps(_mm512_loadu_ps(v + slot), xv, acc_a);
    }
    _mm512_storeu_ps(scores + (p - pos_begin),
                     _mm512_add_ps(acc_a, acc_b));
  }
}

#pragma GCC diagnostic pop

#endif  // TOPK_SIMD_DISPATCH

ScanFn select_scan(const BlockedCsr& layout, IsaLevel level) {
  const bool blocked = layout.strategy() == Strategy::kBlocked;
#ifdef TOPK_SIMD_DISPATCH
  switch (level) {
    case IsaLevel::kAvx512:
      return blocked ? scan_blocked_avx512 : scan_gather_avx512;
    case IsaLevel::kAvx2:
      return blocked ? scan_blocked_avx2 : scan_gather_avx2;
    case IsaLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  return blocked ? scan_blocked_scalar : scan_gather_scalar;
}

// ---------------------------------------------------------- driver code

/// Min-heap on the canonical order (front sorts last), as in the
/// scalar baseline: the lower row index survives ties.
struct HeapLess {
  bool operator()(const core::TopKEntry& a, const core::TopKEntry& b) const {
    return core::topk_entry_before(a, b);
  }
};

void heap_insert(std::vector<core::TopKEntry>& heap, std::size_t k,
                 const core::TopKEntry& entry) {
  const HeapLess less;
  if (heap.size() < k) {
    heap.push_back(entry);
    std::push_heap(heap.begin(), heap.end(), less);
  } else if (core::topk_entry_before(entry, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), less);
    heap.back() = entry;
    std::push_heap(heap.begin(), heap.end(), less);
  }
}

struct RangeOutput {
  std::vector<core::TopKEntry> heap;
  std::uint64_t rescored = 0;
};

/// One screened candidate: the row and its score upper bound, kept so
/// the rescore pass can re-filter against the *final* threshold (the
/// running threshold is weak for the first rows of a range).
struct Candidate {
  std::uint32_t row = 0;
  float upper = 0.0f;
};

void exact_scan_range(const BlockedCsr& layout, std::span<const float> x,
                      const float* xpad, float x_norm, int top_k, ScanFn scan,
                      std::uint32_t pos_begin, std::uint32_t pos_end,
                      RangeOutput& out) {
  const sparse::Csr& csr = layout.source();
  const float* bounds = layout.screen_bound().data();
  const std::size_t k = static_cast<std::size_t>(top_k);
  const float neg_inf = -std::numeric_limits<float>::infinity();
  std::vector<float> scores(kChunkRows);
  // Min-heap of the k largest score lower bounds seen so far; its
  // front is the screening threshold.
  std::vector<float> lower_heap;
  lower_heap.reserve(k);
  std::vector<Candidate> candidates;
  for (std::uint32_t chunk = pos_begin; chunk < pos_end;
       chunk += kChunkRows) {
    const std::uint32_t chunk_end = std::min(pos_end, chunk + kChunkRows);
    scan(layout, xpad, chunk, chunk_end, scores.data());
    for (std::uint32_t p = chunk; p < chunk_end; ++p) {
      const std::uint32_t row = layout.position_row(p);
      if (row == kInvalidRow) {
        continue;  // padding lane of the final gather group
      }
      const std::uint32_t i = p - chunk;
      // screen_bound() bakes in everything but the query norm (see
      // blocked_csr.hpp); its >= 4x slack covers this f32 product and
      // the f32 bound arithmetic below.
      const float margin = bounds[p] * x_norm;
      const float upper = scores[i] + margin;
      const float lower = scores[i] - margin;
      const float threshold =
          lower_heap.size() == k ? lower_heap.front() : neg_inf;
      // Negated test so a non-finite upper (overflowed or non-finite
      // data) is always a candidate — the rescore resolves it exactly.
      if (!(upper < threshold)) {
        candidates.push_back(Candidate{row, upper});
      }
      if (std::isfinite(lower)) {
        if (lower_heap.size() < k) {
          lower_heap.push_back(lower);
          std::push_heap(lower_heap.begin(), lower_heap.end(),
                         std::greater<>());
        } else if (lower > lower_heap.front()) {
          std::pop_heap(lower_heap.begin(), lower_heap.end(),
                        std::greater<>());
          lower_heap.back() = lower;
          std::push_heap(lower_heap.begin(), lower_heap.end(),
                         std::greater<>());
        }
      }
    }
  }
  // Re-filter against the final threshold before paying for row_dot:
  // the first k rows of the range always passed the (then-empty)
  // running threshold, but most fail the final one.  Still sound: the
  // k-th largest lower bound underestimates the k-th exact score, so a
  // true top-k row's upper bound can never fall below it.
  const float final_threshold =
      lower_heap.size() == k ? lower_heap.front() : neg_inf;
  out.heap.reserve(k);
  for (const Candidate& candidate : candidates) {
    if (candidate.upper < final_threshold) {
      continue;
    }
    ++out.rescored;
    heap_insert(out.heap, k,
                core::TopKEntry{candidate.row,
                                csr.row_dot(candidate.row, x)});
  }
}

void screen_scan_range(const BlockedCsr& layout, const float* xpad,
                       int top_k, ScanFn scan, std::uint32_t pos_begin,
                       std::uint32_t pos_end, RangeOutput& out) {
  const std::size_t k = static_cast<std::size_t>(top_k);
  std::vector<float> scores(kChunkRows);
  out.heap.reserve(k);
  for (std::uint32_t chunk = pos_begin; chunk < pos_end;
       chunk += kChunkRows) {
    const std::uint32_t chunk_end = std::min(pos_end, chunk + kChunkRows);
    scan(layout, xpad, chunk, chunk_end, scores.data());
    for (std::uint32_t p = chunk; p < chunk_end; ++p) {
      const std::uint32_t row = layout.position_row(p);
      if (row == kInvalidRow) {
        continue;
      }
      heap_insert(out.heap, k,
                  core::TopKEntry{
                      row, static_cast<double>(scores[p - chunk])});
    }
  }
}

IsaLevel resolve_level(const std::optional<IsaLevel>& forced) {
  if (!forced.has_value()) {
    return dispatch_level();
  }
  const std::vector<IsaLevel> levels = available_levels();
  if (std::find(levels.begin(), levels.end(), *forced) == levels.end()) {
    throw std::invalid_argument(
        std::string("simd::topk_spmv: ISA level '") + to_string(*forced) +
        "' is not available on this host");
  }
  return *forced;
}

std::vector<float> pad_query(std::span<const float> x) {
  const std::size_t padded =
      (x.size() + kBlockCols - 1) / kBlockCols * kBlockCols;
  std::vector<float> xpad(padded, 0.0f);
  std::copy(x.begin(), x.end(), xpad.begin());
  return xpad;
}

std::vector<core::TopKEntry> run_query(const BlockedCsr& layout,
                                       std::span<const float> x, int top_k,
                                       const SimdQueryOptions& options,
                                       SimdKernelStats* stats, bool exact) {
  if (!layout.shared_source()) {
    throw std::invalid_argument("simd::topk_spmv: empty layout");
  }
  if (x.size() != layout.cols()) {
    throw std::invalid_argument("simd::topk_spmv: vector size mismatch");
  }
  if (top_k <= 0) {
    throw std::invalid_argument("simd::topk_spmv: top_k must be positive");
  }
  if (exact && layout.precision() != ScreenPrecision::kFloat32) {
    throw std::invalid_argument(
        "simd::topk_spmv: exact query needs a float32 screen layout (the "
        "binary16 screen is not covered by the rescore margins)");
  }
  const IsaLevel level = resolve_level(options.force_level);
  const int threads =
      util::resolve_fanout_threads(options.threads, layout.rows());
  const ScanFn scan = select_scan(layout, level);
  const std::vector<float> xpad = pad_query(x);
  // The query-side factor of the screening margin (see screen_bound()).
  double x_norm_sq = 0.0;
  for (const float value : x) {
    x_norm_sq += static_cast<double>(value) * static_cast<double>(value);
  }
  const float x_norm = static_cast<float>(std::sqrt(x_norm_sq));
  const std::uint32_t positions = layout.position_count();
  // Thread ranges in whole kBlockCols units so gather groups never
  // split across threads (the last unit may be partial under kBlocked).
  const std::uint32_t units = (positions + kBlockCols - 1) / kBlockCols;

  std::vector<RangeOutput> outputs(static_cast<std::size_t>(threads));
  const auto scan_range = [&](std::size_t t) {
    const std::uint32_t begin = std::min(
        positions,
        static_cast<std::uint32_t>(static_cast<std::uint64_t>(units) * t /
                                   static_cast<std::uint64_t>(threads)) *
            kBlockCols);
    const std::uint32_t end = std::min(
        positions,
        static_cast<std::uint32_t>(static_cast<std::uint64_t>(units) *
                                   (t + 1) /
                                   static_cast<std::uint64_t>(threads)) *
            kBlockCols);
    if (exact) {
      exact_scan_range(layout, x, xpad.data(), x_norm, top_k, scan, begin,
                       end, outputs[t]);
    } else {
      screen_scan_range(layout, xpad.data(), top_k, scan, begin, end,
                        outputs[t]);
    }
  };
  // Static position ranges on the shared persistent pool, each writing
  // only its own output slot — deterministic, like the scalar baseline.
  util::shared_pool().parallel_for(outputs.size(), threads, scan_range);

  std::vector<core::TopKEntry> merged;
  std::uint64_t rescored = 0;
  for (const RangeOutput& output : outputs) {
    merged.insert(merged.end(), output.heap.begin(), output.heap.end());
    rescored += output.rescored;
  }
  std::sort(merged.begin(), merged.end(), core::TopKEntryOrder{});
  if (merged.size() > static_cast<std::size_t>(top_k)) {
    merged.resize(static_cast<std::size_t>(top_k));
  }
  if (stats != nullptr) {
    stats->level = level;
    stats->rows_screened = layout.rows();
    stats->rows_rescored = rescored;
  }
  return merged;
}

}  // namespace

const char* to_string(IsaLevel level) noexcept {
  switch (level) {
    case IsaLevel::kAvx512:
      return "avx512";
    case IsaLevel::kAvx2:
      return "avx2";
    case IsaLevel::kScalar:
      break;
  }
  return "scalar";
}

IsaLevel dispatch_level() noexcept {
  const util::CpuFeatures& features = util::cpu_features();
  if (features.avx512) {
    return IsaLevel::kAvx512;
  }
  if (features.avx2) {
    return IsaLevel::kAvx2;
  }
  return IsaLevel::kScalar;
}

std::vector<IsaLevel> available_levels() {
  std::vector<IsaLevel> levels{IsaLevel::kScalar};
  const util::CpuFeatures& features = util::cpu_features();
  if (features.avx2) {
    levels.push_back(IsaLevel::kAvx2);
  }
  if (features.avx512) {
    levels.push_back(IsaLevel::kAvx512);
  }
  return levels;
}

std::vector<core::TopKEntry> topk_spmv_exact(const BlockedCsr& layout,
                                             std::span<const float> x,
                                             int top_k,
                                             const SimdQueryOptions& options,
                                             SimdKernelStats* stats) {
  return run_query(layout, x, top_k, options, stats, /*exact=*/true);
}

std::vector<core::TopKEntry> topk_spmv_screen(const BlockedCsr& layout,
                                              std::span<const float> x,
                                              int top_k,
                                              const SimdQueryOptions& options,
                                              SimdKernelStats* stats) {
  return run_query(layout, x, top_k, options, stats, /*exact=*/false);
}

}  // namespace topk::simd
