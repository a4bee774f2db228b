#include "core/topk_spmv.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace topk::core {

TopKScratchpad::TopKScratchpad(int k) : k_(k) {
  if (k <= 0) {
    throw std::invalid_argument("TopKScratchpad: k must be positive");
  }
  entries_.reserve(static_cast<std::size_t>(k));
}

void TopKScratchpad::insert(std::uint32_t index, double value) {
  if (entries_.size() < static_cast<std::size_t>(k_)) {
    entries_.push_back(TopKEntry{index, value});
    if (entries_.size() == static_cast<std::size_t>(k_)) {
      refresh_argmin();
    }
    return;
  }
  if (value >= entries_[argmin_].value) {
    entries_[argmin_] = TopKEntry{index, value};
    refresh_argmin();
  }
}

void TopKScratchpad::refresh_argmin() noexcept {
  argmin_ = 0;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i].value < entries_[argmin_].value) {
      argmin_ = i;
    }
  }
}

std::vector<TopKEntry> TopKScratchpad::sorted_descending() const {
  std::vector<TopKEntry> out = entries_;
  std::sort(out.begin(), out.end(), TopKEntryOrder{});
  return out;
}

std::vector<std::uint32_t> quantize_vector(std::span<const float> x) {
  const fixed::FixedFormat format{32, 1};  // Q1.31, the URAM layout
  std::vector<std::uint32_t> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = fixed::quantize(static_cast<double>(x[i]), format);
  }
  return out;
}

std::vector<std::uint32_t> quantize_vector_signed(std::span<const float> x) {
  const fixed::FixedFormat format{32, 1};  // S.31 two's complement
  std::vector<std::uint32_t> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = fixed::quantize_signed(static_cast<double>(x[i]), format);
  }
  return out;
}

namespace {

/// Shared streaming skeleton; `Arith` supplies the product/accumulate
/// semantics (fixed point or float32).
template <typename Arith>
KernelResult run_kernel(const BsCsrMatrix& matrix, const Arith& arith, int k,
                        int rows_per_packet) {
  const auto capacity = static_cast<std::size_t>(matrix.layout().capacity);

  TopKScratchpad topk(k);
  KernelStats stats;

  typename Arith::acc_type carry{};
  std::uint32_t row_curr = 0;
  std::vector<typename Arith::acc_type> products(capacity);

  PacketCursor cursor(matrix);
  while (!cursor.done()) {
    const PacketView packet = cursor.next();
    ++stats.packets;

    // Stage 1: B point-wise products (padding slots carry value 0 and
    // contribute nothing).
    for (std::size_t j = 0; j < capacity; ++j) {
      products[j] = arith.product(packet.val_raw[j], packet.idx[j]);
    }

    // Stage 3 (book-keeping): a new first row means anything carried
    // past the previous packet's last boundary was stream padding.
    if (packet.new_row) {
      carry = typename Arith::acc_type{};
    }

    // Stage 2 + 4: aggregate each boundary-delimited segment into the
    // carry, emit finished rows into the Top-K scratchpad (bounded by
    // the r budget), and keep the trailing partial sum as the carry.
    std::uint64_t finished_in_packet = 0;
    std::size_t pos = 0;
    for (const std::uint32_t boundary : packet.boundaries) {
      for (std::size_t j = pos; j < boundary; ++j) {
        carry = Arith::add(carry, products[j]);
      }
      pos = boundary;
      ++finished_in_packet;
      ++stats.rows_emitted;
      if (finished_in_packet <= static_cast<std::uint64_t>(rows_per_packet)) {
        topk.insert(row_curr, Arith::to_score(carry));
      } else {
        ++stats.rows_dropped;
      }
      ++row_curr;
      carry = typename Arith::acc_type{};
    }
    stats.max_rows_in_packet =
        std::max(stats.max_rows_in_packet, finished_in_packet);
    for (std::size_t j = pos; j < capacity; ++j) {
      carry = Arith::add(carry, products[j]);
    }
  }

  if (row_curr != matrix.rows()) {
    throw std::runtime_error("run_topk_spmv: row count mismatch (corrupt stream)");
  }

  KernelResult result;
  result.topk = topk.sorted_descending();
  result.stats = stats;
  return result;
}

/// Fixed-point arithmetic: exact integer products accumulated in
/// Q24.40; scores are exact doubles of the accumulator raws.
class FixedArith {
 public:
  using acc_type = fixed::FixedAccumulator;

  FixedArith(std::span<const std::uint32_t> x_raw, int val_frac_bits)
      : x_raw_(x_raw), val_frac_bits_(val_frac_bits) {}

  [[nodiscard]] acc_type product(std::uint32_t val_raw, std::uint32_t col) const {
    acc_type acc;
    acc.add_product(val_raw, val_frac_bits_, x_raw_[col]);
    return acc;
  }

  [[nodiscard]] static acc_type add(acc_type a, const acc_type& b) noexcept {
    a.add(b);
    return a;
  }

  [[nodiscard]] static double to_score(const acc_type& acc) noexcept {
    return acc.to_double();
  }

 private:
  std::span<const std::uint32_t> x_raw_;
  int val_frac_bits_;
};

/// Signed fixed-point arithmetic (kSignedFixed extension): exact
/// two's-complement integer products accumulated in a signed
/// counterpart of the Q24.40 register; C++20 guarantees arithmetic
/// right shifts on signed integers, matching the hardware shifter.
class SignedFixedArith {
 public:
  using acc_type = std::int64_t;

  SignedFixedArith(std::span<const std::uint32_t> x_raw, int val_bits,
                   int val_frac_bits)
      : x_raw_(x_raw), val_bits_(val_bits), val_frac_bits_(val_frac_bits) {}

  [[nodiscard]] acc_type product(std::uint32_t val_raw, std::uint32_t col) const {
    const std::int64_t value = fixed::sign_extend(val_raw, val_bits_);
    const std::int64_t vector = fixed::sign_extend(x_raw_[col], 32);
    const std::int64_t full = value * vector;  // <= 62 significant bits
    const int shift = val_frac_bits_ + fixed::kVectorFracBits - fixed::kAccFracBits;
    return shift >= 0 ? (full >> shift) : (full << -shift);
  }

  [[nodiscard]] static acc_type add(acc_type a, acc_type b) noexcept {
    return a + b;
  }

  [[nodiscard]] static double to_score(acc_type acc) noexcept {
    return std::ldexp(static_cast<double>(acc), -fixed::kAccFracBits);
  }

 private:
  std::span<const std::uint32_t> x_raw_;
  int val_bits_;
  int val_frac_bits_;
};

/// Float32 arithmetic: products and accumulation in binary32, exactly
/// like the paper's floating-point design.
class Float32Arith {
 public:
  using acc_type = float;

  explicit Float32Arith(std::span<const float> x) : x_(x) {}

  [[nodiscard]] acc_type product(std::uint32_t val_raw, std::uint32_t col) const {
    return std::bit_cast<float>(val_raw) * x_[col];
  }

  [[nodiscard]] static acc_type add(acc_type a, acc_type b) noexcept {
    return a + b;
  }

  [[nodiscard]] static double to_score(acc_type acc) noexcept {
    return static_cast<double>(acc);
  }

 private:
  std::span<const float> x_;
};

}  // namespace

QuantizedQuery quantize_query(std::span<const float> x, ValueKind kind,
                              std::vector<std::uint32_t>& raw_storage) {
  switch (kind) {
    case ValueKind::kFloat32:
      raw_storage.clear();
      break;
    case ValueKind::kSignedFixed:
      raw_storage = quantize_vector_signed(x);
      break;
    case ValueKind::kFixed:
      raw_storage = quantize_vector(x);
      break;
  }
  return QuantizedQuery{x, raw_storage};
}

KernelResult run_topk_spmv(const BsCsrMatrix& matrix, std::span<const float> x,
                           int k, int rows_per_packet) {
  if (x.size() != matrix.cols()) {
    throw std::invalid_argument("run_topk_spmv: vector size mismatch");
  }
  std::vector<std::uint32_t> raw_storage;
  const QuantizedQuery query =
      quantize_query(x, matrix.value_kind(), raw_storage);
  return run_topk_spmv(matrix, query, k, rows_per_packet);
}

KernelResult run_topk_spmv(const BsCsrMatrix& matrix,
                           const QuantizedQuery& query, int k,
                           int rows_per_packet) {
  if (query.x.size() != matrix.cols()) {
    throw std::invalid_argument("run_topk_spmv: vector size mismatch");
  }
  if (k <= 0) {
    throw std::invalid_argument("run_topk_spmv: k must be positive");
  }
  if (rows_per_packet <= 0) {
    throw std::invalid_argument("run_topk_spmv: rows_per_packet must be positive");
  }

  if (matrix.value_kind() == ValueKind::kFloat32) {
    if (!query.raw.empty()) {
      throw std::invalid_argument(
          "run_topk_spmv: raw span given for a float32 stream");
    }
    return run_kernel(matrix, Float32Arith(query.x), k, rows_per_packet);
  }
  if (query.raw.size() != matrix.cols()) {
    throw std::invalid_argument(
        "run_topk_spmv: quantised raw size mismatch for fixed-point stream");
  }
  if (matrix.value_kind() == ValueKind::kSignedFixed) {
    const fixed::FixedFormat format = matrix.value_format();
    return run_kernel(
        matrix,
        SignedFixedArith(query.raw, format.total_bits, format.frac_bits()), k,
        rows_per_packet);
  }
  const int frac_bits = matrix.value_format().frac_bits();
  return run_kernel(matrix, FixedArith(query.raw, frac_bits), k,
                    rows_per_packet);
}

}  // namespace topk::core
