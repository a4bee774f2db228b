// Unsigned fixed-point arithmetic mirroring the paper's datapath.
//
// The FPGA designs store matrix values as unsigned Q1.(V-1) fixed point
// with V in {20, 25, 32} (paper Table II: Q1.19, Q1.24, Q1.31) and the
// query vector x as Q1.31 in URAM.  Dot products are computed as exact
// integer products accumulated into a wide fixed accumulator; Top-K
// comparisons happen on accumulator raws.  This header provides:
//
//  * FixedFormat / quantize / dequantize — runtime-V quantisation used
//    by the BS-CSR encoder (V is a design parameter swept by benches);
//  * FixedAccumulator — the Q24.40 accumulator used by the streaming
//    kernel; wide enough that summing any realistic embedding row
//    (values <= 1, hundreds of terms) cannot overflow.
#pragma once

#include <compare>
#include <cstdint>
#include <stdexcept>

namespace topk::fixed {

/// Number of fractional bits in the kernel's accumulator.  Products of
/// Q1.(V-1) x Q1.31 raws are shifted down to this precision before
/// accumulation; 40 fractional bits keep quantisation error far below
/// the V-bit input quantisation while leaving 24 integer bits of
/// headroom in a 64-bit register.
inline constexpr int kAccFracBits = 40;

/// Fractional bits used for the dense query vector x (Q1.31, the worst
/// case URAM layout described in section IV-A of the paper).
inline constexpr int kVectorFracBits = 31;

/// Runtime description of an unsigned fixed-point format.
struct FixedFormat {
  int total_bits = 32;  ///< V: total storage bits (2..32).
  int int_bits = 1;     ///< integer bits (the paper always uses 1).

  [[nodiscard]] constexpr int frac_bits() const noexcept {
    return total_bits - int_bits;
  }
  /// Largest representable raw value.
  [[nodiscard]] constexpr std::uint32_t max_raw() const noexcept {
    return total_bits >= 32 ? 0xFFFFFFFFu
                            : ((std::uint32_t{1} << total_bits) - 1);
  }

  friend constexpr bool operator==(const FixedFormat&, const FixedFormat&) = default;
};

/// Validates a format for use as a BS-CSR value type.  Throws
/// std::invalid_argument for totals outside [2, 32] or int_bits outside
/// [0, total).
void validate(const FixedFormat& format);

/// Quantises `value` (clamped to the representable range [0, 2^int -
/// lsb]) to raw storage with round-to-nearest.  Negative inputs clamp
/// to zero: the paper's designs are unsigned (embeddings are
/// non-negative after the sparsification used in section V).
[[nodiscard]] std::uint32_t quantize(double value, const FixedFormat& format) noexcept;

/// Inverse of quantize (exact).
[[nodiscard]] double dequantize(std::uint32_t raw, const FixedFormat& format) noexcept;

/// Signed (two's complement) quantisation for the kSignedFixed
/// extension.  The format keeps the same frac_bits() as its unsigned
/// reading; the top bit becomes the sign, so the representable range
/// is [-2^(int_bits-1)... exactly: raw in [-2^(V-1), 2^(V-1) - 1]
/// scaled by 2^-frac_bits.  Values are clamped to that range and
/// rounded to nearest; the low total_bits of the two's complement
/// representation are returned.
[[nodiscard]] std::uint32_t quantize_signed(double value,
                                            const FixedFormat& format) noexcept;

/// Inverse of quantize_signed (exact): sign-extends the low
/// total_bits and scales.
[[nodiscard]] double dequantize_signed(std::uint32_t raw,
                                       const FixedFormat& format) noexcept;

/// Sign-extends the low `bits` bits of `raw` to a 64-bit integer.
[[nodiscard]] constexpr std::int64_t sign_extend(std::uint32_t raw,
                                                 int bits) noexcept {
  const std::uint64_t value = raw & (bits >= 32 ? 0xFFFFFFFFu
                                                : ((std::uint32_t{1} << bits) - 1));
  const std::uint64_t sign_bit = std::uint64_t{1} << (bits - 1);
  return static_cast<std::int64_t>((value ^ sign_bit)) -
         static_cast<std::int64_t>(sign_bit);
}

/// Wide accumulator with kAccFracBits fractional bits, mimicking the
/// datapath's aggregation registers.  The raw value is an unsigned
/// 64-bit integer; all arithmetic is exact modulo the initial product
/// shift.
class FixedAccumulator {
 public:
  constexpr FixedAccumulator() noexcept = default;

  /// Accumulates the product of a matrix value (raw in `val_format`)
  /// and a vector value (raw Q1.31).  The 64-bit product is shifted
  /// down to kAccFracBits fractional bits with truncation, exactly as
  /// a hardware right-shift would.
  constexpr void add_product(std::uint32_t val_raw, int val_frac_bits,
                             std::uint32_t vec_raw) noexcept {
    const std::uint64_t product =
        static_cast<std::uint64_t>(val_raw) * static_cast<std::uint64_t>(vec_raw);
    const int shift = val_frac_bits + kVectorFracBits - kAccFracBits;
    // shift >= 0 whenever val_frac_bits >= 9; formats with fewer
    // fractional bits shift left instead (still exact).
    raw_ += shift >= 0 ? (product >> shift) : (product << -shift);
  }

  constexpr void add(const FixedAccumulator& other) noexcept { raw_ += other.raw_; }
  constexpr void reset() noexcept { raw_ = 0; }

  [[nodiscard]] constexpr std::uint64_t raw() const noexcept { return raw_; }
  [[nodiscard]] double to_double() const noexcept;

  friend constexpr auto operator<=>(const FixedAccumulator&,
                                    const FixedAccumulator&) = default;

 private:
  std::uint64_t raw_ = 0;
};

/// The three fixed-point formats evaluated in the paper (Table II).
inline constexpr FixedFormat kQ1_19{20, 1};
inline constexpr FixedFormat kQ1_24{25, 1};
inline constexpr FixedFormat kQ1_31{32, 1};

}  // namespace topk::fixed
