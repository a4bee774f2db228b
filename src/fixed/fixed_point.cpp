#include "fixed/fixed_point.hpp"

#include <algorithm>
#include <cmath>

namespace topk::fixed {

void validate(const FixedFormat& format) {
  if (format.total_bits < 2 || format.total_bits > 32) {
    throw std::invalid_argument("FixedFormat: total_bits must be in [2, 32]");
  }
  if (format.int_bits < 0 || format.int_bits >= format.total_bits) {
    throw std::invalid_argument("FixedFormat: int_bits must be in [0, total_bits)");
  }
}

std::uint32_t quantize(double value, const FixedFormat& format) noexcept {
  if (!(value > 0.0)) {  // also catches NaN
    return 0;
  }
  const double scaled = std::ldexp(value, format.frac_bits());
  const double rounded = std::nearbyint(scaled);
  const double max_raw = static_cast<double>(format.max_raw());
  if (rounded >= max_raw) {
    return format.max_raw();
  }
  return static_cast<std::uint32_t>(rounded);
}

double dequantize(std::uint32_t raw, const FixedFormat& format) noexcept {
  return std::ldexp(static_cast<double>(raw), -format.frac_bits());
}

std::uint32_t quantize_signed(double value, const FixedFormat& format) noexcept {
  if (std::isnan(value)) {
    return 0;
  }
  const double scaled = std::nearbyint(std::ldexp(value, format.frac_bits()));
  const double max_raw =
      std::ldexp(1.0, format.total_bits - 1) - 1.0;  // 2^(V-1) - 1
  const double min_raw = -std::ldexp(1.0, format.total_bits - 1);
  const double clamped = std::clamp(scaled, min_raw, max_raw);
  const auto as_int = static_cast<std::int64_t>(clamped);
  const std::uint32_t mask = format.total_bits >= 32
                                 ? 0xFFFFFFFFu
                                 : ((std::uint32_t{1} << format.total_bits) - 1);
  return static_cast<std::uint32_t>(as_int) & mask;
}

double dequantize_signed(std::uint32_t raw, const FixedFormat& format) noexcept {
  return std::ldexp(static_cast<double>(sign_extend(raw, format.total_bits)),
                    -format.frac_bits());
}

double FixedAccumulator::to_double() const noexcept {
  return std::ldexp(static_cast<double>(raw_), -kAccFracBits);
}

}  // namespace topk::fixed
