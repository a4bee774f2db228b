#include "util/percentile.hpp"

#include <stdexcept>

namespace topk::util {

PercentileWindow::PercentileWindow(std::size_t capacity)
    : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("PercentileWindow: capacity must be positive");
  }
}

void PercentileWindow::add(double value) {
  if (window_.size() < capacity_) {
    window_.push_back(value);
    return;
  }
  window_[next_] = value;
  next_ = (next_ + 1) % capacity_;
}

void PercentileWindow::clear() {
  window_.clear();
  next_ = 0;
}

}  // namespace topk::util
