#include "core/accelerator.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/thread_pool.hpp"

namespace topk::core {

TopKAccelerator::TopKAccelerator(const sparse::Csr& matrix,
                                 const DesignConfig& config)
    : config_(config) {
  validate(config);
  if (matrix.rows() == 0 || matrix.cols() == 0) {
    throw std::invalid_argument("TopKAccelerator: empty matrix");
  }
  if (matrix.rows() < static_cast<std::uint32_t>(config.cores)) {
    throw std::invalid_argument("TopKAccelerator: fewer rows than cores");
  }

  rows_ = matrix.rows();
  cols_ = matrix.cols();
  layout_ = PacketLayout::solve(matrix.cols(), config.value_bits,
                                config.packet_bits);
  partitions_ = make_row_partitions(matrix.rows(), config.cores);

  EncodeOptions encode_options;
  if (config.enforce_r_in_encoder) {
    encode_options.max_rows_per_packet = config.rows_per_packet;
  }

  streams_.reserve(partitions_.size());
  for (const Partition& partition : partitions_) {
    const sparse::Csr slice =
        matrix.slice_rows(partition.row_begin, partition.row_end);
    streams_.push_back(
        encode_bscsr(slice, layout_, config.value_kind, encode_options));
  }
}

TopKAccelerator TopKAccelerator::from_parts(const DesignConfig& config,
                                            std::vector<Partition> partitions,
                                            std::vector<BsCsrMatrix> streams) {
  validate(config);
  if (partitions.empty() || partitions.size() != streams.size()) {
    throw std::invalid_argument(
        "TopKAccelerator::from_parts: partition/stream count mismatch");
  }
  if (partitions.size() != static_cast<std::size_t>(config.cores)) {
    throw std::invalid_argument(
        "TopKAccelerator::from_parts: stream count does not match the "
        "design's core count");
  }

  TopKAccelerator out;
  out.config_ = config;
  out.cols_ = streams.front().cols();
  out.layout_ =
      PacketLayout::solve(out.cols_, config.value_bits, config.packet_bits);
  std::uint32_t expected_begin = 0;
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    const std::string tag =
        "TopKAccelerator::from_parts: core " + std::to_string(i);
    if (partitions[i].row_end <= partitions[i].row_begin ||
        partitions[i].row_begin != expected_begin) {
      throw std::invalid_argument(tag + ": partitions are not contiguous");
    }
    if (streams[i].rows() != partitions[i].rows()) {
      throw std::invalid_argument(tag +
                                  ": stream rows do not match the partition");
    }
    if (streams[i].cols() != out.cols_) {
      throw std::invalid_argument(tag + ": column count mismatch");
    }
    if (streams[i].value_kind() != config.value_kind) {
      throw std::invalid_argument(tag +
                                  ": value kind does not match the design");
    }
    if (streams[i].layout() != out.layout_) {
      throw std::invalid_argument(tag +
                                  ": packet layout does not match the design");
    }
    expected_begin = partitions[i].row_end;
  }
  out.rows_ = expected_begin;
  out.partitions_ = std::move(partitions);
  out.streams_ = std::move(streams);
  return out;
}

void TopKAccelerator::validate_query(std::span<const float> x,
                                     int top_k) const {
  if (x.size() != cols_) {
    throw std::invalid_argument("TopKAccelerator: query vector size mismatch");
  }
  if (top_k <= 0) {
    throw std::invalid_argument("TopKAccelerator: top_k must be positive");
  }
  const std::int64_t candidates =
      static_cast<std::int64_t>(config_.k) * config_.cores;
  if (top_k > candidates) {
    throw std::invalid_argument(
        "TopKAccelerator: top_k exceeds k * cores candidates");
  }
}

QueryResult TopKAccelerator::query(std::span<const float> x, int top_k,
                                   const QueryOptions& options) const {
  validate_query(x, top_k);
  const int threads =
      util::resolve_fanout_threads(options.threads, streams_.size());

  // Quantise the query once and stream every core with the same raws —
  // the per-query amortisation the hardware gets for free from its
  // single URAM copy of x.
  std::vector<std::uint32_t> raw_storage;
  const QuantizedQuery quantized =
      quantize_query(x, config_.value_kind, raw_storage);

  // One core stream per item; parallel_for sizes the pool and runs
  // inline on the calling thread when threads == 1.
  std::vector<KernelResult> per_core(streams_.size());
  util::shared_pool().parallel_for(per_core.size(), threads,
                                   [&](std::size_t i) {
    per_core[i] = run_topk_spmv(streams_[i], quantized, config_.k,
                                config_.rows_per_packet);
  });

  ExecutionStats stats;
  std::vector<std::vector<TopKEntry>> candidates_per_core;
  candidates_per_core.reserve(per_core.size());
  for (KernelResult& result : per_core) {
    stats.total_packets += result.stats.packets;
    stats.max_core_packets =
        std::max(stats.max_core_packets, result.stats.packets);
    stats.rows_dropped += result.stats.rows_dropped;
    stats.rows_emitted += result.stats.rows_emitted;
    stats.max_rows_in_packet =
        std::max(stats.max_rows_in_packet, result.stats.max_rows_in_packet);
    candidates_per_core.push_back(std::move(result.topk));
  }

  QueryResult out;
  out.entries = merge_partition_results(candidates_per_core, partitions_, top_k);
  out.stats = stats;
  return out;
}

std::uint64_t TopKAccelerator::stream_bytes() const noexcept {
  std::uint64_t bytes = 0;
  for (const BsCsrMatrix& stream : streams_) {
    bytes += stream.stream_bytes();
  }
  return bytes;
}

std::uint64_t TopKAccelerator::max_core_packets() const noexcept {
  std::uint64_t max_packets = 0;
  for (const BsCsrMatrix& stream : streams_) {
    max_packets = std::max(max_packets, stream.num_packets());
  }
  return max_packets;
}

}  // namespace topk::core
