// Google-benchmark micro-kernels for the software components that are
// measured (not modelled): BS-CSR encode/decode, the streaming kernel,
// the CPU baseline, quantisation, and the precision model.
#include <benchmark/benchmark.h>

#include <memory>

#include "baselines/cpu_topk_spmv.hpp"
#include "baselines/gpu_model.hpp"
#include "core/accelerator.hpp"
#include "core/precision_model.hpp"
#include "fixed/half.hpp"
#include "index/backends.hpp"
#include "sparse/generator.hpp"
#include "util/rng.hpp"

namespace {

using topk::core::DesignConfig;
using topk::core::PacketLayout;
using topk::core::ValueKind;

topk::sparse::Csr bench_matrix(std::uint32_t rows, double mean_nnz) {
  topk::sparse::GeneratorConfig config;
  config.rows = rows;
  config.cols = 1024;
  config.mean_nnz_per_row = mean_nnz;
  config.seed = 7;
  return topk::sparse::generate_matrix(config);
}

void BM_GenerateMatrix(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bench_matrix(static_cast<std::uint32_t>(state.range(0)), 20.0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenerateMatrix)->Arg(10'000);

void BM_EncodeBsCsr(benchmark::State& state) {
  const auto matrix =
      bench_matrix(static_cast<std::uint32_t>(state.range(0)), 20.0);
  const PacketLayout layout =
      PacketLayout::solve(matrix.cols(), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        topk::core::encode_bscsr(matrix, layout, ValueKind::kFixed));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(matrix.nnz()));
}
BENCHMARK(BM_EncodeBsCsr)->Args({10'000, 20})->Args({10'000, 32});

void BM_DecodeBsCsr(benchmark::State& state) {
  const auto matrix = bench_matrix(10'000, 20.0);
  const auto encoded = topk::core::encode_bscsr(
      matrix, PacketLayout::solve(matrix.cols(), 20), ValueKind::kFixed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topk::core::decode_bscsr(encoded));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(matrix.nnz()));
}
BENCHMARK(BM_DecodeBsCsr);

void BM_StreamingKernel(benchmark::State& state) {
  const auto matrix =
      bench_matrix(static_cast<std::uint32_t>(state.range(0)), 20.0);
  const int val_bits = static_cast<int>(state.range(1));
  const auto kind =
      state.range(2) != 0 ? ValueKind::kFloat32 : ValueKind::kFixed;
  const auto encoded = topk::core::encode_bscsr(
      matrix, PacketLayout::solve(matrix.cols(), val_bits), kind);
  topk::util::Xoshiro256 rng(9);
  const auto x = topk::sparse::generate_dense_vector(matrix.cols(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topk::core::run_topk_spmv(encoded, x, 8, 8));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(matrix.nnz()));
}
BENCHMARK(BM_StreamingKernel)
    ->Args({10'000, 20, 0})
    ->Args({10'000, 32, 0})
    ->Args({10'000, 32, 1});

void BM_AcceleratorQuery(benchmark::State& state) {
  const auto matrix = bench_matrix(20'000, 20.0);
  const topk::core::TopKAccelerator accelerator(matrix,
                                                DesignConfig::fixed(20));
  topk::util::Xoshiro256 rng(10);
  const auto x = topk::sparse::generate_dense_vector(matrix.cols(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(accelerator.query(x, 100));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(matrix.nnz()));
}
BENCHMARK(BM_AcceleratorQuery);

void BM_CpuTopKSpMV(benchmark::State& state) {
  const auto matrix =
      bench_matrix(static_cast<std::uint32_t>(state.range(0)), 20.0);
  topk::util::Xoshiro256 rng(11);
  const auto x = topk::sparse::generate_dense_vector(matrix.cols(), rng);
  const int threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        topk::baselines::cpu_topk_spmv(matrix, x, 100, threads));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(matrix.nnz()));
}
BENCHMARK(BM_CpuTopKSpMV)->Args({20'000, 1})->Args({20'000, 0});

void BM_GpuF16Emulation(benchmark::State& state) {
  const auto matrix = bench_matrix(5'000, 20.0);
  topk::util::Xoshiro256 rng(12);
  const auto x = topk::sparse::generate_dense_vector(matrix.cols(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topk::baselines::gpu_f16_topk_spmv(matrix, x, 100));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(matrix.nnz()));
}
BENCHMARK(BM_GpuF16Emulation);

void BM_SignedKernel(benchmark::State& state) {
  const auto matrix = bench_matrix(10'000, 20.0);
  const auto encoded = topk::core::encode_bscsr(
      matrix, PacketLayout::solve(matrix.cols(), 20), ValueKind::kSignedFixed);
  topk::util::Xoshiro256 rng(16);
  const auto x = topk::sparse::generate_dense_vector(matrix.cols(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topk::core::run_topk_spmv(encoded, x, 8, 8));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(matrix.nnz()));
}
BENCHMARK(BM_SignedKernel);

void BM_QueryBatch(benchmark::State& state) {
  const auto matrix =
      std::make_shared<const topk::sparse::Csr>(bench_matrix(10'000, 20.0));
  const topk::index::FpgaSimIndex fpga(matrix, DesignConfig::fixed(20, 8));
  topk::util::Xoshiro256 rng(17);
  std::vector<std::vector<float>> queries;
  for (int q = 0; q < 8; ++q) {
    queries.push_back(topk::sparse::generate_dense_vector(matrix->cols(), rng));
  }
  topk::index::QueryOptions options;
  options.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fpga.query_batch(queries, 32, options));
  }
  state.SetItemsProcessed(state.iterations() * 8 *
                          static_cast<std::int64_t>(matrix->nnz()));
}
BENCHMARK(BM_QueryBatch)->Arg(1)->Arg(0);

void BM_QuantizeVector(benchmark::State& state) {
  topk::util::Xoshiro256 rng(13);
  const auto x = topk::sparse::generate_dense_vector(1024, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topk::core::quantize_vector(x));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_QuantizeVector);

void BM_HalfRoundTrip(benchmark::State& state) {
  topk::util::Xoshiro256 rng(14);
  float value = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    value = topk::fixed::half_bits_to_float(
        topk::fixed::float_to_half_bits(value * 1.0001f));
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_HalfRoundTrip);

void BM_PrecisionClosedForm(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        topk::core::expected_precision_closed(10'000'000, 32, 8, 100));
  }
}
BENCHMARK(BM_PrecisionClosedForm);

void BM_PrecisionMonteCarlo(benchmark::State& state) {
  topk::util::Xoshiro256 rng(15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        topk::core::expected_precision_mc(10'000'000, 32, 8, 100, 1000, rng));
  }
}
BENCHMARK(BM_PrecisionMonteCarlo);

}  // namespace
