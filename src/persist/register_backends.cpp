// Registration of the composed backends — "sharded-<inner>" and
// "mutable-sharded-<inner>" — into the index::make_index registry.
//
// These factories construct shard::ShardedIndex /
// shard::MutableShardedIndex and warm-load persisted deployments, so
// they belong to the durability layer: the registry itself
// (src/index/) sits BELOW shard/ and persist/ in the architecture
// manifest (tools/analysis/layers.toml) and must not know either
// module.  The seeding therefore happens here, bottom-up, through the
// public register_backend() extension point — the same mechanism an
// out-of-tree backend would use.
//
// Registration runs at static-initialization time (the `registered`
// constant below).  That is safe and deterministic: register_backend()
// reaches the registry through a function-local static, so the table
// exists whenever this initializer runs, whatever the TU order.  The
// library is linked as a CMake OBJECT library precisely so this TU —
// which exports no symbol anything references — is present in every
// binary instead of being dropped by archive-selection rules.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "index/registry.hpp"
#include "persist/deployment.hpp"
#include "shard/mutable_sharded_index.hpp"
#include "shard/sharded_index.hpp"
#include "sparse/csr.hpp"

namespace topk::persist {

namespace {

/// Rebuilds the full host CSR of a warm-loaded sharded base by
/// concatenating its per-shard slices — the matrix the Compactor folds
/// against.  Returns null when any shard's backend holds no host CSR
/// (fpga-sim: the quantised device image cannot reproduce the exact
/// host values, so such a warm load serves but cannot compact).
std::shared_ptr<const sparse::Csr> reconstruct_base_matrix(
    const shard::ShardedIndex& base) {
  std::vector<std::uint64_t> row_ptr{0};
  std::vector<std::uint32_t> col_idx;
  std::vector<float> values;
  for (std::size_t s = 0; s < base.shard_count(); ++s) {
    const sparse::Csr* slice = base.shard(s).primary().host_csr();
    if (slice == nullptr) {
      return nullptr;
    }
    const std::uint64_t offset = row_ptr.back();
    for (std::uint32_t r = 1; r <= slice->rows(); ++r) {
      row_ptr.push_back(offset + slice->row_ptr()[r]);
    }
    col_idx.insert(col_idx.end(), slice->col_idx().begin(),
                   slice->col_idx().end());
    values.insert(values.end(), slice->values().begin(),
                  slice->values().end());
  }
  return std::make_shared<const sparse::Csr>(
      sparse::Csr::from_parts(base.rows(), base.cols(), std::move(row_ptr),
                              std::move(col_idx), std::move(values)));
}

/// The inner backends every composed variant wraps.  cpu-simd-f16 is
/// deliberately absent: the approximate screen has no exact gather
/// contract to compose under.
constexpr const char* kInnerBackends[] = {"fpga-sim", "cpu-heap",
                                          "exact-sort", "gpu-f16", "cpu-simd"};

void register_sharded_factories() {
  // Scatter-gather variants of every built-in: the same backend
  // behind shard::ShardedIndex (options.shards row-range shards,
  // nnz-balanced boundaries unless options.nnz_balanced_shards is
  // false; the inner factories consume the remaining options).  The
  // shard count is clamped to the row count so tiny collections
  // still construct through the generic bench/test sweeps.
  for (const char* inner : kInnerBackends) {
    index::register_backend(
        std::string("sharded-") + inner,
        [inner](std::shared_ptr<const sparse::Csr> matrix,
                const index::IndexOptions& options)
            -> std::shared_ptr<index::SimilarityIndex> {
          const std::string label = std::string("sharded-") + inner;
          // Warm restart: replay a persisted deployment instead of
          // encoding.  The recorded label must match the requested
          // backend — a deployment saved under a different inner
          // backend must not silently serve as this one.  Checked
          // against the manifest alone, before any image is hashed
          // or rebuilt, so a mismatch fails fast.
          if (!options.deployment_dir.empty()) {
            const std::string saved_label =
                persist::read_manifest(options.deployment_dir).label;
            if (saved_label != label) {
              throw std::runtime_error(
                  label + ": deployment at '" + options.deployment_dir +
                  "' was saved as '" + saved_label +
                  "' — refusing to serve it as a different backend");
            }
            return shard::ShardedIndexBuilder::from_deployment(
                options.deployment_dir, options);
          }
          if (!matrix) {
            throw std::invalid_argument(label + ": null matrix");
          }
          const int shards = static_cast<int>(std::min<std::uint64_t>(
              static_cast<std::uint64_t>(std::max(1, options.shards)),
              std::max<std::uint32_t>(1, matrix->rows())));
          // Replica count clamped like the shard count, so generic
          // sweeps can set it unconditionally.
          return shard::ShardedIndexBuilder()
              .matrix(std::move(matrix))
              .shards(shards)
              .policy(options.nnz_balanced_shards
                          ? shard::ShardPolicy::kNnzBalanced
                          : shard::ShardPolicy::kEvenRows)
              .replicas(std::max(1, options.replicas))
              .inner_backend(inner)
              .inner_options(options)
              .label(label)
              .build();
        });
  }
}

void register_mutable_factories() {
  // Mutable (LSM-shaped) variants: the same sealed scatter-gather
  // tier wrapped in shard::MutableShardedIndex, absorbing
  // insert_row/delete_row into an in-memory delta that is folded
  // back by persist::Compactor.  options.delta_capacity and
  // options.compact_threshold are the tier's knobs.
  for (const char* inner : kInnerBackends) {
    index::register_backend(
        std::string("mutable-sharded-") + inner,
        [inner](std::shared_ptr<const sparse::Csr> matrix,
                const index::IndexOptions& options)
            -> std::shared_ptr<index::SimilarityIndex> {
          const std::string base_label = std::string("sharded-") + inner;
          const std::string label = "mutable-" + base_label;
          shard::MutableConfig config;
          config.delta_capacity = options.delta_capacity;
          config.compact_threshold = options.compact_threshold;
          config.label = label;
          shard::RebuildRecipe recipe;
          recipe.replicas = std::max(1, options.replicas);
          recipe.inner_backend = inner;
          recipe.inner_options = options;
          recipe.inner_options.deployment_dir.clear();
          recipe.inner_options.replicas = 1;
          recipe.label = base_label;
          // Warm restart: adopt a deployment saved under the SEALED
          // base's label — every generation the Compactor writes
          // carries it, so a mutable index resumes from its own
          // images (generation and inherited tombstones come from
          // the v2 manifest; a v1 manifest resumes at generation 0).
          if (!options.deployment_dir.empty()) {
            const persist::DeploymentManifest manifest =
                persist::read_manifest(options.deployment_dir);
            if (manifest.label != base_label) {
              throw std::runtime_error(
                  label + ": deployment at '" + options.deployment_dir +
                  "' was saved as '" + manifest.label +
                  "' — refusing to serve it as a different backend");
            }
            index::IndexOptions warm_options = options;
            warm_options.replicas = recipe.replicas;
            auto base = persist::load_deployment(options.deployment_dir,
                                                 warm_options);
            recipe.shards = static_cast<int>(base->shard_count());
            auto host = reconstruct_base_matrix(*base);
            return std::make_shared<shard::MutableShardedIndex>(
                std::move(base), std::move(host), std::move(recipe),
                std::move(config), manifest.generation,
                manifest.tombstones);
          }
          if (!matrix) {
            throw std::invalid_argument(label + ": null matrix");
          }
          const int shards = static_cast<int>(std::min<std::uint64_t>(
              static_cast<std::uint64_t>(std::max(1, options.shards)),
              std::max<std::uint32_t>(1, matrix->rows())));
          recipe.shards = shards;
          recipe.policy = options.nnz_balanced_shards
                              ? shard::ShardPolicy::kNnzBalanced
                              : shard::ShardPolicy::kEvenRows;
          auto base = shard::ShardedIndexBuilder()
                          .matrix(matrix)
                          .shards(shards)
                          .policy(recipe.policy)
                          .replicas(recipe.replicas)
                          .routing(recipe.routing)
                          .inner_backend(inner)
                          .inner_options(recipe.inner_options)
                          .label(base_label)
                          .build();
          return std::make_shared<shard::MutableShardedIndex>(
              std::move(base), std::move(matrix), std::move(recipe),
              std::move(config));
        });
  }
}

/// Static-init registration: runs once before main(), after the
/// registry's own magic static is reachable (function-local, so
/// always).
[[maybe_unused]] const bool registered = [] {
  register_sharded_factories();
  register_mutable_factories();
  return true;
}();

}  // namespace

}  // namespace topk::persist
