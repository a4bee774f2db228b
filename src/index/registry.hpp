// String-keyed backend registry and factory for SimilarityIndex.
//
// Benches and examples select execution strategies from the command
// line ("--backend=cpu-heap"); the registry turns those names into
// live indexes without the call site naming a concrete type.  The
// built-in backends register themselves on first use:
//
//   "fpga-sim"    FpgaSimIndex   (options.design)
//   "cpu-heap"    CpuHeapIndex
//   "exact-sort"  ExactSortIndex
//   "gpu-f16"     GpuModelIndex  (options.gpu_model)
//
// plus a "sharded-<name>" scatter-gather variant of each
// (shard::ShardedIndex over options.shards row-range shards; see
// src/shard/) and a "mutable-sharded-<name>" LSM variant
// (shard::MutableShardedIndex — the sealed tier plus an in-memory
// delta absorbing insert_row/delete_row; see
// shard/mutable_sharded_index.hpp and persist/compactor.hpp).  New
// backends (an ANN structure, a remote stub) register with
// register_backend() and immediately show up in every registry-driven
// bench loop.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "index/backends.hpp"
#include "index/similarity_index.hpp"
#include "sparse/csr.hpp"

namespace topk::index {

/// Constructs one backend over a shared collection.
using IndexFactory = std::function<std::shared_ptr<SimilarityIndex>(
    std::shared_ptr<const sparse::Csr>, const IndexOptions&)>;

/// Registers a backend under `name`.  Throws std::invalid_argument on
/// an empty name, a null factory, or a name already registered
/// (built-ins included).  Thread-safe.
void register_backend(const std::string& name, IndexFactory factory);

/// All registered backend names, sorted.  Always contains the four
/// built-ins and their sharded-* variants.
[[nodiscard]] std::vector<std::string> registered_backends();

/// True when `name` is a registered backend.
[[nodiscard]] bool has_backend(std::string_view name);

/// Builds the named backend over the shared collection.  Throws
/// std::invalid_argument for unknown names (the message lists the
/// registered ones) or a null matrix — except that the sharded-*
/// factories accept a null matrix when options.deployment_dir names a
/// persisted deployment to warm-load instead.
[[nodiscard]] std::shared_ptr<SimilarityIndex> make_index(
    std::string_view name, std::shared_ptr<const sparse::Csr> matrix,
    const IndexOptions& options = {});

}  // namespace topk::index
