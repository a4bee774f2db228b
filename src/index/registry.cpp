#include "index/registry.hpp"

#include <map>
#include <stdexcept>
#include <utility>

#include "util/sync.hpp"

namespace topk::index {

namespace {

struct Registry {
  util::Mutex mutex;
  std::map<std::string, IndexFactory, std::less<>> factories
      TOPK_GUARDED_BY(mutex);
};

/// Function-local static seeded with the built-ins: no static-init
/// order hazards, and the four paper backends are always present.
Registry& registry() {
  static Registry instance;
  static const bool seeded = [] {
    Registry& r = instance;
    // The magic-static guard already serialises seeding against every
    // other registry() caller; the lock is for the analysis (and free —
    // uncontended by construction).
    util::MutexLock lock(r.mutex);
    r.factories.emplace(
        "fpga-sim",
        [](std::shared_ptr<const sparse::Csr> matrix,
           const IndexOptions& options) -> std::shared_ptr<SimilarityIndex> {
          return std::make_shared<FpgaSimIndex>(std::move(matrix),
                                                options.design);
        });
    r.factories.emplace(
        "cpu-heap",
        [](std::shared_ptr<const sparse::Csr> matrix,
           const IndexOptions&) -> std::shared_ptr<SimilarityIndex> {
          return std::make_shared<CpuHeapIndex>(std::move(matrix));
        });
    r.factories.emplace(
        "exact-sort",
        [](std::shared_ptr<const sparse::Csr> matrix,
           const IndexOptions&) -> std::shared_ptr<SimilarityIndex> {
          return std::make_shared<ExactSortIndex>(std::move(matrix));
        });
    r.factories.emplace(
        "gpu-f16",
        [](std::shared_ptr<const sparse::Csr> matrix,
           const IndexOptions& options) -> std::shared_ptr<SimilarityIndex> {
          return std::make_shared<GpuModelIndex>(std::move(matrix),
                                                 options.gpu_model);
        });
    r.factories.emplace(
        "cpu-simd",
        [](std::shared_ptr<const sparse::Csr> matrix,
           const IndexOptions&) -> std::shared_ptr<SimilarityIndex> {
          return std::make_shared<CpuSimdIndex>(std::move(matrix),
                                                CpuSimdIndex::Mode::kExact);
        });
    r.factories.emplace(
        "cpu-simd-f16",
        [](std::shared_ptr<const sparse::Csr> matrix,
           const IndexOptions&) -> std::shared_ptr<SimilarityIndex> {
          return std::make_shared<CpuSimdIndex>(
              std::move(matrix), CpuSimdIndex::Mode::kHalfScreen);
        });
    return true;
  }();
  (void)seeded;
  return instance;
}

std::string known_backends_message(const Registry& r)
    TOPK_REQUIRES(r.mutex) {
  std::string message;
  for (const auto& [name, factory] : r.factories) {
    if (!message.empty()) {
      message += ", ";
    }
    message += name;
  }
  return message;
}

}  // namespace

void register_backend(const std::string& name, IndexFactory factory) {
  if (name.empty()) {
    throw std::invalid_argument("register_backend: empty name");
  }
  if (!factory) {
    throw std::invalid_argument("register_backend: null factory");
  }
  // Stage the node outside the lock so the publish itself is
  // allocation-free: std::map::merge splices the already-built node in
  // without allocating or copying, which keeps the exclusive section
  // noexcept-clean (tools/analyze.py -Wswap-noexcept audits this — a
  // bad_alloc mid-mutation would otherwise be able to tear the table
  // other threads read).
  std::map<std::string, IndexFactory, std::less<>> staged;
  staged.emplace(name, std::move(factory));
  Registry& r = registry();
  util::MutexLock lock(r.mutex);
  if (r.factories.find(name) != r.factories.end()) {
    throw std::invalid_argument("register_backend: '" + name +
                                "' already registered");
  }
  r.factories.merge(staged);
}

std::vector<std::string> registered_backends() {
  Registry& r = registry();
  util::MutexLock lock(r.mutex);
  std::vector<std::string> names;
  names.reserve(r.factories.size());
  for (const auto& [name, factory] : r.factories) {
    names.push_back(name);
  }
  return names;  // std::map iterates sorted
}

bool has_backend(std::string_view name) {
  Registry& r = registry();
  util::MutexLock lock(r.mutex);
  return r.factories.find(name) != r.factories.end();
}

std::shared_ptr<SimilarityIndex> make_index(
    std::string_view name, std::shared_ptr<const sparse::Csr> matrix,
    const IndexOptions& options) {
  IndexFactory factory;
  {
    Registry& r = registry();
    util::MutexLock lock(r.mutex);
    const auto it = r.factories.find(name);
    if (it == r.factories.end()) {
      throw std::invalid_argument("make_index: unknown backend '" +
                                  std::string(name) + "' (registered: " +
                                  known_backends_message(r) + ")");
    }
    factory = it->second;
  }
  // Construct outside the lock: building an FPGA image encodes the
  // whole matrix and must not serialise unrelated make_index calls.
  return factory(std::move(matrix), options);
}

}  // namespace topk::index
