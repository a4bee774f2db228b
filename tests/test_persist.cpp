// Tests for the persistent shard deployment subsystem: save/load
// round-trip bit-identicality across backends, shard counts and mixed
// deployments; manifest field coverage; registry warm-loading
// (IndexOptions::deployment_dir) with different-inner-backend
// rejection; and the corruption-hardening suite — truncated image,
// flipped byte (digest mismatch), wrong magic, future manifest
// version, missing shard file, manifest/image shape disagreement — all
// of which must throw std::runtime_error naming the offending file,
// never crash or serve a partial deployment.
#include "persist/deployment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "index/registry.hpp"
#include "persist/digest.hpp"
#include "shard/sharded_index.hpp"
#include "test_helpers.hpp"

namespace topk::persist {
namespace {

using PersistTest = test::TempDirFixture;

std::shared_ptr<const sparse::Csr> shared_matrix(std::uint32_t rows,
                                                 std::uint32_t cols,
                                                 double mean_nnz,
                                                 std::uint64_t seed) {
  return std::make_shared<const sparse::Csr>(
      test::small_random_matrix(rows, cols, mean_nnz, seed));
}

void expect_same_description(const index::IndexDescription& cold,
                             const index::IndexDescription& warm) {
  EXPECT_EQ(warm.backend, cold.backend);
  EXPECT_EQ(warm.detail, cold.detail);
  EXPECT_EQ(warm.exact, cold.exact);
  EXPECT_EQ(warm.rows, cold.rows);
  EXPECT_EQ(warm.cols, cold.cols);
  EXPECT_EQ(warm.max_top_k, cold.max_top_k);
  EXPECT_EQ(warm.memory_bytes, cold.memory_bytes);
}

/// Cold and warm indexes must agree bit-for-bit: entries (values and
/// row ids), aggregate stats, and the batch path.
void expect_bit_identical(const index::SimilarityIndex& cold,
                          const index::SimilarityIndex& warm, int top_k,
                          std::uint64_t seed) {
  expect_same_description(cold.describe(), warm.describe());
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<float>> queries;
  for (int q = 0; q < 4; ++q) {
    queries.push_back(sparse::generate_dense_vector(cold.cols(), rng));
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto from_cold = cold.query(queries[q], top_k);
    const auto from_warm = warm.query(queries[q], top_k);
    EXPECT_EQ(from_warm.entries, from_cold.entries) << "query " << q;
    EXPECT_EQ(from_warm.stats.rows_scanned, from_cold.stats.rows_scanned);
    EXPECT_EQ(from_warm.stats.modelled_seconds, from_cold.stats.modelled_seconds);
  }
  const auto cold_batch = cold.query_batch(queries, top_k);
  const auto warm_batch = warm.query_batch(queries, top_k);
  ASSERT_EQ(cold_batch.size(), warm_batch.size());
  for (std::size_t q = 0; q < cold_batch.size(); ++q) {
    EXPECT_EQ(warm_batch[q].entries, cold_batch[q].entries) << "batch " << q;
  }
}

/// Expects load_deployment(dir) to throw std::runtime_error whose
/// message contains `needle` (typically the offending file's name).
void expect_load_error(const std::filesystem::path& dir,
                       const std::string& needle) {
  try {
    (void)load_deployment(dir);
    FAIL() << "load_deployment succeeded on a corrupt deployment (wanted '"
           << needle << "')";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << error.what();
  }
}

std::vector<std::string> manifest_lines(const std::filesystem::path& dir) {
  std::istringstream in(test::read_file(dir / kManifestFilename));
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

void write_manifest_lines(const std::filesystem::path& dir,
                          const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  test::write_file(dir / kManifestFilename, text);
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::istringstream in(line);
  return {std::istream_iterator<std::string>(in),
          std::istream_iterator<std::string>()};
}

std::string join_tokens(const std::vector<std::string>& tokens) {
  std::string line;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) {
      line += ' ';
    }
    line += tokens[i];
  }
  return line;
}

/// Re-records a (deliberately tampered) image's digest and size in the
/// manifest, so a load proceeds past the digest gate into the deeper
/// image validation under test.
void patch_digest(const std::filesystem::path& dir, const std::string& file) {
  auto lines = manifest_lines(dir);
  const std::string fresh = sha256_file(dir / file);
  const auto bytes = std::filesystem::file_size(dir / file);
  bool patched = false;
  for (auto& line : lines) {
    if (line.find(' ' + file + ' ') == std::string::npos) {
      continue;
    }
    auto tokens = tokens_of(line);
    ASSERT_GE(tokens.size(), 3u);
    tokens[tokens.size() - 2] = std::to_string(bytes);
    tokens.back() = fresh;
    line = join_tokens(tokens);
    patched = true;
  }
  ASSERT_TRUE(patched) << file << " not found in manifest";
  write_manifest_lines(dir, lines);
}

// ----------------------------------------------------------------- digest

TEST(Sha256Test, MatchesKnownVectors) {
  // FIPS 180-4 test vectors: the digest gate is only as good as the
  // hash behind it.
  EXPECT_EQ(sha256_hex({}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  const std::string abc = "abc";
  EXPECT_EQ(sha256_hex({reinterpret_cast<const std::uint8_t*>(abc.data()),
                        abc.size()}),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // One spanning several blocks with a 55-byte tail (the padding edge).
  const std::string long_input(119, 'a');
  EXPECT_EQ(sha256_hex({reinterpret_cast<const std::uint8_t*>(long_input.data()),
                        long_input.size()}),
            "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb");
}

// ------------------------------------------------------------- round trips

TEST_F(PersistTest, RoundTripBitIdenticalAcrossBackendsAndShardCounts) {
  const auto matrix = shared_matrix(600, 128, 8.0, 61);
  index::IndexOptions options;
  options.design = core::DesignConfig::fixed(20, 4);
  for (const char* backend : {"fpga-sim", "cpu-heap", "exact-sort", "gpu-f16"}) {
    for (const int shards : {1, 2, 3}) {
      const auto deploy_dir =
          dir() / (std::string(backend) + "-" + std::to_string(shards));
      const auto cold = test::build_test_sharded(matrix, shards, backend, options);
      save_deployment(*cold, deploy_dir);
      const auto warm = load_deployment(deploy_dir);
      SCOPED_TRACE(std::string(backend) + " x" + std::to_string(shards));
      expect_bit_identical(*cold, *warm, 15, 62);
    }
  }
}

TEST_F(PersistTest, RoundTripFloat32AndSignedDesigns) {
  const auto matrix = shared_matrix(400, 128, 8.0, 63);
  for (const core::DesignConfig& design :
       {core::DesignConfig::float32(4), core::DesignConfig::signed_fixed(25, 2)}) {
    index::IndexOptions options;
    options.design = design;
    const auto deploy_dir = dir() / design.name();
    const auto cold = test::build_test_sharded(matrix, 2, "fpga-sim", options);
    save_deployment(*cold, deploy_dir);
    const auto warm = load_deployment(deploy_dir);
    SCOPED_TRACE(design.name());
    expect_bit_identical(*cold, *warm, 10, 64);
    EXPECT_EQ(read_manifest(deploy_dir).design, design);
  }
}

TEST_F(PersistTest, MixedBackendDeploymentRoundTrips) {
  const auto matrix = shared_matrix(500, 128, 8.0, 65);
  index::IndexOptions options;
  options.design = core::DesignConfig::fixed(20, 4);
  const auto cold = test::build_test_sharded(matrix, 3, "fpga-sim", options,
                                             {{2, "cpu-heap"}});
  EXPECT_EQ(cold->describe().backend, "sharded");
  save_deployment(*cold, dir());
  const auto warm = load_deployment(dir());
  expect_bit_identical(*cold, *warm, 12, 66);
}

TEST_F(PersistTest, ManifestRecordsEveryField) {
  const auto matrix = shared_matrix(300, 64, 6.0, 67);
  index::IndexOptions options;
  options.design = core::DesignConfig::fixed(25, 2);
  const auto cold = test::build_test_sharded(matrix, 2, "fpga-sim", options,
                                             {{1, "exact-sort"}});
  save_deployment(*cold, dir());

  const DeploymentManifest manifest = read_manifest(dir());
  EXPECT_EQ(manifest.version, kManifestVersion);
  EXPECT_EQ(manifest.label, "sharded");
  EXPECT_EQ(manifest.rows, matrix->rows());
  EXPECT_EQ(manifest.cols, matrix->cols());
  EXPECT_EQ(manifest.design, options.design);
  ASSERT_EQ(manifest.shards.size(), 2u);
  EXPECT_EQ(manifest.shards[0].range.row_begin, 0u);
  EXPECT_EQ(manifest.shards[0].range.row_end,
            manifest.shards[1].range.row_begin);
  EXPECT_EQ(manifest.shards[1].range.row_end, matrix->rows());
  EXPECT_EQ(manifest.shards[0].backend, "fpga-sim");
  EXPECT_EQ(manifest.shards[0].format, "fpga");
  EXPECT_EQ(manifest.shards[1].backend, "exact-sort");
  EXPECT_EQ(manifest.shards[1].format, "csr");
  for (const ShardImage& image : manifest.shards) {
    const auto path = dir() / image.file;
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    EXPECT_EQ(image.bytes, std::filesystem::file_size(path));
    EXPECT_EQ(image.digest, sha256_file(path));
  }
}

// ------------------------------------------------- manifest v1 <-> v2

TEST_F(PersistTest, ManifestV2RoundTripsGenerationAndTombstones) {
  const auto matrix = shared_matrix(120, 64, 6.0, 90);
  const auto cold = test::build_test_sharded(matrix, 2, "cpu-heap");
  DeploymentMeta meta;
  meta.generation = 3;
  meta.tombstones = {2, 9, 41};
  save_deployment(*cold, dir(), meta);

  const DeploymentManifest manifest = read_manifest(dir());
  EXPECT_EQ(manifest.version, kManifestVersion);
  EXPECT_EQ(manifest.generation, 3u);
  EXPECT_EQ(manifest.tombstones, meta.tombstones);
  // The stamped deployment still passes the digest gate and serves.
  const auto warm = load_deployment(dir());
  expect_bit_identical(*cold, *warm, 10, 91);

  // Tombstones outside the row space or out of order never reach disk.
  DeploymentMeta bad = meta;
  bad.tombstones = {2, 200};
  EXPECT_THROW(save_deployment(*cold, dir() / "bad", bad),
               std::invalid_argument);
  bad.tombstones = {9, 9};
  EXPECT_THROW(save_deployment(*cold, dir() / "bad", bad),
               std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(dir() / "bad" / kManifestFilename));
}

TEST_F(PersistTest, ManifestV1StillParsesAsGenerationZero) {
  // A deployment saved before the mutable tier existed has no
  // generation and no tombstone line; it must load as generation 0
  // with an empty set — exactly a never-compacted sealed deployment.
  const auto matrix = shared_matrix(150, 64, 6.0, 92);
  const auto cold = test::build_test_sharded(matrix, 2, "exact-sort");
  save_deployment(*cold, dir());

  auto lines = manifest_lines(dir());
  lines.front() = "topk-deployment 1";
  lines.erase(std::remove_if(lines.begin(), lines.end(),
                             [](const std::string& line) {
                               const auto tokens = tokens_of(line);
                               return !tokens.empty() &&
                                      (tokens.front() == "generation" ||
                                       tokens.front() == "tombstones");
                             }),
              lines.end());
  write_manifest_lines(dir(), lines);

  const DeploymentManifest manifest = read_manifest(dir());
  EXPECT_EQ(manifest.version, 1);
  EXPECT_EQ(manifest.generation, 0u);
  EXPECT_TRUE(manifest.tombstones.empty());
  const auto warm = load_deployment(dir());
  expect_bit_identical(*cold, *warm, 10, 93);
}

TEST_F(PersistTest, MalformedV2TombstoneListsAreRejected) {
  const auto matrix = shared_matrix(100, 64, 6.0, 94);
  const auto cold = test::build_test_sharded(matrix, 1, "cpu-heap");
  DeploymentMeta meta;
  meta.tombstones = {5, 6};
  save_deployment(*cold, dir(), meta);

  const auto original = manifest_lines(dir());
  const auto with_tombstone_line = [&](const std::string& replacement) {
    auto lines = original;
    for (auto& line : lines) {
      const auto tokens = tokens_of(line);
      if (!tokens.empty() && tokens.front() == "tombstones") {
        line = replacement;
      }
    }
    write_manifest_lines(dir(), lines);
  };

  with_tombstone_line("tombstones 2 5 999");
  expect_load_error(dir(), "outside the row space");
  with_tombstone_line("tombstones 3 5 6");
  expect_load_error(dir(), "truncated tombstone list");
  with_tombstone_line("tombstones 2 6 5");
  expect_load_error(dir(), "strictly increasing");
  with_tombstone_line("tombstones 101 0");
  expect_load_error(dir(), "implausible tombstone count");

  // A v2 manifest with the generation line missing entirely fails the
  // field check rather than misparsing the rows line as a generation.
  auto lines = original;
  lines.erase(std::remove_if(lines.begin(), lines.end(),
                             [](const std::string& line) {
                               const auto tokens = tokens_of(line);
                               return !tokens.empty() &&
                                      tokens.front() == "generation";
                             }),
              lines.end());
  write_manifest_lines(dir(), lines);
  expect_load_error(dir(), "generation");
}

TEST_F(PersistTest, SavingAnUnpersistableBackendThrows) {
  // A sharded index whose shard is itself sharded has no image format.
  const auto matrix = shared_matrix(200, 64, 6.0, 68);
  const auto inner = test::build_test_sharded(matrix, 2, "cpu-heap");
  std::vector<shard::Shard> shards{
      shard::Shard{core::Partition{0, matrix->rows()}, inner}};
  const shard::ShardedIndex nested(shards, "sharded-nested");
  EXPECT_THROW(save_deployment(nested, dir()), std::invalid_argument);
}

// -------------------------------------------------------- registry wiring

TEST_F(PersistTest, RegistryWarmLoadsFromDeploymentDir) {
  const auto matrix = shared_matrix(450, 64, 6.0, 69);
  index::IndexOptions cold_options;
  cold_options.shards = 2;
  const auto cold =
      index::make_index("sharded-exact-sort", matrix, cold_options);
  const auto cold_sharded =
      std::dynamic_pointer_cast<const shard::ShardedIndex>(cold);
  ASSERT_NE(cold_sharded, nullptr);
  save_deployment(*cold_sharded, dir());

  // Warm load through the registry: no matrix, just the directory.
  index::IndexOptions warm_options;
  warm_options.deployment_dir = dir().string();
  const auto warm =
      index::make_index("sharded-exact-sort", nullptr, warm_options);
  expect_bit_identical(*cold, *warm, 10, 70);

  // ShardedIndexBuilder::from_deployment is the typed entry point.
  const auto typed = shard::ShardedIndexBuilder::from_deployment(dir());
  expect_bit_identical(*cold, *typed, 10, 72);
}

TEST_F(PersistTest, RegistryRejectsReloadIntoDifferentInnerBackend) {
  const auto matrix = shared_matrix(300, 64, 6.0, 73);
  index::IndexOptions cold_options;
  cold_options.shards = 2;
  const auto cold = index::make_index("sharded-cpu-heap", matrix, cold_options);
  const auto cold_sharded =
      std::dynamic_pointer_cast<const shard::ShardedIndex>(cold);
  ASSERT_NE(cold_sharded, nullptr);
  save_deployment(*cold_sharded, dir());

  index::IndexOptions warm_options;
  warm_options.deployment_dir = dir().string();
  try {
    (void)index::make_index("sharded-fpga-sim", nullptr, warm_options);
    FAIL() << "a sharded-cpu-heap deployment served as sharded-fpga-sim";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("sharded-cpu-heap"),
              std::string::npos)
        << error.what();
  }
}

// -------------------------------------------------- corruption hardening

/// Fixture with one saved two-shard fpga-sim deployment to corrupt.
class PersistCorruptionTest : public test::TempDirFixture {
 protected:
  void SetUp() override {
    test::TempDirFixture::SetUp();
    matrix_ = shared_matrix(400, 128, 8.0, 74);
    index::IndexOptions options;
    options.design = core::DesignConfig::fixed(20, 2);
    const auto cold = test::build_test_sharded(matrix_, 2, "fpga-sim", options);
    save_deployment(*cold, dir());
  }

  std::shared_ptr<const sparse::Csr> matrix_;
};

TEST_F(PersistCorruptionTest, MissingManifest) {
  std::filesystem::remove(dir() / kManifestFilename);
  expect_load_error(dir(), kManifestFilename);
  expect_load_error(dir() / "never-created", kManifestFilename);
}

TEST_F(PersistCorruptionTest, MissingShardFile) {
  std::filesystem::remove(dir() / "shard-1.fpga.img");
  expect_load_error(dir(), "shard-1.fpga.img");
}

TEST_F(PersistCorruptionTest, FlippedByteFailsTheDigestGate) {
  const auto path = dir() / "shard-0.fpga.img";
  test::flip_byte(path, std::filesystem::file_size(path) / 2);
  expect_load_error(dir(), "shard-0.fpga.img");
  expect_load_error(dir(), "digest mismatch");
}

TEST_F(PersistCorruptionTest, TruncatedImageIsRejectedPastTheDigestGate) {
  const auto path = dir() / "shard-0.fpga.img";
  test::truncate_file(path, std::filesystem::file_size(path) - 16);
  patch_digest(dir(), "shard-0.fpga.img");  // digest now matches: parser must catch it
  expect_load_error(dir(), "shard-0.fpga.img");
}

TEST_F(PersistCorruptionTest, WrongImageMagic) {
  const auto path = dir() / "shard-1.fpga.img";
  test::flip_byte(path, 0);
  patch_digest(dir(), "shard-1.fpga.img");
  expect_load_error(dir(), "shard-1.fpga.img");
  expect_load_error(dir(), "bad magic");
}

TEST_F(PersistCorruptionTest, WrongManifestMagic) {
  auto lines = manifest_lines(dir());
  lines.front() = "not-a-deployment 1";
  write_manifest_lines(dir(), lines);
  expect_load_error(dir(), kManifestFilename);
  expect_load_error(dir(), "bad magic");
}

TEST_F(PersistCorruptionTest, FutureManifestVersion) {
  auto lines = manifest_lines(dir());
  lines.front() = std::string("topk-deployment ") + "99";
  write_manifest_lines(dir(), lines);
  expect_load_error(dir(), kManifestFilename);
  expect_load_error(dir(), "newer");
}

TEST_F(PersistCorruptionTest, ManifestRowsDisagreeingWithImagesAreRejected) {
  // Shift the shard 0/1 boundary by one row: the manifest stays
  // internally consistent (contiguous, covering all rows) but both
  // images now disagree with their recorded ranges — the first one
  // checked must be named in the error.
  auto lines = manifest_lines(dir());
  bool shifted = false;
  for (auto& line : lines) {
    auto tokens = tokens_of(line);
    if (tokens.empty() || tokens.front() != "shard") {
      continue;
    }
    ASSERT_GE(tokens.size(), 4u);
    if (tokens[1] == "0") {
      tokens[3] = std::to_string(std::stoul(tokens[3]) + 1);
    } else {
      tokens[2] = std::to_string(std::stoul(tokens[2]) + 1);
    }
    line = join_tokens(tokens);
    shifted = true;
  }
  ASSERT_TRUE(shifted);
  write_manifest_lines(dir(), lines);
  expect_load_error(dir(), "shard-0.fpga.img");
  expect_load_error(dir(), "disagree");
}

TEST_F(PersistCorruptionTest, TamperedManifestBackendIsRejected) {
  // Claiming a BS-CSR image belongs to a CSR backend (or vice versa)
  // must fail the format/backend consistency gate, not misparse.
  auto lines = manifest_lines(dir());
  for (auto& line : lines) {
    auto tokens = tokens_of(line);
    if (tokens.empty() || tokens.front() != "shard" || tokens[1] != "0") {
      continue;
    }
    tokens[4] = "cpu-heap";  // backend; format stays "fpga"
    line = join_tokens(tokens);
  }
  write_manifest_lines(dir(), lines);
  expect_load_error(dir(), "shard-0.fpga.img");
}

TEST_F(PersistCorruptionTest, TruncatedCsrImageIsRejected) {
  // A CSR-backed shard must harden the same way: re-save the second
  // shard as exact-sort, then truncate its image and patch the digest.
  index::IndexOptions options;
  options.design = core::DesignConfig::fixed(20, 2);
  const auto cold = test::build_test_sharded(matrix_, 2, "fpga-sim", options,
                                             {{1, "exact-sort"}});
  save_deployment(*cold, dir());
  const auto path = dir() / "shard-1.csr.img";
  ASSERT_TRUE(std::filesystem::exists(path));
  test::truncate_file(path, std::filesystem::file_size(path) - 32);
  patch_digest(dir(), "shard-1.csr.img");
  expect_load_error(dir(), "shard-1.csr.img");
}

}  // namespace
}  // namespace topk::persist
