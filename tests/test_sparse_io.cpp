#include "sparse/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "test_helpers.hpp"

namespace topk::sparse {
namespace {

class SparseIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "topk_io_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(SparseIoTest, BinaryRoundTrip) {
  const Csr matrix = test::small_random_matrix(200, 128, 12.0, 3);
  const auto path = dir_ / "matrix.bin";
  save_binary(matrix, path);
  const Csr loaded = load_binary(path);
  EXPECT_EQ(loaded.rows(), matrix.rows());
  EXPECT_EQ(loaded.cols(), matrix.cols());
  EXPECT_EQ(loaded.row_ptr(), matrix.row_ptr());
  EXPECT_EQ(loaded.col_idx(), matrix.col_idx());
  EXPECT_EQ(loaded.values(), matrix.values());
}

TEST_F(SparseIoTest, BinaryRejectsBadMagic) {
  const auto path = dir_ / "garbage.bin";
  std::ofstream(path) << "not a matrix at all, definitely";
  EXPECT_THROW((void)load_binary(path), std::runtime_error);
}

TEST_F(SparseIoTest, BinaryRejectsTruncated) {
  const Csr matrix = test::small_random_matrix(50, 32, 6.0, 4);
  std::ostringstream os;
  save_binary(matrix, os);
  const std::string full = os.str();
  std::istringstream is(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)load_binary(is), std::runtime_error);
}

TEST_F(SparseIoTest, MissingFileThrows) {
  EXPECT_THROW((void)load_binary(dir_ / "nope.bin"), std::runtime_error);
}

}  // namespace
}  // namespace topk::sparse
