#include "sparse/io.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

namespace topk::sparse {

namespace {

constexpr std::uint64_t kMagic = 0x42534353'52763101ULL;  // "BSCSRv1" tag

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void read_pod(std::istream& is, T& value) {
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) {
    throw std::runtime_error("sparse::load_binary: truncated stream");
  }
}

template <typename T>
void write_vector(std::ostream& os, const std::vector<T>& v) {
  write_pod(os, static_cast<std::uint64_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
std::vector<T> read_vector(std::istream& is, std::uint64_t max_elems) {
  std::uint64_t size = 0;
  read_pod(is, size);
  if (size > max_elems) {
    throw std::runtime_error("sparse::load_binary: implausible array size");
  }
  std::vector<T> v(size);
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(size * sizeof(T)));
  if (!is) {
    throw std::runtime_error("sparse::load_binary: truncated stream");
  }
  return v;
}

}  // namespace

void save_binary(const Csr& matrix, std::ostream& os) {
  write_pod(os, kMagic);
  write_pod(os, matrix.rows());
  write_pod(os, matrix.cols());
  write_vector(os, matrix.row_ptr());
  write_vector(os, matrix.col_idx());
  write_vector(os, matrix.values());
  if (!os) {
    throw std::runtime_error("sparse::save_binary: write failure");
  }
}

void save_binary(const Csr& matrix, const std::filesystem::path& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw std::runtime_error("sparse::save_binary: cannot open " + path.string());
  }
  save_binary(matrix, os);
}

Csr load_binary(std::istream& is) {
  std::uint64_t magic = 0;
  read_pod(is, magic);
  if (magic != kMagic) {
    throw std::runtime_error("sparse::load_binary: bad magic");
  }
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  read_pod(is, rows);
  read_pod(is, cols);
  // 2^34 entries (~128 GB) is a generous upper bound used purely to
  // reject corrupt headers before allocating.
  constexpr std::uint64_t kMaxElems = 1ULL << 34;
  auto row_ptr = read_vector<std::uint64_t>(is, kMaxElems);
  auto col_idx = read_vector<std::uint32_t>(is, kMaxElems);
  auto values = read_vector<float>(is, kMaxElems);
  return Csr::from_parts(rows, cols, std::move(row_ptr), std::move(col_idx),
                         std::move(values));
}

Csr load_binary(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("sparse::load_binary: cannot open " + path.string());
  }
  return load_binary(is);
}

}  // namespace topk::sparse
