// Binary serialisation for sparse matrices.
//
// The paper's matrices take minutes to generate at full scale; the
// benches cache them on disk.  The binary format is a simple
// little-endian image with a magic/version header.
#pragma once

#include <filesystem>
#include <iosfwd>

#include "sparse/csr.hpp"

namespace topk::sparse {

/// Writes a CSR matrix as a little-endian binary image.  Throws
/// std::runtime_error on I/O failure.
void save_binary(const Csr& matrix, const std::filesystem::path& path);
void save_binary(const Csr& matrix, std::ostream& os);

/// Reads a CSR matrix written by save_binary.  Throws
/// std::runtime_error on I/O failure or a malformed/corrupt image.
[[nodiscard]] Csr load_binary(const std::filesystem::path& path);
[[nodiscard]] Csr load_binary(std::istream& is);

}  // namespace topk::sparse
