#include "embed/sparsify.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "embed/dense_embedding.hpp"

namespace topk::embed {
namespace {

TEST(DenseEmbeddings, ShapeAndRowAccess) {
  DenseEmbeddings embeddings(10, 16);
  EXPECT_EQ(embeddings.rows(), 10u);
  EXPECT_EQ(embeddings.dim(), 16u);
  embeddings.row(3)[5] = 2.5f;
  EXPECT_FLOAT_EQ(embeddings.row(3)[5], 2.5f);
  EXPECT_THROW((void)embeddings.row(10), std::out_of_range);
  EXPECT_THROW(DenseEmbeddings(0, 4), std::invalid_argument);
}

TEST(DenseEmbeddings, NormalizeMakesUnitRows) {
  DenseEmbeddings embeddings(3, 4);
  embeddings.row(0)[0] = 3.0f;
  embeddings.row(0)[1] = 4.0f;
  embeddings.l2_normalize_rows();  // row 1/2 all-zero: untouched
  EXPECT_FLOAT_EQ(embeddings.row(0)[0], 0.6f);
  EXPECT_FLOAT_EQ(embeddings.row(0)[1], 0.8f);
  EXPECT_FLOAT_EQ(embeddings.row(1)[0], 0.0f);
}

TEST(CorpusConfig, Validation) {
  CorpusConfig config;
  config.rows = 0;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config = {};
  config.clusters = config.rows + 1;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config = {};
  config.cluster_spread = 0.0;
  EXPECT_THROW(validate(config), std::invalid_argument);
  EXPECT_NO_THROW(validate(CorpusConfig{}));
}

CorpusConfig small_corpus_config() {
  CorpusConfig config;
  config.rows = 400;
  config.dim = 64;
  config.clusters = 8;
  config.seed = 51;
  return config;
}

TEST(GloveLikeCorpus, RowsAreUnitNorm) {
  const DenseEmbeddings corpus = generate_glove_like(small_corpus_config());
  for (std::uint32_t r = 0; r < corpus.rows(); ++r) {
    double norm_sq = 0.0;
    for (const float v : corpus.row(r)) {
      norm_sq += static_cast<double>(v) * v;
    }
    ASSERT_NEAR(norm_sq, 1.0, 1e-5) << "row " << r;
  }
}

TEST(GloveLikeCorpus, HasClusterStructure) {
  // Rows must correlate much more with some rows (same cluster) than
  // the isotropic baseline: max pairwise cosine well above average.
  const DenseEmbeddings corpus = generate_glove_like(small_corpus_config());
  double max_cos = -1.0;
  double sum_cos = 0.0;
  int pairs = 0;
  for (std::uint32_t a = 0; a < 50; ++a) {
    for (std::uint32_t b = a + 1; b < 50; ++b) {
      double dot = 0.0;
      for (std::uint32_t j = 0; j < corpus.dim(); ++j) {
        dot += static_cast<double>(corpus.row(a)[j]) * corpus.row(b)[j];
      }
      max_cos = std::max(max_cos, dot);
      sum_cos += dot;
      ++pairs;
    }
  }
  EXPECT_GT(max_cos, 0.8);
  EXPECT_LT(sum_cos / pairs, 0.6);
}

TEST(Dictionary, AtomsAreUnitNorm) {
  const Dictionary dictionary(128, 64, 52);
  EXPECT_EQ(dictionary.atoms(), 128u);
  EXPECT_EQ(dictionary.dim(), 64u);
  for (std::uint32_t a = 0; a < dictionary.atoms(); ++a) {
    double norm_sq = 0.0;
    for (const float v : dictionary.atom(a)) {
      norm_sq += static_cast<double>(v) * v;
    }
    ASSERT_NEAR(norm_sq, 1.0, 1e-5);
  }
  EXPECT_THROW(Dictionary(0, 4, 1), std::invalid_argument);
}

TEST(SparseCode, RespectsTargetNnzAndNonNegativity) {
  const Dictionary dictionary(256, 64, 53);
  const DenseEmbeddings corpus = generate_glove_like(small_corpus_config());
  SparsifyConfig config;
  config.target_nnz = 12;
  for (const bool mp : {true, false}) {
    config.use_matching_pursuit = mp;
    const auto code = sparse_code(corpus.row(0), dictionary, config);
    EXPECT_LE(code.size(), 12u);
    EXPECT_GE(code.size(), 1u);
    for (std::size_t i = 0; i < code.size(); ++i) {
      EXPECT_GT(code[i].second, 0.0f);
      if (i > 0) {
        EXPECT_LT(code[i - 1].first, code[i].first);  // sorted by atom
      }
    }
  }
}

TEST(SparseCode, MatchingPursuitReducesResidual) {
  // More coding steps must (weakly) improve reconstruction.
  const Dictionary dictionary(256, 64, 54);
  const DenseEmbeddings corpus = generate_glove_like(small_corpus_config());
  const auto residual_norm = [&](std::uint32_t steps) {
    SparsifyConfig config;
    config.target_nnz = steps;
    const auto code = sparse_code(corpus.row(7), dictionary, config);
    std::vector<double> reconstruction(64, 0.0);
    for (const auto& [atom, coefficient] : code) {
      const auto direction = dictionary.atom(atom);
      for (std::size_t j = 0; j < direction.size(); ++j) {
        reconstruction[j] += static_cast<double>(coefficient) * direction[j];
      }
    }
    double err = 0.0;
    for (std::size_t j = 0; j < reconstruction.size(); ++j) {
      const double d = reconstruction[j] - corpus.row(7)[j];
      err += d * d;
    }
    return err;
  };
  EXPECT_LE(residual_norm(16), residual_norm(4) + 1e-9);
  EXPECT_LE(residual_norm(4), residual_norm(1) + 1e-9);
}

TEST(SparsifyCorpus, ProducesNormalizedCsr) {
  const Dictionary dictionary(512, 64, 55);
  const DenseEmbeddings corpus = generate_glove_like(small_corpus_config());
  SparsifyConfig config;
  config.target_nnz = 16;
  const sparse::Csr matrix = sparsify_corpus(corpus, dictionary, config);
  EXPECT_EQ(matrix.rows(), corpus.rows());
  EXPECT_EQ(matrix.cols(), 512u);
  for (std::uint32_t r = 0; r < matrix.rows(); ++r) {
    EXPECT_LE(matrix.row_nnz(r), 16u);
  }
  const double avg_nnz =
      static_cast<double>(matrix.nnz()) / matrix.rows();
  EXPECT_GT(avg_nnz, 4.0);  // codes are not degenerate
  for (std::uint32_t r = 0; r < 20; ++r) {
    double norm_sq = 0.0;
    for (const float v : matrix.row_values(r)) {
      norm_sq += static_cast<double>(v) * v;
    }
    ASSERT_NEAR(norm_sq, 1.0, 1e-5);
  }
}

TEST(SparsifyCorpus, NearbyDenseRowsStayNearbySparse) {
  // The (default) projection coder must approximately preserve the
  // neighbourhood structure: the sparse codes of two same-cluster
  // rows should be more similar than those of cross-cluster rows on
  // average.  (Matching pursuit deliberately does NOT guarantee this;
  // see SparsifyConfig.)
  CorpusConfig corpus_config = small_corpus_config();
  corpus_config.rows = 200;
  const DenseEmbeddings corpus = generate_glove_like(corpus_config);
  const Dictionary dictionary(512, 64, 56);
  SparsifyConfig config;
  config.target_nnz = 24;
  ASSERT_FALSE(config.use_matching_pursuit);  // default: projection coder
  const sparse::Csr matrix = sparsify_corpus(corpus, dictionary, config);

  // Dense cosine vs sparse cosine over some pairs: positive rank
  // correlation expected (crude check: the most-similar dense pair is
  // far above the sparse-average for random pairs).
  const auto sparse_cosine = [&](std::uint32_t a, std::uint32_t b) {
    std::vector<float> dense_b(matrix.cols(), 0.0f);
    const auto cols = matrix.row_cols(b);
    const auto vals = matrix.row_values(b);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      dense_b[cols[i]] = vals[i];
    }
    return matrix.row_dot(a, dense_b);
  };
  const auto dense_cosine = [&](std::uint32_t a, std::uint32_t b) {
    double dot = 0.0;
    for (std::uint32_t j = 0; j < corpus.dim(); ++j) {
      dot += static_cast<double>(corpus.row(a)[j]) * corpus.row(b)[j];
    }
    return dot;
  };

  std::uint32_t best_b = 1;
  double best_dense = -1.0;
  double sum_sparse = 0.0;
  for (std::uint32_t b = 1; b < corpus.rows(); ++b) {
    const double d = dense_cosine(0, b);
    if (d > best_dense) {
      best_dense = d;
      best_b = b;
    }
    sum_sparse += sparse_cosine(0, b);
  }
  const double avg_sparse = sum_sparse / (corpus.rows() - 1);
  EXPECT_GT(sparse_cosine(0, best_b), avg_sparse + 0.1);
}

TEST(SparsifyConfig, Validation) {
  const Dictionary dictionary(64, 32, 57);
  SparsifyConfig config;
  config.target_nnz = 0;
  EXPECT_THROW(validate(config, dictionary), std::invalid_argument);
  config.target_nnz = 65;
  EXPECT_THROW(validate(config, dictionary), std::invalid_argument);
  const DenseEmbeddings wrong_dim(4, 16);
  config.target_nnz = 4;
  EXPECT_THROW((void)sparsify_corpus(wrong_dim, dictionary, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace topk::embed
