// Self-test of the benchmark's own helpers (support.hpp): the percentile
// rule, the reference top-K and its tie rule, the shadow model, the
// result checks (a corrupted result must be caught), Equation 1 and the
// fixed-point error bound.  Exits non-zero if any case fails.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL " << what << "\n";
    ++failures;
  }
}

template <typename Fn>
bool throws(Fn fn) {
  try {
    fn();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

e2e::Row row(std::vector<std::uint32_t> cols, std::vector<float> vals) {
  return e2e::Row{std::move(cols), std::move(vals)};
}

void percentile_rule() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) {
    hundred.push_back(i);
  }
  check(e2e::percentile(hundred, 0.50) == 50, "p50 of 1..100 is 50");
  check(e2e::percentile(hundred, 0.99) == 99, "p99 of 1..100 is 99");
  check(e2e::percentile(hundred, 1.00) == 100, "p100 of 1..100 is 100");
  check(e2e::percentile(hundred, 0.001) == 1, "a tiny p is the minimum");
  check(e2e::median({3, 1, 2}) == 2, "median of three");
  check(e2e::median({4, 1, 3, 2}) == 2, "median of four is the lower middle");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) {
    thousand.push_back(i);
  }
  check(e2e::percentile(thousand, 0.99) == 990, "p99 of 1000 leaves ten above");
  check(throws([] { (void)e2e::percentile({}, 0.5); }), "no samples throws");
  check(throws([] { (void)e2e::percentile({1.0}, 0.0); }), "p = 0 throws");
  check(throws([] { (void)e2e::percentile({1.0}, 1.5); }), "p > 1 throws");
}

void reference_topk_with_ties() {
  // x = (1, 1, 1, 1): every row scores the sum of its values.
  e2e::Matrix m;
  m.cols = 4;
  m.append(row({0}, {0.5f}));           // 0: 0.5
  m.append(row({1, 2}, {0.25f, 0.5f}));  // 1: 0.75
  m.append(row({3}, {0.5f}));           // 2: 0.5  (ties row 0)
  m.append(row({0, 3}, {0.5f, 0.25f}));  // 3: 0.75 (ties row 1)
  m.append(row({2}, {1.0f}));           // 4: 1.0
  m.append(row({1}, {0.5f}));           // 5: 0.5  (ties rows 0, 2)
  const std::vector<float> x(4, 1.0f);
  const auto top = e2e::exact_topk(m, x, 4);
  const std::vector<e2e::Entry> want = {{4, 1.0}, {1, 0.75}, {3, 0.75}, {0, 0.5}};
  check(top == want, "top-4 follows descending score, then ascending id");
  const auto all = e2e::exact_topk(m, x, 10);
  check(all.size() == 6 && all.back() == e2e::Entry{5, 0.5},
        "k above the row count returns every row, last tie by highest id");
  const auto one = e2e::exact_topk(m, x, 1);
  check(one.size() == 1 && one[0].id == 4, "top-1");
  check(e2e::exact_dot(std::vector<std::uint32_t>{0, 3}, std::vector<float>{0.5f, 0.25f},
                       std::vector<float>{2.0f, 0, 0, 4.0f}) == 2.0,
        "exact_dot in double");
}

void shadow_model() {
  e2e::Matrix base;
  base.cols = 3;
  base.append(row({0}, {1.0f}));  // id 0
  base.append(row({1}, {1.0f}));  // id 1
  base.append(row({2}, {1.0f}));  // id 2
  e2e::Shadow shadow(base);
  const std::vector<float> x = {0.3f, 0.2f, 0.1f};
  check(shadow.next_id() == 3 && shadow.live_rows() == 3, "base rows are live");
  check(shadow.insert(row({2}, {0.5f})) == 3, "an insert takes the next id");
  shadow.erase(0);
  shadow.upsert(2, row({0, 1}, {1.0f, 1.0f}));  // id 2 now scores 0.5
  check(shadow.live_rows() == 3 && !shadow.live(0) && shadow.live(3), "live set");
  const auto top = shadow.topk(x, 10);
  const std::vector<e2e::Entry> want = {
      {2, static_cast<double>(0.3f) + static_cast<double>(0.2f)},
      {1, static_cast<double>(0.2f)},
      {3, 0.5 * static_cast<double>(0.1f)}};
  check(top == want, "top-K sees the upsert, skips the delete, includes the insert");
  check(throws([&] { shadow.erase(0); }), "deleting a retired id throws");
  check(throws([&] { shadow.upsert(0, row({0}, {1.0f})); }), "upserting a retired id throws");
  e2e::Rng rng(7);
  bool only_live = true;
  for (int i = 0; i < 200; ++i) {
    only_live = only_live && shadow.live(shadow.pick_live(rng));
  }
  check(only_live, "pick_live returns live ids only");
}

void corrupted_results_are_caught() {
  const std::vector<e2e::Entry> ref = {{7, 0.9}, {3, 0.8}, {5, 0.7}, {1, 0.6}};
  check(e2e::check_exact(ref, ref).empty(), "the reference passes");
  auto swapped = ref;
  swapped[2].id = 9;  // one id swapped for another
  check(!e2e::check_exact(swapped, ref).empty(), "one swapped id is caught");
  auto reordered = ref;
  std::swap(reordered[1].id, reordered[2].id);
  check(!e2e::check_exact(reordered, ref).empty(), "two ids exchanged are caught");
  auto short_list = ref;
  short_list.pop_back();
  check(!e2e::check_exact(short_list, ref).empty(), "a short list is caught");
  auto nudged = ref;
  nudged[0].score += 1e-6;
  check(!e2e::check_exact(nudged, ref).empty(), "a wrong score is caught");

  // Approximate results: exact scores are 1 - id / 10, the bound 0.01.
  const auto exact = [](std::uint32_t id) { return 1.0 - id / 10.0; };
  const auto bound = [](std::uint32_t) { return 0.01; };
  const std::vector<e2e::Entry> good = {{1, 0.905}, {2, 0.8}, {3, 0.695}};
  check(e2e::check_bounded(good, 3, exact, bound).empty(), "a result within bound passes");
  auto off = good;
  off[1].id = 6;  // swapped id: its exact score is 0.4, not 0.8
  check(!e2e::check_bounded(off, 3, exact, bound).empty(),
        "a swapped id in an approximate result is caught");
  auto duplicate = good;
  duplicate[2] = {2, 0.8};
  check(!e2e::check_bounded(duplicate, 3, exact, bound).empty(), "duplicates are caught");
  auto unordered = good;
  std::swap(unordered[0], unordered[1]);
  check(!e2e::check_bounded(unordered, 3, exact, bound).empty(), "disorder is caught");
  check(!e2e::check_bounded(good, 4, exact, bound).empty(), "a short result is caught");
  check(e2e::recall(good, ref) == 0.5 && e2e::recall(ref, ref) == 1.0, "recall");
}

void equation_one() {
  check(std::fabs(e2e::expected_precision(1000, 1, 100, 100) - 1.0) < 1e-12,
        "one core keeping K loses nothing");
  check(std::fabs(e2e::expected_precision(1000, 10, 1, 10) - 0.6531) < 0.001,
        "ten cores keeping one each");
  // Cross-check against a simulation of the same model.
  const std::uint64_t n = 100'000;
  const int cores = 32, k = 8, top_k = 100, trials = 4000;
  e2e::Rng rng(11);
  double kept = 0.0;
  for (int t = 0; t < trials; ++t) {
    std::vector<std::uint32_t> rows;
    while (rows.size() < static_cast<std::size_t>(top_k)) {
      const std::uint32_t r = rng.below(static_cast<std::uint32_t>(n));
      if (std::find(rows.begin(), rows.end(), r) == rows.end()) {
        rows.push_back(r);
      }
    }
    std::vector<int> per_core(cores, 0);
    for (const std::uint32_t r : rows) {
      ++per_core[r / (n / cores)];
    }
    for (const int c : per_core) {
      kept += std::min(c, k);
    }
  }
  const double simulated = kept / (static_cast<double>(trials) * top_k);
  const double closed = e2e::expected_precision(n, cores, k, top_k);
  check(std::fabs(simulated - closed) < 0.002, "Equation 1 matches its simulation");
  check(closed > 0.99 && closed < 1.0, "the paper design keeps nearly all of top-100");
}

// The paper datapath, emulated: values rounded to Q1.19, the query to
// Q1.31, products truncated to 40 fractional bits and summed exactly.
double datapath_score(const e2e::Row& r, const std::vector<float>& x) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < r.cols.size(); ++i) {
    const auto v = static_cast<std::uint64_t>(std::llround(std::ldexp(r.vals[i], 19)));
    const auto q =
        static_cast<std::uint64_t>(std::llround(std::ldexp(x[r.cols[i]], 31)));
    acc += (v * q) >> 10;
  }
  return std::ldexp(static_cast<double>(acc), -40);
}

void fixed_point_bound_holds() {
  e2e::Rng rng(3);
  const std::uint32_t cols = 1024;
  bool within = true;
  double worst_share = 0.0;
  for (int t = 0; t < 2000; ++t) {
    const e2e::Row r = e2e::make_row(cols, 20.0, rng);
    const auto x = e2e::make_query_near(r, cols, 1.0, rng);
    const double err = std::fabs(datapath_score(r, x) - e2e::exact_dot(r.cols, r.vals, x));
    const double bound = e2e::fixed_point_bound(r.cols, x, 20);
    within = within && err <= bound;
    worst_share = std::max(worst_share, err / bound);
  }
  check(within, "the 20-bit datapath error stays within the bound");
  check(worst_share > 0.01, "the bound is not vacuously loose");
}

void inputs_are_seeded() {
  e2e::Rng a(5), b(5), c(6);
  const auto ma = e2e::make_matrix(2000, 1024, 20.0, a);
  const auto mb = e2e::make_matrix(2000, 1024, 20.0, b);
  const auto mc = e2e::make_matrix(2000, 1024, 20.0, c);
  check(ma.idx == mb.idx && ma.val == mb.val, "the same seed gives the same matrix");
  check(ma.idx != mc.idx, "another seed gives another matrix");
  const double mean = static_cast<double>(ma.nnz()) / ma.rows();
  check(mean > 19.0 && mean < 21.0, "mean nnz per row near 20");
  bool well_formed = true;
  for (std::uint32_t i = 0; i < ma.rows(); ++i) {
    const e2e::Row r = ma.row(i);
    double norm = 0.0;
    for (std::size_t j = 0; j < r.cols.size(); ++j) {
      well_formed = well_formed && r.vals[j] > 0 && (j == 0 || r.cols[j - 1] < r.cols[j]);
      norm += static_cast<double>(r.vals[j]) * r.vals[j];
    }
    well_formed = well_formed && std::fabs(norm - 1.0) < 1e-5;
  }
  check(well_formed, "rows: ascending distinct columns, positive values, unit norm");
}

}  // namespace

int main() {
  percentile_rule();
  reference_topk_with_ties();
  shadow_model();
  corrupted_results_are_caught();
  equation_one();
  fixed_point_bound_holds();
  inputs_are_seeded();
  if (failures != 0) {
    std::cerr << failures << " self-test case(s) failed\n";
    return 1;
  }
  std::cout << "e2e_selftest: all cases passed\n";
  return 0;
}
