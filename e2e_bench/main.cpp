// End-to-end benchmark of Top-K serving through the library's public
// API.  One process per run, one load thread, closed loops only:
//
//   paper-fpga     fpga-sim with the paper's design (20-bit fixed point,
//                  32 cores, k = 8), synchronous QueryEngine::query
//   sharded-exact  sharded-cpu-simd, 4 nnz-balanced shards warm-loaded
//                  through persist::load_deployment, synchronous queries
//   churn          mutable-sharded-cpu-simd, 4 shards: rounds of 8
//                  QueryEngine::submit calls, a drain, then a seeded
//                  batch of deletes, inserts and upserts; every cycle
//                  ends with a Compactor::compact() while that round's
//                  queries are in flight
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--scratch DIR]
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays the same
// seeded inputs and times every layer call from here, keeping the spans
// in memory and writing them to DIR/traces at exit.  Terse metric lines
// go to stdout, ending with one JSON object; tables go to stderr.  All
// result checks (see support.hpp) run outside the timed phase.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/bscsr.hpp"
#include "core/partitioner.hpp"
#include "core/topk_spmv.hpp"
#include "index/backends.hpp"
#include "index/registry.hpp"
#include "persist/compactor.hpp"
#include "persist/deployment.hpp"
#include "persist/digest.hpp"
#include "serve/query_engine.hpp"
#include "shard/mutable_sharded_index.hpp"
#include "shard/sharded_index.hpp"
#include "sparse/csr.hpp"
#include "support.hpp"
#include "util/cpu_features.hpp"
#include "util/thread_pool.hpp"

namespace fs = std::filesystem;
using topk::index::QueryOptions;

namespace {

// ---- Workload make-up (README "Inputs") ------------------------------

constexpr std::uint32_t kCols = 1024;
constexpr double kMeanNnz = 20.0;
constexpr double kQueryNoise = 1.0;
constexpr int kTopK = 100;
constexpr int kWorkers = 4;
constexpr int kShards = 4;
constexpr std::size_t kPoolQueries = 64;  // distinct queries per run
constexpr int kSetupRepeats = 12;         // setup_s is their median
constexpr int kValueBits = 20;

constexpr std::uint32_t kPaperFpgaRows = 100'000;
constexpr std::uint32_t kShardedExactRows = 400'000;
constexpr std::uint32_t kChurnRows = 100'000;

// churn: one round is kRoundQueries submits + one mutation batch.  The
// batch keeps bench_mutability's mix of 80% row writes to 20% deletes,
// a quarter of the writes being upserts.  As there, compaction rides a
// mutation threshold (Compactor::maybe_compact), here one cycle of
// kCycleRounds batches.  Every kSampleEvery-th round's results are
// checked against the shadow.
constexpr int kRoundQueries = 8;
constexpr int kDeletesPerRound = 8;
constexpr int kInsertsPerRound = 24;
constexpr int kUpsertsPerRound = 8;
constexpr int kCycleRounds = 16;
constexpr std::uint64_t kCompactThreshold =
    kCycleRounds * (kDeletesPerRound + kInsertsPerRound + kUpsertsPerRound);
constexpr int kSampleEvery = 4;
// A churn run is a fixed number of cycles, one per second of --seconds
// and at least kMinCycles: deletes stay masked after compaction, so
// queries slow down cycle by cycle, and a time-bound run would tie the
// metrics to the host's speed.  Peak RSS also climbs with each
// compaction until about the ninth (glibc keeps the freed generations).
constexpr int kMinCycles = 12;
// Samples per run, so that the stderr table's p99 has ten beyond it.
constexpr std::uint64_t kMinQueries = 1000;

// Recall floor of paper-fpga: Equation 1's expectation less this
// margin (README "Checks").
constexpr double kRecallMargin = 0.03;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  fs::path scratch = ".bench_build/e2e_bench/scratch";  // as run.py passes it
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stoi(value);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      throw std::invalid_argument("unknown flag or value: " + flag + " " + value);
    }
  }
  if (args.workload != "paper-fpga" && args.workload != "sharded-exact" &&
      args.workload != "churn") {
    throw std::invalid_argument(
        "--workload must be one of paper-fpga, sharded-exact, churn");
  }
  if (args.seconds < 1) {
    throw std::invalid_argument("--seconds must be at least 1");
  }
  return args;
}

// ---- Accounting and output -------------------------------------------

struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  Ops& ops(const std::string& kind) { return ops_[kind]; }
  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed check; the run then ends non-zero.
  void fail(const std::string& kind, const std::string& what) {
    ++ops_[kind].failed;
    if (errors_.size() < 10) {
      errors_.push_back(kind + ": " + what);
    }
  }
  [[nodiscard]] bool correct() const { return errors_.empty(); }

  void print() const {
    for (const std::string& e : errors_) {
      std::cerr << "CHECK FAILED " << e << "\n";
    }
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const auto& [kind, op] : ops_) {
      std::cout << "ops " << kind << " attempted=" << op.attempted
                << " failed=" << op.failed << "\n";
      attempted += op.attempted;
      failed += op.failed;
    }
    std::ostringstream json;
    json << std::setprecision(17);
    json << "{\"correct\": " << (correct() ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::cout << "metric " << m.name << " " << std::setprecision(17) << m.value
                << " " << m.unit << "\n";
      json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << m.value
           << ", \"unit\": \"" << m.unit << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
  }

 private:
  std::map<std::string, Ops> ops_{
      {"builds", {}}, {"compactions", {}}, {"mutations", {}}, {"queries", {}}};
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---- Spans of the traced run -----------------------------------------

/// Spans recorded around layer calls: name, start, end, parent span and
/// query id (-1 outside a query).  Held in memory, written at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1;
    std::int64_t query = -1;
  };

  std::int64_t open(std::string name, std::int64_t parent, std::int64_t query) {
    spans_.push_back({std::move(name), now_s(), 0.0, parent, query});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  /// Closes span `id`; returns its duration in seconds.
  double close(std::int64_t id) {
    Span& s = spans_.at(static_cast<std::size_t>(id));
    s.end = now_s();
    return s.end - s.start;
  }
  /// Times fn() as one span.
  template <typename Fn>
  double time(const std::string& name, std::int64_t parent, std::int64_t query,
              Fn&& fn) {
    const std::int64_t id = open(name, parent, query);
    fn();
    return close(id);
  }

  /// Median duration of every span called `name`, in seconds.
  [[nodiscard]] double median_seconds(const std::string& name) const {
    std::vector<double> d;
    for (const Span& s : spans_) {
      if (s.name == name) {
        d.push_back(s.end - s.start);
      }
    }
    if (d.empty()) {
      throw std::logic_error("no span named " + name);
    }
    return e2e::median(std::move(d));
  }

  void write(const fs::path& path) const {
    fs::create_directories(path.parent_path());
    std::ofstream out(path);
    out << std::setprecision(15) << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start\": " << s.start << ", \"end\": " << s.end
          << ", \"parent\": " << s.parent << ", \"query\": " << s.query << "}";
    }
    out << "\n]}\n";
  }

 private:
  std::vector<Span> spans_;
};

// ---- Conversions -------------------------------------------------------

std::shared_ptr<const topk::sparse::Csr> to_csr(const e2e::Matrix& m) {
  return std::make_shared<const topk::sparse::Csr>(
      topk::sparse::Csr::from_parts(m.rows(), m.cols, m.ptr, m.idx, m.val));
}

std::vector<e2e::Entry> entries_of(const std::vector<topk::core::TopKEntry>& in) {
  std::vector<e2e::Entry> out;
  out.reserve(in.size());
  for (const auto& e : in) {
    out.push_back({e.index, e.value});
  }
  return out;
}

struct Inputs {
  e2e::Matrix matrix;
  std::vector<std::vector<float>> queries;
};

Inputs make_inputs(std::uint32_t rows, e2e::Rng& rng) {
  Inputs in;
  in.matrix = e2e::make_matrix(rows, kCols, kMeanNnz, rng);
  for (std::size_t q = 0; q < kPoolQueries; ++q) {
    const std::uint32_t near = rng.below(rows);
    in.queries.push_back(
        e2e::make_query_near(in.matrix.row(near), kCols, kQueryNoise, rng));
  }
  return in;
}

topk::index::IndexOptions index_options() {
  topk::index::IndexOptions options;
  options.design = topk::core::DesignConfig::fixed(kValueBits);
  options.shards = kShards;
  options.nnz_balanced_shards = true;
  return options;
}

/// CPU time of the whole process.  On the shared 4-vCPU reference host,
/// steal took 0 to 35% of each vCPU and moved wall-clock figures of
/// identical code by up to 3x between runs; a CPU clock does not advance
/// while its vCPU is stolen (README "Clocks").
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The work clock: process CPU time shared over the kWorkers threads.
/// While every thread is busy it runs at wall speed less steal.
double work_s() { return process_cpu_s() / kWorkers; }

/// Builds kSetupRepeats times, recording each as a build op; returns the
/// last build and the median of the builds' process CPU times.  Build i
/// runs pinned to the i-th allowed processor in turn: a build is one
/// thread, and on the reference host its CPU time moved in steps of up
/// to 45% that held for seconds, so builds left on one processor timed
/// that processor's state rather than the build (README "Clocks").
template <typename Build>
auto timed_builds(Report& report, Build build) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      cpus.push_back(c);
    }
  }
  std::vector<double> seconds;
  decltype(build()) last;
  for (int i = 0; i < kSetupRepeats; ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<std::size_t>(i) % cpus.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
    last = nullptr;  // free the previous build first
    ++report.ops("builds").attempted;
    const double c0 = process_cpu_s();
    last = build();
    seconds.push_back(process_cpu_s() - c0);
  }
  sched_setaffinity(0, sizeof(allowed), &allowed);
  std::cerr << "builds, process CPU s:";
  for (const double s : seconds) {
    std::cerr << " " << s;
  }
  std::cerr << "\n";
  return std::make_pair(std::move(last), e2e::median(seconds));
}

/// Host steal as a share of all processor time, from /proc/stat.
class StealMeter {
 public:
  StealMeter() : start_(read()), wall_(now_s()) {}
  [[nodiscard]] double share() const {
    const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
    const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
    return static_cast<double>(read() - start_) / ticks / (cpus * (now_s() - wall_));
  }

 private:
  static long read() {
    std::ifstream stat("/proc/stat");
    std::string cpu;
    long fields[8] = {};
    stat >> cpu;
    for (long& f : fields) {
      stat >> f;
    }
    return fields[7];
  }
  long start_;
  double wall_;
};

/// The timed phase of a run: per-query latencies on the work clock (and
/// on the wall clock, for the table) and the wall and work time of the
/// intervals added with `add_interval`.
class Phase {
 public:
  Phase() {
    latencies_s_.reserve(1 << 14);
    wall_latencies_s_.reserve(1 << 14);
  }

  /// A point on both clocks.
  struct Mark {
    double wall;
    double work;
  };
  [[nodiscard]] static Mark mark() { return {now_s(), work_s()}; }

  /// Records one query that was issued at `issued` and is in hand now.
  void query_done(const Mark& issued) {
    latencies_s_.push_back(work_s() - issued.work);
    wall_latencies_s_.push_back(now_s() - issued.wall);
    ++completed_;
  }
  /// Counts [from, now) into the timed phase.
  void add_interval(const Mark& from) {
    wall_s_ += now_s() - from.wall;
    work_s_ += work_s() - from.work;
  }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }

  /// The rate and per-query times on the work clock.  They are not
  /// wall-clock throughput or latency: a wait, an idle helper or an
  /// imbalance between threads does not advance the work clock.  p90
  /// rather than p99: queries that straddle a steal event pay for
  /// refilled caches, and that moved the work-clock p99 by up to 32%
  /// between runs of identical code where p90 moved by at most 6%
  /// (README "Clocks").
  void report(Report& report) const {
    report.metric("work_qps", static_cast<double>(completed_) / work_s_, "1/s");
    report.metric("work_p50_ms", e2e::percentile(latencies_s_, 0.50) * 1e3, "ms");
    report.metric("work_p90_ms", e2e::percentile(latencies_s_, 0.90) * 1e3, "ms");
  }

  /// The figures on both clocks, with the host's steal, to stderr.
  void print(const std::string& workload) const {
    std::cerr << std::fixed << std::setprecision(3) << "\n"
              << workload << ": " << completed_ << " queries in " << wall_s_
              << " s, host steal " << steal_.share() * 100 << "% of processor time\n"
              << "  clock       q/s      p50 ms    p90 ms    p99 ms\n";
    const auto row = [&](const char* clock, double seconds,
                         const std::vector<double>& latencies) {
      std::cerr << "  " << clock << std::setw(10) << completed_ / seconds << std::setw(10)
                << e2e::percentile(latencies, 0.5) * 1e3 << std::setw(10)
                << e2e::percentile(latencies, 0.9) * 1e3 << std::setw(10)
                << e2e::percentile(latencies, 0.99) * 1e3 << "\n";
    };
    row("work ", work_s_, latencies_s_);
    row("wall ", wall_s_, wall_latencies_s_);
  }

 private:
  StealMeter steal_;
  std::vector<double> latencies_s_;
  std::vector<double> wall_latencies_s_;
  std::uint64_t completed_ = 0;
  double wall_s_ = 0.0;
  double work_s_ = 0.0;
};

// ---- Closed-loop synchronous serving ---------------------------------

/// First result per pool query; every repeat must equal it.
using FirstResults = std::vector<std::optional<std::vector<e2e::Entry>>>;

/// Cycles over the query pool with QueryEngine::query, in whole passes,
/// until `seconds` have passed and at least kMinQueries are done.
FirstResults serve_sync(const topk::serve::QueryEngine& engine,
                        const std::vector<std::vector<float>>& queries, int seconds,
                        Report& report, Phase& phase) {
  for (std::size_t q = 0; q < 8; ++q) {  // warm caches and the pool
    (void)engine.query(queries[q], kTopK);
  }
  FirstResults first(queries.size());
  const Phase::Mark start = Phase::mark();
  do {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      ++report.ops("queries").attempted;
      const Phase::Mark issued = Phase::mark();
      topk::index::QueryResult result;
      try {
        result = engine.query(queries[q], kTopK);
      } catch (const std::exception& e) {
        report.fail("queries", e.what());
        continue;
      }
      phase.query_done(issued);
      std::vector<e2e::Entry> got = entries_of(result.entries);
      if (!first[q]) {
        first[q] = std::move(got);
      } else if (got != *first[q]) {
        report.fail("queries", "query " + std::to_string(q) +
                                   " returned a different list on a repeat");
      }
    }
  } while (now_s() - start.wall < seconds || phase.completed() < kMinQueries);
  phase.add_interval(start);
  return first;
}

// ---- Layer probes of the traced run ----------------------------------

/// The indexes the traced run probes.  A workload supplies the ones it
/// serves; the others are built over the same matrix so every traced
/// run reports every layer (README "Per-layer metrics").
struct Subject {
  const Inputs* inputs = nullptr;
  std::shared_ptr<const topk::sparse::Csr> csr;
  topk::serve::QueryEngine* engine = nullptr;
  std::shared_ptr<topk::index::FpgaSimIndex> fpga;
  std::shared_ptr<const topk::shard::ShardedIndex> sharded;
  std::shared_ptr<topk::shard::MutableShardedIndex> mutable_index;
  fs::path deployment;  // a saved copy of `sharded`
  fs::path work;
};

/// One churn mutation batch, applied to the index and mirrored into the
/// shadow.  Insert ids and delete results must agree with the shadow.
void apply_mutations(topk::index::MutableIndex& index, e2e::Shadow& shadow,
                     e2e::Rng& rng, Report& report, Tracer* tracer) {
  const auto timed = [&](const char* name, auto&& fn) {
    ++report.ops("mutations").attempted;
    if (tracer) {
      tracer->time(name, -1, -1, fn);
    } else {
      fn();
    }
  };
  try {
    for (int i = 0; i < kDeletesPerRound; ++i) {
      const std::uint32_t id = shadow.pick_live(rng);
      bool deleted = false;
      timed("index.delete", [&] { deleted = index.delete_row(id); });
      shadow.erase(id);
      if (!deleted) {
        report.fail("mutations", "delete_row(" + std::to_string(id) + ") refused a live id");
      }
    }
    for (int i = 0; i < kInsertsPerRound; ++i) {
      e2e::Row row = e2e::make_row(kCols, kMeanNnz, rng);
      std::uint32_t id = 0;
      timed("index.insert", [&] { id = index.insert_row(row.cols, row.vals); });
      const std::uint32_t want = shadow.insert(std::move(row));
      if (id != want) {
        report.fail("mutations", "insert_row gave id " + std::to_string(id) +
                                     ", expected " + std::to_string(want));
      }
    }
    for (int i = 0; i < kUpsertsPerRound; ++i) {
      const std::uint32_t id = shadow.pick_live(rng);
      e2e::Row row = e2e::make_row(kCols, kMeanNnz, rng);
      timed("index.upsert", [&] { index.insert_row(id, row.cols, row.vals); });
      shadow.upsert(id, std::move(row));
    }
  } catch (const std::exception& e) {
    report.fail("mutations", e.what());
  }
}

void save_sealed(const topk::shard::ShardedIndex& index, const fs::path& dir) {
  fs::remove_all(dir);
  topk::persist::save_deployment(index, dir);
}

/// Times every layer on `subject` and reports the per-layer metrics.
void probe_layers(Subject& s, const Args& args, Report& report, Tracer& tr) {
  const auto& queries = s.inputs->queries;
  const QueryOptions parallel{kWorkers};
  const QueryOptions one_thread{1};
  const std::int64_t root = tr.open("trace", -1, -1);

  // Layers the workload does not serve are built here, over its matrix.
  if (!s.fpga) {
    std::shared_ptr<const topk::core::TopKAccelerator> acc;
    tr.time("core.encode", root, -1, [&] {
      acc = std::make_shared<const topk::core::TopKAccelerator>(
          *s.csr, topk::core::DesignConfig::fixed(kValueBits));
    });
    s.fpga = std::make_shared<topk::index::FpgaSimIndex>(acc);
  }
  if (!s.sharded) {
    s.sharded = std::dynamic_pointer_cast<const topk::shard::ShardedIndex>(
        topk::index::make_index("sharded-cpu-simd", s.csr, index_options()));
  }
  if (s.deployment.empty()) {
    s.deployment = s.work / "trace-deployment";
    save_sealed(*s.sharded, s.deployment);
  }
  e2e::Rng mutation_rng(args.seed ^ 0x5eed);
  if (!s.mutable_index) {
    s.mutable_index = std::dynamic_pointer_cast<topk::shard::MutableShardedIndex>(
        topk::index::make_index("mutable-sharded-cpu-simd", s.csr, index_options()));
  }
  // A cycle's worth of churn mutations, so the delta tier has work.
  {
    e2e::Shadow shadow(s.inputs->matrix);
    for (int r = 0; r + 1 < kCycleRounds; ++r) {
      apply_mutations(*s.mutable_index, shadow, mutation_rng, report, &tr);
    }
  }
  const auto unsharded = topk::index::make_index("cpu-simd", s.csr);
  const topk::core::TopKAccelerator& acc = s.fpga->accelerator();

  // Submit bursts: time inside QueryEngine::submit.
  topk::serve::QueryEngine& engine = *s.engine;
  for (std::size_t q = 0; q < queries.size(); q += kRoundQueries) {
    std::vector<std::future<topk::index::QueryResult>> pending;
    for (std::size_t i = q; i < q + kRoundQueries && i < queries.size(); ++i) {
      ++report.ops("queries").attempted;
      tr.time("serve.submit", root, static_cast<std::int64_t>(i),
              [&] { pending.push_back(engine.submit(queries[i], kTopK)); });
    }
    for (auto& f : pending) {
      (void)f.get();
    }
  }
  const std::size_t peak_pending = engine.stats().peak_pending;

  // Layer by layer, each over the whole query pool, so every layer runs
  // with its own working set warm, as in the untraced runs.
  const std::size_t n = queries.size();
  const auto for_each_query = [&](const char* layer, auto&& fn) {
    const std::int64_t group = tr.open(layer, root, -1);
    for (std::size_t q = 0; q < n; ++q) {
      fn(q, queries[q], group, static_cast<std::int64_t>(q));
    }
    tr.close(group);
  };
  std::vector<double> packets, dropped, stream_cpu, candidates, rescored, masked,
      scanned, cell_max, cell_sum, overhead, delta_overhead;
  std::vector<double> shard_s(n), base_s(n);

  for_each_query("serve.warmup", [&](std::size_t, const auto& x, auto parent, auto qid) {
    tr.time("serve.warm", parent, qid, [&] { (void)engine.query(x, kTopK); });
  });
  for_each_query("serve", [&](std::size_t, const auto& x, auto parent, auto qid) {
    ++report.ops("queries").attempted;
    tr.time("serve.query", parent, qid, [&] { (void)engine.query(x, kTopK); });
  });
  for_each_query("core", [&](std::size_t, const auto& x, auto parent, auto qid) {
    topk::core::QueryResult result;
    tr.time("core.query", parent, qid,
            [&] { result = acc.query(x, kTopK, {kWorkers}); });
    packets.push_back(static_cast<double>(result.stats.total_packets));
    dropped.push_back(static_cast<double>(result.stats.rows_dropped));
  });
  const double modelled_ms =
      s.fpga->query(queries[0], kTopK, parallel).stats.modelled_seconds * 1e3;
  for_each_query("core.one_thread", [&](std::size_t, const auto& x, auto parent,
                                        auto qid) {
    std::vector<std::vector<topk::core::TopKEntry>> per_core;
    stream_cpu.push_back(tr.time("core.stream_cpu", parent, qid, [&] {
      std::vector<std::uint32_t> raw;
      const auto quantized =
          topk::core::quantize_query(x, acc.config().value_kind, raw);
      for (const auto& stream : acc.core_streams()) {
        per_core.push_back(topk::core::run_topk_spmv(stream, quantized, acc.config().k,
                                                     acc.config().rows_per_packet)
                               .topk);
      }
    }));
    tr.time("core.merge", parent, qid, [&] {
      (void)topk::core::merge_partition_results(per_core, acc.partitions(), kTopK);
    });
  });
  for_each_query("shard", [&](std::size_t q, const auto& x, auto parent, auto qid) {
    topk::index::QueryResult result;
    shard_s[q] = tr.time("shard.query", parent, qid,
                         [&] { result = s.sharded->query(x, kTopK, parallel); });
    if (const auto* st = topk::index::shard_stats(result)) {
      candidates.push_back(static_cast<double>(st->gathered_candidates));
    }
  });
  for_each_query("shard.cells", [&](std::size_t q, const auto& x, auto parent,
                                    auto qid) {
    double slowest = 0.0;
    double total = 0.0;
    double rows_rescored = 0.0;
    for (std::size_t i = 0; i < s.sharded->shard_count(); ++i) {
      topk::index::QueryResult cell;
      const double t = tr.time("shard.cell", parent, qid, [&] {
        cell = s.sharded->shard(i).primary().query(x, kTopK, one_thread);
      });
      slowest = std::max(slowest, t);
      total += t;
      if (const auto* simd = topk::index::simd_stats(cell)) {
        rows_rescored += static_cast<double>(simd->rows_rescored);
      }
    }
    cell_max.push_back(slowest);
    cell_sum.push_back(total);
    overhead.push_back(shard_s[q] - slowest);
    rescored.push_back(rows_rescored);
  });
  for_each_query("simd", [&](std::size_t, const auto& x, auto parent, auto qid) {
    tr.time("simd.unsharded", parent, qid,
            [&] { (void)unsharded->query(x, kTopK, parallel); });
  });
  for_each_query("shard.base", [&](std::size_t q, const auto& x, auto parent,
                                   auto qid) {
    base_s[q] = tr.time("shard.base_query", parent, qid, [&] {
      (void)s.mutable_index->base()->query(x, kTopK, parallel);
    });
  });
  for_each_query("index", [&](std::size_t q, const auto& x, auto parent, auto qid) {
    topk::index::QueryResult result;
    delta_overhead.push_back(
        tr.time("shard.mutable_query", parent, qid,
                [&] { result = s.mutable_index->query(x, kTopK, parallel); }) -
        base_s[q]);
    if (const auto* st = topk::index::mutable_stats(result)) {
      masked.push_back(static_cast<double>(st->masked_rows));
      scanned.push_back(static_cast<double>(st->delta_scanned));
    }
  });

  for (int i = 0; i < 200; ++i) {
    tr.time("util.dispatch", root, -1, [] {
      topk::util::shared_pool().parallel_for(kWorkers, kWorkers, [](std::size_t) {});
    });
  }
  tr.time("core.decode", root, -1, [&] {
    for (const auto& stream : acc.core_streams()) {
      (void)topk::core::decode_bscsr(stream);
    }
  });
  tr.time("persist.load", root, -1,
          [&] { (void)topk::persist::load_deployment(s.deployment); });
  double image_bytes = 0.0;
  tr.time("persist.digest", root, -1, [&] {
    for (const auto& shard : topk::persist::read_manifest(s.deployment).shards) {
      (void)topk::persist::sha256_file(s.deployment / shard.file);
      image_bytes += static_cast<double>(shard.bytes);
    }
  });
  topk::persist::Compactor compactor(s.mutable_index, s.work / "trace-compactions");
  std::optional<topk::persist::CompactionReport> compaction;
  ++report.ops("compactions").attempted;
  tr.time("persist.compact", root, -1, [&] { compaction = compactor.compact(); });
  if (!compaction) {
    report.fail("compactions", "compact() found no mutations to fold");
    compaction.emplace();
  }
  tr.close(root);

  const double stream_ms = e2e::median(stream_cpu) * 1e3;
  const double core_ms = tr.median_seconds("core.query") * 1e3;
  report.metric("serve.query_ms", tr.median_seconds("serve.query") * 1e3, "ms");
  report.metric("serve.submit_us", tr.median_seconds("serve.submit") * 1e6, "us");
  report.metric("serve.peak_pending", static_cast<double>(peak_pending), "count");
  report.metric("core.query_ms", core_ms, "ms");
  report.metric("core.stream_cpu_ms", stream_ms, "ms");
  report.metric("core.merge_ms", tr.median_seconds("core.merge") * 1e3, "ms");
  report.metric("core.decode_ms", tr.median_seconds("core.decode") * 1e3, "ms");
  report.metric("core.encode_s", tr.median_seconds("core.encode"), "s");
  report.metric("core.nnz_per_s",
                static_cast<double>(s.csr->nnz()) / (stream_ms / 1e3), "1/s");
  report.metric("core.packets", e2e::median(packets), "count");
  report.metric("core.rows_dropped", e2e::median(dropped), "count");
  report.metric("core.stream_mb", static_cast<double>(acc.stream_bytes()) / 1e6, "MB");
  report.metric("core.parallel_efficiency", stream_ms / (kWorkers * core_ms), "ratio");
  report.metric("hbmsim.modelled_ms", modelled_ms, "ms");
  report.metric("shard.query_ms", tr.median_seconds("shard.query") * 1e3, "ms");
  report.metric("shard.cell_max_ms", e2e::median(cell_max) * 1e3, "ms");
  report.metric("shard.cell_sum_ms", e2e::median(cell_sum) * 1e3, "ms");
  report.metric("shard.overhead_ms", e2e::median(overhead) * 1e3, "ms");
  report.metric("shard.candidates", e2e::median(candidates), "count");
  report.metric("simd.rows_rescored", e2e::median(rescored), "count");
  report.metric("simd.unsharded_ms", tr.median_seconds("simd.unsharded") * 1e3, "ms");
  report.metric("util.dispatch_us", tr.median_seconds("util.dispatch") * 1e6, "us");
  report.metric("persist.load_s", tr.median_seconds("persist.load"), "s");
  report.metric("persist.digest_s", tr.median_seconds("persist.digest"), "s");
  report.metric("persist.image_mb", image_bytes / 1e6, "MB");
  report.metric("shard.mutable_query_ms",
                tr.median_seconds("shard.mutable_query") * 1e3, "ms");
  report.metric("shard.base_query_ms", tr.median_seconds("shard.base_query") * 1e3,
                "ms");
  report.metric("index.delta_overhead_ms", e2e::median(delta_overhead) * 1e3, "ms");
  report.metric("index.masked_rows", e2e::median(masked), "count");
  report.metric("index.delta_scanned", e2e::median(scanned), "count");
  report.metric("index.insert_us", tr.median_seconds("index.insert") * 1e6, "us");
  report.metric("index.delete_us", tr.median_seconds("index.delete") * 1e6, "us");
  report.metric("persist.compact_s", tr.median_seconds("persist.compact"), "s");
  report.metric("persist.compact_build_s", compaction->build_seconds, "s");
  report.metric("persist.compact_save_s", compaction->save_seconds, "s");
  report.metric("persist.compact_load_s", compaction->load_seconds, "s");
}

// ---- Workloads -----------------------------------------------------------

void run_paper_fpga(const Args& args, Report& report, Tracer& tracer,
                    const fs::path& work) {
  e2e::Rng rng(args.seed);
  const Inputs in = make_inputs(kPaperFpgaRows, rng);
  const auto csr = to_csr(in.matrix);
  Subject subject;
  if (args.trace) {
    // core.encode_s: the TopKAccelerator constructor, as its own span.
    std::shared_ptr<const topk::core::TopKAccelerator> acc;
    ++report.ops("builds").attempted;
    tracer.time("core.encode", -1, -1, [&] {
      acc = std::make_shared<const topk::core::TopKAccelerator>(
          *csr, topk::core::DesignConfig::fixed(kValueBits));
    });
    subject.fpga = std::make_shared<topk::index::FpgaSimIndex>(acc);
    topk::serve::QueryEngine engine(subject.fpga, {.workers = kWorkers});
    subject.inputs = &in;
    subject.csr = csr;
    subject.engine = &engine;
    subject.work = work;
    probe_layers(subject, args, report, tracer);
    return;
  }
  auto [index, setup_s] = timed_builds(report, [&] {
    return topk::index::make_index("fpga-sim", csr, index_options());
  });
  const topk::serve::QueryEngine engine(index, {.workers = kWorkers});
  Phase phase;
  const FirstResults first = serve_sync(engine, in.queries, args.seconds, report, phase);
  phase.print(args.workload);

  // Checks: distinct ordered ids, scores within the 20-bit datapath
  // bound of the exact dot product, mean recall above Equation 1's
  // expectation less a margin.
  const auto& m = in.matrix;
  const auto row_span = [&](std::uint32_t id) {
    const auto b = static_cast<std::size_t>(m.ptr[id]);
    const auto n = static_cast<std::size_t>(m.ptr[id + 1] - m.ptr[id]);
    return std::make_pair(std::span(m.idx).subspan(b, n), std::span(m.val).subspan(b, n));
  };
  double recall_sum = 0.0;
  std::size_t checked = 0;
  for (std::size_t q = 0; q < in.queries.size(); ++q) {
    if (!first[q]) {
      continue;
    }
    const auto& x = in.queries[q];
    const std::string problem = e2e::check_bounded(
        *first[q], kTopK,
        [&](std::uint32_t id) {
          const auto [cols, vals] = row_span(id);
          return e2e::exact_dot(cols, vals, x);
        },
        [&](std::uint32_t id) {
          return e2e::fixed_point_bound(row_span(id).first, x, kValueBits);
        });
    if (!problem.empty()) {
      report.fail("queries", "query " + std::to_string(q) + ": " + problem);
    }
    recall_sum += e2e::recall(*first[q], e2e::exact_topk(m, x, kTopK));
    ++checked;
  }
  const double recall = checked ? recall_sum / static_cast<double>(checked) : 0.0;
  const double floor =
      e2e::expected_precision(m.rows(), 32, 8, kTopK) - kRecallMargin;
  std::cerr << "recall@" << kTopK << " " << recall << " (Equation 1 floor "
            << floor << ")\n";
  if (recall < floor) {
    report.fail("queries", "mean recall " + std::to_string(recall) +
                               " below the floor " + std::to_string(floor));
  }
  phase.report(report);
  report.metric("setup_s", setup_s, "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("recall_at_k", recall, "ratio");
}

/// Saves the sharded deployment from a child process, so the peak RSS
/// of building and saving it is not charged to the serving process.
void save_deployment_in_child(const e2e::Matrix& m, const fs::path& dir) {
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = fork();
  if (pid < 0) {
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    int code = 0;
    try {
      const auto index = std::dynamic_pointer_cast<topk::shard::ShardedIndex>(
          topk::index::make_index("sharded-cpu-simd", to_csr(m), index_options()));
      save_sealed(*index, dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "saving the deployment failed: %s\n", e.what());
      code = 1;
    }
    std::fflush(stderr);
    _exit(code);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("the deployment could not be saved");
  }
}

void run_sharded_exact(const Args& args, Report& report, Tracer& tracer,
                       const fs::path& work) {
  e2e::Rng rng(args.seed);
  auto in = std::make_unique<Inputs>(make_inputs(kShardedExactRows, rng));
  const fs::path dir = work / "deployment";
  ++report.ops("builds").attempted;
  save_deployment_in_child(in->matrix, dir);

  if (args.trace) {
    const auto sharded = topk::persist::load_deployment(dir);
    topk::serve::QueryEngine engine(sharded, {.workers = kWorkers});
    Subject subject;
    subject.inputs = in.get();
    subject.csr = to_csr(in->matrix);
    subject.engine = &engine;
    subject.sharded = sharded;
    subject.deployment = dir;
    subject.work = work;
    probe_layers(subject, args, report, tracer);
    return;
  }
  // The references need the matrix; compute them, then free it before
  // the deployment loads, so only serving sets the peak RSS.
  std::vector<std::vector<e2e::Entry>> refs;
  for (const auto& x : in->queries) {
    refs.push_back(e2e::exact_topk(in->matrix, x, kTopK));
  }
  const std::vector<std::vector<float>> queries = std::move(in->queries);
  in.reset();

  auto [index, setup_s] = timed_builds(
      report, [&] { return topk::persist::load_deployment(dir); });
  const topk::serve::QueryEngine engine(index, {.workers = kWorkers});
  Phase phase;
  const FirstResults first = serve_sync(engine, queries, args.seconds, report, phase);
  phase.print(args.workload);

  // Checks: every returned list equals the exact reference.
  double recall_sum = 0.0;
  std::size_t checked = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (!first[q]) {
      continue;
    }
    const std::string problem = e2e::check_exact(*first[q], refs[q]);
    if (!problem.empty()) {
      report.fail("queries", "query " + std::to_string(q) + ": " + problem);
    }
    recall_sum += e2e::recall(*first[q], refs[q]);
    ++checked;
  }
  phase.report(report);
  report.metric("setup_s", setup_s, "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("recall_at_k", checked ? recall_sum / static_cast<double>(checked) : 0.0,
                "ratio");
}

void run_churn(const Args& args, Report& report, Tracer& tracer, const fs::path& work) {
  e2e::Rng rng(args.seed);
  const Inputs in = make_inputs(kChurnRows, rng);
  const auto csr = to_csr(in.matrix);
  topk::index::IndexOptions options = index_options();
  options.compact_threshold = kCompactThreshold;
  auto [index, setup_s] = timed_builds(report, [&] {
    return topk::index::make_index("mutable-sharded-cpu-simd", csr, options);
  });
  const auto mut =
      std::dynamic_pointer_cast<topk::shard::MutableShardedIndex>(index);
  topk::serve::QueryEngine engine(std::shared_ptr<topk::index::MutableIndex>(mut),
                                  {.workers = kWorkers});
  if (args.trace) {
    Subject subject;
    subject.inputs = &in;
    subject.csr = csr;
    subject.engine = &engine;
    subject.sharded = mut->base();
    subject.mutable_index = mut;
    subject.work = work;
    probe_layers(subject, args, report, tracer);
    return;
  }

  e2e::Shadow shadow(in.matrix);
  e2e::Rng mutation_rng(args.seed ^ 0x5eed);
  topk::persist::Compactor compactor(mut, work / "compactions");
  Phase phase;  // the rounds, checks excluded
  std::vector<double> compact_s;
  std::size_t next_query = 0;
  double recall_sum = 0.0;
  std::size_t checked = 0;
  fs::path previous_generation;

  // An untimed query through the engine, checked against the shadow.
  const auto check_now = [&](const std::string& when) {
    const auto& x = in.queries[next_query % in.queries.size()];
    ++report.ops("queries").attempted;
    const auto got = entries_of(engine.query(x, kTopK).entries);
    const auto ref = shadow.topk(x, kTopK);
    const std::string problem = e2e::check_exact(got, ref);
    if (!problem.empty()) {
      report.fail("queries", when + ": " + problem);
    }
    recall_sum += e2e::recall(got, ref);
    ++checked;
  };

  const int cycles = std::max(kMinCycles, args.seconds);
  int cycle = 0;
  int round = 0;
  for (;;) {
    const bool compaction_round =
        mut->delta_stats().mutations_since_seal >= kCompactThreshold;
    if (compaction_round) {
      check_now("before compaction " + std::to_string(cycle));
    }
    const Phase::Mark round_start = Phase::mark();
    std::future<std::optional<topk::persist::CompactionReport>> compaction;
    if (compaction_round) {
      // On a pool thread, so the load thread stays free to collect the
      // round's replies while the compaction runs.
      auto task = std::make_shared<
          std::packaged_task<std::optional<topk::persist::CompactionReport>()>>(
          [&compactor] { return compactor.maybe_compact(); });
      compaction = task->get_future();
      ++report.ops("compactions").attempted;
      topk::util::shared_pool().post([task] { (*task)(); });
    }
    std::vector<Phase::Mark> submitted;
    std::vector<std::future<topk::index::QueryResult>> futures;
    std::vector<std::size_t> slots;
    for (int i = 0; i < kRoundQueries; ++i) {
      const std::size_t slot = next_query++ % in.queries.size();
      ++report.ops("queries").attempted;
      submitted.push_back(Phase::mark());
      futures.push_back(engine.submit(in.queries[slot], kTopK));
      slots.push_back(slot);
    }
    std::vector<std::optional<std::vector<e2e::Entry>>> results(kRoundQueries);
    for (int i = 0; i < kRoundQueries; ++i) {
      const auto u = static_cast<std::size_t>(i);
      try {
        results[u] = entries_of(futures[u].get().entries);
        phase.query_done(submitted[u]);
      } catch (const std::exception& e) {
        report.fail("queries", e.what());
      }
    }
    if (compaction_round) {
      try {
        const auto done = compaction.get();
        if (!done) {
          report.fail("compactions", "maybe_compact() did not compact");
        } else {
          compact_s.push_back(done->total_seconds);
          if (!previous_generation.empty()) {
            fs::remove_all(previous_generation);
          }
          previous_generation = done->dir;
        }
      } catch (const std::exception& e) {
        report.fail("compactions", e.what());
      }
    }
    phase.add_interval(round_start);

    if (round % kSampleEvery == 0 || compaction_round) {
      for (int i = 0; i < kRoundQueries; ++i) {
        const auto u = static_cast<std::size_t>(i);
        if (!results[u]) {
          continue;
        }
        const auto ref = shadow.topk(in.queries[slots[u]], kTopK);
        const std::string problem = e2e::check_exact(*results[u], ref);
        if (!problem.empty()) {
          report.fail("queries", "round " + std::to_string(round) + ": " + problem);
        }
        recall_sum += e2e::recall(*results[u], ref);
        ++checked;
      }
    }
    if (compaction_round) {
      check_now("after compaction " + std::to_string(cycle));
      if (++cycle == cycles) {
        break;
      }
    }

    const Phase::Mark mutations_start = Phase::mark();
    apply_mutations(*mut, shadow, mutation_rng, report, nullptr);
    phase.add_interval(mutations_start);
    ++round;
  }
  phase.print(args.workload);
  std::cerr << "  " << round + 1 << " rounds, " << compact_s.size()
            << " compactions (median " << e2e::median(compact_s) << " s), live rows "
            << mut->live_rows() << "\n";
  phase.report(report);
  report.metric("setup_s", setup_s, "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("recall_at_k", checked ? recall_sum / static_cast<double>(checked) : 0.0,
                "ratio");
}

std::string isa_level() {
  const auto& f = topk::util::cpu_features();
  return f.avx512 ? "avx512" : f.avx2 ? "avx2" : "scalar";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 2;
  }
  const fs::path work = args.scratch / (args.workload + "-" + std::to_string(args.seed) +
                                        "-" + std::to_string(getpid()));
  std::cerr << "e2e_bench " << args.workload << " seed " << args.seed << " seconds "
            << args.seconds << " trace " << args.trace << " | nproc "
            << sysconf(_SC_NPROCESSORS_ONLN) << ", isa " << isa_level() << "\n";
  Report report;
  Tracer tracer;
  int code = 0;
  try {
    fs::create_directories(work);
    // A thread inherits its starter's processor affinity: start the pool
    // before timed_builds pins the load thread.
    topk::util::shared_pool().ensure_workers(kWorkers - 1);
    if (args.workload == "paper-fpga") {
      run_paper_fpga(args, report, tracer, work);
    } else if (args.workload == "sharded-exact") {
      run_sharded_exact(args, report, tracer, work);
    } else {
      run_churn(args, report, tracer, work);
    }
    if (args.trace) {
      tracer.write(args.scratch / "traces" /
                   (args.workload + "-seed" + std::to_string(args.seed) + ".json"));
    }
    report.print();
    code = report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    code = 2;
  }
  std::error_code ignored;
  fs::remove_all(work, ignored);
  return code;
}
