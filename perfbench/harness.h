// Shared machinery of the benchmark driver: input generation, clocks,
// latency samples, layer counters, the span tracer and the result line.
//
// The benchmark drives the engine only through its public surface
// (Database, Table, DynamicRetrieval, CompilePlan and operators,
// RunSessionWorkload, the cost meter, buffer-pool stats and the metrics
// registry). Everything here is timed or counted from outside the engine.

#ifndef DYNOPT_PERFBENCH_HARNESS_H_
#define DYNOPT_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "catalog/database.h"
#include "core/plan.h"
#include "core/retrieval.h"
#include "util/cost_meter.h"

namespace perfbench {

/// What one invocation was asked to do (see main.cc for the flags).
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for database files.
  std::string data_dir;
  /// Directory (inside the checkout) for trace and layer-table files.
  std::string out_dir;
  /// Process start, the origin of setup_s.
  std::chrono::steady_clock::time_point process_start;
};

/// The benchmark's own generator (splitmix64). Inputs must not depend on
/// the engine's util/rng, so a change there cannot change the data.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf(n, theta) ranks in [0, n), rank 0 most frequent.
class Zipf {
 public:
  Zipf(uint64_t n, double theta);
  uint64_t Next(SplitMix& rng) const { return At(rng.Unit()); }
  /// The rank at cumulative probability u in [0, 1).
  uint64_t At(double u) const;

 private:
  std::vector<double> cdf_;
};

/// Stratified uniform draws in [0, 1): every cycle of kStrata draws takes
/// one value from each of kStrata equal strata, in a seeded order. A run
/// then meets rare, expensive parameters (a Zipf-hot customer) in the same
/// proportion whatever the seed, which keeps throughput comparable between
/// runs while the values themselves still come from the seed.
class Strata {
 public:
  static constexpr int kStrata = 16;
  explicit Strata(uint64_t seed) : rng_(seed) {}
  double Next();

 private:
  SplitMix rng_;
  int order_[kStrata] = {};
  int pos_ = kStrata;
};

/// Order-insensitive fold of a result: row count plus a wrapping sum of
/// a 64-bit mix of each row's key. A dropped, duplicated or substituted
/// row changes it.
uint64_t Mix64(uint64_t x);
struct RowFold {
  uint64_t count = 0;
  uint64_t sum = 0;
  void Add(int64_t key) {
    count++;
    sum += Mix64(static_cast<uint64_t>(key));
  }
  bool operator==(const RowFold& o) const {
    return count == o.count && sum == o.sum;
  }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
double SecondsSince(std::chrono::steady_clock::time_point t);

/// Quantile (0..1) of `v` by linear interpolation; sorts `v`.
double Quantile(std::vector<double>* v, double q);

/// One named figure of the result: the value as measured and its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything a workload run produces. `gated` holds the end-to-end
/// metrics BENCHMARK.json lists (every workload reports all of them);
/// `extra` holds the end-to-end figures that apply to one workload only;
/// `layers` holds the per-layer table of a traced run.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> gated;
  std::vector<Metric> extra;
  std::vector<Metric> layers;
  std::vector<std::string> errors;  // first few correctness failures

  void Fail(std::string what);
  void Gate(std::string name, double value, std::string unit) {
    gated.push_back({std::move(name), value, std::move(unit)});
  }
  void Extra(std::string name, double value, std::string unit) {
    extra.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Per-type samples of completed operations: when each ended, how long
/// it took and how many rows it returned. A p99 is reported only when at
/// least 1000 samples back it (ten beyond the percentile).
struct Latencies {
  struct Sample {
    int64_t end_ns;
    double micros;
    uint64_t rows;
  };
  std::map<std::string, std::vector<Sample>> by_type;
  void Add(const std::string& type, int64_t end_ns, double micros,
           uint64_t rows) {
    by_type[type].push_back({end_ns, micros, rows});
  }
  void Merge(const Latencies& o);
  std::vector<double> Micros(const std::string& type) const;
  /// Adds <type>_p50_us (and <type>_p99_us when supported) to `extra`,
  /// plus the sample count.
  void Report(const std::string& type, perfbench::Report* out) const;
};

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Counters read from the engine's public surfaces at a window boundary.
struct Snapshot {
  dynopt::CostMeter meter;
  dynopt::BufferPool::ShardStats pool;
  std::map<std::string, uint64_t> registry;
  static Snapshot Take(dynopt::Database* db);
  uint64_t Reg(const std::string& name) const;
};

/// Per-query facts gathered on the traced path (timed around the public
/// calls, read from the engine after each query). Open and the Next loop
/// are timed apart only for bare retrievals: a COUNT plan drains its
/// retrieval inside RowOperator::Open, so plans are timed whole.
struct QueryTally {
  uint64_t queries = 0;    // every execution, bare or under a plan
  uint64_t leaf_rows = 0;  // rows the retrieval leaves delivered
  uint64_t verdicts = 0;
  std::map<std::string, uint64_t> tactics;
  uint64_t bare_queries = 0;
  uint64_t bare_rows = 0;
  int64_t open_ns = 0;
  int64_t deliver_ns = 0;
  uint64_t plan_queries = 0;
  int64_t plan_ns = 0;
  void Merge(const QueryTally& o);
  /// Records tactic and verdict count of the execution `engine` just ran.
  void Observe(const dynopt::DynamicRetrieval& engine);
};

/// Write-path facts of the durable workload (zero elsewhere).
struct WriteTally {
  uint64_t inserts = 0;
  int64_t insert_ns = 0;
  uint64_t commits = 0;
  int64_t commit_ns = 0;
  uint64_t checkpoints = 0;
  int64_t checkpoint_ns = 0;
  double open_s = 0;  // Database::Open, when the workload reopens
};

/// Fills `out->layers` with every per-layer metric BENCHMARK.json lists,
/// in its order; a layer the workload does not exercise reads 0.
void FillLayers(const Snapshot& before, const Snapshot& after,
                const dynopt::CostWeights& weights, const QueryTally& q,
                const WriteTally& w, Report* out);

/// In-memory span recorder for the traced run. One log per thread index;
/// a thread only touches its own log, so recording takes no lock. Spans
/// past the per-thread cap are counted, not kept.
class Tracer {
 public:
  Tracer(bool on, size_t threads);
  bool on() const { return on_; }

  /// Opens a span on thread `tid`; its parent is the innermost open span
  /// of that thread. Returns a handle for End (ignored when off).
  size_t Begin(size_t tid, const char* name);
  /// Closes the span, attaching `args` (a JSON object body, may be empty).
  /// Returns its duration in ns (0 when off).
  int64_t End(size_t tid, size_t handle, std::string args = {});

  /// Writes Chrome trace-event JSON (complete "X" events).
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;
    int64_t begin_ns;
    int64_t end_ns;
    std::string args;
  };
  struct Log {
    std::vector<Span> spans;
    std::vector<size_t> open;  // stack of indexes into spans
    uint64_t dropped = 0;
    uint64_t next_id = 1;
  };
  static constexpr size_t kMaxSpansPerThread = 200000;
  bool on_;
  int64_t origin_ns_;
  std::vector<Log> logs_;
};

/// Prints the report: one human-readable "# report" line with every
/// figure, then the result object as the last line of stdout. Also writes
/// the full report to `<out_dir>/<workload>-seed<n>-trace<t>.json`.
void Emit(const RunConfig& cfg, const Report& report);

/// Removes a database file and its WAL when the workload ends, on every
/// path out of it. Declare before the Database so the files go last.
struct DbFiles {
  std::string path;
  explicit DbFiles(std::string p) : path(std::move(p)) {}
  ~DbFiles();
  DbFiles(const DbFiles&) = delete;
  DbFiles& operator=(const DbFiles&) = delete;
};

/// The result of an untraced run must not depend on tracing; these keep
/// the two modes' control flow identical while reading clocks only when
/// tracing is on.
struct ScopedSpan {
  ScopedSpan(Tracer* t, size_t tid, const char* name)
      : tracer(t), tid(tid), handle(t->Begin(tid, name)) {}
  int64_t End(std::string args = {}) {
    if (ended) return 0;
    ended = true;
    return tracer->End(tid, handle, std::move(args));
  }
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  Tracer* tracer;
  size_t tid;
  size_t handle;
  bool ended = false;
};

/// Runs one execution of `engine`, folding projected column 0 of every
/// row into `fold`. Traced: spans around Open and the Next loop, their
/// times and the engine's tactic and verdicts go to `tally`.
dynopt::Status RunRetrieval(dynopt::DynamicRetrieval* engine,
                            const dynopt::ParamMap& params, Tracer* tracer,
                            size_t tid, QueryTally* tally, RowFold* fold);

/// A prepared LIMIT or COUNT plan over one retrieval. The leaf is lowered
/// by CompilePlan after §4 goal inference over the whole tree; the
/// operator above it is composed here exactly as CompilePlan would (with
/// its profiling wrapper) so the leaf engine stays reachable for the
/// per-layer counters.
class PlanQuery {
 public:
  static PlanQuery Limit(dynopt::Database* db, dynopt::RetrievalSpec spec,
                         uint64_t k);
  static PlanQuery Count(dynopt::Database* db, dynopt::RetrievalSpec spec);

  dynopt::ParamMap& params() { return *params_; }
  /// Opens with the current params and pulls every batch into `rows`.
  dynopt::Status Run(Tracer* tracer, size_t tid, QueryTally* tally,
                     std::vector<std::vector<dynopt::Value>>* rows);

 private:
  PlanQuery(dynopt::Database* db, std::unique_ptr<dynopt::PlanNode> root);

  std::unique_ptr<dynopt::PlanNode> root_;
  std::unique_ptr<dynopt::ParamMap> params_;  // address read at each Open
  dynopt::RowOperatorPtr op_;
  dynopt::DynamicRetrieval* engine_ = nullptr;
};

Report RunOltpMix(const RunConfig& cfg);
Report RunAnalyticsCold(const RunConfig& cfg);
Report RunIngestDurable(const RunConfig& cfg);

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
/// `lat` holds the operations of the window that began at `start_ns`.
void GateCommon(double setup_s, int64_t start_ns, const Latencies& lat,
                Report* out);

}  // namespace perfbench

#endif  // DYNOPT_PERFBENCH_HARNESS_H_
