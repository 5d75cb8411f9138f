#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

Zipf::Zipf(uint64_t n, double theta) : cdf_(n) {
  double total = 0;
  for (uint64_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

uint64_t Zipf::At(double u) const {
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<uint64_t>(it - cdf_.begin());
}

double Strata::Next() {
  if (pos_ == kStrata) {
    for (int i = 0; i < kStrata; ++i) order_[i] = i;
    for (int i = kStrata - 1; i > 0; --i) {
      std::swap(order_[i], order_[static_cast<int>(rng_.Next() %
                                                   static_cast<uint64_t>(i + 1))]);
    }
    pos_ = 0;
  }
  return (order_[pos_++] + rng_.Unit()) / kStrata;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double SecondsSince(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  double pos = q * static_cast<double>(v->size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v->size() - 1);
  double frac = pos - static_cast<double>(lo);
  return (*v)[lo] * (1 - frac) + (*v)[hi] * frac;
}

void Report::Fail(std::string what) {
  correct = false;
  if (errors.size() < 8) errors.push_back(std::move(what));
}

void Latencies::Merge(const Latencies& o) {
  for (const auto& [type, v] : o.by_type) {
    auto& dst = by_type[type];
    dst.insert(dst.end(), v.begin(), v.end());
  }
}

std::vector<double> Latencies::Micros(const std::string& type) const {
  std::vector<double> v;
  auto it = by_type.find(type);
  if (it == by_type.end()) return v;
  for (const Sample& s : it->second) v.push_back(s.micros);
  return v;
}

void Latencies::Report(const std::string& type, perfbench::Report* out) const {
  std::vector<double> v = Micros(type);
  out->Extra(type + "_samples", static_cast<double>(v.size()), "count");
  if (v.empty()) return;
  out->Extra(type + "_p50_us", Quantile(&v, 0.5), "us");
  if (v.size() >= 1000) out->Extra(type + "_p99_us", Quantile(&v, 0.99), "us");
}

DbFiles::~DbFiles() {
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

const char* const kRegistryNames[] = {
    "btree.node_reads",     "btree.estimates",     "btree.sample_probes",
    "jscan.entries_scanned", "jscan.scans_completed",
    "jscan.scans_discarded", "wal.bytes",          "wal.commits",
    "wal.fsyncs",           "wal.records",
};

double Per(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

Snapshot Snapshot::Take(dynopt::Database* db) {
  Snapshot s;
  s.meter = db->meter();
  s.pool = db->pool()->TotalStats();
  if (db->metrics() != nullptr) {
    for (const char* name : kRegistryNames) {
      s.registry[name] = db->metrics()->Value(name);
    }
  }
  return s;
}

uint64_t Snapshot::Reg(const std::string& name) const {
  auto it = registry.find(name);
  return it == registry.end() ? 0 : it->second;
}

void QueryTally::Merge(const QueryTally& o) {
  queries += o.queries;
  leaf_rows += o.leaf_rows;
  verdicts += o.verdicts;
  for (const auto& [name, n] : o.tactics) tactics[name] += n;
  bare_queries += o.bare_queries;
  bare_rows += o.bare_rows;
  open_ns += o.open_ns;
  deliver_ns += o.deliver_ns;
  plan_queries += o.plan_queries;
  plan_ns += o.plan_ns;
}

void QueryTally::Observe(const dynopt::DynamicRetrieval& engine) {
  queries++;
  leaf_rows += engine.rows_delivered();
  verdicts += engine.events().EmittedCount(
      dynopt::TraceEventKind::kCompetitionVerdict);
  tactics[std::string(dynopt::TacticName(engine.tactic()))]++;
}

void FillLayers(const Snapshot& before, const Snapshot& after,
                const dynopt::CostWeights& weights, const QueryTally& q,
                const WriteTally& w, Report* out) {
  auto reg = [&](const char* name) {
    return static_cast<double>(after.Reg(name) - before.Reg(name));
  };
  const double queries = static_cast<double>(q.queries);
  const double rows = static_cast<double>(q.leaf_rows);
  const double hits = static_cast<double>(after.pool.hits - before.pool.hits);
  const double misses =
      static_cast<double>(after.pool.misses - before.pool.misses);
  const double evictions =
      static_cast<double>(after.pool.evictions - before.pool.evictions);
  const double writebacks =
      static_cast<double>(after.pool.writebacks - before.pool.writebacks);
  const double started =
      reg("jscan.scans_completed") + reg("jscan.scans_discarded");
  const double wal_commits = reg("wal.commits");
  const double cost = (after.meter - before.meter).Cost(weights);
  auto& L = out->layers;
  auto add = [&](std::string name, double v, std::string unit) {
    L.push_back({std::move(name), v, std::move(unit)});
  };

  add("core.queries", queries, "count");
  add("core.open_us",
      Per(static_cast<double>(q.open_ns) / 1e3,
          static_cast<double>(q.bare_queries)),
      "us");
  add("core.deliver_ns_per_row",
      Per(static_cast<double>(q.deliver_ns), static_cast<double>(q.bare_rows)),
      "ns/row");
  for (int t = static_cast<int>(dynopt::Tactic::kShortcutEmpty);
       t <= static_cast<int>(dynopt::Tactic::kIndexOnly); ++t) {
    std::string name(dynopt::TacticName(static_cast<dynopt::Tactic>(t)));
    auto it = q.tactics.find(name);
    double n = it == q.tactics.end() ? 0 : static_cast<double>(it->second);
    add("core.tactic." + name, Per(n, queries), "share");
  }
  add("core.jscan_entries_per_query", Per(reg("jscan.entries_scanned"), queries),
      "entries/query");
  add("core.jscan_scans_started", started, "count");
  add("core.jscan_discarded_ratio", Per(reg("jscan.scans_discarded"), started),
      "ratio");
  add("competition.cost_units_per_query", Per(cost, queries), "units/query");
  add("competition.verdicts_per_query",
      Per(static_cast<double>(q.verdicts), queries), "count/query");
  add("exec.rows_returned", rows, "count");
  add("exec.plan_us",
      Per(static_cast<double>(q.plan_ns) / 1e3,
          static_cast<double>(q.plan_queries)),
      "us");
  // Records the restriction was evaluated on, per row a retrieval returned.
  add("exec.records_fetched_per_row",
      Per(static_cast<double>(after.meter.record_evals -
                              before.meter.record_evals),
          rows),
      "ratio");
  add("index.node_reads_per_query", Per(reg("btree.node_reads"), queries),
      "reads/query");
  add("index.estimate_probes_per_query",
      Per(reg("btree.estimates") + reg("btree.sample_probes"), queries),
      "probes/query");
  add("storage.page_requests", hits + misses, "count");
  add("storage.hit_rate", Per(hits, hits + misses), "ratio");
  add("storage.misses_per_query", Per(misses, queries), "misses/query");
  add("storage.evictions_per_query", Per(evictions, queries), "count/query");
  add("storage.writebacks_per_commit",
      Per(writebacks, static_cast<double>(w.commits)), "pages/commit");
  add("catalog.insert_us",
      Per(static_cast<double>(w.insert_ns) / 1e3,
          static_cast<double>(w.inserts)),
      "us");
  add("catalog.open_s", w.open_s, "s");
  add("durability.commits", static_cast<double>(w.commits), "count");
  add("durability.commit_us",
      Per(static_cast<double>(w.commit_ns) / 1e3,
          static_cast<double>(w.commits)),
      "us");
  add("durability.log_pages_per_commit",
      Per(reg("wal.records") - wal_commits, wal_commits), "pages/commit");
  add("durability.fsyncs_per_commit", Per(reg("wal.fsyncs"), wal_commits),
      "fsyncs/commit");
  add("durability.checkpoint_ms",
      Per(static_cast<double>(w.checkpoint_ns) / 1e6,
          static_cast<double>(w.checkpoints)),
      "ms");
}

Tracer::Tracer(bool on, size_t threads)
    : on_(on), origin_ns_(NowNs()), logs_(on ? threads : 0) {}

size_t Tracer::Begin(size_t tid, const char* name) {
  if (!on_) return 0;
  Log& log = logs_[tid];
  uint64_t parent = log.open.empty() ? 0 : log.spans[log.open.back()].id;
  if (log.spans.size() >= kMaxSpansPerThread) {
    log.dropped++;
    return SIZE_MAX;
  }
  log.spans.push_back({name, log.next_id++, parent, NowNs(), 0, {}});
  log.open.push_back(log.spans.size() - 1);
  return log.spans.size() - 1;
}

int64_t Tracer::End(size_t tid, size_t handle, std::string args) {
  if (!on_) return 0;
  int64_t now = NowNs();
  if (handle == SIZE_MAX) return 0;
  Log& log = logs_[tid];
  Span& s = log.spans[handle];
  s.end_ns = now;
  s.args = std::move(args);
  if (!log.open.empty() && log.open.back() == handle) log.open.pop_back();
  return s.end_ns - s.begin_ns;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (size_t tid = 0; tid < logs_.size(); ++tid) {
    for (const Span& s : logs_[tid].spans) {
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64
                    ",\"parent\":%" PRIu64,
                    first ? "" : ",", s.name, tid,
                    static_cast<double>(s.begin_ns - origin_ns_) / 1e3,
                    static_cast<double>(s.end_ns - s.begin_ns) / 1e3, s.id,
                    s.parent);
      f << buf;
      if (!s.args.empty()) f << ',' << s.args;
      f << "}}";
      first = false;
    }
  }
  uint64_t dropped = 0;
  for (const Log& log : logs_) dropped += log.dropped;
  f << "\n],\"otherData\":{\"dropped_spans\":" << dropped << "}}\n";
  return static_cast<bool>(f);
}

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o << '{';
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) o << ", ";
    o << '"' << metrics[i].name << "\": {\"value\": " << Num(metrics[i].value)
      << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  o << '}';
  return o.str();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Emit(const RunConfig& cfg, const Report& report) {
  std::ostringstream full;
  full << "{\"workload\": " << JsonString(cfg.workload)
       << ", \"seed\": " << cfg.seed << ", \"trace\": " << cfg.trace
       << ", \"correct\": " << (report.correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed
       << ", \"end_to_end\": " << MetricsJson(report.gated)
       << ", \"workload_specific\": " << MetricsJson(report.extra)
       << ", \"per_layer\": " << MetricsJson(report.layers)
       << ", \"errors\": [";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    full << (i > 0 ? ", " : "") << JsonString(report.errors[i]);
  }
  full << "]}";
  std::string path = cfg.out_dir + "/" + cfg.workload + "-seed" +
                     std::to_string(cfg.seed) + "-trace" +
                     (cfg.trace ? "1" : "0") + ".json";
  std::ofstream(path) << full.str() << '\n';

  std::printf("# report %s\n", full.str().c_str());
  std::vector<Metric> shown = cfg.trace ? report.layers : report.gated;
  if (cfg.trace) {
    // The traced run's qps, by the same estimator as the untraced one: the
    // two differ by the tracing overhead.
    for (const Metric& m : report.gated) {
      if (m.name == "qps") shown.push_back({"tracing.qps", m.value, m.unit});
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": %s}\n",
      report.correct ? "true" : "false", report.attempted, report.failed,
      MetricsJson(shown).c_str());
  std::fflush(stdout);
}

dynopt::Status RunRetrieval(dynopt::DynamicRetrieval* engine,
                            const dynopt::ParamMap& params, Tracer* tracer,
                            size_t tid, QueryTally* tally, RowFold* fold) {
  ScopedSpan open(tracer, tid, "DynamicRetrieval::Open");
  dynopt::Status st = engine->Open(params);
  tally->open_ns += open.End();
  if (!st.ok()) return st;
  ScopedSpan next(tracer, tid, "DynamicRetrieval::Next");
  dynopt::OutputRow row;
  for (;;) {
    auto more = engine->Next(&row);
    if (!more.ok()) return more.status();
    if (!*more) break;
    fold->Add(row.values[0].AsInt64());
  }
  tally->deliver_ns += next.End();
  if (tracer->on()) {
    tally->Observe(*engine);
    tally->bare_queries++;
    tally->bare_rows += engine->rows_delivered();
  }
  return dynopt::Status::OK();
}

PlanQuery::PlanQuery(dynopt::Database* db,
                     std::unique_ptr<dynopt::PlanNode> root)
    : root_(std::move(root)), params_(std::make_unique<dynopt::ParamMap>()) {
  dynopt::InferGoals(root_.get(), dynopt::OptimizationGoal::kTotalTime);
  auto leaf = dynopt::CompilePlan(db, *root_->child, params_.get());
  if (!leaf.ok()) {
    std::fprintf(stderr, "CompilePlan: %s\n", leaf.status().ToString().c_str());
    std::abort();
  }
  engine_ =
      static_cast<dynopt::DynamicRetrievalOperator*>(leaf->get())->engine();
  dynopt::RowOperatorPtr op;
  std::string name;
  if (root_->kind == dynopt::PlanNode::Kind::kLimit) {
    op = std::make_unique<dynopt::LimitOperator>(std::move(*leaf),
                                                 root_->limit);
    name = "limit";
  } else {
    op = std::make_unique<dynopt::AggregateOperator>(std::move(*leaf),
                                                     root_->agg, root_->column);
    name = "aggregate";
  }
  op_ = std::make_unique<dynopt::ProfilingOperator>(
      std::move(op), std::move(name), engine_->profile_handle());
}

PlanQuery PlanQuery::Limit(dynopt::Database* db, dynopt::RetrievalSpec spec,
                           uint64_t k) {
  return PlanQuery(db, dynopt::PlanNode::Limit(
                           dynopt::PlanNode::Retrieve(std::move(spec)), k));
}

PlanQuery PlanQuery::Count(dynopt::Database* db, dynopt::RetrievalSpec spec) {
  return PlanQuery(db, dynopt::PlanNode::Aggregate(
                           dynopt::PlanNode::Retrieve(std::move(spec)),
                           dynopt::AggregateKind::kCount));
}

dynopt::Status PlanQuery::Run(Tracer* tracer, size_t tid, QueryTally* tally,
                              std::vector<std::vector<dynopt::Value>>* rows) {
  rows->clear();
  ScopedSpan plan(tracer, tid, "plan");
  {
    ScopedSpan open(tracer, tid, "RowOperator::Open");
    DYNOPT_RETURN_IF_ERROR(op_->Open());
  }
  {
    ScopedSpan next(tracer, tid, "RowOperator::NextBatch");
    for (;;) {
      auto more = op_->NextBatch(rows);
      if (!more.ok()) return more.status();
      if (!*more) break;
    }
  }
  tally->plan_ns += plan.End();
  if (tracer->on()) {
    tally->Observe(*engine_);
    tally->plan_queries++;
  }
  return dynopt::Status::OK();
}

void GateCommon(double setup_s, int64_t start_ns, const Latencies& lat,
                Report* out) {
  // Throughput is the median rate over about 25 consecutive groups of
  // completed queries, so a few seconds in which a neighbour on a shared
  // host stalls the run do not move it.
  std::vector<std::pair<int64_t, uint64_t>> done;  // (end_ns, rows)
  for (const auto& [type, samples] : lat.by_type) {
    if (type == "commit") continue;
    for (const auto& s : samples) done.emplace_back(s.end_ns, s.rows);
  }
  std::sort(done.begin(), done.end());
  constexpr size_t kGroups = 25;
  const size_t per_group = std::max<size_t>(1, done.size() / kGroups);
  std::vector<double> qps, rows_per_s;
  int64_t group_start = start_ns;
  for (size_t i = 0; i + per_group <= done.size(); i += per_group) {
    uint64_t rows = 0;
    for (size_t j = i; j < i + per_group; ++j) rows += done[j].second;
    const int64_t group_end = done[i + per_group - 1].first;
    const double secs = static_cast<double>(group_end - group_start) / 1e9;
    group_start = group_end;
    if (secs <= 0) continue;
    qps.push_back(static_cast<double>(per_group) / secs);
    rows_per_s.push_back(static_cast<double>(rows) / secs);
  }
  std::vector<double> point = lat.Micros("point"), range = lat.Micros("range");
  out->Gate("setup_s", setup_s, "s");
  out->Gate("qps", Quantile(&qps, 0.5), "1/s");
  out->Gate("rows_per_s", Quantile(&rows_per_s, 0.5), "1/s");
  out->Gate("point_p50_us", Quantile(&point, 0.5), "us");
  out->Gate("range_p50_us", Quantile(&range, 0.5), "us");
  out->Gate("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
