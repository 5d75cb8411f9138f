// oltp_mix: in-memory FAMILIES, every page in the buffer pool, one closed-
// loop session running RunSessionWorkload's query shapes — half point
// lookups by id (about 1/8 past the table), half age-range plus income-cap
// ranges. CPU-bound on the per-query initial stage and on row delivery; no
// I/O, no WAL.
//
// One session, not one per core: on a shared 4-vCPU VM, runs with three or
// four sessions swung by up to 30% from run to run (a session preempted
// while it holds a pool latch stalls the others), beyond any usable bound.
//
// The sessions are the benchmark's own loop rather than RunSessionWorkload
// itself because the driver pools point and range latencies into one
// reservoir and hides the Open/Next boundary the per-layer figures need.
// RunSessionWorkload still warms the pool and the engines' remembered
// index order before the measured window.

#include <atomic>
#include <cstdio>
#include <thread>

#include "checks.h"
#include "harness.h"
#include "workload/driver.h"

namespace perfbench {

namespace {

constexpr int64_t kRows = 200000;
constexpr size_t kPoolPages = 8192;  // 64 MiB: holds table and indexes
constexpr size_t kSessions = 1;  // see the header comment

struct SessionResult {
  uint64_t queries = 0;
  uint64_t failed = 0;
  Latencies latencies;
  QueryTally tally;
  std::vector<std::string> mismatches;  // wrong results
  std::string first_failure;            // an operation that errored
};

void RunSession(dynopt::Database* db, dynopt::Table* table,
                const FamiliesOracle& oracle, uint64_t seed, size_t index,
                Tracer* tracer, const std::atomic<bool>* go,
                int64_t deadline_ns, SessionResult* out) {
  using dynopt::CompareOp;
  using dynopt::Operand;
  using dynopt::Predicate;
  dynopt::RetrievalSpec range_spec;
  range_spec.table = table;
  range_spec.restriction = Predicate::And(
      {Predicate::Between(1, Operand::HostVar("lo"), Operand::HostVar("hi")),
       Predicate::Compare(2, CompareOp::kLt, Operand::HostVar("cap"))});
  range_spec.projection = {0, 1, 2};
  dynopt::DynamicRetrieval range_engine(db, range_spec);

  dynopt::RetrievalSpec point_spec;
  point_spec.table = table;
  point_spec.restriction =
      Predicate::Compare(0, CompareOp::kEq, Operand::HostVar("id"));
  point_spec.projection = {0};
  dynopt::DynamicRetrieval point_engine(db, point_spec);

  SplitMix rng(seed * 1000003 + index * 7919 + 1);
  while (!go->load(std::memory_order_acquire)) std::this_thread::yield();
  // Whole rounds of one point and one range draw keep both types in every
  // run; the order within a round is random.
  while (NowNs() < deadline_ns) {
    bool point_first = rng.Next() & 1;
    for (int k = 0; k < 2; ++k) {
      bool point = (k == 0) == point_first;
      dynopt::ParamMap params;
      RowFold expected;
      dynopt::DynamicRetrieval* engine;
      if (point) {
        int64_t id = rng.Uniform(0, 7) == 0 ? kRows + rng.Uniform(1, 1000)
                                            : rng.Uniform(0, kRows - 1);
        params = {{"id", dynopt::Value(id)}};
        expected = oracle.Point(id);
        engine = &point_engine;
      } else {
        int64_t lo = rng.Uniform(0, 99);
        int64_t hi = lo + rng.Uniform(0, 10);
        int64_t cap = rng.Uniform(0, 240000);
        params = {{"lo", dynopt::Value(lo)},
                  {"hi", dynopt::Value(hi)},
                  {"cap", dynopt::Value(cap)}};
        expected = oracle.Range(lo, hi, cap);
        engine = &range_engine;
      }
      const char* type = point ? "point" : "range";
      ScopedSpan span(tracer, index, point ? "query.point" : "query.range");
      RowFold got;
      int64_t t0 = NowNs();
      dynopt::Status st =
          RunRetrieval(engine, params, tracer, index, &out->tally, &got);
      int64_t t1 = NowNs();
      double micros = static_cast<double>(t1 - t0) / 1e3;
      span.End(tracer->on() ? "\"rows\":" + std::to_string(got.count) : "");
      out->queries++;
      if (!st.ok()) {
        out->failed++;
        if (out->first_failure.empty()) out->first_failure = st.ToString();
        continue;
      }
      out->latencies.Add(type, t1, micros, got.count);
      std::string err = CheckFold(type, expected, got);
      if (!err.empty() && out->mismatches.size() < 4) {
        out->mismatches.push_back(err);
      }
    }
  }
}

}  // namespace

Report RunOltpMix(const RunConfig& cfg) {
  Report rep;
  FamiliesOracle oracle(cfg.seed, kRows);

  dynopt::DatabaseOptions options;
  options.pool_pages = kPoolPages;
  dynopt::Database db(options);
  auto created = db.CreateTable("families", FamiliesOracle::TableSchema());
  if (!created.ok()) {
    rep.Fail("CreateTable: " + created.status().ToString());
    return rep;
  }
  dynopt::Table* table = *created;
  for (const auto& row : oracle.rows()) {
    auto rid = table->Insert(FamiliesOracle::ToRecord(row));
    if (!rid.ok()) {
      rep.Fail("Insert: " + rid.status().ToString());
      return rep;
    }
  }
  for (const char* col : {"id", "age", "income"}) {
    auto idx = table->CreateIndex(std::string("by_") + col, {col});
    if (!idx.ok()) {
      rep.Fail("CreateIndex: " + idx.status().ToString());
      return rep;
    }
  }

  const size_t sessions = kSessions;
  dynopt::SessionWorkloadOptions warm;
  warm.sessions = sessions;
  warm.queries_per_session = 50;
  warm.seed = cfg.seed;
  auto warmed = dynopt::RunSessionWorkload(&db, table, warm);
  if (!warmed.ok()) {
    rep.Fail("RunSessionWorkload: " + warmed.status().ToString());
    return rep;
  }
  for (const auto& s : warmed->sessions) {
    if (!s.error.empty()) rep.Fail("RunSessionWorkload session: " + s.error);
  }
  const double setup_s = SecondsSince(cfg.process_start);

  Tracer tracer(cfg.trace, sessions);
  std::vector<SessionResult> results(sessions);
  std::atomic<bool> go{false};
  Snapshot before = Snapshot::Take(&db);
  const int64_t start_ns = NowNs();
  const int64_t deadline_ns =
      start_ns + static_cast<int64_t>(cfg.seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < sessions; ++i) {
      threads.emplace_back(RunSession, &db, table, std::cref(oracle), cfg.seed,
                           i, &tracer, &go, deadline_ns, &results[i]);
    }
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
  }
  Snapshot after = Snapshot::Take(&db);

  Latencies lat;
  QueryTally tally;
  for (const auto& r : results) {
    lat.Merge(r.latencies);
    tally.Merge(r.tally);
    rep.attempted += r.queries;
    rep.failed += r.failed;
    for (const auto& e : r.mismatches) rep.Fail(e);
    if (!r.first_failure.empty()) {
      std::fprintf(stderr, "operation failed: %s\n", r.first_failure.c_str());
    }
  }

  GateCommon(setup_s, start_ns, lat, &rep);
  lat.Report("point", &rep);
  lat.Report("range", &rep);
  rep.Extra("sessions", static_cast<double>(sessions), "count");
  rep.Extra("data_pages", static_cast<double>(db.page_count()), "pages");
  rep.Extra("pool_pages", static_cast<double>(kPoolPages), "pages");
  if (cfg.trace) {
    FillLayers(before, after, db.cost_weights(), tally, WriteTally(), &rep);
    tracer.WriteChromeJson(cfg.out_dir + "/trace-oltp_mix-seed" +
                           std::to_string(cfg.seed) + ".json");
  }
  return rep;
}

}  // namespace perfbench
