// ingest_durable: file-backed ORDERS on one thread (the engine is single-
// writer). Each step inserts a batch of rows and commits it (real fsync,
// group commit on); between commits it looks up two of the just-committed
// order ids and reads the newest day's orders. A checkpoint follows every
// kCommitsPerCheckpoint commits — rare, as an application that checkpoints
// seldom would run it, so the WAL grows across many commits.
//
// The run is made of whole checkpoint cycles. Before each checkpoint the
// WAL file's growth seen by stat must equal the engine's wal.bytes
// counter; after the window the database is closed and reopened, and every
// acknowledged order id must be found.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>

#include "checks.h"
#include "harness.h"

namespace perfbench {

namespace {

constexpr int64_t kInitialRows = 50000;
constexpr size_t kPayloadBytes = 200;
constexpr int64_t kInitialDays = 365;
constexpr int64_t kBatchRows = 20;
constexpr int64_t kRowsPerDay = 100;
constexpr int kCommitsPerCheckpoint = 50;
constexpr size_t kPoolPages = 4096;

uint64_t FileSize(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

dynopt::RetrievalSpec Spec(dynopt::Table* t, dynopt::PredicateRef restriction) {
  dynopt::RetrievalSpec s;
  s.table = t;
  s.restriction = std::move(restriction);
  s.projection = {0, 4};
  return s;
}

}  // namespace

Report RunIngestDurable(const RunConfig& cfg) {
  using dynopt::CompareOp;
  using dynopt::Operand;
  using dynopt::Predicate;
  using dynopt::Value;
  Report rep;
  OrdersOracle oracle(cfg.seed, kPayloadBytes);
  for (int64_t i = 0; i < kInitialRows; ++i) {
    oracle.Append(oracle.Generate(i * kInitialDays / kInitialRows +
                                  oracle.rng().Uniform(0, 2)));
  }

  DbFiles files(cfg.data_dir + "/ingest_durable-" +
                std::to_string(::getpid()) + ".db");
  dynopt::DatabaseOptions options;
  options.path = files.path;
  options.pool_pages = kPoolPages;
  options.group_commit = true;
  auto check = [&](const dynopt::Status& st, const char* what) {
    if (!st.ok()) rep.Fail(std::string(what) + ": " + st.ToString());
    return st.ok();
  };
  auto created = dynopt::Database::Create(options);
  if (!check(created.status(), "Database::Create")) return rep;
  std::unique_ptr<dynopt::Database> db = std::move(*created);
  auto made = db->CreateTable("orders", OrdersOracle::TableSchema());
  if (!check(made.status(), "CreateTable")) return rep;
  dynopt::Table* table = *made;
  for (const auto& row : oracle.rows()) {
    if (!check(table->Insert(oracle.ToRecord(row)).status(), "Insert")) {
      return rep;
    }
  }
  for (const char* col : {"order_id", "customer", "day", "amount", "status"}) {
    if (!check(table->CreateIndex(std::string("by_") + col, {col}).status(),
               "CreateIndex")) {
      return rep;
    }
  }
  if (!check(db->Checkpoint(), "Checkpoint")) return rep;
  const double setup_s = SecondsSince(cfg.process_start);

  Tracer tracer(cfg.trace, 1);
  Latencies lat;
  QueryTally tally;
  WriteTally writes;
  uint64_t user_bytes = 0;
  Snapshot before, after;
  int64_t start_ns = 0, end_ns = 0;
  // The engines live in this block: they must not outlive the database,
  // which is closed and reopened below.
  {
    dynopt::DynamicRetrieval point(
        db.get(),
        Spec(table, Predicate::Compare(0, CompareOp::kEq, Operand::HostVar("id"))));
    dynopt::DynamicRetrieval range(
        db.get(), Spec(table, Predicate::Between(4, Operand::HostVar("lo"),
                                                 Operand::HostVar("hi"))));

    const std::string wal_path = files.path + ".wal";
    SplitMix rng(cfg.seed * 0xA24BAED4963EE407ull + 3);
    int64_t next_new_row = 0;

    auto read = [&](const char* type, dynopt::DynamicRetrieval* engine,
                    const dynopt::ParamMap& params, const RowFold& expected) {
      ScopedSpan span(&tracer, 0, type[0] == 'p' ? "query.point" : "query.range");
      RowFold got;
      int64_t t0 = NowNs();
      dynopt::Status st = RunRetrieval(engine, params, &tracer, 0, &tally, &got);
      int64_t t1 = NowNs();
      span.End();
      rep.attempted++;
      if (!st.ok()) {
        rep.failed++;
        std::fprintf(stderr, "operation failed: %s\n", st.ToString().c_str());
        return;
      }
      lat.Add(type, t1, static_cast<double>(t1 - t0) / 1e3, got.count);
      std::string err = CheckFold(type, expected, got);
      if (!err.empty()) rep.Fail(err);
    };

    before = Snapshot::Take(db.get());
    uint64_t wal_file_base = FileSize(wal_path);
    uint64_t wal_counter_base = before.Reg("wal.bytes");
    start_ns = NowNs();
    const int64_t deadline_ns = start_ns + static_cast<int64_t>(cfg.seconds * 1e9);
    while (NowNs() < deadline_ns) {
      for (int c = 0; c < kCommitsPerCheckpoint; ++c) {
        std::vector<OrdersOracle::Row> batch;
        for (int64_t i = 0; i < kBatchRows; ++i, ++next_new_row) {
          batch.push_back(oracle.Generate(kInitialDays + 3 +
                                          next_new_row / kRowsPerDay));
          // Generate numbers rows by the oracle's size; the batch is appended
          // only once committed, so number it here.
          batch.back().order_id = oracle.size() + i;
        }
        bool inserted = true;
        for (const auto& row : batch) {
          ScopedSpan span(&tracer, 0, "Table::Insert");
          auto rid = table->Insert(oracle.ToRecord(row));
          writes.insert_ns += span.End();
          writes.inserts++;
          if (!rid.ok()) {
            rep.Fail("Insert: " + rid.status().ToString());
            inserted = false;
            break;
          }
        }
        if (!inserted) return rep;
        ScopedSpan span(&tracer, 0, "Database::Commit");
        int64_t t0 = NowNs();
        dynopt::Status st = db->Commit();
        int64_t t1 = NowNs();
        int64_t commit_ns = t1 - t0;
        span.End();
        rep.attempted++;
        if (!st.ok()) {
          // Uncommitted rows stay in the table but are not acknowledged; the
          // reopen check below would then report them, so stop here.
          rep.failed++;
          rep.Fail("Commit: " + st.ToString());
          return rep;
        }
        writes.commits++;
        writes.commit_ns += commit_ns;
        lat.Add("commit", t1, static_cast<double>(commit_ns) / 1e3, 0);
        for (const auto& row : batch) {
          oracle.Append(row);
          user_bytes += oracle.UserBytes(row);
        }
        // The first read after a commit runs several times slower than the
        // next (the thread has slept through the fsync). The range read
        // always goes first, so each type sees one condition only and its
        // median does not sit between two modes.
        int64_t d = oracle.max_day();
        read("range", &range, {{"lo", Value(d)}, {"hi", Value(d)}},
             oracle.DayRange(d, d));
        for (int k = 0; k < 2; ++k) {
          int64_t id = batch[static_cast<size_t>(rng.Uniform(0, kBatchRows - 1))]
                           .order_id;
          read("point", &point, {{"id", Value(id)}}, oracle.Point(id));
        }
      }
      std::string err =
          CheckWalGrowth(db->metrics()->Value("wal.bytes") - wal_counter_base,
                         FileSize(wal_path) - wal_file_base);
      if (!err.empty()) rep.Fail(err);
      ScopedSpan span(&tracer, 0, "Database::Checkpoint");
      dynopt::Status st = db->Checkpoint();
      writes.checkpoint_ns += span.End();
      writes.checkpoints++;
      rep.attempted++;
      if (!st.ok()) {
        rep.failed++;
        rep.Fail("Checkpoint: " + st.ToString());
        return rep;
      }
      wal_file_base = FileSize(wal_path);
      wal_counter_base = db->metrics()->Value("wal.bytes");
    }
    end_ns = NowNs();
    after = Snapshot::Take(db.get());
  }

  // Durability: close, reopen, and find every acknowledged order.
  if (!check(db->Close(), "Close")) return rep;
  db.reset();
  {
    ScopedSpan span(&tracer, 0, "Database::Open");
    int64_t t0 = NowNs();
    auto reopened = dynopt::Database::Open(options);
    writes.open_s = static_cast<double>(NowNs() - t0) / 1e9;
    if (!check(reopened.status(), "Database::Open")) return rep;
    db = std::move(*reopened);
  }
  auto reloaded = db->GetTable("orders");
  if (!check(reloaded.status(), "GetTable")) return rep;
  if ((*reloaded)->record_count() != static_cast<uint64_t>(oracle.size())) {
    rep.Fail("record_count after reopen: expected " +
             std::to_string(oracle.size()) + ", got " +
             std::to_string((*reloaded)->record_count()));
  }
  RowFold expected, got;
  for (int64_t id = kInitialRows; id < oracle.size(); ++id) expected.Add(id);
  dynopt::DynamicRetrieval acked(
      db.get(), Spec(*reloaded, Predicate::Compare(0, CompareOp::kGe,
                                                   Operand::HostVar("first"))));
  QueryTally ignored;
  Tracer off(false, 1);
  if (check(RunRetrieval(&acked, {{"first", Value(kInitialRows)}}, &off, 0,
                         &ignored, &got),
            "reopen scan")) {
    std::string err = CheckFold("acknowledged orders after reopen", expected, got);
    if (!err.empty()) rep.Fail(err);
  }

  GateCommon(setup_s, start_ns, lat, &rep);
  const double window_s = static_cast<double>(end_ns - start_ns) / 1e9;
  std::vector<double> commit_ms = lat.Micros("commit");
  for (double& v : commit_ms) v /= 1e3;
  lat.Report("point", &rep);
  lat.Report("range", &rep);
  rep.Extra("commits_per_s", static_cast<double>(writes.commits) / window_s,
            "1/s");
  rep.Extra("commit_samples", static_cast<double>(commit_ms.size()), "count");
  rep.Extra("commit_p50_ms", Quantile(&commit_ms, 0.5), "ms");
  if (commit_ms.size() >= 1000) {
    rep.Extra("commit_p99_ms", Quantile(&commit_ms, 0.99), "ms");
  }
  rep.Extra("log_bytes_per_user_byte",
            static_cast<double>(after.Reg("wal.bytes") - before.Reg("wal.bytes")) /
                static_cast<double>(user_bytes),
            "B/B");
  rep.Extra("checkpoints", static_cast<double>(writes.checkpoints), "count");
  rep.Extra("data_pages", static_cast<double>(db->page_count()), "pages");
  rep.Extra("pool_pages", static_cast<double>(kPoolPages), "pages");
  if (cfg.trace) {
    FillLayers(before, after, db->cost_weights(), tally, writes, &rep);
    tracer.WriteChromeJson(cfg.out_dir + "/trace-ingest_durable-seed" +
                           std::to_string(cfg.seed) + ".json");
  }
  return rep;
}

}  // namespace perfbench
