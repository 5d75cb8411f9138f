// analytics_cold: file-backed ORDERS reopened with a buffer pool that is a
// small fraction of the data, so every query pays buffer-pool misses and
// evictions (the data itself stays in the OS page cache). One session
// runs rounds of five shapes:
//
//   topk   ORDER BY day LIMIT 20 WHERE amount >= :x    (fast-first, Sorted)
//   agg    COUNT WHERE customer = :c AND amount >= :f  (Jscan RID lists)
//   agg    COUNT WHERE day BETWEEN :lo AND :hi AND status = :s
//   point  order_id = :id                               (drill-down)
//   range  day = :d, order_id and amount out            (one day's orders)
//
// This is the §3(c) case oltp_mix bypasses: the cache is smaller than the
// data, B-tree node reads, Jscan and competition dominate, and few rows
// leave the plan.

#include <unistd.h>

#include <cstdio>

#include "checks.h"
#include "harness.h"

namespace perfbench {

namespace {

constexpr int64_t kRows = 400000;
constexpr size_t kPayloadBytes = 200;
constexpr int64_t kDays = 365;
constexpr size_t kLoadPoolPages = 4096;
constexpr int64_t kRowsPerCheckpoint = 25000;
constexpr size_t kColdPoolPages = 256;
constexpr uint64_t kTopK = 20;
constexpr int kWarmupRounds = 5;

struct Shapes {
  PlanQuery topk;
  PlanQuery agg_customer;
  PlanQuery agg_day;
  dynopt::DynamicRetrieval point;
  dynopt::DynamicRetrieval range;
};

dynopt::RetrievalSpec Spec(dynopt::Table* t, dynopt::PredicateRef restriction,
                           std::vector<uint32_t> projection) {
  dynopt::RetrievalSpec s;
  s.table = t;
  s.restriction = std::move(restriction);
  s.projection = std::move(projection);
  return s;
}

/// One stratified stream per query parameter (see Strata).
struct Draws {
  explicit Draws(uint64_t seed)
      : x(seed * 8 + 1), customer(seed * 8 + 2), floor(seed * 8 + 3),
        lo(seed * 8 + 4), width(seed * 8 + 5), status(seed * 8 + 6),
        id(seed * 8 + 7), day(seed * 8 + 8) {}
  Strata x, customer, floor, lo, width, status, id, day;
};

/// Uniform integer in [lo, hi] from a stratified stream.
int64_t Pick(Strata& s, int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(s.Next() * static_cast<double>(hi - lo + 1));
}

struct Window {
  Latencies lat;
  QueryTally tally;
};

/// One round of the five shapes, each checked against the oracle.
void RunRound(const OrdersOracle& oracle, const Zipf& customers,
              Draws& draws, Shapes* q, Tracer* tracer, Window* w,
              Report* rep) {
  using dynopt::Value;
  std::vector<std::vector<Value>> out;
  // Runs one query, then records its latency and the rows it returned.
  auto timed = [&](const char* type, const char* span_name, auto&& run,
                   auto&& rows) {
    ScopedSpan span(tracer, 0, span_name);
    int64_t t0 = NowNs();
    dynopt::Status st = run();
    int64_t t1 = NowNs();
    span.End();
    rep->attempted++;
    if (!st.ok()) {
      rep->failed++;
      std::fprintf(stderr, "operation failed: %s\n", st.ToString().c_str());
      return false;
    }
    w->lat.Add(type, t1, static_cast<double>(t1 - t0) / 1e3, rows());
    return true;
  };
  auto out_rows = [&] { return static_cast<uint64_t>(out.size()); };
  auto count_of = [&]() -> int64_t {
    return out.size() == 1 && !out[0].empty() && out[0][0].is_int64()
               ? out[0][0].AsInt64()
               : -1;
  };

  int64_t x = Pick(draws.x, 0, 99000);
  q->topk.params() = {{"x", Value(x)}};
  if (timed("topk", "query.topk",
            [&] { return q->topk.Run(tracer, 0, &w->tally, &out); },
            out_rows)) {
    std::vector<std::pair<int64_t, int64_t>> rows;
    for (const auto& r : out) rows.emplace_back(r[0].AsInt64(), r[1].AsInt64());
    std::string err = CheckTopK("topk", rows, x, oracle.TopKDays(x, kTopK));
    if (!err.empty()) rep->Fail(err);
  }

  int64_t c = static_cast<int64_t>(customers.At(draws.customer.Next()));
  int64_t f = Pick(draws.floor, 1, 100000);
  q->agg_customer.params() = {{"c", Value(c)}, {"f", Value(f)}};
  if (timed("agg", "query.agg_customer",
            [&] { return q->agg_customer.Run(tracer, 0, &w->tally, &out); },
            out_rows)) {
    std::string err =
        CheckCount("agg_customer", oracle.CountCustomer(c, f), count_of());
    if (!err.empty()) rep->Fail(err);
  }

  int64_t lo = Pick(draws.lo, 0, kDays - 5);
  int64_t hi = lo + Pick(draws.width, 0, 4);
  int64_t s = Pick(draws.status, 0, OrdersOracle::kStatuses - 1);
  q->agg_day.params() = {{"lo", Value(lo)},
                         {"hi", Value(hi)},
                         {"s", Value("st" + std::to_string(s))}};
  if (timed("agg", "query.agg_day",
            [&] { return q->agg_day.Run(tracer, 0, &w->tally, &out); },
            out_rows)) {
    std::string err =
        CheckCount("agg_day", oracle.CountDayStatus(lo, hi, s), count_of());
    if (!err.empty()) rep->Fail(err);
  }

  int64_t id = Pick(draws.id, 0, kRows - 1);
  RowFold got;
  if (timed("point", "query.point", [&] {
        return RunRetrieval(&q->point, {{"id", Value(id)}}, tracer, 0,
                            &w->tally, &got);
      }, [&] { return got.count; })) {
    std::string err = CheckFold("point", oracle.Point(id), got);
    if (!err.empty()) rep->Fail(err);
  }

  int64_t d = Pick(draws.day, 0, kDays - 1);
  got = RowFold();
  if (timed("range", "query.range", [&] {
        return RunRetrieval(&q->range, {{"lo", Value(d)}, {"hi", Value(d)}},
                            tracer, 0, &w->tally, &got);
      }, [&] { return got.count; })) {
    std::string err = CheckFold("range", oracle.DayRange(d, d), got);
    if (!err.empty()) rep->Fail(err);
  }
}

}  // namespace

Report RunAnalyticsCold(const RunConfig& cfg) {
  Report rep;
  OrdersOracle oracle(cfg.seed, kPayloadBytes);
  for (int64_t i = 0; i < kRows; ++i) {
    oracle.Append(oracle.Generate(i * kDays / kRows + oracle.rng().Uniform(0, 2)));
  }
  oracle.Freeze();

  DbFiles files(cfg.data_dir + "/analytics_cold-" +
                std::to_string(::getpid()) + ".db");
  dynopt::DatabaseOptions options;
  options.path = files.path;
  options.pool_pages = kLoadPoolPages;
  auto check = [&](const dynopt::Status& st, const char* what) {
    if (!st.ok()) rep.Fail(std::string(what) + ": " + st.ToString());
    return st.ok();
  };
  {
    auto db = dynopt::Database::Create(options);
    if (!check(db.status(), "Database::Create")) return rep;
    auto table = (*db)->CreateTable("orders", OrdersOracle::TableSchema());
    if (!check(table.status(), "CreateTable")) return rep;
    // The pool is no-steal: pages dirtied since the last commit cannot be
    // evicted, so the load checkpoints as it goes.
    for (const auto& row : oracle.rows()) {
      if (!check((*table)->Insert(oracle.ToRecord(row)).status(), "Insert")) {
        return rep;
      }
      if ((row.order_id + 1) % kRowsPerCheckpoint == 0 &&
          !check((*db)->Checkpoint(), "Checkpoint")) {
        return rep;
      }
    }
    for (const char* col : {"order_id", "customer", "day", "amount", "status"}) {
      if (!check((*table)->CreateIndex(std::string("by_") + col, {col}).status(),
                 "CreateIndex") ||
          !check((*db)->Checkpoint(), "Checkpoint")) {
        return rep;
      }
    }
    if (!check((*db)->Close(), "Close")) return rep;
  }

  options.pool_pages = kColdPoolPages;
  WriteTally writes;
  const int64_t open_t0 = NowNs();
  auto db = dynopt::Database::Open(options);
  writes.open_s = static_cast<double>(NowNs() - open_t0) / 1e9;
  if (!check(db.status(), "Database::Open")) return rep;
  auto table = (*db)->GetTable("orders");
  if (!check(table.status(), "GetTable")) return rep;
  const double data_pages = static_cast<double>((*db)->page_count());
  const double setup_s = SecondsSince(cfg.process_start);

  using dynopt::CompareOp;
  using dynopt::Operand;
  using dynopt::Predicate;
  dynopt::Table* t = *table;
  dynopt::RetrievalSpec topk = Spec(
      t, Predicate::Compare(2, CompareOp::kGe, Operand::HostVar("x")), {4, 2});
  topk.order_by_column = 4;
  Shapes shapes{
      PlanQuery::Limit(db->get(), topk, kTopK),
      PlanQuery::Count(
          db->get(),
          Spec(t,
               Predicate::And(
                   {Predicate::Compare(1, CompareOp::kEq, Operand::HostVar("c")),
                    Predicate::Compare(2, CompareOp::kGe,
                                       Operand::HostVar("f"))}),
               {0})),
      PlanQuery::Count(
          db->get(),
          Spec(t,
               Predicate::And(
                   {Predicate::Between(4, Operand::HostVar("lo"),
                                       Operand::HostVar("hi")),
                    Predicate::Compare(3, CompareOp::kEq,
                                       Operand::HostVar("s"))}),
               {0})),
      dynopt::DynamicRetrieval(
          db->get(),
          Spec(t, Predicate::Compare(0, CompareOp::kEq, Operand::HostVar("id")),
               {0, 2})),
      dynopt::DynamicRetrieval(
          db->get(), Spec(t,
                          Predicate::Between(4, Operand::HostVar("lo"),
                                             Operand::HostVar("hi")),
                          {0, 2})),
  };

  Zipf customers(OrdersOracle::kCustomers, 1.0);
  Draws draws(cfg.seed);
  Tracer off(false, 1);
  Window warm;
  Report warm_rep;
  for (int i = 0; i < kWarmupRounds; ++i) {
    RunRound(oracle, customers, draws, &shapes, &off, &warm, &warm_rep);
  }
  for (const auto& e : warm_rep.errors) rep.Fail("warm-up " + e);

  Tracer tracer(cfg.trace, 1);
  Window w;
  Snapshot before = Snapshot::Take(db->get());
  const int64_t start_ns = NowNs();
  const int64_t deadline_ns = start_ns + static_cast<int64_t>(cfg.seconds * 1e9);
  while (NowNs() < deadline_ns) {
    ScopedSpan round(&tracer, 0, "round");
    RunRound(oracle, customers, draws, &shapes, &tracer, &w, &rep);
  }
  Snapshot after = Snapshot::Take(db->get());

  GateCommon(setup_s, start_ns, w.lat, &rep);
  for (const char* type : {"topk", "agg", "point", "range"}) {
    w.lat.Report(type, &rep);
  }
  rep.Extra("data_pages", data_pages, "pages");
  rep.Extra("pool_pages", static_cast<double>(kColdPoolPages), "pages");
  if (cfg.trace) {
    FillLayers(before, after, (*db)->cost_weights(), w.tally, writes, &rep);
    tracer.WriteChromeJson(cfg.out_dir + "/trace-analytics_cold-seed" +
                           std::to_string(cfg.seed) + ".json");
  }
  return rep;
}

}  // namespace perfbench
