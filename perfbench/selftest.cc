// Shows that every correctness check of the benchmark can fail: real
// engine results over small tables pass the checks, and the same results
// made wrong on purpose (a dropped row, a substituted row, a swapped
// order, a short count, a WAL byte miscount) are reported as incorrect.
//
//   python3 perfbench/run.py --selftest

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "harness.h"

namespace {

using namespace perfbench;
using dynopt::CompareOp;
using dynopt::Operand;
using dynopt::Predicate;
using dynopt::Value;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) failures++;
}
void ExpectPass(const std::string& err, const std::string& what) {
  Expect(err.empty(), what + (err.empty() ? "" : " (" + err + ")"));
}
void ExpectCaught(const std::string& err, const std::string& what) {
  Expect(!err.empty(), what + (err.empty() ? " was NOT caught" : " caught: " + err));
}

std::vector<int64_t> Keys(dynopt::DynamicRetrieval* engine,
                          const dynopt::ParamMap& params) {
  std::vector<int64_t> keys;
  if (!engine->Open(params).ok()) return keys;
  dynopt::OutputRow row;
  while (true) {
    auto more = engine->Next(&row);
    if (!more.ok() || !*more) break;
    keys.push_back(row.values[0].AsInt64());
  }
  return keys;
}

RowFold Fold(const std::vector<int64_t>& keys) {
  RowFold f;
  for (int64_t k : keys) f.Add(k);
  return f;
}

void FamiliesChecks() {
  FamiliesOracle oracle(7, 3000);
  dynopt::Database db;
  dynopt::Table* t = *db.CreateTable("families", FamiliesOracle::TableSchema());
  for (const auto& r : oracle.rows()) (void)t->Insert(FamiliesOracle::ToRecord(r));
  (void)t->CreateIndex("by_age", {"age"});
  dynopt::RetrievalSpec spec;
  spec.table = t;
  spec.restriction = Predicate::And(
      {Predicate::Between(1, Operand::HostVar("lo"), Operand::HostVar("hi")),
       Predicate::Compare(2, CompareOp::kLt, Operand::HostVar("cap"))});
  spec.projection = {0, 1, 2};
  dynopt::DynamicRetrieval engine(&db, spec);
  std::vector<int64_t> keys = Keys(
      &engine, {{"lo", Value(int64_t{20})}, {"hi", Value(int64_t{30})},
                {"cap", Value(int64_t{150000})}});
  RowFold expected = oracle.Range(20, 30, 150000);
  ExpectPass(CheckFold("range", expected, Fold(keys)), "range result matches");
  Expect(keys.size() > 2, "range returns rows to corrupt");

  std::vector<int64_t> dropped(keys.begin(), keys.end() - 1);
  ExpectCaught(CheckFold("range", expected, Fold(dropped)), "dropped row");
  std::vector<int64_t> duplicated = keys;
  duplicated.push_back(keys.front());
  ExpectCaught(CheckFold("range", expected, Fold(duplicated)), "duplicated row");
  // Replace one row by a table row the range does not contain.
  std::vector<int64_t> substituted = keys;
  for (const auto& r : oracle.rows()) {
    if (r.age > 30) {
      substituted[0] = r.id;
      break;
    }
  }
  ExpectCaught(CheckFold("range", expected, Fold(substituted)),
               "substituted row (same count)");
  ExpectCaught(CheckFold("point", oracle.Point(5), Fold({})), "missed point row");
  ExpectCaught(CheckFold("point", oracle.Point(3000 + 5), Fold({5})),
               "phantom row past the table");
}

void OrdersChecks() {
  OrdersOracle oracle(11, 16);
  for (int64_t i = 0; i < 4000; ++i) {
    oracle.Append(oracle.Generate(i * 40 / 4000 + oracle.rng().Uniform(0, 2)));
  }
  oracle.Freeze();
  dynopt::Database db;
  dynopt::Table* t = *db.CreateTable("orders", OrdersOracle::TableSchema());
  for (const auto& r : oracle.rows()) (void)t->Insert(oracle.ToRecord(r));
  for (const char* col : {"customer", "day", "amount"}) {
    (void)t->CreateIndex(std::string("by_") + col, {col});
  }

  dynopt::RetrievalSpec topk;
  topk.table = t;
  topk.restriction = Predicate::Compare(2, CompareOp::kGe, Operand::HostVar("x"));
  topk.projection = {4, 2};
  topk.order_by_column = 4;
  PlanQuery limit = PlanQuery::Limit(&db, topk, 20);
  limit.params() = {{"x", Value(int64_t{60000})}};
  Tracer off(false, 1);
  QueryTally tally;
  std::vector<std::vector<Value>> out;
  Expect(limit.Run(&off, 0, &tally, &out).ok(), "top-k runs");
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (const auto& r : out) rows.emplace_back(r[0].AsInt64(), r[1].AsInt64());
  std::vector<int64_t> days = oracle.TopKDays(60000, 20);
  ExpectPass(CheckTopK("topk", rows, 60000, days), "top-k result matches");

  auto swapped = rows;
  // Swap the first row with the first row of a later day.
  for (size_t i = 1; i < swapped.size(); ++i) {
    if (swapped[i].first != swapped[0].first) {
      std::swap(swapped[0], swapped[i]);
      break;
    }
  }
  ExpectCaught(CheckTopK("topk", swapped, 60000, days), "swapped order");
  auto short_rows = rows;
  short_rows.pop_back();
  ExpectCaught(CheckTopK("topk", short_rows, 60000, days), "dropped top-k row");
  auto below = rows;
  below.back().second = 59999;
  ExpectCaught(CheckTopK("topk", below, 60000, days), "row failing the predicate");
  auto later = rows;
  later.back().first += 50;
  ExpectCaught(CheckTopK("topk", later, 60000, days),
               "a row that is not among the k smallest days");

  dynopt::RetrievalSpec agg;
  agg.table = t;
  agg.restriction = Predicate::And(
      {Predicate::Compare(1, CompareOp::kEq, Operand::HostVar("c")),
       Predicate::Compare(2, CompareOp::kGe, Operand::HostVar("f"))});
  agg.projection = {0};
  PlanQuery count = PlanQuery::Count(&db, agg);
  count.params() = {{"c", Value(int64_t{0})}, {"f", Value(int64_t{20000})}};
  Expect(count.Run(&off, 0, &tally, &out).ok() && out.size() == 1,
         "COUNT runs");
  int64_t got = out.empty() ? -1 : out[0][0].AsInt64();
  int64_t want = oracle.CountCustomer(0, 20000);
  Expect(want > 0, "COUNT has rows to miss");
  ExpectPass(CheckCount("count", want, got), "COUNT matches");
  ExpectCaught(CheckCount("count", want, got - 1), "short count");
  ExpectCaught(CheckCount("count", oracle.CountDayStatus(3, 5, 0), got),
               "count of another predicate");
}

void WalChecks() {
  ExpectPass(CheckWalGrowth(123456, 123456), "WAL counter equals file growth");
  ExpectCaught(CheckWalGrowth(123456, 123456 + 32), "WAL record missed by counter");
}

}  // namespace

int main() {
  FamiliesChecks();
  OrdersChecks();
  WalChecks();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
