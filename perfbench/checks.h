// The benchmark's independent path to correct answers.
//
// Each oracle keeps its own copy of the rows the benchmark generated and
// answers every query shape by plain evaluation over that copy (sorted
// arrays and prefix sums, never the engine's indexes). The Check*
// functions compare an engine result against the oracle's answer and
// return an empty string when they agree, else what differed; the
// self-test feeds them results made wrong on purpose.

#ifndef DYNOPT_PERFBENCH_CHECKS_H_
#define DYNOPT_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "catalog/table.h"
#include "harness.h"

namespace perfbench {

std::string CheckFold(std::string_view what, const RowFold& expected,
                      const RowFold& got);
std::string CheckCount(std::string_view what, int64_t expected, int64_t got);
/// `rows` are (day, amount) in delivery order of
/// `WHERE amount >= floor ORDER BY day LIMIT k`: they must ascend on day,
/// each must satisfy the predicate, and the day keys must equal the
/// oracle's k smallest (rows tied on day may legitimately differ).
std::string CheckTopK(std::string_view what,
                      const std::vector<std::pair<int64_t, int64_t>>& rows,
                      int64_t amount_floor,
                      const std::vector<int64_t>& oracle_days);
/// The WAL's byte counter against the log file's growth seen by stat.
std::string CheckWalGrowth(uint64_t counter_bytes, uint64_t file_growth);

/// FAMILIES(id, age, income, city): id dense from 0, age uniform 0..99,
/// income uniform 0..200000, city one of 50.
class FamiliesOracle {
 public:
  struct Row {
    int64_t id;
    int64_t age;
    int64_t income;
    int64_t city;
  };
  static dynopt::Schema TableSchema();
  FamiliesOracle(uint64_t seed, int64_t rows);
  const std::vector<Row>& rows() const { return rows_; }
  static dynopt::Record ToRecord(const Row& r);

  RowFold Point(int64_t id) const;
  /// age BETWEEN lo AND hi AND income < cap.
  RowFold Range(int64_t lo, int64_t hi, int64_t cap) const;

 private:
  std::vector<Row> rows_;
  // Per age: (income, Mix64(id)) ascending, and prefix sums of the mixes.
  std::vector<std::vector<std::pair<int64_t, uint64_t>>> by_age_;
  std::vector<std::vector<uint64_t>> prefix_;
};

/// ORDERS(order_id, customer, amount, status, day, payload): order_id
/// dense, customer Zipf over 10000, amount uniform 1..100000, status one
/// of six (Zipf), day rising with physical order, fixed-width payload.
class OrdersOracle {
 public:
  struct Row {
    int64_t order_id;
    int64_t customer;
    int64_t amount;
    int64_t status;
    int64_t day;
  };
  static constexpr int64_t kCustomers = 10000;
  static constexpr int64_t kStatuses = 6;
  static dynopt::Schema TableSchema();

  OrdersOracle(uint64_t seed, size_t payload_bytes);
  /// Generates the next row; `day` is chosen by the caller (the workloads
  /// cluster it with physical order).
  Row Generate(int64_t day);
  /// Adds a row the engine acknowledged (inserted and, when durable,
  /// committed).
  void Append(const Row& r);
  dynopt::Record ToRecord(const Row& r) const;
  /// Bytes of user data in one row: 8 per integer column plus the strings.
  size_t UserBytes(const Row& r) const;
  /// Builds the customer and status-by-day indexes over the rows so far
  /// (the read-only workload calls it once after loading).
  void Freeze();

  int64_t size() const { return static_cast<int64_t>(rows_.size()); }
  const std::vector<Row>& rows() const { return rows_; }
  int64_t max_day() const { return max_day_; }
  SplitMix& rng() { return rng_; }

  RowFold Point(int64_t order_id) const;
  /// day BETWEEN lo AND hi (rows keyed by order_id).
  RowFold DayRange(int64_t lo, int64_t hi) const;
  /// COUNT WHERE customer = c AND amount >= floor (needs Freeze).
  int64_t CountCustomer(int64_t customer, int64_t floor) const;
  /// COUNT WHERE day BETWEEN lo AND hi AND status = s (needs Freeze).
  int64_t CountDayStatus(int64_t lo, int64_t hi, int64_t status) const;
  /// The k smallest day keys among rows with amount >= floor, ascending.
  std::vector<int64_t> TopKDays(int64_t floor, size_t k) const;

 private:
  SplitMix rng_;
  Zipf customer_zipf_;
  Zipf status_zipf_;
  size_t payload_bytes_;
  std::vector<Row> rows_;
  int64_t max_day_ = 0;
  // Row indexes per day, in physical order (days only grow, so appends
  // keep every list sorted).
  std::vector<std::vector<uint32_t>> by_day_;
  // Built by Freeze: per customer, amounts ascending; per day, count per
  // status.
  std::vector<std::vector<int64_t>> amounts_by_customer_;
  std::vector<std::vector<int64_t>> status_by_day_;
};

}  // namespace perfbench

#endif  // DYNOPT_PERFBENCH_CHECKS_H_
