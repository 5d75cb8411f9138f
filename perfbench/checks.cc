#include "checks.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace perfbench {

namespace {

std::string Format(std::string_view what, const char* fmt, int64_t a,
                   int64_t b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, static_cast<long long>(a),
                static_cast<long long>(b));
  return std::string(what) + ": " + buf;
}

}  // namespace

std::string CheckFold(std::string_view what, const RowFold& expected,
                      const RowFold& got) {
  if (expected.count != got.count) {
    return Format(what, "expected %lld rows, got %lld",
                  static_cast<int64_t>(expected.count),
                  static_cast<int64_t>(got.count));
  }
  if (expected.sum != got.sum) {
    return std::string(what) + ": row count matches but row checksum differs";
  }
  return {};
}

std::string CheckCount(std::string_view what, int64_t expected, int64_t got) {
  if (expected == got) return {};
  return Format(what, "expected COUNT %lld, got %lld", expected, got);
}

std::string CheckTopK(std::string_view what,
                      const std::vector<std::pair<int64_t, int64_t>>& rows,
                      int64_t amount_floor,
                      const std::vector<int64_t>& oracle_days) {
  if (rows.size() != oracle_days.size()) {
    return Format(what, "expected %lld rows, got %lld",
                  static_cast<int64_t>(oracle_days.size()),
                  static_cast<int64_t>(rows.size()));
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0 && rows[i].first < rows[i - 1].first) {
      return Format(what, "day descends at row %lld (day %lld)",
                    static_cast<int64_t>(i), rows[i].first);
    }
    if (rows[i].second < amount_floor) {
      return Format(what, "row %lld has amount %lld below the floor",
                    static_cast<int64_t>(i), rows[i].second);
    }
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].first != oracle_days[i]) {
      return Format(what, "day key %lld differs from the oracle's %lld",
                    rows[i].first, oracle_days[i]);
    }
  }
  return {};
}

std::string CheckWalGrowth(uint64_t counter_bytes, uint64_t file_growth) {
  if (counter_bytes == file_growth) return {};
  return Format("wal.bytes", "counter says %lld bytes, file grew %lld",
                static_cast<int64_t>(counter_bytes),
                static_cast<int64_t>(file_growth));
}

// ---------------------------------------------------------------- FAMILIES

dynopt::Schema FamiliesOracle::TableSchema() {
  using dynopt::ValueType;
  return dynopt::Schema({{"id", ValueType::kInt64},
                         {"age", ValueType::kInt64},
                         {"income", ValueType::kInt64},
                         {"city", ValueType::kString}});
}

FamiliesOracle::FamiliesOracle(uint64_t seed, int64_t rows)
    : by_age_(100), prefix_(100) {
  SplitMix rng(seed * 0x2545F4914F6CDD1Dull + 11);
  rows_.reserve(static_cast<size_t>(rows));
  for (int64_t id = 0; id < rows; ++id) {
    Row r{id, rng.Uniform(0, 99), rng.Uniform(0, 200000), rng.Uniform(0, 49)};
    rows_.push_back(r);
    by_age_[static_cast<size_t>(r.age)].push_back(
        {r.income, Mix64(static_cast<uint64_t>(id))});
  }
  for (size_t a = 0; a < by_age_.size(); ++a) {
    std::sort(by_age_[a].begin(), by_age_[a].end());
    prefix_[a].assign(by_age_[a].size() + 1, 0);
    for (size_t i = 0; i < by_age_[a].size(); ++i) {
      prefix_[a][i + 1] = prefix_[a][i] + by_age_[a][i].second;
    }
  }
}

dynopt::Record FamiliesOracle::ToRecord(const Row& r) {
  return {dynopt::Value(r.id), dynopt::Value(r.age), dynopt::Value(r.income),
          dynopt::Value("city" + std::to_string(r.city))};
}

RowFold FamiliesOracle::Point(int64_t id) const {
  RowFold f;
  if (id >= 0 && id < static_cast<int64_t>(rows_.size())) f.Add(id);
  return f;
}

RowFold FamiliesOracle::Range(int64_t lo, int64_t hi, int64_t cap) const {
  RowFold f;
  for (int64_t a = std::max<int64_t>(lo, 0); a <= std::min<int64_t>(hi, 99);
       ++a) {
    const auto& v = by_age_[static_cast<size_t>(a)];
    size_t n = static_cast<size_t>(
        std::lower_bound(v.begin(), v.end(),
                         std::pair<int64_t, uint64_t>(cap, 0)) -
        v.begin());
    f.count += n;
    f.sum += prefix_[static_cast<size_t>(a)][n];
  }
  return f;
}

// ------------------------------------------------------------------ ORDERS

dynopt::Schema OrdersOracle::TableSchema() {
  using dynopt::ValueType;
  return dynopt::Schema({{"order_id", ValueType::kInt64},
                         {"customer", ValueType::kInt64},
                         {"amount", ValueType::kInt64},
                         {"status", ValueType::kString},
                         {"day", ValueType::kInt64},
                         {"payload", ValueType::kString}});
}

OrdersOracle::OrdersOracle(uint64_t seed, size_t payload_bytes)
    : rng_(seed * 0x9E3779B97F4A7C15ull + 29),
      customer_zipf_(kCustomers, 1.0),
      status_zipf_(kStatuses, 1.0),
      payload_bytes_(payload_bytes) {}

OrdersOracle::Row OrdersOracle::Generate(int64_t day) {
  Row r;
  r.order_id = static_cast<int64_t>(rows_.size());
  r.customer = static_cast<int64_t>(customer_zipf_.Next(rng_));
  r.amount = rng_.Uniform(1, 100000);
  r.status = static_cast<int64_t>(status_zipf_.Next(rng_));
  r.day = day;
  return r;
}

void OrdersOracle::Append(const Row& r) {
  if (r.day >= static_cast<int64_t>(by_day_.size())) {
    by_day_.resize(static_cast<size_t>(r.day) + 1);
  }
  by_day_[static_cast<size_t>(r.day)].push_back(
      static_cast<uint32_t>(rows_.size()));
  rows_.push_back(r);
  max_day_ = std::max(max_day_, r.day);
}

dynopt::Record OrdersOracle::ToRecord(const Row& r) const {
  std::string payload(payload_bytes_, 'a');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + (r.order_id + static_cast<int64_t>(i)) % 26);
  }
  return {dynopt::Value(r.order_id), dynopt::Value(r.customer),
          dynopt::Value(r.amount),
          dynopt::Value("st" + std::to_string(r.status)),
          dynopt::Value(r.day), dynopt::Value(std::move(payload))};
}

size_t OrdersOracle::UserBytes(const Row& r) const {
  return 4 * sizeof(int64_t) + 2 + std::to_string(r.status).size() +
         payload_bytes_;
}

void OrdersOracle::Freeze() {
  amounts_by_customer_.assign(kCustomers, {});
  status_by_day_.assign(by_day_.size(), std::vector<int64_t>(kStatuses, 0));
  for (const Row& r : rows_) {
    amounts_by_customer_[static_cast<size_t>(r.customer)].push_back(r.amount);
    status_by_day_[static_cast<size_t>(r.day)][static_cast<size_t>(r.status)]++;
  }
  for (auto& v : amounts_by_customer_) std::sort(v.begin(), v.end());
}

RowFold OrdersOracle::Point(int64_t order_id) const {
  RowFold f;
  if (order_id >= 0 && order_id < size()) f.Add(order_id);
  return f;
}

RowFold OrdersOracle::DayRange(int64_t lo, int64_t hi) const {
  RowFold f;
  for (int64_t d = std::max<int64_t>(lo, 0);
       d <= hi && d < static_cast<int64_t>(by_day_.size()); ++d) {
    for (uint32_t i : by_day_[static_cast<size_t>(d)]) f.Add(rows_[i].order_id);
  }
  return f;
}

int64_t OrdersOracle::CountCustomer(int64_t customer, int64_t floor) const {
  const auto& v = amounts_by_customer_[static_cast<size_t>(customer)];
  return static_cast<int64_t>(
      v.end() - std::lower_bound(v.begin(), v.end(), floor));
}

int64_t OrdersOracle::CountDayStatus(int64_t lo, int64_t hi,
                                     int64_t status) const {
  int64_t n = 0;
  for (int64_t d = std::max<int64_t>(lo, 0);
       d <= hi && d < static_cast<int64_t>(status_by_day_.size()); ++d) {
    n += status_by_day_[static_cast<size_t>(d)][static_cast<size_t>(status)];
  }
  return n;
}

std::vector<int64_t> OrdersOracle::TopKDays(int64_t floor, size_t k) const {
  std::vector<int64_t> days;
  for (size_t d = 0; d < by_day_.size() && days.size() < k; ++d) {
    for (uint32_t i : by_day_[d]) {
      if (rows_[i].amount >= floor) {
        days.push_back(static_cast<int64_t>(d));
        if (days.size() == k) break;
      }
    }
  }
  return days;
}

}  // namespace perfbench
