#include "src/util/histogram.h"

#include <cmath>
#include <cstdio>

#include "src/util/json_writer.h"

namespace pipelsm {

namespace {
// Geometric bucket limits: starts at 1, grows ~20% per bucket, always
// advancing by at least 1. 154 buckets covers ~[1, 1e12].
struct BucketTable {
  double limits[Histogram::kNumBuckets_];
  BucketTable() {
    double v = 1;
    for (int i = 0; i < Histogram::kNumBuckets_; i++) {
      limits[i] = v;
      double next = v * 1.2;
      if (next < v + 1) next = v + 1;
      v = next;
    }
  }
};
const BucketTable kTable;
}  // namespace

void Histogram::Clear() {
  min_ = kTable.limits[kNumBuckets_ - 1];
  max_ = 0;
  num_ = 0;
  sum_ = 0;
  sum_squares_ = 0;
  for (int i = 0; i < kNumBuckets_; i++) {
    buckets_[i] = 0;
  }
}

void Histogram::Add(double value) {
  int b = 0;
  while (b < kNumBuckets_ - 1 && kTable.limits[b] <= value) {
    b++;
  }
  buckets_[b] += 1.0;
  if (min_ > value) min_ = value;
  if (max_ < value) max_ = value;
  num_++;
  sum_ += value;
  sum_squares_ += (value * value);
}

void Histogram::Merge(const Histogram& other) {
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  num_ += other.num_;
  sum_ += other.sum_;
  sum_squares_ += other.sum_squares_;
  for (int b = 0; b < kNumBuckets_; b++) {
    buckets_[b] += other.buckets_[b];
  }
}

double Histogram::Median() const { return Percentile(50.0); }

double Histogram::Percentile(double p) const {
  // Empty: every bucket matches threshold 0 and the result would clamp
  // up to the min_ sentinel (the top bucket limit, ~1e12). Report 0.
  if (num_ == 0.0) return 0;
  // One sample: interpolation inside its bucket is meaningless spread;
  // the only defensible percentile is the sample itself.
  if (num_ == 1.0) return max_;
  double threshold = num_ * (p / 100.0);
  double sum = 0;
  for (int b = 0; b < kNumBuckets_; b++) {
    sum += buckets_[b];
    if (sum >= threshold) {
      // Linear interpolation within this bucket.
      double left_point = (b == 0) ? 0 : kTable.limits[b - 1];
      double right_point = kTable.limits[b];
      double left_sum = sum - buckets_[b];
      double right_sum = sum;
      double pos = 0;
      double right_left = right_sum - left_sum;
      if (right_left > 0) {
        pos = (threshold - left_sum) / right_left;
      }
      double r = left_point + (right_point - left_point) * pos;
      if (r < min_) r = min_;
      if (r > max_) r = max_;
      return r;
    }
  }
  return max_;
}

double Histogram::Average() const {
  if (num_ == 0.0) return 0;
  return sum_ / num_;
}

double Histogram::StandardDeviation() const {
  if (num_ == 0.0) return 0;
  double variance = (sum_squares_ * num_ - sum_ * sum_) / (num_ * num_);
  return std::sqrt(variance > 0 ? variance : 0);
}

void Histogram::SummaryToJson(std::string* out) const {
  JsonWriter w(out);
  w.BeginObject().Key("count").Double(num_, 0);
  w.Key("avg").Double(Average(), 3).Key("p50").Double(Median(), 3);
  w.Key("p95").Double(Percentile(95), 3).Key("p99").Double(Percentile(99), 3);
  w.Key("max").Double(num_ > 0 ? max_ : 0.0, 3).EndObject();
}

std::vector<std::pair<double, uint64_t>> Histogram::NonzeroBuckets() const {
  std::vector<std::pair<double, uint64_t>> out;
  for (int b = 0; b < kNumBuckets_; b++) {
    if (buckets_[b] > 0) {
      out.emplace_back(kTable.limits[b], static_cast<uint64_t>(buckets_[b]));
    }
  }
  return out;
}

std::string Histogram::ToString() const {
  std::string r;
  char buf[200];
  std::snprintf(buf, sizeof(buf), "Count: %.0f  Average: %.4f  StdDev: %.2f\n",
                num_, Average(), StandardDeviation());
  r.append(buf);
  std::snprintf(buf, sizeof(buf),
                "Min: %.4f  Median: %.4f  P95: %.4f  P99: %.4f  Max: %.4f\n",
                (num_ == 0.0 ? 0.0 : min_), Median(), Percentile(95),
                Percentile(99), max_);
  r.append(buf);
  return r;
}

}  // namespace pipelsm
