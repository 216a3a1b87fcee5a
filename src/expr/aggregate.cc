#include "src/expr/aggregate.h"

#include "src/common/logging.h"

namespace iceberg {

bool IsAlgebraic(AggFunc func) {
  return func != AggFunc::kCountDistinct;
}

size_t PartialArity(AggFunc func) {
  switch (func) {
    case AggFunc::kAvg:
      return 2;
    case AggFunc::kCountDistinct:
      ICEBERG_CHECK(false);  // holistic; no bound-size partial exists
      return 0;
    default:
      return 1;
  }
}

void Accumulator::Add(const Value& v) {
  if (func_ == AggFunc::kCountStar) {
    ++count_;
    return;
  }
  if (v.is_null()) return;
  switch (func_) {
    case AggFunc::kCount:
      ++count_;
      break;
    case AggFunc::kCountDistinct:
      distinct_.insert(Row{v});
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      ++count_;
      sum_ += v.AsDouble();
      if (!v.is_int()) sum_is_int_ = false;
      break;
    case AggFunc::kMin:
      if (min_.is_null() || v.Compare(min_) < 0) min_ = v;
      break;
    case AggFunc::kMax:
      if (max_.is_null() || v.Compare(max_) > 0) max_ = v;
      break;
    default:
      ICEBERG_CHECK(false);
  }
}

Value Accumulator::Final() const {
  switch (func_) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Int(count_);
    case AggFunc::kCountDistinct:
      return Value::Int(static_cast<int64_t>(distinct_.size()));
    case AggFunc::kSum:
      if (count_ == 0) return Value::Null();
      if (sum_is_int_) return Value::Int(static_cast<int64_t>(sum_));
      return Value::Double(sum_);
    case AggFunc::kAvg:
      if (count_ == 0) return Value::Null();
      return Value::Double(sum_ / static_cast<double>(count_));
    case AggFunc::kMin:
      return min_;
    case AggFunc::kMax:
      return max_;
  }
  return Value::Null();
}

Row Accumulator::PartialState() const {
  switch (func_) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return {Value::Int(count_)};
    case AggFunc::kSum:
      return {count_ == 0 ? Value::Null()
                          : (sum_is_int_
                                 ? Value::Int(static_cast<int64_t>(sum_))
                                 : Value::Double(sum_))};
    case AggFunc::kAvg:
      return {Value::Double(sum_), Value::Int(count_)};
    case AggFunc::kMin:
      return {min_};
    case AggFunc::kMax:
      return {max_};
    case AggFunc::kCountDistinct:
      ICEBERG_CHECK(false);
  }
  return {};
}

void Accumulator::MergePartial(const Row& state) {
  ICEBERG_CHECK(state.size() == PartialArity(func_));
  switch (func_) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      count_ += state[0].AsInt();
      break;
    case AggFunc::kSum:
      if (!state[0].is_null()) {
        ++count_;  // mark non-empty
        sum_ += state[0].AsDouble();
        if (!state[0].is_int()) sum_is_int_ = false;
      }
      break;
    case AggFunc::kAvg:
      sum_ += state[0].AsDouble();
      count_ += state[1].AsInt();
      break;
    case AggFunc::kMin:
      if (!state[0].is_null() &&
          (min_.is_null() || state[0].Compare(min_) < 0)) {
        min_ = state[0];
      }
      break;
    case AggFunc::kMax:
      if (!state[0].is_null() &&
          (max_.is_null() || state[0].Compare(max_) > 0)) {
        max_ = state[0];
      }
      break;
    case AggFunc::kCountDistinct:
      ICEBERG_CHECK(false);
  }
}

Accumulator Accumulator::FromPartial(AggFunc func, const Row& state) {
  Accumulator acc(func);
  acc.MergePartial(state);
  return acc;
}

void Accumulator::MergeFrom(const Accumulator& other) {
  ICEBERG_CHECK(func_ == other.func_);
  distinct_.insert(other.distinct_.begin(), other.distinct_.end());
  count_ += other.count_;
  sum_ += other.sum_;
  sum_is_int_ = sum_is_int_ && other.sum_is_int_;
  if (!other.min_.is_null() && (min_.is_null() || other.min_ < min_)) {
    min_ = other.min_;
  }
  if (!other.max_.is_null() && (max_.is_null() || other.max_ > max_)) {
    max_ = other.max_;
  }
}

}  // namespace iceberg
