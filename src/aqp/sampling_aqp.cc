#include "aqp/sampling_aqp.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "query/vector_eval.h"
#include "stats/descriptive.h"

namespace laws {

SamplingEngine::SamplingEngine(const Table& table, double fraction,
                               uint64_t seed)
    : sample_{table.schema()}, population_rows_(table.num_rows()) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  Rng rng(seed);
  std::vector<uint32_t> picked;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (rng.Bernoulli(fraction)) picked.push_back(static_cast<uint32_t>(i));
  }
  sample_ = table.GatherRows(picked);
  actual_fraction_ =
      population_rows_ > 0
          ? static_cast<double>(picked.size()) /
                static_cast<double>(population_rows_)
          : 0.0;
}

Result<SampleEstimate> SamplingEngine::EstimateAggregate(
    AggregateFunc agg, const std::string& column, const Expr* where) const {
  const Table* current = &sample_;
  Table filtered{Schema{}};
  if (where != nullptr) {
    LAWS_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                          FilterRows(*where, sample_));
    filtered = sample_.GatherRows(rows);
    current = &filtered;
  }
  SampleEstimate est;
  est.sample_rows_used = current->num_rows();
  const double scale =
      actual_fraction_ > 0.0 ? 1.0 / actual_fraction_ : 0.0;

  if (agg == AggregateFunc::kCount) {
    const auto k = static_cast<double>(current->num_rows());
    est.value = k * scale;
    // Binomial CI on the qualifying fraction, scaled to the population.
    if (population_rows_ > 0 && actual_fraction_ > 0.0) {
      const auto n = static_cast<double>(sample_.num_rows());
      if (n > 0) {
        const double p = k / n;
        est.ci_half_width = 1.96 * std::sqrt(p * (1.0 - p) / n) *
                            static_cast<double>(population_rows_);
      }
    }
    return est;
  }

  LAWS_ASSIGN_OR_RETURN(const Column* col, current->ColumnByName(column));
  Moments m;
  for (size_t i = 0; i < col->size(); ++i) {
    if (col->IsNull(i)) continue;
    LAWS_ASSIGN_OR_RETURN(double v, col->NumericAt(i));
    m.Add(v);
  }
  const double k = static_cast<double>(m.count());
  const double se_mean =
      m.count() > 1 ? m.stddev_sample() / std::sqrt(k) : 0.0;
  switch (agg) {
    case AggregateFunc::kSum:
      est.value = m.sum() * scale;
      est.ci_half_width = 1.96 * se_mean * k * scale;
      return est;
    case AggregateFunc::kAvg:
      est.value = m.mean();
      est.ci_half_width = 1.96 * se_mean;
      return est;
    case AggregateFunc::kMin:
      est.value = m.count() > 0 ? m.min() : 0.0;
      est.ci_half_width = 0.0;  // biased; no CLT bound
      return est;
    case AggregateFunc::kMax:
      est.value = m.count() > 0 ? m.max() : 0.0;
      est.ci_half_width = 0.0;
      return est;
    case AggregateFunc::kCount:
      break;  // handled above
    case AggregateFunc::kVariance:
    case AggregateFunc::kStddev:
      return Status::Unimplemented("sampled VARIANCE/STDDEV not implemented");
  }
  return Status::Internal("unknown aggregate");
}

Result<StratifiedSamplingEngine> StratifiedSamplingEngine::Build(
    const Table& table, const std::string& group_column, size_t per_group_cap,
    uint64_t seed) {
  if (per_group_cap == 0) {
    return Status::InvalidArgument("per_group_cap must be positive");
  }
  LAWS_ASSIGN_OR_RETURN(const Column* group,
                        table.ColumnByName(group_column));
  if (group->type() != DataType::kInt64) {
    return Status::TypeMismatch("stratification column must be INT64");
  }
  // Reservoir-sample up to cap rows per group in one pass.
  struct Stratum {
    std::vector<uint32_t> rows;  // reservoir
    size_t seen = 0;
  };
  std::unordered_map<int64_t, Stratum> strata;
  Rng rng(seed);
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (group->IsNull(i)) continue;
    Stratum& s = strata[group->Int64At(i)];
    ++s.seen;
    if (s.rows.size() < per_group_cap) {
      s.rows.push_back(static_cast<uint32_t>(i));
    } else {
      const auto j = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(s.seen) - 1));
      if (j < per_group_cap) s.rows[j] = static_cast<uint32_t>(i);
    }
  }
  std::vector<uint32_t> picked;
  std::vector<double> weights;
  for (const auto& [key, s] : strata) {
    const double w = static_cast<double>(s.seen) /
                     static_cast<double>(s.rows.size());
    for (uint32_t r : s.rows) {
      picked.push_back(r);
      weights.push_back(w);
    }
  }
  return StratifiedSamplingEngine(table.GatherRows(picked),
                                  std::move(weights), strata.size());
}

Result<SampleEstimate> StratifiedSamplingEngine::EstimateAggregate(
    AggregateFunc agg, const std::string& column, const Expr* where) const {
  // Evaluate the predicate over the sample; keep qualifying indices so the
  // per-row weights stay aligned.
  std::vector<uint32_t> rows;
  if (where != nullptr) {
    LAWS_ASSIGN_OR_RETURN(rows, FilterRows(*where, sample_));
  } else {
    rows.resize(sample_.num_rows());
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<uint32_t>(i);
  }
  SampleEstimate est;
  est.sample_rows_used = rows.size();

  if (agg == AggregateFunc::kCount) {
    double count = 0.0, var = 0.0;
    for (uint32_t r : rows) {
      count += weights_[r];
      var += weights_[r] * (weights_[r] - 1.0);  // HT variance contribution
    }
    est.value = count;
    est.ci_half_width = 1.96 * std::sqrt(std::max(var, 0.0));
    return est;
  }

  LAWS_ASSIGN_OR_RETURN(const Column* col, sample_.ColumnByName(column));
  double wsum = 0.0, wvsum = 0.0;
  double mn = 0.0, mx = 0.0;
  bool any = false;
  Moments m;  // unweighted, for a rough spread estimate
  for (uint32_t r : rows) {
    if (col->IsNull(r)) continue;
    LAWS_ASSIGN_OR_RETURN(double v, col->NumericAt(r));
    if (!any) {
      mn = mx = v;
      any = true;
    }
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    wsum += weights_[r];
    wvsum += weights_[r] * v;
    m.Add(v);
  }
  const double k = static_cast<double>(m.count());
  const double se_mean = m.count() > 1 ? m.stddev_sample() / std::sqrt(k) : 0.0;
  switch (agg) {
    case AggregateFunc::kSum:
      est.value = wvsum;
      est.ci_half_width = 1.96 * se_mean * wsum;
      return est;
    case AggregateFunc::kAvg:
      est.value = wsum > 0.0 ? wvsum / wsum : 0.0;
      est.ci_half_width = 1.96 * se_mean;
      return est;
    case AggregateFunc::kMin:
      est.value = any ? mn : 0.0;
      return est;
    case AggregateFunc::kMax:
      est.value = any ? mx : 0.0;
      return est;
    case AggregateFunc::kCount:
      break;  // handled above
    case AggregateFunc::kVariance:
    case AggregateFunc::kStddev:
      return Status::Unimplemented("sampled VARIANCE/STDDEV not implemented");
  }
  return Status::Internal("unknown aggregate");
}

}  // namespace laws
