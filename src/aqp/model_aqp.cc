#include "aqp/model_aqp.h"

#include <cmath>
#include <limits>

#include "common/string_util.h"
#include "model/model.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/vector_eval.h"
#include "stats/distributions.h"
#include "stats/goodness_of_fit.h"

namespace laws {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void CollectColumns(const Expr& expr, std::vector<std::string>* out) {
  if (expr.kind == ExprKind::kColumnRef) {
    for (const auto& c : *out) {
      if (EqualsIgnoreCase(c, expr.column_name)) return;
    }
    out->push_back(expr.column_name);
  }
  for (const auto& c : expr.children) CollectColumns(*c, out);
}

void CollectConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
    CollectConjuncts(e->children[0].get(), out);
    CollectConjuncts(e->children[1].get(), out);
    return;
  }
  out->push_back(e);
}

/// If `e` is `<column> <cmp> <constant>` (either orientation), extracts the
/// pieces.
bool MatchColumnComparison(const Expr& e, std::string* column, BinaryOp* op,
                           double* constant) {
  if (e.kind != ExprKind::kBinary) return false;
  switch (e.binary_op) {
    case BinaryOp::kEqual:
    case BinaryOp::kLess:
    case BinaryOp::kLessEqual:
    case BinaryOp::kGreater:
    case BinaryOp::kGreaterEqual:
      break;
    default:
      return false;
  }
  const Expr* lhs = e.children[0].get();
  const Expr* rhs = e.children[1].get();
  bool flipped = false;
  if (lhs->kind != ExprKind::kColumnRef) {
    std::swap(lhs, rhs);
    flipped = true;
  }
  if (lhs->kind != ExprKind::kColumnRef) return false;
  auto v = EvaluateConstant(*rhs);
  if (!v.ok() || v->is_null()) return false;
  auto num = v->AsDouble();
  if (!num.ok()) return false;
  *column = lhs->column_name;
  *constant = *num;
  BinaryOp op_out = e.binary_op;
  if (flipped) {
    switch (e.binary_op) {
      case BinaryOp::kLess:
        op_out = BinaryOp::kGreater;
        break;
      case BinaryOp::kLessEqual:
        op_out = BinaryOp::kGreaterEqual;
        break;
      case BinaryOp::kGreater:
        op_out = BinaryOp::kLess;
        break;
      case BinaryOp::kGreaterEqual:
        op_out = BinaryOp::kLessEqual;
        break;
      default:
        break;
    }
  }
  *op = op_out;
  return true;
}

}  // namespace

std::map<std::string, std::pair<double, double>> ExtractRangeConstraints(
    const Expr* where) {
  std::map<std::string, std::pair<double, double>> ranges;
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(where, &conjuncts);
  for (const Expr* c : conjuncts) {
    std::string column;
    BinaryOp op = BinaryOp::kEqual;
    double v = 0.0;
    if (!MatchColumnComparison(*c, &column, &op, &v)) continue;
    const std::string key = ToLower(column);
    auto [it, inserted] = ranges.emplace(key, std::make_pair(-kInf, kInf));
    auto& [lo, hi] = it->second;
    switch (op) {
      case BinaryOp::kEqual:
        lo = std::max(lo, v);
        hi = std::min(hi, v);
        break;
      case BinaryOp::kLess:
      case BinaryOp::kLessEqual:
        hi = std::min(hi, v);
        break;
      case BinaryOp::kGreater:
      case BinaryOp::kGreaterEqual:
        lo = std::max(lo, v);
        break;
      default:
        break;
    }
  }
  return ranges;
}

std::vector<std::string> ReferencedColumns(const SelectStatement& stmt) {
  std::vector<std::string> out;
  for (const SelectItem& item : stmt.select_list) {
    if (!item.is_star) CollectColumns(*item.expr, &out);
  }
  if (stmt.where != nullptr) CollectColumns(*stmt.where, &out);
  for (const auto& g : stmt.group_by) CollectColumns(*g, &out);
  if (stmt.having != nullptr) CollectColumns(*stmt.having, &out);
  for (const auto& k : stmt.order_by) CollectColumns(*k.expr, &out);
  return out;
}

void ModelQueryEngine::AttachLegalFilter(uint64_t model_id,
                                         LegalCombinationFilter filter) {
  legal_filters_.emplace(model_id, std::move(filter));
}

Result<const CapturedModel*> ModelQueryEngine::FindModelFor(
    const SelectStatement& stmt) const {
  LAWS_ASSIGN_OR_RETURN(TablePtr table, data_->Get(stmt.from_table));
  // The model must cover every referenced column: group, inputs or output.
  const std::vector<std::string> referenced = ReferencedColumns(stmt);
  const std::vector<const CapturedModel*> candidates =
      models_->ModelsForTable(stmt.from_table);
  const CapturedModel* best = nullptr;
  for (const CapturedModel* m : candidates) {
    bool covers = true;
    for (const std::string& col : referenced) {
      bool known = EqualsIgnoreCase(col, m->output_column) ||
                   (!m->group_column.empty() &&
                    EqualsIgnoreCase(col, m->group_column));
      for (const auto& in : m->input_columns) {
        known = known || EqualsIgnoreCase(col, in);
      }
      if (!known) {
        covers = false;
        break;
      }
    }
    if (!covers) continue;
    const bool fresh = !ModelCatalog::IsStale(*m, table->data_version());
    if (!fresh) continue;
    if (best == nullptr ||
        m->ArbitrationQuality() > best->ArbitrationQuality()) {
      best = m;
    }
  }
  if (best == nullptr) {
    return Status::NotFound(
        "no fresh captured model covers the referenced columns of " +
        stmt.from_table);
  }
  return best;
}

Result<ApproxAnswer> ModelQueryEngine::ReconstructTable(
    const CapturedModel& model,
    const std::map<std::string, std::pair<double, double>>& ranges) const {
  LAWS_ASSIGN_OR_RETURN(ModelPtr fn, ModelFromSource(model.model_source));

  auto range_for = [&](const std::string& column) {
    auto it = ranges.find(ToLower(column));
    if (it == ranges.end()) return std::make_pair(-kInf, kInf);
    return it->second;
  };

  // --- Group axis ---------------------------------------------------------
  // Grouped models enumerate group keys from the parameter table (already
  // captured — zero IO); each key carries its parameter vector and RSE.
  struct GroupEntry {
    int64_t key;
    Vector params;
    double half_width;  // 95% prediction-interval half-width
  };
  // t-based half-width for a group with n observations and p parameters;
  // degrades to the raw RSE when the t machinery does not apply. The
  // t-quantile is memoized by degrees of freedom — groups share a handful
  // of df values, and the quantile inversion is far too slow to repeat
  // tens of thousands of times.
  const size_t p = fn->num_parameters();
  std::map<size_t, double> t_cache;
  auto pi_half_width = [&](double rse, size_t n_obs) {
    if (n_obs <= p) return rse;
    const size_t df = n_obs - p;
    // The t distribution is within half a percent of normal by df ~ 200;
    // skip the quantile inversion there.
    if (df >= 200) return 1.96 * rse;
    auto it = t_cache.find(df);
    if (it == t_cache.end()) {
      it = t_cache
               .emplace(df, StudentTQuantile(0.975,
                                             static_cast<double>(df)))
               .first;
    }
    return it->second * rse;
  };
  std::vector<GroupEntry> groups;
  if (model.grouped) {
    const Table& pt = model.parameter_table;
    LAWS_ASSIGN_OR_RETURN(size_t rse_idx,
                          pt.schema().FieldIndex("residual_se"));
    LAWS_ASSIGN_OR_RETURN(size_t n_idx, pt.schema().FieldIndex("n_obs"));
    const auto [glo, ghi] = range_for(model.group_column);
    for (size_t r = 0; r < pt.num_rows(); ++r) {
      const int64_t key = pt.column(0).Int64At(r);
      const auto dkey = static_cast<double>(key);
      if (dkey < glo || dkey > ghi) continue;
      GroupEntry e;
      e.key = key;
      e.params.resize(p);
      for (size_t j = 0; j < p; ++j) e.params[j] = pt.column(j + 1).DoubleAt(r);
      e.half_width =
          pi_half_width(pt.column(rse_idx).DoubleAt(r),
                        static_cast<size_t>(pt.column(n_idx).Int64At(r)));
      groups.push_back(std::move(e));
    }
  } else {
    groups.push_back(
        GroupEntry{0, model.parameters,
                   pi_half_width(model.quality.residual_standard_error,
                                 model.quality.n_observations)});
  }

  // --- Input axes ----------------------------------------------------------
  // Each input dimension needs either an enumerable domain or an equality
  // pin from the predicate (paper: "if a parameter column is enumerable, we
  // can use it without actually loading its values").
  std::vector<std::vector<double>> input_values(model.input_columns.size());
  for (size_t d = 0; d < model.input_columns.size(); ++d) {
    const std::string& col = model.input_columns[d];
    const auto [lo, hi] = range_for(col);
    if (lo == hi && std::isfinite(lo)) {
      input_values[d] = {lo};  // pinned by equality
      continue;
    }
    auto domain = domains_->Get(model.table_name, col);
    if (!domain.ok()) {
      return Status::InvalidArgument(
          "input dimension '" + col +
          "' is not enumerable and not pinned by the predicate");
    }
    for (size_t i : (*domain)->IndicesInRange(lo, hi)) {
      input_values[d].push_back((*domain)->ValueAt(i));
    }
  }

  // Enumeration size check.
  size_t total = groups.size();
  for (const auto& vals : input_values) {
    if (vals.empty()) total = 0;
    if (total > 0 && vals.size() > max_tuples_ / total) {
      return Status::InvalidArgument("enumeration exceeds tuple cap");
    }
    total *= vals.size();
  }

  // --- Materialize ---------------------------------------------------------
  std::vector<Field> fields;
  if (model.grouped) {
    fields.push_back(Field{model.group_column, DataType::kInt64, false});
  }
  for (const auto& col : model.input_columns) {
    fields.push_back(Field{col, DataType::kDouble, false});
  }
  fields.push_back(Field{model.output_column, DataType::kDouble, false});
  Table out{Schema(std::move(fields))};

  const auto legal_it = legal_filters_.find(model.id);
  const LegalCombinationFilter* legal =
      legal_it == legal_filters_.end() ? nullptr : &legal_it->second;

  double rse_sum = 0.0;
  double rse_max = 0.0;
  size_t touched_groups = 0;

  std::vector<double> x(model.input_columns.size());
  std::vector<Value> row;
  for (const GroupEntry& g : groups) {
    bool group_touched = false;
    // Odometer over input dimensions.
    std::vector<size_t> idx(input_values.size(), 0);
    bool more = true;
    for (auto& vals : input_values) {
      if (vals.empty()) more = false;
    }
    while (more) {
      for (size_t d = 0; d < idx.size(); ++d) x[d] = input_values[d][idx[d]];
      if (legal == nullptr || legal->MayContain(g.key, x)) {
        const double y = fn->Evaluate(x, g.params);
        row.clear();
        if (model.grouped) row.push_back(Value::Int64(g.key));
        for (double v : x) row.push_back(Value::Double(v));
        row.push_back(Value::Double(y));
        LAWS_RETURN_IF_ERROR(out.AppendRow(row));
        group_touched = true;
      }
      // Advance odometer; zero input dimensions means exactly one tuple.
      if (idx.empty()) break;
      size_t d = 0;
      while (d < idx.size() && ++idx[d] >= input_values[d].size()) {
        idx[d] = 0;
        ++d;
      }
      if (d == idx.size()) more = false;
    }
    if (group_touched) {
      ++touched_groups;
      rse_sum += g.half_width;
      rse_max = std::max(rse_max, g.half_width);
    }
  }

  ApproxAnswer answer;
  answer.tuples_reconstructed = out.num_rows();
  answer.table = std::move(out);
  answer.method = "model-enum";
  answer.error_bound =
      touched_groups > 0 ? rse_sum / static_cast<double>(touched_groups) : 0.0;
  answer.max_error_bound = rse_max;
  answer.raw_rows_accessed = 0;
  answer.model_id = model.id;
  return answer;
}

Result<ApproxAnswer> ModelQueryEngine::ExecuteStatement(
    const SelectStatement& stmt) const {
  LAWS_ASSIGN_OR_RETURN(const CapturedModel* model, FindModelFor(stmt));
  const auto ranges = ExtractRangeConstraints(stmt.where.get());
  LAWS_ASSIGN_OR_RETURN(ApproxAnswer answer,
                        ReconstructTable(*model, ranges));
  // Run the original statement over the reconstructed tuples. The
  // reconstruction already honoured the pushed-down ranges, but the full
  // predicate (e.g. intensity > 3.0) still applies here.
  LAWS_ASSIGN_OR_RETURN(Table result,
                        ExecuteSelectOnTable(answer.table, stmt));
  const bool pinned_point = answer.tuples_reconstructed <= 1;
  answer.method = pinned_point ? "model-point" : "model-enum";
  answer.table = std::move(result);
  return answer;
}

Result<ApproxAnswer> ModelQueryEngine::Execute(const std::string& sql) const {
  LAWS_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));
  return ExecuteStatement(stmt);
}

Result<size_t> ModelQueryEngine::MaterializeView(uint64_t model_id,
                                                 const std::string& view_name,
                                                 Catalog* catalog) const {
  if (catalog == nullptr) {
    return Status::InvalidArgument("null catalog");
  }
  LAWS_ASSIGN_OR_RETURN(const CapturedModel* model, models_->Get(model_id));
  LAWS_ASSIGN_OR_RETURN(ApproxAnswer answer, ReconstructTable(*model, {}));
  const size_t tuples = answer.table.num_rows();
  catalog->RegisterOrReplace(view_name,
                             std::make_shared<Table>(std::move(answer.table)));
  return tuples;
}

}  // namespace laws
