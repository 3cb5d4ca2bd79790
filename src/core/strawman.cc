#include "core/strawman.h"

#include "query/parser.h"
#include "query/vector_eval.h"

namespace laws {

Strawman Strawman::Filter(const std::string& predicate) const {
  Strawman next = *this;
  next.predicate_ = predicate_.empty()
                        ? predicate
                        : "(" + predicate_ + ") AND (" + predicate + ")";
  return next;
}

Strawman Strawman::GroupBy(const std::string& column) const {
  Strawman next = *this;
  next.group_ = column;
  return next;
}

Result<FitReport> Strawman::Fit(const std::string& model_source,
                                const std::vector<std::string>& input_columns,
                                const std::string& output_column,
                                const FitOptions& options) const {
  FitRequest request;
  request.table = table_;
  request.model_source = model_source;
  request.input_columns = input_columns;
  request.output_column = output_column;
  request.group_column = group_;
  request.where = predicate_;
  request.options = options;
  return session_->Fit(request);
}

Result<Table> Strawman::Collect() const {
  LAWS_ASSIGN_OR_RETURN(TablePtr table,
                        session_->data_catalog()->Get(table_));
  if (predicate_.empty()) return *table;
  LAWS_ASSIGN_OR_RETURN(auto expr, ParseExpression(predicate_));
  LAWS_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                        FilterRows(*expr, *table));
  return table->GatherRows(rows);
}

Result<size_t> Strawman::Count() const {
  LAWS_ASSIGN_OR_RETURN(TablePtr table,
                        session_->data_catalog()->Get(table_));
  if (predicate_.empty()) return table->num_rows();
  LAWS_ASSIGN_OR_RETURN(auto expr, ParseExpression(predicate_));
  LAWS_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                        FilterRows(*expr, *table));
  return rows.size();
}

}  // namespace laws
