#ifndef LAWSDB_QUERY_VECTOR_EVAL_H_
#define LAWSDB_QUERY_VECTOR_EVAL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "query/bytecode.h"
#include "storage/table.h"

namespace laws {

/// Batch register machine executing CompiledExpr programs (bytecode.h)
/// over column batches of kExprBatchSize values, with null validity
/// carried as one byte per lane alongside each register. All register
/// storage lives in the evaluator and is reused across batches, runs and
/// queries — the steady state performs zero allocations per batch.
///
/// EvaluateExpr / FilterRows / EvaluateConstant below are the engine's
/// only expression entry points: compile once (which type-checks), then
/// run batched. The differential harness checks them against the
/// independent row-at-a-time reference oracle (testing/reference_oracle.h).

/// Batch width. 1–4K is the classic vectorized-execution sweet spot
/// (registers stay in L1/L2, amortizes dispatch ~1000×); tests use small
/// widths to exercise batch-boundary handling.
inline constexpr size_t kExprBatchSize = 1024;

class BatchEvaluator {
 public:
  explicit BatchEvaluator(size_t batch_size = kExprBatchSize);

  /// Executes `program` over every row of `table`, materializing the
  /// result column (type = program.result_type). Errors are the
  /// data-dependent ones ("division by zero", ...).
  Result<Column> Run(const CompiledExpr& program, const Table& table);

  /// Filter fast path: returns the indices of rows where `program` is
  /// TRUE (NULL/FALSE excluded) without ever materializing the mask
  /// column. A program that does not produce BOOL is a TypeMismatch.
  Result<std::vector<uint32_t>> RunFilter(const CompiledExpr& program,
                                          const Table& table);

 private:
  /// One register: typed lanes plus a 1-byte-per-lane null mask (1 =
  /// NULL, matching GatherNumericMasked). `has_nulls` lets ops take a
  /// dense loop that skips mask reads when no lane is NULL. String lanes
  /// view a column dictionary or the program's constant pool, both of
  /// which outlive the run.
  struct Slot {
    std::vector<double> f64;
    std::vector<int64_t> i64;
    std::vector<uint8_t> b8;
    std::vector<std::string_view> str;
    std::vector<uint8_t> null8;
    bool has_nulls = false;
  };

  void Provision(const CompiledExpr& program);
  Status RunBatch(const CompiledExpr& program, const Table& table,
                  size_t base, size_t n);

  size_t batch_size_;
  std::vector<Slot> slots_;
};

/// Evaluates a scalar expression over every row of `table`: compile
/// (raising any static error), then run batched. Bumps the
/// `expr.compiled` / `expr.batches` counters and the
/// `expr.compile_micros` histogram. When `disassembly` is non-null it
/// receives the compiled program dump (for EXPLAIN ANALYZE).
Result<Column> EvaluateExpr(const Expr& expr, const Table& table,
                            std::string* disassembly = nullptr);

/// Row indices where the predicate is TRUE (NULL and FALSE excluded); a
/// non-boolean predicate is a TypeMismatch.
Result<std::vector<uint32_t>> FilterRows(const Expr& predicate,
                                         const Table& table,
                                         std::string* disassembly = nullptr);

/// Evaluates an expression with no column references to a single Value:
/// a bare literal returns directly, anything else compiles against an
/// empty schema (without constant folding) and runs for one row.
Result<Value> EvaluateConstant(const Expr& expr);

}  // namespace laws

#endif  // LAWSDB_QUERY_VECTOR_EVAL_H_
