#ifndef LAWSDB_QUERY_BYTECODE_H_
#define LAWSDB_QUERY_BYTECODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "query/ast.h"
#include "storage/schema.h"

namespace laws {

/// The engine's expression evaluator: an `Expr` tree is lowered to a flat
/// program of typed opcodes executed by a register machine over column
/// batches (vector_eval.h). The compiler performs constant folding (each
/// column-free subtree is compiled unfolded and run for one row, so
/// folded values carry identical semantics), common-subexpression
/// elimination by expression identity, and int64/double/bool/string type
/// specialization. Register slots are assigned statically, so the runtime
/// never manages a dynamic stack and CSE reuses a pinned slot instead of
/// recomputing or copying.
///
/// The compiler is also the type checker: CompileExpr raises every static
/// error of the §11 typing rules (unknown column or function, wrong arity,
/// mixed type families, an aggregate or `*` in scalar context), the same
/// set the reference oracle's InferType raises. Compiled programs fail
/// only on data-dependent errors: division by zero, checked-int64
/// overflow, and NULLIF of a string against a numeric on a lane where
/// both sides are non-NULL. DESIGN.md §13 documents the ISA and its
/// invariants against the §11 NaN/NULL semantics.

/// Typed opcodes. Naming: suffix is the *output* type family; numeric
/// comparison inputs are always doubles (every numeric pair compares
/// through double coercion — the §11 2^53 horizon). String lanes are
/// string_views into a column dictionary or the constant pool.
enum class OpCode : uint8_t {
  // Loads. aux = column index (schema position) or constant-pool index.
  kLoadColI64,
  kLoadColF64,
  kLoadColBool,
  kLoadColStr,
  kConstI64,
  kConstF64,
  kConstBool,
  kConstStr,
  kConstNull,  // typed as F64, every lane NULL (§11: a NULL literal is DOUBLE)

  // Numeric coercions (int64/bool -> double, NULLs pass through).
  kCastI64F64,
  kCastBoolF64,

  // Unary.
  kNegI64,  // checked: -INT64_MIN -> NumericError
  kNegF64,
  kNotBool,
  kAbsI64,  // checked: abs(INT64_MIN) -> NumericError
  kAbsF64,
  kLnF64,
  kLog10F64,
  kExpF64,
  kSqrtF64,
  kSinF64,
  kCosF64,
  kFloorF64,
  kCeilF64,
  kRoundF64,

  // Binary arithmetic. I64 variants are overflow-checked; kModI64 defines
  // INT64_MIN % -1 = 0 and errors on zero; kDivF64/kModF64 error on a 0.0
  // divisor reached by a non-NULL lane.
  kAddI64,
  kSubI64,
  kMulI64,
  kModI64,
  kAddF64,
  kSubF64,
  kMulF64,
  kDivF64,
  kModF64,
  kPowF64,

  // Comparisons: double inputs, bool output, NULL-propagating. Lane
  // semantics are the §11 three-way compare (NaN sorts as "greater":
  // NaN > x is true, NaN == x and NaN < x are false).
  kCmpEqF64,
  kCmpNeF64,
  kCmpLtF64,
  kCmpLeF64,
  kCmpGtF64,
  kCmpGeF64,
  // Lexicographic (byte-wise) string comparisons, NULL-propagating.
  kCmpEqStr,
  kCmpNeStr,
  kCmpLtStr,
  kCmpLeStr,
  kCmpGtStr,
  kCmpGeStr,

  // Three-valued logic over bool inputs.
  kAnd3VL,
  kOr3VL,

  // N-ary selects. aux indexes CompiledExpr::arg_lists, whose entries are
  // operand slot lists; the suffix is the unified output type (the
  // compiler inserts casts on branches so every operand already has it).
  kCoalesceI64,
  kCoalesceF64,
  kCoalesceBool,
  kCoalesceStr,
  // NULLIF(a, b): output = a's type; lanes where both are non-NULL and
  // equal (double compare for numerics, byte compare for strings) become
  // NULL. arg_list = {a, b, b_type_tag} where the tag is b's DataType. A
  // string against a numeric errors on lanes where both are non-NULL.
  kNullIfI64,
  kNullIfF64,
  kNullIfBool,
  kNullIfStr,
  // Searched CASE: arg_list = {w1, t1, w2, t2, ..., [else]}; aux's low bit
  // of the *list length* disambiguates the ELSE (odd length = has ELSE).
  kCaseI64,
  kCaseF64,
  kCaseBool,
  kCaseStr,
};

std::string_view OpCodeName(OpCode op);

/// One instruction: out = op(a, b). Slots are batch-sized registers in the
/// evaluator; `aux` is the opcode-specific immediate (column index,
/// constant index, or arg-list index).
struct Instruction {
  OpCode op;
  uint16_t out = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  uint32_t aux = 0;
};

/// A compiled expression program. Immutable once built; executable any
/// number of times over any table with the schema it was compiled for.
struct CompiledExpr {
  std::vector<Instruction> code;
  /// Literal pool, indexed by Const* instructions' aux.
  std::vector<Value> constants;
  /// Column references, indexed by LoadCol* instructions' aux. `index` is
  /// the schema position; `name` is kept for the disassembly.
  struct ColRef {
    uint32_t index = 0;
    std::string name;
  };
  std::vector<ColRef> columns;
  /// Operand slot lists for n-ary opcodes (CASE/COALESCE/NULLIF).
  std::vector<std::vector<uint16_t>> arg_lists;
  /// Registers the evaluator must provision.
  uint16_t num_slots = 0;
  /// Slot holding the final value after the last instruction.
  uint16_t result_slot = 0;
  DataType result_type = DataType::kDouble;

  /// Compact one-line disassembly, e.g.
  /// "s0=loadcol.f64(da); s1=const.f64(1); s0=add.f64(s0,s1)" — the
  /// program dump surfaced by EXPLAIN ANALYZE.
  std::string ToString() const;
};

/// Lowers `expr` against `schema`, or returns the static error that makes
/// it ill-typed (see file comment). `fold_constants` = false compiles
/// column-free subtrees as instructions instead of folding them; constant
/// folding itself runs subtrees that way (EvaluateConstant), which keeps
/// the compiler and the folder from recursing into each other.
Result<CompiledExpr> CompileExpr(const Expr& expr, const Schema& schema,
                                 bool fold_constants = true);

}  // namespace laws

#endif  // LAWSDB_QUERY_BYTECODE_H_
