#include "query/bytecode.h"

#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "query/vector_eval.h"

namespace laws {
namespace {

/// The compiler's view of one evaluated subexpression: which register it
/// lives in and its static type. Every node's type is fully determined by
/// the schema (§11 typing is data-independent), which is what makes
/// ahead-of-time specialization sound.
struct NodeRes {
  uint16_t slot = 0;
  DataType type = DataType::kDouble;
};

bool IsNumeric(DataType t) { return t != DataType::kString; }

/// True when the subtree references no column, aggregate or star — i.e.
/// EvaluateConstant can fold it (modulo errors, which veto the fold and
/// leave the instruction sequence to raise them identically).
bool IsConstSubtree(const Expr& e) {
  if (e.kind == ExprKind::kColumnRef || e.kind == ExprKind::kAggregate ||
      e.kind == ExprKind::kStar) {
    return false;
  }
  for (const auto& c : e.children) {
    if (!IsConstSubtree(*c)) return false;
  }
  return true;
}

/// CSE identity key for a subtree. Expr::ToString() is NOT usable here:
/// it renders double literals through %.10g, so distinct constants that
/// round to the same text (1 vs 1.0000000000001, int64 0 vs double 0.0)
/// would collide and the second occurrence would be rewired onto the
/// first one's register — wrong value, or wrong static type for the
/// CASE/COALESCE unification rules. This key tags every node kind and
/// renders literals exactly (doubles by bit pattern).
void AppendCseKey(const Expr& e, std::string* out) {
  switch (e.kind) {
    case ExprKind::kLiteral: {
      const Value& v = e.literal;
      if (v.is_null()) {
        *out += "Ln";
      } else if (v.is_int64()) {
        *out += "Li";
        *out += std::to_string(v.int64());
      } else if (v.is_bool()) {
        *out += v.boolean() ? "Lb1" : "Lb0";
      } else if (v.is_double()) {
        uint64_t bits = 0;
        const double d = v.dbl();
        std::memcpy(&bits, &d, sizeof(bits));
        char buf[24];
        std::snprintf(buf, sizeof(buf), "Ld%016llx",
                      static_cast<unsigned long long>(bits));
        *out += buf;
      } else {
        *out += "Ls";
        *out += v.str();
      }
      break;
    }
    case ExprKind::kColumnRef:
      *out += "C";
      *out += e.column_name;
      break;
    case ExprKind::kUnary:
      *out += "U";
      *out += std::to_string(static_cast<int>(e.unary_op));
      break;
    case ExprKind::kBinary:
      *out += "B";
      *out += std::to_string(static_cast<int>(e.binary_op));
      break;
    case ExprKind::kFunctionCall:
      *out += "F";
      *out += e.function_name;
      break;
    case ExprKind::kCase:
      *out += e.case_has_else ? "Ke" : "K";
      break;
    case ExprKind::kAggregate:
      *out += "A";
      *out += std::to_string(static_cast<int>(e.aggregate_func));
      break;
    case ExprKind::kStar:
      *out += "*";
      break;
  }
  if (!e.children.empty()) {
    *out += "(";
    for (const auto& c : e.children) {
      AppendCseKey(*c, out);
      *out += ",";
    }
    *out += ")";
  }
}

std::string CseKey(const Expr& e) {
  std::string key;
  AppendCseKey(e, &key);
  return key;
}

/// Output type of CASE/COALESCE over `args`: strings only with strings;
/// within the numeric family a uniform INT64 or BOOL list keeps its type
/// and any mix promotes to DOUBLE.
Result<DataType> UnifyFamily(const std::vector<NodeRes>& args,
                             const char* what) {
  bool any_string = false, all_string = true, all_int = true,
       all_bool = true;
  for (const NodeRes& a : args) {
    any_string |= a.type == DataType::kString;
    all_string &= a.type == DataType::kString;
    all_int &= a.type == DataType::kInt64;
    all_bool &= a.type == DataType::kBool;
  }
  if (any_string && !all_string) {
    return Status::TypeMismatch(std::string(what) +
                                " mixes strings and numerics");
  }
  return all_string ? DataType::kString
         : all_int  ? DataType::kInt64
         : all_bool ? DataType::kBool
                    : DataType::kDouble;
}

constexpr int Op(OpCode op) { return static_cast<int>(op); }

// The compiler picks opcodes by offset within a family, so the families'
// layouts are pinned here.
static_assert(Op(OpCode::kCoalesceStr) - Op(OpCode::kCoalesceI64) == 3 &&
              Op(OpCode::kNullIfStr) - Op(OpCode::kNullIfI64) == 3 &&
              Op(OpCode::kCaseStr) - Op(OpCode::kCaseI64) == 3);
static_assert(Op(OpCode::kCmpGeF64) - Op(OpCode::kCmpEqF64) == 5 &&
              Op(OpCode::kCmpGeStr) - Op(OpCode::kCmpEqStr) == 5 &&
              static_cast<int>(BinaryOp::kGreaterEqual) -
                      static_cast<int>(BinaryOp::kEqual) ==
                  5);

/// Picks the opcode of a type-suffixed family laid out I64, F64, Bool, Str
/// (CASE/COALESCE/NULLIF).
OpCode Typed(OpCode i64_op, DataType t) {
  int offset = 0;
  switch (t) {
    case DataType::kInt64:  offset = 0; break;
    case DataType::kDouble: offset = 1; break;
    case DataType::kBool:   offset = 2; break;
    case DataType::kString: offset = 3; break;
  }
  return static_cast<OpCode>(Op(i64_op) + offset);
}

class Compiler {
 public:
  Compiler(const Schema& schema, bool fold) : schema_(schema), fold_(fold) {}

  Result<CompiledExpr> Compile(const Expr& expr) {
    CountUses(expr);
    LAWS_ASSIGN_OR_RETURN(NodeRes root, CompileNode(expr));
    program_.num_slots = next_slot_;
    program_.result_slot = root.slot;
    program_.result_type = root.type;
    return std::move(program_);
  }

 private:
  // --- Register allocation ----------------------------------------------
  // Slots are SSA-flavored: a fresh slot per instruction output, recycled
  // through a free list once the value's last use has been emitted. CSE
  // results are pinned for the program's lifetime so later occurrences
  // reference the original register directly (no copy instruction).

  uint16_t AllocSlot() {
    if (!free_slots_.empty()) {
      const uint16_t s = free_slots_.back();
      free_slots_.pop_back();
      return s;
    }
    return next_slot_++;
  }

  void ReleaseSlot(uint16_t slot) {
    if (pinned_.count(slot) == 0) free_slots_.push_back(slot);
  }

  void CountUses(const Expr& e) {
    ++use_count_[CseKey(e)];
    for (const auto& c : e.children) CountUses(*c);
  }

  // --- Emission helpers --------------------------------------------------

  NodeRes Emit(OpCode op, DataType out_type, uint16_t a = 0, uint16_t b = 0,
               uint32_t aux = 0) {
    Instruction ins;
    ins.op = op;
    ins.out = AllocSlot();
    ins.a = a;
    ins.b = b;
    ins.aux = aux;
    program_.code.push_back(ins);
    return NodeRes{ins.out, out_type};
  }

  NodeRes EmitConst(const Value& v) {
    if (v.is_null()) return Emit(OpCode::kConstNull, DataType::kDouble);
    const auto idx = static_cast<uint32_t>(program_.constants.size());
    program_.constants.push_back(v);
    if (v.is_int64()) return Emit(OpCode::kConstI64, DataType::kInt64, 0, 0, idx);
    if (v.is_double()) return Emit(OpCode::kConstF64, DataType::kDouble, 0, 0, idx);
    if (v.is_string()) return Emit(OpCode::kConstStr, DataType::kString, 0, 0, idx);
    return Emit(OpCode::kConstBool, DataType::kBool, 0, 0, idx);
  }

  /// Emits an n-ary select over `slots` (released first, so the output
  /// may recycle one of them).
  NodeRes EmitList(OpCode op, DataType t, std::vector<uint16_t> slots) {
    for (uint16_t s : slots) ReleaseSlot(s);
    const auto list = static_cast<uint32_t>(program_.arg_lists.size());
    program_.arg_lists.push_back(std::move(slots));
    return Emit(op, t, 0, 0, list);
  }

  /// Coerces a numeric value to double, releasing the source register.
  /// No-op for values already double.
  NodeRes ToF64(NodeRes r) {
    if (r.type == DataType::kDouble) return r;
    const OpCode op = r.type == DataType::kInt64 ? OpCode::kCastI64F64
                                                 : OpCode::kCastBoolF64;
    ReleaseSlot(r.slot);
    return Emit(op, DataType::kDouble, r.slot);
  }

  /// Compiles one argument that must be numeric.
  Result<NodeRes> CompileNumeric(const Expr& e, const std::string& what) {
    LAWS_ASSIGN_OR_RETURN(NodeRes r, CompileNode(e));
    if (!IsNumeric(r.type)) {
      return Status::TypeMismatch(what + " requires a numeric argument");
    }
    return r;
  }

  Status CheckArity(const Expr& e, size_t n, const char* count) {
    if (e.children.size() == n) return Status::OK();
    return Status::InvalidArgument(e.function_name + "() takes " + count);
  }

  /// Memoizing compile: shared subexpressions (by exact structural
  /// identity — see CseKey) compile once into a pinned register.
  Result<NodeRes> CompileNode(const Expr& e) {
    const std::string repr = CseKey(e);
    auto hit = memo_.find(repr);
    if (hit != memo_.end()) return hit->second;

    LAWS_ASSIGN_OR_RETURN(NodeRes res, CompileNodeUncached(e));
    if (use_count_[repr] > 1) {
      pinned_.insert(res.slot);
      memo_.emplace(repr, res);
    }
    return res;
  }

  Result<NodeRes> CompileNodeUncached(const Expr& e) {
    // Constant folding: a column-free subtree that evaluates cleanly
    // becomes one load from the literal pool. An error (1/0, overflow, a
    // static type error) vetoes the fold so the instructions raise it
    // exactly when an unfolded program would. A NULL fold result also
    // vetoes: the folded value would forget the operator's static output
    // type (nullif(c, c) stays INT64, a NULL comparison stays BOOL), so
    // the subtree compiles normally and keeps its §11 type.
    if (fold_ && e.kind != ExprKind::kLiteral && IsConstSubtree(e)) {
      Result<Value> folded = EvaluateConstant(e);
      if (folded.ok() && !folded->is_null()) return EmitConst(*folded);
    }

    switch (e.kind) {
      case ExprKind::kLiteral:
        return EmitConst(e.literal);
      case ExprKind::kColumnRef:
        return CompileColumnRef(e);
      case ExprKind::kUnary:
        return CompileUnary(e);
      case ExprKind::kBinary:
        return CompileBinary(e);
      case ExprKind::kFunctionCall:
        return CompileFunction(e);
      case ExprKind::kCase:
        return CompileCase(e);
      case ExprKind::kAggregate:
        return Status::InvalidArgument(
            "aggregate in scalar context (missing GROUP BY handling?)");
      case ExprKind::kStar:
        return Status::InvalidArgument("* outside COUNT(*)");
    }
    return Status::Internal("bad expression kind");
  }

  Result<NodeRes> CompileColumnRef(const Expr& e) {
    LAWS_ASSIGN_OR_RETURN(size_t idx, schema_.FieldIndex(e.column_name));
    const DataType t = schema_.field(idx).type;
    OpCode op = OpCode::kLoadColStr;
    switch (t) {
      case DataType::kInt64:  op = OpCode::kLoadColI64; break;
      case DataType::kDouble: op = OpCode::kLoadColF64; break;
      case DataType::kBool:   op = OpCode::kLoadColBool; break;
      case DataType::kString: op = OpCode::kLoadColStr; break;
    }
    const auto ref = static_cast<uint32_t>(program_.columns.size());
    program_.columns.push_back({static_cast<uint32_t>(idx), e.column_name});
    return Emit(op, t, 0, 0, ref);
  }

  Result<NodeRes> CompileUnary(const Expr& e) {
    LAWS_ASSIGN_OR_RETURN(NodeRes operand, CompileNode(*e.children[0]));
    if (e.unary_op == UnaryOp::kNegate) {
      if (!IsNumeric(operand.type)) {
        return Status::TypeMismatch("cannot negate a string");
      }
      if (operand.type == DataType::kInt64) {
        ReleaseSlot(operand.slot);
        return Emit(OpCode::kNegI64, DataType::kInt64, operand.slot);
      }
      NodeRes v = ToF64(operand);
      ReleaseSlot(v.slot);
      return Emit(OpCode::kNegF64, DataType::kDouble, v.slot);
    }
    if (operand.type != DataType::kBool) {
      return Status::TypeMismatch("NOT requires a boolean operand");
    }
    ReleaseSlot(operand.slot);
    return Emit(OpCode::kNotBool, DataType::kBool, operand.slot);
  }

  Result<NodeRes> CompileBinary(const Expr& e) {
    LAWS_ASSIGN_OR_RETURN(NodeRes lhs, CompileNode(*e.children[0]));
    LAWS_ASSIGN_OR_RETURN(NodeRes rhs, CompileNode(*e.children[1]));

    switch (e.binary_op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSubtract:
      case BinaryOp::kMultiply:
      case BinaryOp::kDivide:
      case BinaryOp::kModulo: {
        if (!IsNumeric(lhs.type) || !IsNumeric(rhs.type)) {
          return Status::TypeMismatch("arithmetic on non-numeric operand");
        }
        const bool int_result = lhs.type == DataType::kInt64 &&
                                rhs.type == DataType::kInt64 &&
                                e.binary_op != BinaryOp::kDivide;
        if (int_result) {
          OpCode op;
          switch (e.binary_op) {
            case BinaryOp::kAdd:      op = OpCode::kAddI64; break;
            case BinaryOp::kSubtract: op = OpCode::kSubI64; break;
            case BinaryOp::kMultiply: op = OpCode::kMulI64; break;
            default:                  op = OpCode::kModI64; break;
          }
          ReleaseSlot(lhs.slot);
          ReleaseSlot(rhs.slot);
          return Emit(op, DataType::kInt64, lhs.slot, rhs.slot);
        }
        NodeRes a = ToF64(lhs);
        NodeRes b = ToF64(rhs);
        OpCode op;
        switch (e.binary_op) {
          case BinaryOp::kAdd:      op = OpCode::kAddF64; break;
          case BinaryOp::kSubtract: op = OpCode::kSubF64; break;
          case BinaryOp::kMultiply: op = OpCode::kMulF64; break;
          case BinaryOp::kDivide:   op = OpCode::kDivF64; break;
          default:                  op = OpCode::kModF64; break;
        }
        ReleaseSlot(a.slot);
        ReleaseSlot(b.slot);
        return Emit(op, DataType::kDouble, a.slot, b.slot);
      }
      case BinaryOp::kEqual:
      case BinaryOp::kNotEqual:
      case BinaryOp::kLess:
      case BinaryOp::kLessEqual:
      case BinaryOp::kGreater:
      case BinaryOp::kGreaterEqual: {
        // Strings compare with strings; numeric pairs compare through
        // double coercion (§11 comparison horizon).
        const bool strings =
            lhs.type == DataType::kString && rhs.type == DataType::kString;
        if (!strings && (!IsNumeric(lhs.type) || !IsNumeric(rhs.type))) {
          return Status::TypeMismatch("cannot compare string with numeric");
        }
        NodeRes a = strings ? lhs : ToF64(lhs);
        NodeRes b = strings ? rhs : ToF64(rhs);
        // The six comparisons are laid out Eq, Ne, Lt, Le, Gt, Ge in both
        // families.
        const int offset =
            static_cast<int>(e.binary_op) - static_cast<int>(BinaryOp::kEqual);
        const OpCode base = strings ? OpCode::kCmpEqStr : OpCode::kCmpEqF64;
        ReleaseSlot(a.slot);
        ReleaseSlot(b.slot);
        return Emit(static_cast<OpCode>(Op(base) + offset), DataType::kBool,
                    a.slot, b.slot);
      }
      case BinaryOp::kAnd:
      case BinaryOp::kOr: {
        if (lhs.type != DataType::kBool || rhs.type != DataType::kBool) {
          return Status::TypeMismatch("AND/OR require boolean operands");
        }
        const OpCode op = e.binary_op == BinaryOp::kAnd ? OpCode::kAnd3VL
                                                        : OpCode::kOr3VL;
        ReleaseSlot(lhs.slot);
        ReleaseSlot(rhs.slot);
        return Emit(op, DataType::kBool, lhs.slot, rhs.slot);
      }
    }
    return Status::Internal("bad binary op");
  }

  Result<NodeRes> CompileFunction(const Expr& e) {
    const std::string& f = e.function_name;

    auto unary_f64 = [&](OpCode op) -> Result<NodeRes> {
      LAWS_RETURN_IF_ERROR(CheckArity(e, 1, "one argument"));
      LAWS_ASSIGN_OR_RETURN(NodeRes arg,
                            CompileNumeric(*e.children[0], f + "()"));
      NodeRes a = ToF64(arg);
      ReleaseSlot(a.slot);
      return Emit(op, DataType::kDouble, a.slot);
    };

    if (f == "abs") {
      LAWS_RETURN_IF_ERROR(CheckArity(e, 1, "one argument"));
      LAWS_ASSIGN_OR_RETURN(NodeRes arg,
                            CompileNumeric(*e.children[0], "abs()"));
      if (arg.type == DataType::kInt64) {
        ReleaseSlot(arg.slot);
        return Emit(OpCode::kAbsI64, DataType::kInt64, arg.slot);
      }
      NodeRes a = ToF64(arg);
      ReleaseSlot(a.slot);
      return Emit(OpCode::kAbsF64, DataType::kDouble, a.slot);
    }
    if (f == "ln" || f == "log") return unary_f64(OpCode::kLnF64);
    if (f == "log10") return unary_f64(OpCode::kLog10F64);
    if (f == "exp") return unary_f64(OpCode::kExpF64);
    if (f == "sqrt") return unary_f64(OpCode::kSqrtF64);
    if (f == "sin") return unary_f64(OpCode::kSinF64);
    if (f == "cos") return unary_f64(OpCode::kCosF64);
    if (f == "floor") return unary_f64(OpCode::kFloorF64);
    if (f == "ceil") return unary_f64(OpCode::kCeilF64);
    if (f == "round") return unary_f64(OpCode::kRoundF64);
    if (f == "pow" || f == "power") {
      LAWS_RETURN_IF_ERROR(CheckArity(e, 2, "two arguments"));
      LAWS_ASSIGN_OR_RETURN(NodeRes lhs,
                            CompileNumeric(*e.children[0], "pow()"));
      LAWS_ASSIGN_OR_RETURN(NodeRes rhs,
                            CompileNumeric(*e.children[1], "pow()"));
      NodeRes a = ToF64(lhs);
      NodeRes b = ToF64(rhs);
      ReleaseSlot(a.slot);
      ReleaseSlot(b.slot);
      return Emit(OpCode::kPowF64, DataType::kDouble, a.slot, b.slot);
    }
    if (f == "coalesce") {
      if (e.children.empty()) {
        return Status::InvalidArgument("coalesce() needs arguments");
      }
      std::vector<NodeRes> args;
      for (const auto& child : e.children) {
        LAWS_ASSIGN_OR_RETURN(NodeRes a, CompileNode(*child));
        args.push_back(a);
      }
      LAWS_ASSIGN_OR_RETURN(DataType t, UnifyFamily(args, "coalesce()"));
      std::vector<uint16_t> slots;
      for (NodeRes& a : args) {
        if (t == DataType::kDouble) a = ToF64(a);
        slots.push_back(a.slot);
      }
      return EmitList(Typed(OpCode::kCoalesceI64, t), t, std::move(slots));
    }
    if (f == "nullif") {
      LAWS_RETURN_IF_ERROR(CheckArity(e, 2, "two arguments"));
      LAWS_ASSIGN_OR_RETURN(NodeRes lhs, CompileNode(*e.children[0]));
      LAWS_ASSIGN_OR_RETURN(NodeRes rhs, CompileNode(*e.children[1]));
      // The third entry tags b's physical type so the evaluator can read
      // it without a cast instruction. A string/numeric pair is not a
      // static error (§11): it fails only on lanes where both are
      // non-NULL, which the evaluator checks.
      ReleaseSlot(lhs.slot);
      ReleaseSlot(rhs.slot);
      const auto list = static_cast<uint32_t>(program_.arg_lists.size());
      program_.arg_lists.push_back(
          {lhs.slot, rhs.slot, static_cast<uint16_t>(rhs.type)});
      return Emit(Typed(OpCode::kNullIfI64, lhs.type), lhs.type, 0, 0, list);
    }
    return Status::InvalidArgument("unknown function: " + f);
  }

  Result<NodeRes> CompileCase(const Expr& e) {
    const bool has_else = e.case_has_else;
    const size_t pairs = (e.children.size() - (has_else ? 1 : 0)) / 2;
    std::vector<NodeRes> whens, thens;
    for (size_t i = 0; i < pairs; ++i) {
      LAWS_ASSIGN_OR_RETURN(NodeRes w, CompileNode(*e.children[2 * i]));
      if (w.type != DataType::kBool) {
        return Status::TypeMismatch("CASE WHEN condition is not boolean");
      }
      LAWS_ASSIGN_OR_RETURN(NodeRes t, CompileNode(*e.children[2 * i + 1]));
      whens.push_back(w);
      thens.push_back(t);
    }
    if (has_else) {
      LAWS_ASSIGN_OR_RETURN(NodeRes t, CompileNode(*e.children.back()));
      thens.push_back(t);
    }
    LAWS_ASSIGN_OR_RETURN(DataType t, UnifyFamily(thens, "CASE"));
    if (t == DataType::kDouble) {
      for (NodeRes& b : thens) b = ToF64(b);
    }
    // Layout: [w1, t1, w2, t2, ..., else?]. Odd length = ELSE present.
    std::vector<uint16_t> slots;
    for (size_t i = 0; i < pairs; ++i) {
      slots.push_back(whens[i].slot);
      slots.push_back(thens[i].slot);
    }
    if (has_else) slots.push_back(thens.back().slot);
    return EmitList(Typed(OpCode::kCaseI64, t), t, std::move(slots));
  }

  const Schema& schema_;
  const bool fold_;
  CompiledExpr program_;
  uint16_t next_slot_ = 0;
  std::vector<uint16_t> free_slots_;
  std::unordered_map<std::string, size_t> use_count_;
  std::unordered_map<std::string, NodeRes> memo_;
  std::unordered_set<uint16_t> pinned_;
};

}  // namespace

std::string_view OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kLoadColI64:  return "loadcol.i64";
    case OpCode::kLoadColF64:  return "loadcol.f64";
    case OpCode::kLoadColBool: return "loadcol.bool";
    case OpCode::kLoadColStr:  return "loadcol.str";
    case OpCode::kConstI64:    return "const.i64";
    case OpCode::kConstF64:    return "const.f64";
    case OpCode::kConstBool:   return "const.bool";
    case OpCode::kConstStr:    return "const.str";
    case OpCode::kConstNull:   return "const.null";
    case OpCode::kCastI64F64:  return "cast.i64.f64";
    case OpCode::kCastBoolF64: return "cast.bool.f64";
    case OpCode::kNegI64:      return "neg.i64";
    case OpCode::kNegF64:      return "neg.f64";
    case OpCode::kNotBool:     return "not.bool";
    case OpCode::kAbsI64:      return "abs.i64";
    case OpCode::kAbsF64:      return "abs.f64";
    case OpCode::kLnF64:       return "ln.f64";
    case OpCode::kLog10F64:    return "log10.f64";
    case OpCode::kExpF64:      return "exp.f64";
    case OpCode::kSqrtF64:     return "sqrt.f64";
    case OpCode::kSinF64:      return "sin.f64";
    case OpCode::kCosF64:      return "cos.f64";
    case OpCode::kFloorF64:    return "floor.f64";
    case OpCode::kCeilF64:     return "ceil.f64";
    case OpCode::kRoundF64:    return "round.f64";
    case OpCode::kAddI64:      return "add.i64";
    case OpCode::kSubI64:      return "sub.i64";
    case OpCode::kMulI64:      return "mul.i64";
    case OpCode::kModI64:      return "mod.i64";
    case OpCode::kAddF64:      return "add.f64";
    case OpCode::kSubF64:      return "sub.f64";
    case OpCode::kMulF64:      return "mul.f64";
    case OpCode::kDivF64:      return "div.f64";
    case OpCode::kModF64:      return "mod.f64";
    case OpCode::kPowF64:      return "pow.f64";
    case OpCode::kCmpEqF64:    return "cmpeq.f64";
    case OpCode::kCmpNeF64:    return "cmpne.f64";
    case OpCode::kCmpLtF64:    return "cmplt.f64";
    case OpCode::kCmpLeF64:    return "cmple.f64";
    case OpCode::kCmpGtF64:    return "cmpgt.f64";
    case OpCode::kCmpGeF64:    return "cmpge.f64";
    case OpCode::kCmpEqStr:    return "cmpeq.str";
    case OpCode::kCmpNeStr:    return "cmpne.str";
    case OpCode::kCmpLtStr:    return "cmplt.str";
    case OpCode::kCmpLeStr:    return "cmple.str";
    case OpCode::kCmpGtStr:    return "cmpgt.str";
    case OpCode::kCmpGeStr:    return "cmpge.str";
    case OpCode::kAnd3VL:      return "and.3vl";
    case OpCode::kOr3VL:       return "or.3vl";
    case OpCode::kCoalesceI64: return "coalesce.i64";
    case OpCode::kCoalesceF64: return "coalesce.f64";
    case OpCode::kCoalesceBool:return "coalesce.bool";
    case OpCode::kCoalesceStr: return "coalesce.str";
    case OpCode::kNullIfI64:   return "nullif.i64";
    case OpCode::kNullIfF64:   return "nullif.f64";
    case OpCode::kNullIfBool:  return "nullif.bool";
    case OpCode::kNullIfStr:   return "nullif.str";
    case OpCode::kCaseI64:     return "case.i64";
    case OpCode::kCaseF64:     return "case.f64";
    case OpCode::kCaseBool:    return "case.bool";
    case OpCode::kCaseStr:     return "case.str";
  }
  return "?";
}

std::string CompiledExpr::ToString() const {
  std::string out;
  for (const Instruction& ins : code) {
    if (!out.empty()) out += "; ";
    out += "s" + std::to_string(ins.out) + "=";
    out += OpCodeName(ins.op);
    switch (ins.op) {
      case OpCode::kLoadColI64:
      case OpCode::kLoadColF64:
      case OpCode::kLoadColBool:
      case OpCode::kLoadColStr:
        out += "(" + columns[ins.aux].name + ")";
        break;
      case OpCode::kConstI64:
      case OpCode::kConstF64:
      case OpCode::kConstBool:
      case OpCode::kConstStr:
        out += "(" + constants[ins.aux].ToString() + ")";
        break;
      case OpCode::kConstNull:
        out += "()";
        break;
      case OpCode::kCoalesceI64:
      case OpCode::kCoalesceF64:
      case OpCode::kCoalesceBool:
      case OpCode::kCoalesceStr:
      case OpCode::kCaseI64:
      case OpCode::kCaseF64:
      case OpCode::kCaseBool:
      case OpCode::kCaseStr: {
        out += "(";
        const auto& list = arg_lists[ins.aux];
        for (size_t i = 0; i < list.size(); ++i) {
          if (i > 0) out += ",";
          out += "s" + std::to_string(list[i]);
        }
        out += ")";
        break;
      }
      case OpCode::kNullIfI64:
      case OpCode::kNullIfF64:
      case OpCode::kNullIfBool:
      case OpCode::kNullIfStr: {
        const auto& list = arg_lists[ins.aux];
        out += "(s" + std::to_string(list[0]) + ",s" +
               std::to_string(list[1]) + ")";
        break;
      }
      case OpCode::kCastI64F64:
      case OpCode::kCastBoolF64:
      case OpCode::kNegI64:
      case OpCode::kNegF64:
      case OpCode::kNotBool:
      case OpCode::kAbsI64:
      case OpCode::kAbsF64:
      case OpCode::kLnF64:
      case OpCode::kLog10F64:
      case OpCode::kExpF64:
      case OpCode::kSqrtF64:
      case OpCode::kSinF64:
      case OpCode::kCosF64:
      case OpCode::kFloorF64:
      case OpCode::kCeilF64:
      case OpCode::kRoundF64:
        out += "(s" + std::to_string(ins.a) + ")";
        break;
      default:
        out += "(s" + std::to_string(ins.a) + ",s" +
               std::to_string(ins.b) + ")";
        break;
    }
  }
  return out;
}

Result<CompiledExpr> CompileExpr(const Expr& expr, const Schema& schema,
                                 bool fold_constants) {
  Compiler compiler(schema, fold_constants);
  return compiler.Compile(expr);
}

}  // namespace laws
