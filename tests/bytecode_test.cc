// Unit tests for the compiled expression evaluator (DESIGN.md §13):
// golden programs out of the compiler, constant folding / CSE / type
// specialization, static type errors, §11 semantics parity against the
// row-at-a-time reference oracle, a golden table of string cases run
// through both the executor and the oracle, and the batch/scratch
// mechanics of the VM.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "query/bytecode.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/vector_eval.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "testing/reference_oracle.h"

namespace laws {
namespace {

Schema TestSchema() {
  return Schema({Field{"ia", DataType::kInt64, true},
                 Field{"ib", DataType::kInt64, true},
                 Field{"da", DataType::kDouble, true},
                 Field{"db", DataType::kDouble, true},
                 Field{"ba", DataType::kBool, true},
                 Field{"sa", DataType::kString, true}});
}

// Parses the expression of `SELECT <expr> FROM t` (parser has no
// standalone expression entry point).
std::unique_ptr<Expr> ParseExpr(const std::string& text) {
  auto stmt = ParseSelect("SELECT " + text + " FROM t");
  EXPECT_TRUE(stmt.ok()) << text << ": " << stmt.status().ToString();
  if (!stmt.ok()) return nullptr;
  return std::move(stmt->select_list[0].expr);
}

Result<CompiledExpr> Compile(const std::string& text) {
  auto expr = ParseExpr(text);
  if (expr == nullptr) return Status::InvalidArgument("unparsable: " + text);
  return CompileExpr(*expr, TestSchema());
}

// Runs `SELECT <text> FROM t` through the reference oracle over a catalog
// holding `table` as t.
testing::OracleResult OracleSelect(const std::string& text,
                                   const Table& table) {
  Catalog catalog;
  EXPECT_TRUE(
      catalog.Register("t", std::make_shared<Table>(table)).ok());
  auto stmt = ParseSelect("SELECT " + text + " FROM t");
  EXPECT_TRUE(stmt.ok()) << text;
  return testing::OracleExecuteSelect(catalog, *stmt);
}

// True when two non-NULL cells of `type` are the same value: raw bits for
// doubles (so -0.0 and +0.0 differ) with every NaN one class.
bool SameCell(DataType type, const Column& a, const Column& b, size_t i) {
  switch (type) {
    case DataType::kDouble: {
      const double x = a.DoubleAt(i), y = b.DoubleAt(i);
      if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case DataType::kInt64:
      return a.Int64At(i) == b.Int64At(i);
    case DataType::kBool:
      return a.BoolAt(i) == b.BoolAt(i);
    case DataType::kString:
      return a.StringAt(i) == b.StringAt(i);
  }
  return false;
}

Table SmallTable() {
  Table t{TestSchema()};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto row = [&](Value ia, Value ib, Value da, Value db, Value ba) {
    EXPECT_TRUE(
        t.AppendRow({std::move(ia), std::move(ib), std::move(da),
                     std::move(db), std::move(ba), Value::String("s")})
            .ok());
  };
  row(Value::Int64(1), Value::Int64(10), Value::Double(1.5),
      Value::Double(2.0), Value::Bool(true));
  row(Value::Int64(-7), Value::Int64(3), Value::Double(-0.0),
      Value::Double(0.5), Value::Bool(false));
  row(Value::Null(), Value::Int64(5), Value::Double(nan),
      Value::Double(-3.25), Value::Null());
  row(Value::Int64(9007199254740993LL),  // 2^53 + 1: comparison horizon
      Value::Int64(9007199254740992LL), Value::Double(9007199254740992.0),
      Value::Double(100.0), Value::Bool(true));
  row(Value::Int64(0), Value::Null(), Value::Null(), Value::Double(0.25),
      Value::Bool(false));
  return t;
}

// The compiled evaluator and the reference oracle over the same
// expression and table must agree bit-for-bit (NaNs one class) including
// type and NULL-ness, or both raise an error. Returns the evaluator's
// status so callers can pin the diagnostic.
Status ExpectParity(const std::string& text, const Table& table) {
  auto expr = ParseExpr(text);
  EXPECT_NE(expr, nullptr);
  if (expr == nullptr) return Status::InvalidArgument(text);
  auto compiled = CompileExpr(*expr, table.schema());
  EXPECT_TRUE(compiled.ok()) << text << ": " << compiled.status().ToString();
  if (!compiled.ok()) return compiled.status();
  BatchEvaluator eval;
  Result<Column> bc = eval.Run(*compiled, table);
  const testing::OracleResult oracle = OracleSelect(text, table);
  EXPECT_EQ(oracle.status.ok(), bc.ok())
      << text << ": oracle " << oracle.status.ToString() << " vs bytecode "
      << (bc.ok() ? "ok" : bc.status().ToString());
  if (!bc.ok() || !oracle.status.ok()) return bc.status();
  const Column& want = oracle.table.column(0);
  EXPECT_EQ(want.size(), bc->size()) << text;
  EXPECT_EQ(want.type(), bc->type()) << text;
  if (want.size() != bc->size() || want.type() != bc->type()) {
    return Status::OK();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want.IsNull(i), bc->IsNull(i)) << text << " row " << i;
    if (want.IsNull(i) || bc->IsNull(i)) continue;
    EXPECT_TRUE(SameCell(want.type(), want, *bc, i))
        << text << " row " << i << ": oracle " << want.GetValue(i).ToString()
        << " vs bytecode " << bc->GetValue(i).ToString();
  }
  return Status::OK();
}

// --- Golden programs ------------------------------------------------------

TEST(BytecodeCompilerTest, GoldenIntAdd) {
  auto p = Compile("ia + 1");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ToString(),
            "s0=loadcol.i64(ia); s1=const.i64(1); s1=add.i64(s0,s1)");
  EXPECT_EQ(p->result_type, DataType::kInt64);
  EXPECT_EQ(p->num_slots, 2);
}

TEST(BytecodeCompilerTest, GoldenMixedPromotesToDouble) {
  auto p = Compile("ia * da");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ToString(),
            "s0=loadcol.i64(ia); s1=loadcol.f64(da); s0=cast.i64.f64(s0); "
            "s1=mul.f64(s0,s1)");
  EXPECT_EQ(p->result_type, DataType::kDouble);
}

TEST(BytecodeCompilerTest, GoldenComparisonIsDoubleTyped) {
  // §11: every numeric comparison goes through double coercion, even
  // int64-vs-int64 (the 2^53 horizon is intentional, shared semantics).
  auto p = Compile("ia < ib");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->ToString(),
            "s0=loadcol.i64(ia); s1=loadcol.i64(ib); s0=cast.i64.f64(s0); "
            "s1=cast.i64.f64(s1); s1=cmplt.f64(s0,s1)");
  EXPECT_EQ(p->result_type, DataType::kBool);
}

// --- Constant folding and CSE ---------------------------------------------

TEST(BytecodeCompilerTest, ConstantSubtreeFoldsToOneLoad) {
  auto p = Compile("da + (1 + 2 * 3)");
  ASSERT_TRUE(p.ok());
  // The column-free subtree becomes a single constant instruction.
  size_t consts = 0;
  for (const auto& ins : p->code) {
    consts += ins.op == OpCode::kConstI64 || ins.op == OpCode::kConstF64;
  }
  EXPECT_EQ(consts, 1u) << p->ToString();
  EXPECT_EQ(p->constants.size(), 1u);
  EXPECT_TRUE(p->constants[0].is_int64());
  EXPECT_EQ(p->constants[0].int64(), 7);
}

TEST(BytecodeCompilerTest, FoldTimeErrorVetoesTheFold) {
  // 1/0 is a data-dependent error: it fires only when rows flow (an
  // empty table evaluates cleanly). Folding it at compile time would move
  // the error; the compiler must leave the division in the program.
  auto p = Compile("da + 1 / 0");
  ASSERT_TRUE(p.ok());
  bool has_div = false;
  for (const auto& ins : p->code) has_div |= ins.op == OpCode::kDivF64;
  EXPECT_TRUE(has_div) << p->ToString();
}

TEST(BytecodeCompilerTest, SharedSubexpressionCompilesOnce) {
  auto p = Compile("(da * db) + (da * db)");
  ASSERT_TRUE(p.ok());
  size_t muls = 0;
  for (const auto& ins : p->code) muls += ins.op == OpCode::kMulF64;
  EXPECT_EQ(muls, 1u) << p->ToString();
  // Without CSE this is 2 loads + mul twice; with it, the add reads the
  // pinned mul slot for both operands.
  const Instruction& last = p->code.back();
  EXPECT_EQ(last.op, OpCode::kAddF64);
  EXPECT_EQ(last.a, last.b);
}

TEST(BytecodeCompilerTest, NearEqualLiteralsDoNotShareARegister) {
  // Regression (30k-sweep seeds 13278/19263): %.10g renders
  // 1.0000000000001 as "1", so a CSE key built from Expr::ToString()
  // conflated it with the integer literal 1 and rewired the second
  // occurrence onto the first one's register — the comparison then ran
  // against the wrong constant.
  const Table t = SmallTable();
  ExpectParity("((-1.0000000000001 * db) >= coalesce(-1, db, ib))", t);
  ExpectParity(
      "(ba = 1) OR (((ib / 1.0000000000001) >= ib) AND "
      "((ib / 1.0000000000001) <= ib))",
      t);
}

TEST(BytecodeCompilerTest, LiteralTypeCollisionKeepsCaseInt64) {
  // int64 0 and double 0.0 both print "0"; under a text-keyed CSE the
  // ELSE 0 inherited the double constant's register and type, promoting
  // the CASE to DOUBLE where §11 keeps INT64 (seed 21765).
  const std::string text = "CASE WHEN da >= 0.0 THEN ia ELSE 0 END";
  auto p = Compile(text);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->result_type, DataType::kInt64) << p->ToString();
  ExpectParity(text, SmallTable());
}

// --- The compiler is the type checker -------------------------------------

TEST(BytecodeCompilerTest, CompilesStringShapes) {
  auto col = Compile("sa");
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  EXPECT_EQ(col->result_type, DataType::kString);
  EXPECT_EQ(col->ToString(), "s0=loadcol.str(sa)");
  auto cmp = Compile("sa = 'x'");
  ASSERT_TRUE(cmp.ok()) << cmp.status().ToString();
  EXPECT_EQ(cmp->result_type, DataType::kBool);
  EXPECT_NE(cmp->ToString().find("cmpeq.str"), std::string::npos)
      << cmp->ToString();
  auto lit = Compile("'x'");
  ASSERT_TRUE(lit.ok());
  EXPECT_EQ(lit->result_type, DataType::kString);
  // A column-free string subtree folds to one string constant.
  auto folded = Compile("coalesce('a', 'b')");
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded->code.size(), 1u) << folded->ToString();
  EXPECT_EQ(folded->code[0].op, OpCode::kConstStr);
}

TEST(BytecodeCompilerTest, RaisesStaticErrors) {
  struct Case {
    const char* text;
    StatusCode code;
  };
  const Case cases[] = {
      {"SUM(ia)", StatusCode::kInvalidArgument},         // aggregate
      {"frobnicate(da)", StatusCode::kInvalidArgument},  // unknown function
      {"nosuchcol + 1", StatusCode::kNotFound},          // unknown column
      {"sqrt(da, db)", StatusCode::kInvalidArgument},    // arity
      {"coalesce()", StatusCode::kInvalidArgument},      // arity
      {"nullif(ia)", StatusCode::kInvalidArgument},      // arity
      {"ia AND ba", StatusCode::kTypeMismatch},          // type family
      {"sa + 1", StatusCode::kTypeMismatch},
      {"sa < 1", StatusCode::kTypeMismatch},
      {"-sa", StatusCode::kTypeMismatch},
      {"NOT ia", StatusCode::kTypeMismatch},
      {"coalesce(sa, 1)", StatusCode::kTypeMismatch},
      {"CASE WHEN ba THEN sa ELSE 0 END", StatusCode::kTypeMismatch},
      {"CASE WHEN ia THEN 1 END", StatusCode::kTypeMismatch},
  };
  for (const Case& c : cases) {
    auto p = Compile(c.text);
    ASSERT_FALSE(p.ok()) << c.text << " compiled: " << p->ToString();
    EXPECT_EQ(p.status().code(), c.code)
        << c.text << ": " << p.status().ToString();
  }
  // `*` only exists inside COUNT(*); on its own it is a scalar error.
  auto star = CompileExpr(*Expr::MakeStar(), TestSchema());
  ASSERT_FALSE(star.ok());
  EXPECT_EQ(star.status().code(), StatusCode::kInvalidArgument);
  // A string/numeric NULLIF is not static: it compiles and errors only on
  // lanes where both sides are non-NULL (see the golden string table).
  auto mixed = Compile("nullif(sa, 1)");
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  EXPECT_EQ(mixed->result_type, DataType::kString);
}

// --- §11 semantics parity -------------------------------------------------

TEST(BytecodeSemanticsTest, ArithmeticParity) {
  const Table t = SmallTable();
  ExpectParity("ia + ib", t);
  ExpectParity("da * db - ia", t);
  ExpectParity("da / db", t);
  ExpectParity("ia % ib", t);
  ExpectParity("-da", t);
  ExpectParity("-ia", t);
  ExpectParity("abs(ia)", t);
  ExpectParity("abs(da)", t);
  ExpectParity("ln(db)", t);       // negative db rows produce NaN
  ExpectParity("sqrt(da)", t);     // negative/-0.0 rows
  ExpectParity("pow(da, 2)", t);
}

TEST(BytecodeSemanticsTest, NaNComparisonClasses) {
  // The NaN row must land in the oracle's truth bucket:
  // NaN > x and NaN >= x are TRUE, ==/</<= FALSE (three-way compare puts
  // NaN in the "greater" class).
  const Table t = SmallTable();
  for (const char* cmp : {"=", "<>", "<", "<=", ">", ">="}) {
    ExpectParity(std::string("da ") + cmp + " db", t);
    ExpectParity(std::string("da ") + cmp + " 0.0", t);
  }
}

TEST(BytecodeSemanticsTest, SignedZeroSurvives) {
  const Table t = SmallTable();
  // Row 1 has da = -0.0; the bit pattern must round-trip (ExpectParity
  // compares raw bits, not ==).
  ExpectParity("da", t);
  ExpectParity("da * 1.0", t);
  ExpectParity("-da", t);
}

TEST(BytecodeSemanticsTest, CheckedInt64OverflowParity) {
  Table t{Schema({Field{"ia", DataType::kInt64, true}})};
  ASSERT_TRUE(t.AppendRow({Value::Int64(INT64_MAX)}).ok());
  const Status s = ExpectParity("ia + 1", t);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNumericError);
  EXPECT_NE(s.ToString().find("integer overflow in arithmetic"),
            std::string::npos);
}

TEST(BytecodeSemanticsTest, Int64MinEdgeCasesParity) {
  Table t{Schema({Field{"ia", DataType::kInt64, true},
                  Field{"ib", DataType::kInt64, true}})};
  ASSERT_TRUE(
      t.AppendRow({Value::Int64(INT64_MIN), Value::Int64(-1)}).ok());
  // INT64_MIN % -1 is defined as 0 (not a trap).
  EXPECT_TRUE(ExpectParity("ia % ib", t).ok());
  // -INT64_MIN and abs(INT64_MIN) must error.
  const Status neg = ExpectParity("-ia", t);
  EXPECT_NE(neg.ToString().find("integer overflow in negation"),
            std::string::npos)
      << neg.ToString();
  const Status abs = ExpectParity("abs(ia)", t);
  EXPECT_NE(abs.ToString().find("integer overflow in abs()"),
            std::string::npos)
      << abs.ToString();
}

TEST(BytecodeSemanticsTest, DivisionByZeroSkipsNullLanes) {
  // The divisor is NULL on one row and 0.0 on none; no error may fire
  // for the NULL lane's scratch contents.
  Table t{Schema({Field{"da", DataType::kDouble, true},
                  Field{"db", DataType::kDouble, true}})};
  ASSERT_TRUE(t.AppendRow({Value::Double(1.0), Value::Double(2.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Double(1.0), Value::Null()}).ok());
  EXPECT_TRUE(ExpectParity("da / db", t).ok());
  EXPECT_TRUE(ExpectParity("da % db", t).ok());
  // And a real 0.0 divisor on a non-NULL lane errors.
  ASSERT_TRUE(t.AppendRow({Value::Double(1.0), Value::Double(0.0)}).ok());
  const Status s = ExpectParity("da / db", t);
  EXPECT_NE(s.ToString().find("division by zero"), std::string::npos)
      << s.ToString();
}

TEST(BytecodeSemanticsTest, ThreeValuedLogicParity) {
  const Table t = SmallTable();
  ExpectParity("ba AND da > 0", t);
  ExpectParity("ba OR da > 0", t);
  ExpectParity("NOT ba", t);
  ExpectParity("(da > 0 AND db > 0) OR ba", t);
}

TEST(BytecodeSemanticsTest, CaseCoalesceNullifParity) {
  const Table t = SmallTable();
  ExpectParity("CASE WHEN da > 0 THEN ia ELSE ib END", t);
  ExpectParity("CASE WHEN da > 0 THEN 1 WHEN db > 0 THEN 2 END", t);
  ExpectParity("CASE WHEN ba THEN da ELSE ia END", t);  // mixed -> double
  ExpectParity("coalesce(da, db)", t);
  ExpectParity("coalesce(ia, ib)", t);
  ExpectParity("coalesce(da, ia, 0)", t);
  ExpectParity("nullif(ia, 1)", t);
  ExpectParity("nullif(da, db)", t);
}

TEST(BytecodeSemanticsTest, ComparisonHorizonAt2Pow53) {
  // 2^53 + 1 == 2^53 compares TRUE through double coercion — the
  // documented §11 horizon, not a divergence.
  const Table t = SmallTable();
  ExpectParity("ia = ib", t);
  ExpectParity("ia = da", t);
}

// --- VM mechanics ---------------------------------------------------------

// --- Golden string cases: executor and oracle -------------------------------

// Three tables over one schema. "a" mixes NULL, '' and case-distinct
// strings; "b" never has a string and a number both non-NULL on the same
// row; "empty" has no rows, so anything that fails there is static.
Table StringTable(const std::string& which) {
  Table t{Schema({Field{"tag", DataType::kString, true},
                  Field{"other", DataType::kString, true},
                  Field{"n", DataType::kInt64, true}})};
  auto row = [&](Value tag, Value other, Value n) {
    EXPECT_TRUE(
        t.AppendRow({std::move(tag), std::move(other), std::move(n)}).ok());
  };
  const auto S = [](const char* s) { return Value::String(s); };
  const auto I = [](int64_t v) { return Value::Int64(v); };
  if (which == "a") {
    row(S("red"), S("red"), I(1));
    row(S(""), S("a"), I(2));
    row(Value::Null(), S("b"), Value::Null());
    row(S("blue"), Value::Null(), I(3));
    row(S("Red"), S(""), Value::Null());
  } else if (which == "b") {
    row(Value::Null(), Value::Null(), I(1));
    row(Value::Null(), S("x"), Value::Null());
  }
  return t;
}

TEST(BytecodeStringGoldenTest, ExecutorAndOracleMatchTheGoldenTable) {
  const Value N = Value::Null();
  const Value T = Value::Bool(true);
  const Value F = Value::Bool(false);
  const auto S = [](const char* s) { return Value::String(s); };
  struct Case {
    const char* table;
    const char* expr;
    bool ok;
    std::vector<Value> want;  // one per row when ok
  };
  const std::vector<Case> cases = {
      // Comparisons: byte-wise order ('R' < 'b' < 'r'), '' sorts first,
      // NULL propagates.
      {"a", "tag = 'red'", true, {T, F, N, F, F}},
      {"a", "tag <> ''", true, {T, F, N, T, T}},
      {"a", "tag < other", true, {F, T, N, N, F}},
      {"a", "tag <= other", true, {T, T, N, N, F}},
      {"a", "tag >= 'blue'", true, {T, F, N, T, F}},
      {"a", "tag > 'Red'", true, {T, F, N, T, F}},
      {"a", "'' < tag", true, {T, F, N, T, T}},
      {"a", "tag = 'red' AND other = 'red'", true, {T, F, F, F, F}},
      // COALESCE / CASE / NULLIF over strings.
      {"a", "coalesce(tag, other, 'none')", true,
       {S("red"), S(""), S("b"), S("blue"), S("Red")}},
      {"a", "coalesce(other, tag)", true,
       {S("red"), S("a"), S("b"), S("blue"), S("")}},
      {"a", "CASE WHEN n > 1 THEN tag ELSE other END", true,
       {S("red"), S(""), S("b"), S("blue"), S("")}},
      {"a", "CASE WHEN tag = 'red' THEN 'hit' END", true,
       {S("hit"), N, N, N, N}},
      {"a", "nullif(tag, 'red')", true, {N, S(""), N, S("blue"), S("Red")}},
      {"a", "nullif(tag, other)", true, {N, S(""), N, S("blue"), S("Red")}},
      {"a", "nullif(other, '')", true, {S("red"), S("a"), S("b"), N, N}},
      // A string/numeric NULLIF errors only where both sides are non-NULL.
      {"a", "nullif(tag, 1)", false, {}},
      {"a", "nullif(n, tag)", false, {}},
      {"b", "nullif(tag, 1)", true, {N, N}},
      {"b", "nullif(other, n)", true, {N, S("x")}},
      {"b", "nullif(n, other)", true, {Value::Int64(1), N}},
      {"empty", "nullif(tag, 1)", true, {}},
      // Static errors fire even over no rows: unknown column or
      // function, wrong arity, mixed type families.
      {"empty", "nosuchcol", false, {}},
      {"empty", "frobnicate(tag)", false, {}},
      {"empty", "sqrt(n, n)", false, {}},
      {"empty", "coalesce()", false, {}},
      {"empty", "nullif(tag)", false, {}},
      {"empty", "tag = 1", false, {}},
      {"empty", "tag + 1", false, {}},
      {"empty", "-tag", false, {}},
      {"empty", "coalesce(tag, 1)", false, {}},
      {"empty", "CASE WHEN n > 0 THEN tag ELSE 0 END", false, {}},
      {"empty", "coalesce(tag, NULL)", false, {}},
  };
  for (const Case& c : cases) {
    const Table table = StringTable(c.table);
    Catalog catalog;
    ASSERT_TRUE(catalog.Register("t", std::make_shared<Table>(table)).ok());
    const std::string sql = std::string("SELECT ") + c.expr + " FROM t";
    Result<Table> exec = ExecuteQuery(catalog, sql);
    const testing::OracleResult oracle = OracleSelect(c.expr, table);
    const std::string label = std::string(c.table) + ": " + c.expr;
    ASSERT_EQ(exec.ok(), c.ok)
        << label << ": " << (exec.ok() ? "ok" : exec.status().ToString());
    ASSERT_EQ(oracle.status.ok(), c.ok)
        << label << ": oracle " << oracle.status.ToString();
    if (!c.ok) continue;
    ASSERT_EQ(exec->num_rows(), c.want.size()) << label;
    ASSERT_EQ(oracle.table.num_rows(), c.want.size()) << label;
    for (size_t r = 0; r < c.want.size(); ++r) {
      EXPECT_EQ(exec->GetValue(r, 0), c.want[r])
          << label << " row " << r << ": executor "
          << exec->GetValue(r, 0).ToString();
      EXPECT_EQ(oracle.table.GetValue(r, 0), c.want[r])
          << label << " row " << r << ": oracle "
          << oracle.table.GetValue(r, 0).ToString();
    }
  }
  // Aggregates in scalar context (here a WHERE clause) are static errors
  // on both sides, rows or not.
  for (const char* which : {"a", "empty"}) {
    Catalog catalog;
    ASSERT_TRUE(catalog
                    .Register("t", std::make_shared<Table>(StringTable(which)))
                    .ok());
    auto stmt = ParseSelect("SELECT tag FROM t WHERE SUM(n) > 0");
    ASSERT_TRUE(stmt.ok());
    EXPECT_FALSE(ExecuteSelect(catalog, *stmt).ok()) << which;
    EXPECT_FALSE(testing::OracleExecuteSelect(catalog, *stmt).status.ok())
        << which;
  }
}

// --- VM mechanics ---------------------------------------------------------

TEST(BytecodeVmTest, TinyBatchesCrossBoundariesCorrectly) {
  // batch_size 3 over 5 rows: 2 batches, the second partial. Results must
  // be bit-identical to the default batch size.
  const Table t = SmallTable();
  for (const char* text : {"da * 2.0 + ia", "coalesce(sa, 'z')",
                           "nullif(ia, 1)", "sa >= 's'"}) {
    auto expr = ParseExpr(text);
    ASSERT_NE(expr, nullptr);
    auto compiled = CompileExpr(*expr, t.schema());
    ASSERT_TRUE(compiled.ok()) << text;
    BatchEvaluator tiny(3);
    BatchEvaluator wide;
    Result<Column> small = tiny.Run(*compiled, t);
    Result<Column> big = wide.Run(*compiled, t);
    ASSERT_TRUE(small.ok()) << small.status().ToString();
    ASSERT_TRUE(big.ok()) << big.status().ToString();
    ASSERT_EQ(small->size(), big->size());
    for (size_t i = 0; i < big->size(); ++i) {
      ASSERT_EQ(small->IsNull(i), big->IsNull(i)) << text << " row " << i;
      if (big->IsNull(i)) continue;
      EXPECT_TRUE(SameCell(big->type(), *small, *big, i))
          << text << " row " << i;
    }
    EXPECT_TRUE(ExpectParity(text, t).ok()) << text;
  }
}

TEST(BytecodeVmTest, ScratchReuseIsBitIdenticalAcrossRuns) {
  // One evaluator, many runs over different programs and tables: stale
  // scratch from run N must never leak into run N+1.
  const Table t = SmallTable();
  BatchEvaluator eval;
  auto run = [&](const std::string& text) {
    auto expr = ParseExpr(text);
    auto compiled = CompileExpr(*expr, t.schema());
    EXPECT_TRUE(compiled.ok()) << text;
    Result<Column> c = eval.Run(*compiled, t);
    EXPECT_TRUE(c.ok()) << text;
    return std::move(c).value();
  };
  const Column first = run("da + db");
  run("coalesce(da, ia, -1)");  // different program dirties the slots
  run("ia - ib");  // (ia * ib would overflow on the 2^53 row)
  run("CASE WHEN ba THEN sa END");  // string lanes under NULLs go stale
  const Column again = run("da + db");
  ASSERT_EQ(first.size(), again.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first.IsNull(i), again.IsNull(i)) << i;
    if (first.IsNull(i)) continue;
    EXPECT_TRUE(SameCell(DataType::kDouble, first, again, i)) << i;
  }
}

TEST(BytecodeVmTest, FilterSelectsOnlyTrueRows) {
  const Table t = SmallTable();
  auto expr = ParseExpr("da > 0 AND ia < 100");
  ASSERT_NE(expr, nullptr);
  // Row 0 is TRUE; row 1 (-0.0) FALSE; row 2 NaN > 0 but ia NULL -> NULL;
  // row 3 fails ia < 100; row 4 has NULL da.
  Result<std::vector<uint32_t>> rows = FilterRows(*expr, t);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(*rows, (std::vector<uint32_t>{0}));
}

TEST(BytecodeVmTest, NonBooleanFilterIsATypeError) {
  const Table t = SmallTable();
  auto expr = ParseExpr("da + db");
  ASSERT_NE(expr, nullptr);
  Result<std::vector<uint32_t>> rows = FilterRows(*expr, t);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kTypeMismatch);
}

TEST(BytecodeVmTest, EvaluateExprReportsTheCompiledProgram) {
  const Table t = SmallTable();
  auto expr = ParseExpr("da + 1.0");
  ASSERT_NE(expr, nullptr);
  std::string disasm;
  Result<Column> r = EvaluateExpr(*expr, t, &disasm);
  ASSERT_TRUE(r.ok());
  EXPECT_NE(disasm.find("add.f64"), std::string::npos) << disasm;
  // A static error never produces a program.
  auto bad = ParseExpr("da + sa");
  ASSERT_NE(bad, nullptr);
  disasm = "unset";
  EXPECT_FALSE(EvaluateExpr(*bad, t, &disasm).ok());
  EXPECT_EQ(disasm, "");
}

TEST(BytecodeVmTest, EvaluateConstantRunsOneRow) {
  auto lit = ParseExpr("42");
  auto v = EvaluateConstant(*lit);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int64(), 42);
  auto composite = EvaluateConstant(*ParseExpr("coalesce(NULL, 2.5) * 2"));
  ASSERT_TRUE(composite.ok()) << composite.status().ToString();
  EXPECT_EQ(composite->dbl(), 5.0);
  auto str = EvaluateConstant(*ParseExpr("nullif('a', 'b')"));
  ASSERT_TRUE(str.ok());
  EXPECT_EQ(str->str(), "a");
  EXPECT_EQ(EvaluateConstant(*ParseExpr("1 / 0")).status().code(),
            StatusCode::kNumericError);
  EXPECT_FALSE(EvaluateConstant(*ParseExpr("ia + 1")).ok());
}

}  // namespace
}  // namespace laws
