#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>

#include "query/parser.h"
#include "testing/aqp_audit.h"
#include "testing/differential.h"
#include "testing/learning_diff.h"
#include "testing/query_gen.h"
#include "testing/reference_oracle.h"
#include "testing/shrink.h"

namespace laws {
namespace testing {
namespace {

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  return (end != nullptr && *end == '\0') ? v : fallback;
}

// The tentpole gate: a seeded sweep of generated queries, each executed by
// the vectorized engine (at 1 thread and at the default width) and by the
// row-at-a-time reference oracle, diffed for bit identity. Overridable for
// soaks: LAWS_FUZZ_QUERIES=100000 LAWS_FUZZ_SEED=7 ./differential_test
TEST(DifferentialTest, SweepAgreesWithOracle) {
  DiffOptions opts;
  opts.seed = EnvU64("LAWS_FUZZ_SEED", opts.seed);
  opts.num_queries =
      static_cast<size_t>(EnvU64("LAWS_FUZZ_QUERIES", opts.num_queries));

  const DiffReport report = RunDifferential(opts);
  EXPECT_EQ(report.parse_failures, 0u) << report.Summary();
  EXPECT_TRUE(report.mismatches.empty()) << report.Summary();
  // The generator aims most queries at valid SQL; if almost everything
  // errors out, coverage has silently collapsed.
  EXPECT_GT(report.agree_rows, report.queries * 2 / 5) << report.Summary();
}

// The robustness gate: the same generated queries run under randomly
// drawn governor regimes (cancel, deadline, budget, injected faults) and
// must either finish bit-identical to the ungoverned reference or stop
// with a clean typed governor error — never wrong rows, never a crash.
// Overridable for the 10k acceptance soak (see tools/check_governor.sh):
// LAWS_CHAOS_QUERIES=10000 LAWS_CHAOS_SEED=7 ./differential_test
TEST(DifferentialTest, GovernorChaosSweepHoldsInvariant) {
  ChaosOptions opts;
  opts.seed = EnvU64("LAWS_CHAOS_SEED", opts.seed);
  opts.num_queries =
      static_cast<size_t>(EnvU64("LAWS_CHAOS_QUERIES", opts.num_queries));

  const ChaosReport report = RunGovernorChaos(opts);
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  // All three legitimate outcomes must actually occur, or the regimes
  // have silently stopped biting.
  EXPECT_GT(report.governor_stopped, 0u) << report.Summary();
  EXPECT_GT(report.completed_identical, 0u) << report.Summary();
}

TEST(DifferentialTest, GeneratorIsDeterministic) {
  const GeneratedCase a = GenerateCase(99);
  const GeneratedCase b = GenerateCase(99);
  EXPECT_EQ(a.sql, b.sql);
  ASSERT_EQ(a.tables.size(), b.tables.size());
  for (size_t i = 0; i < a.tables.size(); ++i) {
    EXPECT_EQ(a.tables[i].ToString(), b.tables[i].ToString());
  }
  EXPECT_NE(a.sql, GenerateCase(100).sql);
}

TEST(DifferentialTest, TablesEquivalentComparesOrderAndMultiset) {
  Table a{Schema({Field{"x", DataType::kInt64, true}})};
  Table b{Schema({Field{"x", DataType::kInt64, true}})};
  ASSERT_TRUE(a.AppendRow({Value::Int64(1)}).ok());
  ASSERT_TRUE(a.AppendRow({Value::Int64(2)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Int64(2)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Int64(1)}).ok());
  std::string why;
  EXPECT_TRUE(TablesEquivalent(a, b, /*order_sensitive=*/false, &why));
  EXPECT_FALSE(TablesEquivalent(a, b, /*order_sensitive=*/true, &why));
}

TEST(DifferentialTest, TablesEquivalentNaNClassAndSignedZero) {
  Table a{Schema({Field{"x", DataType::kDouble, true}})};
  Table b{Schema({Field{"x", DataType::kDouble, true}})};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(a.AppendRow({Value::Double(nan)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Double(-nan)}).ok());
  std::string why;
  // Every NaN is one equivalence class...
  EXPECT_TRUE(TablesEquivalent(a, b, /*order_sensitive=*/true, &why));
  // ...but -0.0 and +0.0 are distinct output values.
  ASSERT_TRUE(a.AppendRow({Value::Double(0.0)}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Double(-0.0)}).ok());
  EXPECT_FALSE(TablesEquivalent(a, b, /*order_sensitive=*/true, &why));
}

TEST(DifferentialTest, ShrinkerReducesFailingCase) {
  // Shrink against a synthetic predicate ("query still references column
  // ia and table has a row with ia = 3") to exercise the minimizer
  // mechanics deterministically.
  GenTable t;
  t.name = "t0";
  t.columns = {GenColumn{"ia", DataType::kInt64, true},
               GenColumn{"da", DataType::kDouble, true}};
  for (int i = 0; i < 16; ++i) {
    t.rows.push_back({Value::Int64(i % 5), Value::Double(i * 0.5)});
  }
  std::vector<GenTable> tables = {std::move(t)};
  auto stmt = ParseSelect(
      "SELECT ia, da, ia + 1 FROM t0 WHERE da >= 0 ORDER BY da DESC, ia "
      "LIMIT 12");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  auto repro = [](const std::vector<GenTable>& tabs,
                  const SelectStatement& s) {
    bool has_three = false;
    for (const auto& row : tabs[0].rows) {
      has_three |= !row[0].is_null() && row[0].is_int64() &&
                   row[0].int64() == 3;
    }
    return has_three && s.ToString().find("ia") != std::string::npos;
  };
  ShrinkCase(&tables, &*stmt, repro, 400);

  EXPECT_TRUE(repro(tables, *stmt));
  // Rows collapse to a single witness; incidental clauses disappear.
  EXPECT_LE(tables[0].rows.size(), 2u);
  EXPECT_EQ(stmt->limit, -1);
  EXPECT_EQ(stmt->where, nullptr);
  EXPECT_TRUE(stmt->order_by.empty());
}

// The AQP side of the contract: model answers stay inside their reported
// prediction intervals; every fallback is bit-identical to the exact
// engine and explains itself.
TEST(DifferentialTest, AqpErrorBoundAudit) {
  auto report = RunAqpAudit(EnvU64("LAWS_FUZZ_SEED", 0x5EED), 60);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->violations.empty()) << report->Summary();
  EXPECT_GT(report->approximate, 0u) << report->Summary();
  EXPECT_GT(report->exact_fallbacks, 0u) << report->Summary();
}

// The learning leg: the same fuzz generator with harvesting enabled.
// Exact answers must stay bit-identical to the learning-off reference
// (learning is a by-product, never a perturbation), every merged
// sufficient statistic must re-derive by batch OLS over the rows it
// claims, and the repeated-workload phase must promote models whose
// approximate answers pass the interval audit with bounds that only
// tighten. Overridable for the acceptance soak (tools/check_learning.sh):
// LAWS_LEARN_FUZZ_QUERIES=30000 LAWS_LEARN_FUZZ_SEED=7 ./differential_test
TEST(DifferentialTest, LearningSweepMatchesReference) {
  LearnDiffOptions opts;
  opts.seed = EnvU64("LAWS_LEARN_FUZZ_SEED", opts.seed);
  opts.num_queries = static_cast<size_t>(
      EnvU64("LAWS_LEARN_FUZZ_QUERIES", opts.num_queries));

  const LearnDiffReport report = RunLearningDifferential(opts);
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  EXPECT_EQ(report.parse_failures, 0u) << report.Summary();
  // Coverage sanity: the sweep must actually exercise both halves of the
  // contract — bit-identical exact answers and audited model answers.
  EXPECT_GT(report.exact_matches, opts.num_queries * 2 / 5)
      << report.Summary();
  EXPECT_GT(report.audited, 0u) << report.Summary();
  EXPECT_GT(report.model_hits, 0u) << report.Summary();
  EXPECT_GT(report.promotions, 0u) << report.Summary();
  EXPECT_GT(report.self_checks, 0u) << report.Summary();
  EXPECT_GT(report.harvested_rows, 0u) << report.Summary();
}

#ifdef LAWS_TESTING_INJECT_BUG
// Self-test of the harness: with the planted hash-aggregate off-by-one
// (the numeric sweep drops the last input row), this exact case must be
// flagged. If this test FAILS under -DLAWS_TESTING_INJECT_BUG=ON, the
// harness has lost its teeth.
TEST(DifferentialTest, MutationSmokeCatchesInjectedBug) {
  GenTable t;
  t.name = "t0";
  t.columns = {GenColumn{"g", DataType::kInt64, false},
               GenColumn{"v", DataType::kInt64, false}};
  t.rows = {{Value::Int64(1), Value::Int64(1)},
            {Value::Int64(1), Value::Int64(2)},
            {Value::Int64(2), Value::Int64(5)}};
  auto stmt = ParseSelect("SELECT g, SUM(v) FROM t0 GROUP BY g");
  ASSERT_TRUE(stmt.ok());
  const CaseDiff diff = DiffCase({t}, *stmt);
  EXPECT_FALSE(diff.reason.empty())
      << "injected aggregate bug was not detected";
}

// The bytecode tier carries its own planted mutant (the compiled f64
// adder drops the last lane of every batch). Every executor tier shares
// the compiled evaluator, so the tiers agree with each other; the oracle
// leg catches the mutant against the bytecode@1 baseline — proving the
// evaluator itself is under differential test.
TEST(DifferentialTest, MutationSmokeCatchesInjectedBytecodeBug) {
  GenTable t;
  t.name = "t0";
  t.columns = {GenColumn{"da", DataType::kDouble, false}};
  t.rows = {{Value::Double(1.5)}, {Value::Double(2.5)}, {Value::Double(4.0)}};
  auto stmt = ParseSelect("SELECT da + 100.25 FROM t0");
  ASSERT_TRUE(stmt.ok());
  const CaseDiff diff = DiffCase({t}, *stmt);
  EXPECT_FALSE(diff.reason.empty())
      << "injected bytecode adder bug was not detected";
}

// The compressed scan tier's planted mutant shrinks every zone-map max by
// one ulp, so a predicate sitting exactly on a block maximum wrongly
// prunes that block. 17 sorted rows span three 8-row blocks under the
// harness block size; `ia >= 17` must keep exactly the last block, which
// the mutant discards — only the compressed-vs-decode legs of the matrix
// can see it.
TEST(DifferentialTest, MutationSmokeCatchesInjectedZoneMapBug) {
  GenTable t;
  t.name = "t0";
  t.columns = {GenColumn{"ia", DataType::kInt64, false}};
  for (int i = 1; i <= 17; ++i) t.rows.push_back({Value::Int64(i)});
  auto stmt = ParseSelect("SELECT ia FROM t0 WHERE ia >= 17");
  ASSERT_TRUE(stmt.ok());
  const CaseDiff diff = DiffCase({t}, *stmt);
  EXPECT_FALSE(diff.reason.empty())
      << "injected zone-map pruning bug was not detected";
}

// The learning loop's planted mutant corrupts one merged sufficient
// statistic in IncrementalOls::Merge — the exact class of bug (a subtly
// wrong harvest accumulator) the learning leg exists to catch. Only the
// merged-vs-batch self-check can see it: query answers never flow through
// the accumulator, so the exact-answer legs stay green.
TEST(DifferentialTest, MutationSmokeCatchesInjectedHarvestBug) {
  const std::string mismatch = HarvestConsistencyProbe();
  EXPECT_FALSE(mismatch.empty())
      << "injected sufficient-statistic merge bug was not detected";
}
#else
// Same case in a healthy build: must agree (guards against the smoke test
// passing for the wrong reason).
TEST(DifferentialTest, MutationSmokeCaseAgreesWhenHealthy) {
  GenTable t;
  t.name = "t0";
  t.columns = {GenColumn{"g", DataType::kInt64, false},
               GenColumn{"v", DataType::kInt64, false}};
  t.rows = {{Value::Int64(1), Value::Int64(1)},
            {Value::Int64(1), Value::Int64(2)},
            {Value::Int64(2), Value::Int64(5)}};
  auto stmt = ParseSelect("SELECT g, SUM(v) FROM t0 GROUP BY g");
  ASSERT_TRUE(stmt.ok());
  const CaseDiff diff = DiffCase({t}, *stmt);
  EXPECT_TRUE(diff.reason.empty()) << diff.reason;
}

TEST(DifferentialTest, BytecodeMutationSmokeCaseAgreesWhenHealthy) {
  GenTable t;
  t.name = "t0";
  t.columns = {GenColumn{"da", DataType::kDouble, false}};
  t.rows = {{Value::Double(1.5)}, {Value::Double(2.5)}, {Value::Double(4.0)}};
  auto stmt = ParseSelect("SELECT da + 100.25 FROM t0");
  ASSERT_TRUE(stmt.ok());
  const CaseDiff diff = DiffCase({t}, *stmt);
  EXPECT_TRUE(diff.reason.empty()) << diff.reason;
}

TEST(DifferentialTest, ZoneMapMutationSmokeCaseAgreesWhenHealthy) {
  GenTable t;
  t.name = "t0";
  t.columns = {GenColumn{"ia", DataType::kInt64, false}};
  for (int i = 1; i <= 17; ++i) t.rows.push_back({Value::Int64(i)});
  auto stmt = ParseSelect("SELECT ia FROM t0 WHERE ia >= 17");
  ASSERT_TRUE(stmt.ok());
  const CaseDiff diff = DiffCase({t}, *stmt);
  EXPECT_TRUE(diff.reason.empty()) << diff.reason;
}

// Healthy build: merged statistics and batch OLS agree on the probe
// (guards against the harvest smoke test passing for the wrong reason).
TEST(DifferentialTest, HarvestProbeAgreesWhenHealthy) {
  EXPECT_EQ(HarvestConsistencyProbe(), "");
}
#endif

}  // namespace
}  // namespace testing
}  // namespace laws
