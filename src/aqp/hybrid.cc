#include "aqp/hybrid.h"

#include <cstdio>

#include "common/governor.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "query/compressed_scan.h"
#include "query/executor.h"
#include "query/parser.h"

namespace laws {
namespace {

bool ContainsCountStar(const Expr& expr) {
  if (expr.kind == ExprKind::kAggregate &&
      expr.aggregate_func == AggregateFunc::kCount &&
      expr.children[0]->kind == ExprKind::kStar) {
    return true;
  }
  for (const auto& c : expr.children) {
    if (ContainsCountStar(*c)) return true;
  }
  return false;
}

/// COUNT(*) asks for raw tuple multiplicity, which a reconstructed grid
/// (one tuple per enumerated combination) cannot reproduce — the paper's
/// griding caveat. Such statements must take the exact path.
bool StatementNeedsRawMultiplicity(const SelectStatement& stmt) {
  for (const SelectItem& item : stmt.select_list) {
    if (!item.is_star && ContainsCountStar(*item.expr)) return true;
  }
  if (stmt.having != nullptr && ContainsCountStar(*stmt.having)) return true;
  for (const auto& k : stmt.order_by) {
    if (ContainsCountStar(*k.expr)) return true;
  }
  return false;
}

/// Figure 2 accounting (cached pointers; see metrics.h): how often the
/// engine answered from a model vs. fell back to the exact scan, and why.
struct HybridCounters {
  Counter* model_hit;
  Counter* exact_fallback;
  Counter* count_star_exact;
  Counter* low_quality_reject;
  Counter* drift_reject;
  Counter* no_model;
  Counter* degraded_to_aqp;
  MetricHistogram* interval_halfwidth;

  static HybridCounters& Get() {
    static HybridCounters c = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      return HybridCounters{
          reg.GetCounter("aqp.hybrid.model_hit"),
          reg.GetCounter("aqp.hybrid.exact_fallback"),
          reg.GetCounter("aqp.hybrid.fallback.count_star"),
          reg.GetCounter("aqp.hybrid.fallback.low_quality"),
          reg.GetCounter("aqp.hybrid.fallback.drift"),
          reg.GetCounter("aqp.hybrid.fallback.no_model"),
          reg.GetCounter("governor.degraded_to_aqp"),
          reg.GetHistogram("aqp.hybrid.interval_halfwidth")};
    }();
    return c;
  }
};

}  // namespace

Result<HybridAnswer> HybridQueryEngine::Execute(const std::string& sql) const {
  HybridCounters& counters = HybridCounters::Get();
  ScopedSpan span("HybridDecision");
  HybridAnswer answer;

  LAWS_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));
  // Database-learning hooks: when a learner is attached and on, every
  // successful exact scan is harvested (its rows refine candidate
  // models), drift-flagged models are rejected at arbitration, and
  // hit/fallback outcomes feed the promotion/eviction policy. All hooks
  // are fire-and-forget — learning never changes or fails an answer.
  LearningObserver* learner =
      options_.learner != nullptr && options_.learner->enabled()
          ? options_.learner
          : nullptr;
  if (StatementNeedsRawMultiplicity(stmt)) {
    if (!options_.allow_exact_fallback) {
      return Status::InvalidArgument(
          "COUNT(*) needs raw multiplicity; the model grid cannot provide "
          "it and exact fallback is disabled");
    }
    counters.count_star_exact->Add();
    counters.exact_fallback->Add();
    answer.fallback_reason =
        "COUNT(*) multiplicity is not reproducible from the model grid";
    span.SetDetail("exact: " + answer.fallback_reason);
    {
      ScopedSpan exact_span("ExactScan");
      LAWS_ASSIGN_OR_RETURN(answer.table, ExecuteSelect(*data_, stmt));
    }
    answer.method = "exact";
    answer.approximate = false;
    if (learner != nullptr) {
      learner->OnExactScan(stmt, *data_, *model_engine_->model_catalog());
    }
    return answer;
  }

  Result<ApproxAnswer> approx = [&] {
    ScopedSpan model_span("ModelPath");
    return model_engine_->ExecuteStatement(stmt);
  }();
  if (approx.ok()) {
    // Quality gate: only serve answers from models judged good enough —
    // and, under learning, not currently drift-flagged (fresh rows
    // contradicting a fitted law bar it from serving until its refit).
    auto model = model_engine_->model_catalog()->Get(approx->model_id);
    const double quality =
        model.ok() ? (*model)->ArbitrationQuality() : 0.0;
    std::string drift_why;
    const bool drift_rejected =
        quality >= options_.min_quality && learner != nullptr &&
        learner->RejectModel(approx->model_id, &drift_why);
    if (quality >= options_.min_quality && !drift_rejected) {
      counters.model_hit->Add();
      counters.interval_halfwidth->Record(approx->max_error_bound);
      answer.table = std::move(approx->table);
      answer.method = approx->method;
      answer.approximate = true;
      answer.error_bound = approx->max_error_bound;
      span.SetDetail(answer.method + ", model " +
                     std::to_string(approx->model_id) + ", quality " +
                     FormatDouble(quality, 4) + ", bound +/-" +
                     FormatDouble(answer.error_bound, 6));
      if (learner != nullptr) {
        learner->OnDecision(stmt.from_table, approx->model_id,
                            *model_engine_->model_catalog());
      }
      return answer;
    }
    if (drift_rejected) {
      counters.drift_reject->Add();
      answer.fallback_reason = drift_why;
    } else {
      counters.low_quality_reject->Add();
      answer.fallback_reason =
          "model quality " + FormatDouble(quality, 4) + " below threshold " +
          FormatDouble(options_.min_quality, 4);
    }
  } else {
    // No covering model, stale model, or non-enumerable dimension — this
    // is also the path taken when a persisted model was quarantined by a
    // tolerant load (the model is simply absent from the catalog).
    counters.no_model->Add();
    answer.fallback_reason = approx.status().ToString();
  }

  if (!options_.allow_exact_fallback) {
    return Status::NotFound("model path unavailable (" +
                            answer.fallback_reason +
                            ") and exact fallback disabled");
  }
  counters.exact_fallback->Add();
  span.SetDetail("exact: " + answer.fallback_reason);
  ScopedSpan exact_span("ExactScan");
  Result<Table> exact = ExecuteSelect(*data_, stmt);
  exact_span.End();
  if (!exact.ok()) {
    // Overload-graceful degradation: when the governor stopped the exact
    // scan on time or memory and a model answer exists (it was computed
    // above but rejected by the quality gate), serve it — an approximate
    // answer under overload beats no answer. Cancellation never
    // degrades: a canceled query returns its error, full stop. Other
    // errors propagate untouched.
    const StatusCode code = exact.status().code();
    const bool overload = code == StatusCode::kDeadlineExceeded ||
                          code == StatusCode::kResourceExhausted;
    if (overload && approx.ok()) {
      counters.degraded_to_aqp->Add();
      answer.table = std::move(approx->table);
      answer.method = approx->method;
      answer.approximate = true;
      answer.degraded = true;
      answer.error_bound = approx->max_error_bound;
      answer.fallback_reason = code == StatusCode::kDeadlineExceeded
                                   ? "deadline"
                                   : "memory budget";
      span.SetDetail("degraded to model answer: " +
                     exact.status().ToString());
      return answer;
    }
    return exact.status();
  }
  answer.table = std::move(*exact);
  answer.method = "exact";
  answer.approximate = false;
  if (learner != nullptr) {
    learner->OnExactScan(stmt, *data_, *model_engine_->model_catalog());
    learner->OnDecision(stmt.from_table, 0, *model_engine_->model_catalog());
  }
  return answer;
}

Result<std::string> HybridQueryEngine::ExplainAnalyze(
    const std::string& sql) const {
  TraceSink sink;
  Timer total;
  // Expression-tier accounting for this query (process-global counters,
  // so report the delta) — same line ExplainAnalyzeQuery prints.
  Counter* compiled = MetricsRegistry::Global().GetCounter("expr.compiled");
  Counter* batches = MetricsRegistry::Global().GetCounter("expr.batches");
  Counter* blocks = MetricsRegistry::Global().GetCounter("scan.blocks_total");
  Counter* pruned = MetricsRegistry::Global().GetCounter("scan.blocks_pruned");
  Counter* run_skips =
      MetricsRegistry::Global().GetCounter("scan.runs_skipped");
  Counter* enc_agg = MetricsRegistry::Global().GetCounter("scan.encoded_agg");
  Counter* harvest_rows =
      MetricsRegistry::Global().GetCounter("learn.harvest.rows");
  Counter* drift_detected =
      MetricsRegistry::Global().GetCounter("learn.drift.detected");
  Counter* drift_rejected =
      MetricsRegistry::Global().GetCounter("learn.drift.rejected");
  const uint64_t compiled0 = compiled->value();
  const uint64_t batches0 = batches->value();
  const uint64_t blocks0 = blocks->value();
  const uint64_t pruned0 = pruned->value();
  const uint64_t run_skips0 = run_skips->value();
  const uint64_t enc_agg0 = enc_agg->value();
  const uint64_t harvest_rows0 = harvest_rows->value();
  const uint64_t drift_detected0 = drift_detected->value();
  const uint64_t drift_rejected0 = drift_rejected->value();
  LAWS_ASSIGN_OR_RETURN(HybridAnswer answer, Execute(sql));
  std::string out = sink.Render();
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "expr: compiled=%llu batches=%llu\n",
                static_cast<unsigned long long>(compiled->value() - compiled0),
                static_cast<unsigned long long>(batches->value() - batches0));
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "scan: engine=%s blocks=%llu pruned=%llu runs_skipped=%llu "
      "encoded_agg=%llu\n",
      GlobalScanEngine() == ScanEngine::kCompressed ? "compressed" : "decode",
      static_cast<unsigned long long>(blocks->value() - blocks0),
      static_cast<unsigned long long>(pruned->value() - pruned0),
      static_cast<unsigned long long>(run_skips->value() - run_skips0),
      static_cast<unsigned long long>(enc_agg->value() - enc_agg0));
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "learning: state=%s harvested_rows=%llu drift_flagged=%llu "
      "drift_rejected=%llu\n",
      options_.learner != nullptr && options_.learner->enabled() ? "on"
                                                                 : "off",
      static_cast<unsigned long long>(harvest_rows->value() - harvest_rows0),
      static_cast<unsigned long long>(drift_detected->value() -
                                      drift_detected0),
      static_cast<unsigned long long>(drift_rejected->value() -
                                      drift_rejected0));
  out += buf;
  if (QueryGovernor* gov = QueryGovernor::Current()) {
    out += gov->DescribeLine();
  }
  std::snprintf(buf, sizeof(buf), "%zu row%s in %.3f ms\n",
                answer.table.num_rows(),
                answer.table.num_rows() == 1 ? "" : "s", total.ElapsedMillis());
  out += buf;
  out += "answered by: " + answer.method;
  if (answer.degraded) {
    out += " (degraded: exact path stopped by " + answer.fallback_reason +
           ", error bound +/-" + FormatDouble(answer.error_bound, 6) + ")";
  } else if (answer.approximate) {
    out += " (approximate, error bound +/-" +
           FormatDouble(answer.error_bound, 6) + ")";
  } else if (!answer.fallback_reason.empty()) {
    out += " (" + answer.fallback_reason + ")";
  }
  out += '\n';
  return out;
}

}  // namespace laws
