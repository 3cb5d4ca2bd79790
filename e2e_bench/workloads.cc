#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "aqp/hybrid.h"
#include "aqp/model_aqp.h"
#include "common/trace.h"
#include "compress/block_store.h"
#include "model/grouped_fit.h"
#include "model/model.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/query_context.h"
#include "testing/reference_oracle.h"

namespace e2e {

using laws::ClientSession;
using laws::DatabaseSnapshot;
using laws::Table;

laws::ServerOptions BenchServerOptions(laws::LearningObserver* learner) {
  laws::ServerOptions options;
  options.max_inflight_queries = 64;
  options.queue_timeout_micros = 600'000'000;
  options.max_sessions = 0;
  options.default_limits = laws::ResourceLimits{};
  options.hybrid.learner = learner;
  return options;
}

void Summarize(const Table& table, ReadOutcome* out) {
  out->digest = DigestTable(table);
  out->has_value = false;
  out->value = 0.0;
  if (table.num_columns() == 0 || table.num_rows() == 0) return;
  const laws::Column& col = table.column(0);
  double sum = 0.0;
  size_t n = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    auto v = col.NumericAt(r);
    if (v.ok()) {
      sum += *v;
      ++n;
    }
  }
  if (n > 0) {
    out->value = sum / static_cast<double>(n);
    out->has_value = true;
  }
}

ReadOutcome IssueRead(ClientSession* session, const std::string& sql,
                      bool hybrid) {
  ReadOutcome out;
  if (hybrid) {
    auto r = session->ExecuteHybrid(sql);
    if (!r.ok()) {
      out.error = r.status().ToString();
      return out;
    }
    out.ok = true;
    out.approximate = r->approximate;
    out.error_bound = r->error_bound;
    Summarize(r->table, &out);
  } else {
    auto r = session->ExecuteSql(sql);
    if (!r.ok()) {
      out.error = r.status().ToString();
      return out;
    }
    out.ok = true;
    Summarize(*r, &out);
  }
  return out;
}

ReadOutcome ExactReference::Get(const DatabaseSnapshot& db,
                                const std::string& sql) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = cache_.find(sql);
    if (it != cache_.end()) return it->second;
  }
  ReadOutcome out;
  auto r = laws::ExecuteQuery(db.tables, sql);
  if (r.ok()) {
    out.ok = true;
    Summarize(*r, &out);
  } else {
    out.error = r.status().ToString();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.emplace(sql, out).first->second;
}

void ExactReference::Poison(const std::string& sql) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = cache_.find(sql);
  if (it != cache_.end()) it->second.digest += 1;
}

ReadOutcome ModelAnswer(const DatabaseSnapshot& db, const std::string& sql) {
  ReadOutcome out;
  laws::ModelQueryEngine engine(&db.tables, &db.models, &db.domains);
  auto r = engine.Execute(sql);
  if (!r.ok()) {
    out.error = r.status().ToString();
    return out;
  }
  out.ok = true;
  out.approximate = true;
  out.error_bound = r->error_bound;
  Summarize(r->table, &out);
  return out;
}

void Coverage::Add(bool is_inside) {
  std::lock_guard<std::mutex> lock(mutex);
  ++audited;
  inside += is_inside;
}

bool CheckRead(const ReadCheck& check, const DatabaseSnapshot& db,
               const std::string& kind, const std::string& sql, bool hybrid,
               const ReadOutcome& got, double ms, uint64_t read_index) {
  RunContext* ctx = check.ctx;
  const std::string cls =
      std::string(got.ok && got.approximate ? "read.model." : "read.exact.") +
      kind;
  if (hybrid && check.coverage != nullptr) {
    std::lock_guard<std::mutex> lock(check.coverage->mutex);
    ++check.coverage->hybrid_reads;
    if (got.ok && got.approximate) ++check.coverage->model_answers;
  }
  if (!got.ok) {
    ctx->ledger.Record(cls, ms, false);
    ctx->ledger.Note(kind + " failed: " + got.error + " [" + sql + "]");
    return false;
  }
  bool ok = true;
  if (got.approximate) {
    if (check.model_ref != nullptr) {
      auto it = check.model_ref->find(sql);
      const uint64_t want = it != check.model_ref->end()
                                ? it->second
                                : ModelAnswer(db, sql).digest;
      ok = want == got.digest;
    }
    if (ok && check.coverage != nullptr &&
        read_index % check.audit_every == 0) {
      // The exact answer of the same statement; for a point query over
      // several observations its mean is what the model predicts.
      const ReadOutcome exact = check.exact->Get(db, sql);
      const bool inside = exact.ok && exact.has_value && got.has_value &&
                          std::fabs(got.value - exact.value) <=
                              got.error_bound * (1.0 + 1e-9);
      check.coverage->Add(inside);
    }
  } else {
    const ReadOutcome want = check.exact->Get(db, sql);
    ok = want.ok && want.digest == got.digest;
  }
  ctx->ledger.Record(cls, ms, ok);
  if (!ok) {
    ctx->ledger.Note(std::string("wrong ") +
                     (got.approximate ? "model" : "exact") + " answer [" +
                     sql + "]");
  }
  return ok;
}

void OracleCrossCheck(RunContext* ctx, const laws::Catalog& catalog,
                      const std::string& sql, bool poison) {
  auto stmt = laws::ParseSelect(sql);
  auto mine = laws::ExecuteQuery(catalog, sql);
  if (!stmt.ok() || !mine.ok()) {
    ctx->ledger.Fail("oracle cross-check could not run [" + sql + "]");
    return;
  }
  laws::testing::OracleResult oracle =
      laws::testing::OracleExecuteSelect(catalog, *stmt);
  if (!oracle.status.ok()) {
    ctx->ledger.Fail("oracle failed: " + oracle.status.ToString());
    return;
  }
  if (poison) {
    std::vector<laws::Value> row;
    for (size_t c = 0; c < oracle.table.num_columns(); ++c) {
      row.push_back(oracle.table.GetValue(0, c));
    }
    (void)oracle.table.AppendRow(row);
  }
  const std::string diff = CompareTables(*mine, oracle.table);
  if (!diff.empty()) {
    ctx->ledger.Fail("executor disagrees with the reference oracle (" +
                     diff + ") [" + sql + "]");
  }
}

size_t SessionCount() {
  return std::min<size_t>(kMaxSessions,
                          static_cast<size_t>(std::max(1, UsableCpus())));
}

std::vector<std::shared_ptr<ClientSession>> ConnectSessions(
    RunContext* ctx, laws::Server* server, const std::string& prefix,
    size_t n) {
  std::vector<std::shared_ptr<ClientSession>> sessions;
  for (size_t i = 0; i < n; ++i) {
    auto c = server->Connect(prefix + std::to_string(i));
    if (!c.ok()) {
      ctx->ledger.Fail("Connect: " + c.status().ToString());
      return {};
    }
    sessions.push_back(*c);
  }
  return sessions;
}

ReadOutcome TimedRead(const ReadCheck& check, const DatabaseSnapshot& db,
                      ClientSession* session, const ReadClass& c,
                      const std::string& sql, uint64_t read_index,
                      double* ms) {
  Tracer& tr = check.ctx->tracer;
  const uint64_t op = check.ctx->NewOp();
  const int64_t root = tr.Begin("op.read", -1, op);
  const int64_t call = tr.Begin("serve.read", root, op);
  const auto t0 = Clock::now();
  const ReadOutcome got = IssueRead(session, sql, c.hybrid);
  *ms = MillisSince(t0);
  tr.End(call);
  tr.End(root);
  CheckRead(check, db, c.kind, sql, c.hybrid, got, *ms, read_index);
  return got;
}

namespace {

/// Records trace.overhead_share from an untraced and a traced phase.
void ReportTraceOverhead(RunContext* ctx, const PhaseResult& untraced,
                         const PhaseResult& traced) {
  const double a = untraced.ops_per_s;
  const double b = traced.ops_per_s;
  ctx->report.Set("trace.ops_per_s_untraced", a, "ops/s");
  ctx->report.Set("trace.ops_per_s_traced", b, "ops/s");
  ctx->report.Set("trace.overhead_share", a > 0 ? 1.0 - b / a : 0.0,
                  "ratio");
}

}  // namespace

PhaseResult RunPhases(
    RunContext* ctx,
    const std::function<PhaseResult(double seconds, uint64_t salt)>&
        timed_phase) {
  ctx->report.Set("setup_peak_rss_mb", PeakRssMiB(), "MiB");
  if (!ctx->options.trace) {
    const PhaseResult phase = timed_phase(ctx->options.seconds, 0);
    ctx->report.Set("peak_rss_mb", PeakRssMiB(), "MiB");
    return phase;
  }
  Tracer& tr = ctx->tracer;
  tr.set_enabled(false);
  const PhaseResult untraced = timed_phase(ctx->options.seconds / 2, 1);
  const auto counters = CounterSnapshot();
  const auto hist = HistogramSums();
  tr.set_enabled(true);
  laws::SetTraceEnabled(true);
  const PhaseResult traced = timed_phase(ctx->options.seconds / 2, 2);
  laws::SetTraceEnabled(false);
  ReportCounterLayers(ctx, counters, CounterSnapshot(), hist, traced.ops);
  ReportTraceOverhead(ctx, untraced, traced);
  return traced;
}

namespace {

/// Runs `fn` under a fresh governor and adds its poll count.
template <typename Fn>
auto Governed(ReplayStats* stats, Fn&& fn) -> decltype(fn()) {
  laws::QueryContext qctx{laws::ResourceLimits{}};
  auto out = qctx.Run(fn);
  stats->governor_polls += qctx.governor().polls();
  ++stats->governed_calls;
  return out;
}

void ReplayRead(RunContext* ctx, ClientSession* session, const ReadClass& c,
                const std::string& sql, ReplayStats* stats) {
  Tracer& tr = ctx->tracer;
  const uint64_t op = ctx->NewOp();
  SpanScope root(&tr, "replay.read", -1, op);
  const laws::HybridOptions hybrid_options =
      BenchServerOptions(nullptr).hybrid;

  // The session call around the same engine call: its self time is what
  // the serving layer adds (admission, pin, governor, accounting).
  {
    SpanScope serve(&tr, "serve.replay", root.id(), op);
    (void)session->ExecuteRead([&](const DatabaseSnapshot& db) {
      SpanScope body(&tr, "serve.body", serve.id(), op);
      if (!c.hybrid) return laws::ExecuteQuery(db.tables, sql);
      laws::ModelQueryEngine aqp(&db.tables, &db.models, &db.domains);
      laws::HybridQueryEngine engine(&db.tables, &aqp, hybrid_options);
      auto r = engine.Execute(sql);
      if (!r.ok()) return laws::Result<Table>(r.status());
      return laws::Result<Table>(std::move(r->table));
    });
  }

  const laws::SnapshotPtr snap = session->PinSnapshot();
  double parse_ms = 0.0;
  const auto stmt = tr.Time("query.parse", root.id(), op, &parse_ms,
                            [&] { return laws::ParseSelect(sql); });
  if (!stmt.ok()) return;
  if (c.hybrid) {
    laws::ModelQueryEngine aqp(&snap->tables, &snap->models, &snap->domains);
    laws::HybridQueryEngine engine(&snap->tables, &aqp, hybrid_options);
    bool model_served = false;
    tr.Time("aqp.hybrid", root.id(), op, [&] {
      auto r = Governed(stats, [&] { return engine.Execute(sql); });
      model_served = r.ok() && r->approximate;
    });
    if (model_served) {
      tr.Time("aqp.model", root.id(), op, [&] { (void)aqp.Execute(sql); });
    }
  }
  // The executor runs every statement, also one the hybrid engine
  // answered from a model: sensor_stream's models are fresh at the end
  // of its timed phase, though most of its hybrid reads fell back.
  const std::string name = std::string("query.exec.") + c.exec_kind;
  const int64_t id = tr.Begin(name.c_str(), root.id(), op);
  (void)Governed(stats,
                 [&] { return laws::ExecuteSelect(snap->tables, *stmt); });
  tr.End(id);
}

}  // namespace

void ReplayReadRound(RunContext* ctx, ClientSession* session,
                     const std::vector<ReadClass>& mix, int round,
                     ReplayStats* stats) {
  for (const ReadClass& c : mix) {
    ReplayRead(ctx, session, c,
               c.pool[static_cast<size_t>(round) % c.pool.size()], stats);
  }
}

void ReplayStorage(RunContext* ctx, const Table& table) {
  Tracer& tr = ctx->tracer;
  const uint64_t op = ctx->NewOp();
  SpanScope root(&tr, "replay.storage", -1, op);
  tr.Time("storage.table_copy", root.id(), op, [&] {
    Table copy(table);
    (void)copy.num_rows();
  });
  tr.Time("compress.block_index_build", root.id(), op,
          [&] { (void)laws::BuildBlockIndex(table); });
}

void ReplayFit(RunContext* ctx, const Table& table,
               const laws::FitRequest& request, ReplayStats* stats) {
  Tracer& tr = ctx->tracer;
  auto model = laws::ModelFromSource(request.model_source);
  if (!model.ok()) {
    ctx->ledger.Fail("replay fit: " + model.status().ToString());
    return;
  }
  laws::GroupedFitSpec spec;
  spec.group_column = request.group_column;
  spec.input_columns = request.input_columns;
  spec.output_column = request.output_column;
  spec.fit_options = request.options;
  spec.min_observations = request.min_observations;
  const uint64_t op = ctx->NewOp();
  SpanScope root(&tr, "replay.fit", -1, op);
  tr.Time("model.fit_grouped", root.id(), op, [&] {
    auto out = Governed(stats,
                        [&] { return laws::FitGrouped(**model, table, spec); });
    if (out.ok()) stats->fit_groups = out->groups.size();
  });
}

void ReportTracedLayers(RunContext* ctx, const ReplayStats& stats) {
  Report& r = ctx->report;
  const Tracer& tr = ctx->tracer;
  r.Set("serve.read_ms", tr.MedianMillis("serve.read"), "ms");
  r.Set("serve.commit_ms", tr.MedianMillis("serve.commit"), "ms");
  r.Set("serve.self_ms", tr.MedianSelfMillis("serve.replay"), "ms");
  r.Set("learn.tick_ms", tr.MedianMillis("learn.tick"), "ms");
  r.Set("query.parse_us", tr.MedianMillis("query.parse") * 1e3, "us");
  for (const char* kind :
       {"point", "range", "global_agg", "group_by", "top_k", "join"}) {
    r.Set(std::string("query.exec_ms.") + kind,
          tr.MedianMillis(std::string("query.exec.") + kind), "ms");
  }
  r.Set("aqp.model_ms", tr.MedianMillis("aqp.model"), "ms");
  r.Set("aqp.hybrid_ms", tr.MedianMillis("aqp.hybrid"), "ms");
  r.Set("storage.table_copy_ms", tr.MedianMillis("storage.table_copy"), "ms");
  r.Set("compress.block_index_build_ms",
        tr.MedianMillis("compress.block_index_build"), "ms");
  const double fit_ms = tr.MedianMillis("model.fit_grouped");
  r.Set("model.fit_grouped_ms", fit_ms, "ms");
  r.Set("model.groups_per_s",
        fit_ms > 0 ? static_cast<double>(stats.fit_groups) / (fit_ms / 1e3)
                   : 0.0,
        "1/s");
  r.Set("common.governor_polls_per_op",
        stats.governed_calls == 0
            ? 0.0
            : static_cast<double>(stats.governor_polls) /
                  static_cast<double>(stats.governed_calls),
        "polls");
}

void ReportCommon(RunContext* ctx, const PhaseResult& phase,
                  const Coverage* coverage) {
  Report& r = ctx->report;
  r.Set("ops_per_s", phase.ops_per_s, "ops/s");
  const uint64_t attempted = ctx->ledger.attempted();
  r.Set("failed_share",
        attempted == 0 ? 0.0
                       : static_cast<double>(ctx->ledger.failed()) /
                             static_cast<double>(attempted),
        "ratio");
  if (coverage != nullptr) {
    r.Set("model_answer_share",
          coverage->hybrid_reads == 0
              ? 0.0
              : static_cast<double>(coverage->model_answers) /
                    static_cast<double>(coverage->hybrid_reads),
          "ratio");
    r.Set("aqp_coverage",
          coverage->audited == 0
              ? 0.0
              : static_cast<double>(coverage->inside) /
                    static_cast<double>(coverage->audited),
          "ratio");
    r.Set("aqp_audited", static_cast<double>(coverage->audited), "count");
  }
}

}  // namespace e2e
