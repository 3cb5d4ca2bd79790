// Pieces the three workloads share: server options, sessions, the read
// path with its reference checks, the timed phases, and the replay of
// module entry points that the traced run times.
#ifndef LAWSDB_E2E_BENCH_WORKLOADS_H_
#define LAWSDB_E2E_BENCH_WORKLOADS_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness.h"
#include "serve/server.h"

namespace e2e {

/// Most client sessions a multi-session workload connects.
constexpr size_t kMaxSessions = 4;

/// Server options for every workload: admission never rejects a
/// benchmark read, and queries run without deadline or memory budget.
laws::ServerOptions BenchServerOptions(laws::LearningObserver* learner);

/// What one read returned, reduced to what the checks need.
struct ReadOutcome {
  bool ok = false;
  std::string error;
  bool approximate = false;
  double error_bound = 0.0;
  uint64_t digest = 0;
  /// Mean of the first result column (0 when empty or not numeric).
  double value = 0.0;
  bool has_value = false;
};

/// Digest and first-column mean of a result table.
void Summarize(const laws::Table& table, ReadOutcome* out);

/// Issues `sql` through the session: hybrid (model or exact fallback)
/// when `hybrid`, exact SQL otherwise.
ReadOutcome IssueRead(laws::ClientSession* session, const std::string& sql,
                      bool hybrid);

/// Exact answers of statements whose result cannot change during the
/// run, computed once with the executor on a pinned snapshot.
class ExactReference {
 public:
  /// The exact answer for `sql`; computed on first use.
  ReadOutcome Get(const laws::DatabaseSnapshot& db, const std::string& sql);
  /// Makes every later Get of `sql` report a wrong digest (self-check).
  void Poison(const std::string& sql);

 private:
  std::mutex mutex_;
  std::map<std::string, ReadOutcome> cache_;
};

/// Answer of the model path for `sql` on `db` (ModelQueryEngine).
ReadOutcome ModelAnswer(const laws::DatabaseSnapshot& db,
                        const std::string& sql);

/// Running tally of audited model answers.
struct Coverage {
  std::mutex mutex;
  uint64_t audited = 0;
  uint64_t inside = 0;
  uint64_t model_answers = 0;
  uint64_t hybrid_reads = 0;
  void Add(bool is_inside);
};

/// Checks one read against the reference for the path that answered it
/// and records it in the ledger as `read.model.<kind>` or
/// `read.exact.<kind>`. Model answers are compared with `model_ref` (when
/// non-null) and every `audit_every`-th one with the exact answer of the
/// same statement, to tally coverage.
struct ReadCheck {
  RunContext* ctx = nullptr;
  ExactReference* exact = nullptr;
  Coverage* coverage = nullptr;
  /// Model answers fixed at setup (nullptr: checked later by the caller).
  std::map<std::string, uint64_t>* model_ref = nullptr;
  uint64_t audit_every = 8;
};
/// Returns false when the read failed or disagreed with a reference.
bool CheckRead(const ReadCheck& check, const laws::DatabaseSnapshot& db,
               const std::string& kind, const std::string& sql, bool hybrid,
               const ReadOutcome& got, double ms, uint64_t read_index);

/// Cross-checks the executor's answer for `sql` against the independent
/// reference interpreter; a mismatch is a failed check. `poison` plants
/// a wrong oracle answer (self-check).
void OracleCrossCheck(RunContext* ctx, const laws::Catalog& catalog,
                      const std::string& sql, bool poison);

/// One read class of a workload's mix: its share of every session's
/// round and the statements it draws from.
struct ReadClass {
  const char* kind;       // ledger name: read.<model|exact>.<kind>
  const char* exec_kind;  // query.exec_ms.<exec_kind> in the replay
  bool hybrid;
  /// The mix expects a model answer; its digest is fixed at set-up.
  bool want_model;
  int per_round;
  std::vector<std::string> pool;
};

/// A statement from a printf-style template (at most 255 characters).
template <typename... Args>
std::string FormatSql(const char* format, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

/// Client sessions of the multi-session workloads: kMaxSessions, or
/// fewer when the process may run on fewer CPUs.
size_t SessionCount();

/// Connects `n` sessions labelled `<prefix><i>`; empty (with a failed
/// check) when one is refused.
std::vector<std::shared_ptr<laws::ClientSession>> ConnectSessions(
    RunContext* ctx, laws::Server* server, const std::string& prefix,
    size_t n);

/// Issues one read of class `c` through `session` inside the spans
/// op.read > serve.read, checks it with CheckRead against `db` and
/// stores its latency in `*ms`.
ReadOutcome TimedRead(const ReadCheck& check, const laws::DatabaseSnapshot& db,
                      laws::ClientSession* session, const ReadClass& c,
                      const std::string& sql, uint64_t read_index, double* ms);

/// What a timed phase completed.
struct PhaseResult {
  uint64_t ops = 0;
  double ops_per_s = 0.0;
};

/// Runs a workload's timed phase, `timed_phase(seconds, salt)`. Untraced
/// runs give it all of --seconds and record peak_rss_mb. Traced runs give
/// an untraced half and a traced half (engine spans on), then record the
/// counter layers over the traced half and trace.overhead_share. Returns
/// the phase whose rate the run reports.
PhaseResult RunPhases(
    RunContext* ctx,
    const std::function<PhaseResult(double seconds, uint64_t salt)>&
        timed_phase);

/// Replayed entry points of the traced run repeat this many times,
/// interleaved, and each per-layer time is the median of its repeats.
constexpr int kReplayRounds = 5;

/// Counts over the replayed calls.
struct ReplayStats {
  uint64_t governor_polls = 0;
  uint64_t governed_calls = 0;
  /// Groups of the last replayed FitGrouped.
  size_t fit_groups = 0;
};

/// One replay round of a read mix on a pinned snapshot: for each class
/// one statement (the `round`-th of its pool), timed layer by layer as
/// the session call around the same engine call (serve self time),
/// ParseSelect, the hybrid engine, the model engine when the hybrid
/// engine answered from a model, and the executor under a counted
/// governor.
void ReplayReadRound(RunContext* ctx, laws::ClientSession* session,
                     const std::vector<ReadClass>& mix, int round,
                     ReplayStats* stats);

/// Times one copy of `table` (the clone an ingest commit pays) and one
/// block-index build over it.
void ReplayStorage(RunContext* ctx, const laws::Table& table);

/// Times FitGrouped for `request` on `table`.
void ReplayFit(RunContext* ctx, const laws::Table& table,
               const laws::FitRequest& request, ReplayStats* stats);

/// Reports the per-layer metrics taken from spans of the traced phase
/// and of the replays: serve.{read,commit,self}_ms, learn.tick_ms,
/// query.parse_us, query.exec_ms.<kind>, aqp.{model,hybrid}_ms,
/// storage.table_copy_ms, compress.block_index_build_ms,
/// model.fit_grouped_ms, model.groups_per_s and
/// common.governor_polls_per_op; 0 for a layer the workload left idle.
void ReportTracedLayers(RunContext* ctx, const ReplayStats& stats);

/// Records the generic end-to-end metrics of a finished run.
void ReportCommon(RunContext* ctx, const PhaseResult& phase,
                  const Coverage* coverage);

}  // namespace e2e

#endif  // LAWSDB_E2E_BENCH_WORKLOADS_H_
