// Shared machinery of the end-to-end benchmark: run options, the
// closed-loop latency ledger, result digests, bit-for-bit comparison of
// database images, in-memory spans, and the metric report.
#ifndef LAWSDB_E2E_BENCH_HARNESS_H_
#define LAWSDB_E2E_BENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/model_catalog.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Seconds since `start`.
double SecondsSince(Clock::time_point start);
/// Milliseconds since `start`.
double MillisSince(Clock::time_point start);

/// A correctness check that a run can be told to break on purpose
/// (`--plant`). A planted check compares against a wrong expectation, so
/// a working check must report failed operations and a non-zero exit.
enum class Plant {
  kNone,
  kExactDigest,   // a reference digest of an exact read is off by one
  kModelDigest,   // a reference digest of a model answer is off by one
  kOracle,        // the oracle's reference table gains a row
  kLoadedImage,   // the loaded table is compared against a changed copy
};

Plant ParsePlant(const std::string& name, bool* ok);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where span dumps and result records are written.
  std::string out_dir = ".bench_build/results";
  /// Parent of the run's private temporary directory (save images).
  std::string tmp_root = ".bench_build/tmp";
  std::string git_commit = "unknown";
  /// Reduced data sizes, for the self-check and quick trials.
  bool small = false;
  Plant plant = Plant::kNone;
};

/// The closed-loop ledger of one run: per-class latency samples, counts
/// of attempted and failed operations, and the first failure messages.
class Ledger {
 public:
  /// Records one completed operation of `op_class` (e.g. "read.model",
  /// "ingest") that took `ms`; `ok` = false counts it as failed.
  void Record(const std::string& op_class, double ms, bool ok);
  /// Keeps a latency sample that is not an operation of its own.
  void Sample(const std::string& name, double ms);
  /// Counts a failed check that is not tied to a timed operation.
  void Fail(const std::string& why);
  /// Adds a failure message without changing the counts.
  void Note(const std::string& why);

  uint64_t attempted() const;
  uint64_t failed() const;
  /// All samples of classes whose name starts with `prefix`.
  std::vector<double> Samples(const std::string& prefix) const;
  std::vector<std::string> failures() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> samples_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Quantile by linear interpolation; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// 64-bit FNV-1a digest of a table's schema and every cell's bits, in
/// row order. Equal digests mean bit-identical results.
uint64_t DigestTable(const laws::Table& table);

/// Empty when `a` and `b` hold bit-identical schemas and cells;
/// otherwise a description of the first difference.
std::string CompareTables(const laws::Table& a, const laws::Table& b);
/// Empty when both model catalogs hold the same ids whose serialized
/// bytes agree and which are fresh (fitted at their table's current data
/// version) in both or stale in both. The fitted data version itself is
/// left out: a load rebases it onto the reloaded table.
std::string CompareModels(const laws::ModelCatalog& a,
                          const laws::Catalog& a_tables,
                          const laws::ModelCatalog& b,
                          const laws::Catalog& b_tables);

/// Process-wide counter values from the engine's MetricsRegistry.
std::map<std::string, uint64_t> CounterSnapshot();
/// after[name] - before[name] (0 when absent).
uint64_t CounterDelta(const std::map<std::string, uint64_t>& before,
                      const std::map<std::string, uint64_t>& after,
                      const std::string& name);
/// Sum of a MetricsRegistry histogram (0 when absent).
double HistogramSum(const std::string& name);
uint64_t HistogramCount(const std::string& name);

/// Peak resident set of the process in MiB.
double PeakRssMiB();

/// CPUs this process may run on (what `nproc` prints).
int UsableCpus();

/// One timed region of the traced run.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the parent span, -1 for a root.
  int64_t parent = -1;
  /// The operation this span belongs to (shared by all its spans).
  uint64_t op = 0;
};

/// In-memory span store. Disabled tracers record nothing and cost one
/// branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Starts or stops recording (spans already open still close).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  /// Opens a span; returns its id (-1 when disabled).
  int64_t Begin(const char* name, int64_t parent, uint64_t op);
  void End(int64_t id);
  /// Opens and closes a span around `fn`, returning its duration in ms
  /// (measured also when disabled).
  double Time(const char* name, int64_t parent, uint64_t op,
              const std::function<void()>& fn);
  /// Same, for a `fn` with a result: returns it and stores the duration
  /// in `*ms`.
  template <typename Fn>
  auto Time(const char* name, int64_t parent, uint64_t op, double* ms,
            Fn&& fn) -> decltype(fn()) {
    const int64_t id = Begin(name, parent, op);
    const auto start = Clock::now();
    auto out = fn();
    *ms = MillisSince(start);
    End(id);
    return out;
  }

  std::vector<Span> spans() const;
  /// Per span: duration minus the part of its interval its children
  /// cover, in ms.
  std::vector<double> SelfMillis() const;
  /// Median duration (ms) of spans called `name`; 0 when none.
  double MedianMillis(const std::string& name) const;
  /// Median self time (ms) of spans called `name`; 0 when none.
  double MedianSelfMillis(const std::string& name) const;
  /// Writes one line per span: id, parent, op, name, start_ns, end_ns,
  /// self_ns.
  bool WriteTsv(const std::string& path) const;

 private:
  int64_t NowNs() const;

  std::atomic<bool> enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// A span open for the lifetime of the scope.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, int64_t parent, uint64_t op)
      : tracer_(tracer), id_(tracer->Begin(name, parent, op)) {}
  ~SpanScope() { tracer_->End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Named metrics of one run, in insertion order.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      entries_;
};

/// Everything a workload needs from main: options, ledger, spans, report.
struct RunContext {
  Options options;
  Ledger ledger;
  Tracer tracer;
  Report report;
  /// Environment facts added by the workload (session count, sizes).
  std::map<std::string, std::string> env;
  std::atomic<uint64_t> next_op{1};

  explicit RunContext(const Options& opts)
      : options(opts), tracer(opts.trace) {}
  uint64_t NewOp() { return next_op.fetch_add(1); }
};

/// Runs `setup` nine times (each run replaces the previous state) and
/// reports the median wall time as setup_s.
void MeasureSetup(RunContext* ctx, const std::function<void()>& setup);

/// Adds read-latency metrics shared by the workloads that read:
/// model_read_p50_ms, exact_read_p50_ms, read_p99_ms, read_count.
void ReportReadLatencies(RunContext* ctx);

/// Adds the module-level metrics computable from engine counters over
/// a phase: query.blocks_pruned_share, query.treewalk_fallback_share,
/// query.index_builds_per_commit, aqp.fallback_share,
/// learn.harvest_rows_per_fallback, serve.queue_wait_ms and the
/// `stage.<span>_ms_per_op` breakdown of the engine's own spans.
void ReportCounterLayers(RunContext* ctx,
                         const std::map<std::string, uint64_t>& before,
                         const std::map<std::string, uint64_t>& after,
                         const std::map<std::string, double>& hist_before,
                         uint64_t ops);

/// Sums of the engine's `span.<Stage>.micros` histograms and of
/// serve.queue_wait_micros, keyed by histogram name.
std::map<std::string, double> HistogramSums();

int RunArchive(RunContext* ctx);
int RunQueryMix(RunContext* ctx);
int RunSensorStream(RunContext* ctx);

}  // namespace e2e

#endif  // LAWSDB_E2E_BENCH_HARNESS_H_
