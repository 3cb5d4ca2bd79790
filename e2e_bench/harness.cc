#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/bytes.h"
#include "common/metrics.h"
#include "core/persistence.h"

namespace e2e {

using laws::Column;
using laws::DataType;
using laws::MetricsRegistry;
using laws::Table;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MillisSince(Clock::time_point start) {
  return SecondsSince(start) * 1e3;
}

Plant ParsePlant(const std::string& name, bool* ok) {
  *ok = true;
  if (name.empty() || name == "none") return Plant::kNone;
  if (name == "exact_digest") return Plant::kExactDigest;
  if (name == "model_digest") return Plant::kModelDigest;
  if (name == "oracle") return Plant::kOracle;
  if (name == "loaded_image") return Plant::kLoadedImage;
  *ok = false;
  return Plant::kNone;
}

// ---- Ledger ---------------------------------------------------------------

void Ledger::Record(const std::string& op_class, double ms, bool ok) {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_[op_class].push_back(ms);
  ++attempted_;
  if (!ok) ++failed_;
}

void Ledger::Sample(const std::string& name, double ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_[name].push_back(ms);
}

void Ledger::Fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(why);
}

void Ledger::Note(const std::string& why) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (failures_.size() < 20) failures_.push_back(why);
}

uint64_t Ledger::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

uint64_t Ledger::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

std::vector<double> Ledger::Samples(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const auto& [name, values] : samples_) {
    if (name.compare(0, prefix.size(), prefix) == 0) {
      out.insert(out.end(), values.begin(), values.end());
    }
  }
  return out;
}

std::vector<std::string> Ledger::failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// ---- Digests and image comparison ----------------------------------------

namespace {

struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof(v));
  }
};

}  // namespace

uint64_t DigestTable(const Table& table) {
  Fnv fnv;
  fnv.Pod(static_cast<uint64_t>(table.num_columns()));
  fnv.Pod(static_cast<uint64_t>(table.num_rows()));
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    fnv.Pod(static_cast<uint8_t>(col.type()));
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const bool null = col.IsNull(r);
      fnv.Pod(static_cast<uint8_t>(null));
      if (null) continue;
      switch (col.type()) {
        case DataType::kInt64:
          fnv.Pod(col.Int64At(r));
          break;
        case DataType::kDouble:
          fnv.Pod(col.DoubleAt(r));
          break;
        case DataType::kBool:
          fnv.Pod(static_cast<uint8_t>(col.BoolAt(r)));
          break;
        case DataType::kString: {
          const std::string_view s = col.StringAt(r);
          fnv.Pod(static_cast<uint64_t>(s.size()));
          fnv.Bytes(s.data(), s.size());
          break;
        }
      }
    }
  }
  return fnv.h;
}

std::string CompareTables(const Table& a, const Table& b) {
  if (a.num_columns() != b.num_columns() || a.num_rows() != b.num_rows()) {
    return "shape " + std::to_string(a.num_rows()) + "x" +
           std::to_string(a.num_columns()) + " vs " +
           std::to_string(b.num_rows()) + "x" +
           std::to_string(b.num_columns());
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& x = a.column(c);
    const Column& y = b.column(c);
    const std::string where = "column " + a.schema().field(c).name;
    if (x.type() != y.type() ||
        a.schema().field(c).name != b.schema().field(c).name) {
      return where + ": type or name differs";
    }
    const size_t n = a.num_rows();
    for (size_t r = 0; r < n; ++r) {
      if (x.IsNull(r) != y.IsNull(r)) {
        return where + ": null flag differs at row " + std::to_string(r);
      }
    }
    bool same = true;
    switch (x.type()) {
      case DataType::kInt64:
        same = std::memcmp(x.int64_data().data(), y.int64_data().data(),
                           n * sizeof(int64_t)) == 0;
        break;
      case DataType::kDouble:
        same = std::memcmp(x.double_data().data(), y.double_data().data(),
                           n * sizeof(double)) == 0;
        break;
      case DataType::kBool:
        for (size_t r = 0; r < n && same; ++r) {
          same = x.IsNull(r) || x.BoolAt(r) == y.BoolAt(r);
        }
        break;
      case DataType::kString:
        for (size_t r = 0; r < n && same; ++r) {
          same = x.IsNull(r) || x.StringAt(r) == y.StringAt(r);
        }
        break;
    }
    if (!same) return where + ": cell bits differ";
  }
  return "";
}

namespace {

/// Serialized model with the fitted data version left out, plus whether
/// the model is fresh against its table.
std::vector<uint8_t> ModelBytes(const laws::CapturedModel& model,
                                const laws::Catalog& tables, bool* fresh) {
  auto table = tables.Get(model.table_name);
  *fresh = table.ok() &&
           (*table)->data_version() == model.fitted_data_version;
  laws::CapturedModel copy = model;
  copy.fitted_data_version = 0;
  laws::ByteWriter w;
  laws::SerializeCapturedModel(copy, &w);
  return w.data();
}

}  // namespace

std::string CompareModels(const laws::ModelCatalog& a,
                          const laws::Catalog& a_tables,
                          const laws::ModelCatalog& b,
                          const laws::Catalog& b_tables) {
  const std::vector<uint64_t> ids = a.ListIds();
  if (ids != b.ListIds()) return "model ids differ";
  for (uint64_t id : ids) {
    auto ma = a.Get(id);
    auto mb = b.Get(id);
    if (!ma.ok() || !mb.ok()) return "model " + std::to_string(id) + " missing";
    bool fresh_a = false;
    bool fresh_b = false;
    if (ModelBytes(**ma, a_tables, &fresh_a) !=
        ModelBytes(**mb, b_tables, &fresh_b)) {
      return "model " + std::to_string(id) + " parameters differ";
    }
    if (fresh_a != fresh_b) {
      return "model " + std::to_string(id) + " freshness differs";
    }
  }
  return "";
}

// ---- Engine counters -------------------------------------------------------

std::map<std::string, uint64_t> CounterSnapshot() {
  std::map<std::string, uint64_t> out;
  for (const auto& c : MetricsRegistry::Global().CounterSamples()) {
    out[c.name] = c.value;
  }
  return out;
}

uint64_t CounterDelta(const std::map<std::string, uint64_t>& before,
                      const std::map<std::string, uint64_t>& after,
                      const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0;
  auto b = before.find(name);
  const uint64_t base = b == before.end() ? 0 : b->second;
  return a->second >= base ? a->second - base : 0;
}

double HistogramSum(const std::string& name) {
  return MetricsRegistry::Global().GetHistogram(name)->sum();
}

uint64_t HistogramCount(const std::string& name) {
  return MetricsRegistry::Global().GetHistogram(name)->count();
}

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

// ---- Tracer ----------------------------------------------------------------

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int64_t Tracer::Begin(const char* name, int64_t parent, uint64_t op) {
  if (!enabled()) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.op = op;
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size() - 1);
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

double Tracer::Time(const char* name, int64_t parent, uint64_t op,
                    const std::function<void()>& fn) {
  const int64_t id = Begin(name, parent, op);
  const auto start = Clock::now();
  fn();
  const double ms = MillisSince(start);
  End(id);
  return ms;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::SelfMillis() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<size_t>> children(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent >= 0) {
      children[static_cast<size_t>(all[i].parent)].push_back(i);
    }
  }
  std::vector<double> self(all.size(), 0.0);
  for (size_t i = 0; i < all.size(); ++i) {
    const int64_t lo = all[i].start_ns;
    const int64_t hi = all[i].end_ns;
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (size_t c : children[i]) {
      const int64_t a = std::max(lo, all[c].start_ns);
      const int64_t b = std::min(hi, all[c].end_ns);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    for (const auto& [a, b] : cover) {
      if (a > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = a;
        run_hi = b;
      } else {
        run_hi = std::max(run_hi, b);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = static_cast<double>(std::max<int64_t>(0, hi - lo - covered)) /
              1e6;
  }
  return self;
}

double Tracer::MedianMillis(const std::string& name) const {
  std::vector<double> v;
  for (const Span& s : spans()) {
    if (s.name == name) v.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }
  return Median(std::move(v));
}

double Tracer::MedianSelfMillis(const std::string& name) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = SelfMillis();
  std::vector<double> v;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].name == name) v.push_back(self[i]);
  }
  return Median(std::move(v));
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> all = spans();
  const std::vector<double> self = SelfMillis();
  std::fprintf(f, "id\tparent\top\tname\tstart_ns\tend_ns\tself_ns\n");
  for (size_t i = 0; i < all.size(); ++i) {
    std::fprintf(f, "%zu\t%lld\t%llu\t%s\t%lld\t%lld\t%lld\n", i,
                 static_cast<long long>(all[i].parent),
                 static_cast<unsigned long long>(all[i].op),
                 all[i].name.c_str(),
                 static_cast<long long>(all[i].start_ns),
                 static_cast<long long>(all[i].end_ns),
                 static_cast<long long>(std::llround(self[i] * 1e6)));
  }
  return std::fclose(f) == 0;
}

// ---- Report ----------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& e : entries_) {
    if (e.first == name) {
      e.second = {value, unit};
      return;
    }
  }
  entries_.push_back({name, {value, unit}});
}

bool Report::Has(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.first == name) return true;
  }
  return false;
}

double Report::Get(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.first == name) return e.second.first;
  }
  return 0.0;
}

// ---- Shared metric helpers -------------------------------------------------

void MeasureSetup(RunContext* ctx, const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < 9; ++i) {
    const auto start = Clock::now();
    setup();
    seconds.push_back(SecondsSince(start));
  }
  ctx->report.Set("setup_s", Median(seconds), "s");
}

void ReportReadLatencies(RunContext* ctx) {
  const std::vector<double> model = ctx->ledger.Samples("read.model");
  const std::vector<double> exact = ctx->ledger.Samples("read.exact");
  std::vector<double> all = ctx->ledger.Samples("read.");
  ctx->report.Set("model_read_p50_ms", Median(model), "ms");
  ctx->report.Set("exact_read_p50_ms", Median(exact), "ms");
  ctx->report.Set("read_p99_ms", Quantile(all, 0.99), "ms");
  ctx->report.Set("read_count", static_cast<double>(all.size()), "count");
}

namespace {

const char* const kEngineStages[] = {
    "GroupIndex", "FitLoop", "MergeOutcomes", "Sort",     "HashAggregate",
    "SaveImage",  "LoadImage", "ExactScan",   "ModelPath", "Harvest"};

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

std::map<std::string, double> HistogramSums() {
  std::map<std::string, double> out;
  for (const char* stage : kEngineStages) {
    const std::string name = std::string("span.") + stage + ".micros";
    out[name] = HistogramSum(name);
  }
  out["serve.queue_wait_micros"] = HistogramSum("serve.queue_wait_micros");
  out["serve.queue_wait_micros.count"] =
      static_cast<double>(HistogramCount("serve.queue_wait_micros"));
  return out;
}

void ReportCounterLayers(RunContext* ctx,
                         const std::map<std::string, uint64_t>& before,
                         const std::map<std::string, uint64_t>& after,
                         const std::map<std::string, double>& hist_before,
                         uint64_t ops) {
  auto delta = [&](const char* name) {
    return CounterDelta(before, after, name);
  };
  Report& r = ctx->report;
  r.Set("query.blocks_pruned_share",
        Ratio(delta("scan.blocks_pruned"), delta("scan.blocks_total")),
        "ratio");
  r.Set("query.treewalk_fallback_share",
        Ratio(delta("expr.fallback_treewalk"),
              delta("expr.compiled") + delta("expr.fallback_treewalk")),
        "ratio");
  r.Set("query.index_builds_per_commit",
        Ratio(delta("scan.index_builds"), delta("serve.commits")), "ratio");
  const uint64_t fallbacks = delta("aqp.hybrid.exact_fallback");
  r.Set("aqp.fallback_share",
        Ratio(fallbacks, fallbacks + delta("aqp.hybrid.model_hit")), "ratio");
  r.Set("learn.harvest_rows_per_fallback",
        Ratio(delta("learn.harvest.rows"), fallbacks), "rows");

  const std::map<std::string, double> hist_after = HistogramSums();
  auto hdelta = [&](const std::string& name) {
    auto b = hist_before.find(name);
    auto a = hist_after.find(name);
    const double base = b == hist_before.end() ? 0.0 : b->second;
    return a == hist_after.end() ? 0.0 : a->second - base;
  };
  const double waits = hdelta("serve.queue_wait_micros.count");
  r.Set("serve.queue_wait_ms",
        waits > 0 ? hdelta("serve.queue_wait_micros") / waits / 1e3 : 0.0,
        "ms");
  for (const char* stage : kEngineStages) {
    const std::string name = std::string("span.") + stage + ".micros";
    r.Set(std::string("stage.") + stage + "_ms_per_op",
          ops == 0 ? 0.0 : hdelta(name) / 1e3 / static_cast<double>(ops),
          "ms");
  }
}

}  // namespace e2e
