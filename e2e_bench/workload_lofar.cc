// The two LOFAR workloads over the paper's Table-1 dataset (1,452,824
// observations of 35,692 sources) with its captured per-source power law:
//
//  lofar_archive    one session appends, refits, saves and reloads the
//                   archive (persistence, compression and fitting).
//  lofar_query_mix  four read-only sessions run a fixed mix of
//                   model-served, fallback and exact reads (query, aqp
//                   and serve; the block index stays warm).
#include <stdlib.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>

#include "common/random.h"
#include "common/trace.h"
#include "compress/column_compressor.h"
#include "core/persistence.h"
#include "lofar/generator.h"
#include "workloads.h"

namespace e2e {

using laws::ClientSession;
using laws::Rng;
using laws::Table;

namespace {

/// The archive and its server. Sessions are released before the server.
struct LofarState {
  std::unique_ptr<laws::Server> server;
  std::shared_ptr<ClientSession> admin;
  std::vector<laws::LofarSourceTruth> truth;
  laws::LofarConfig config;
  laws::FitRequest fit;

  ~LofarState() {
    admin.reset();
    server.reset();
  }
};

/// The generator's defaults (paper scale, observations jittered within
/// their band). `band_pinned` puts every observation exactly on one of
/// the four bands instead, so a point read pinned to a band has an exact
/// answer to audit the model against (lofar_query_mix only).
laws::LofarConfig BenchLofarConfig(const Options& options, bool band_pinned) {
  laws::LofarConfig cfg;
  if (options.small) {
    cfg.num_sources = 2'000;
    cfg.num_rows = 80'000;
  }
  if (band_pinned) cfg.band_jitter = 0.0;
  cfg.seed = options.seed;
  return cfg;
}

/// The `sources` dimension table: every 32nd source with its class.
Table MakeSourcesTable(const std::vector<laws::LofarSourceTruth>& truth) {
  Table t(laws::Schema({laws::Field{"sid", laws::DataType::kInt64, false},
                        laws::Field{"flux_class", laws::DataType::kInt64, false},
                        laws::Field{"spectral_index", laws::DataType::kDouble,
                                    false}}));
  for (size_t i = 0; i < truth.size(); i += 32) {
    const int64_t flux_class =
        static_cast<int64_t>(std::clamp(std::floor(truth[i].p * 20.0), 0.0, 4.0));
    (void)t.AppendRow({laws::Value::Int64(truth[i].source),
                       laws::Value::Int64(flux_class),
                       laws::Value::Double(truth[i].alpha)});
  }
  return t;
}

/// Generates the dataset, creates the tables and captures the grouped
/// power-law fit. `query_tables` pins observations to their bands and
/// adds what lofar_query_mix reads: the `source` and `wavelength` domains
/// and the `sources` table. nullptr (with a failed check) on error.
std::unique_ptr<LofarState> SetupLofar(RunContext* ctx, bool query_tables,
                                       std::vector<double>* generate_ms) {
  auto st = std::make_unique<LofarState>();
  st->config = BenchLofarConfig(ctx->options, query_tables);
  const auto gen_start = Clock::now();
  auto data = laws::GenerateLofar(st->config);
  generate_ms->push_back(MillisSince(gen_start));
  if (!data.ok()) {
    ctx->ledger.Fail("GenerateLofar: " + data.status().ToString());
    return nullptr;
  }
  st->truth = std::move(data->truth);
  st->server = std::make_unique<laws::Server>(BenchServerOptions(nullptr));
  auto admin = st->server->Connect("admin");
  if (!admin.ok()) {
    ctx->ledger.Fail("Connect: " + admin.status().ToString());
    return nullptr;
  }
  st->admin = *admin;
  laws::Status s =
      st->admin->CreateTable("measurements", std::move(data->observations));
  if (s.ok() && query_tables) {
    s = st->admin->RegisterDomain(
        "measurements", "wavelength",
        laws::ColumnDomain::Explicit(st->config.bands));
  }
  if (s.ok() && query_tables) {
    s = st->admin->RegisterDomain(
        "measurements", "source",
        laws::ColumnDomain::IntegerRange(
            1, static_cast<int64_t>(st->config.num_sources), 1));
    if (s.ok()) s = st->admin->CreateTable("sources", MakeSourcesTable(st->truth));
  }
  if (!s.ok()) {
    ctx->ledger.Fail("create tables: " + s.ToString());
    return nullptr;
  }
  st->fit.table = "measurements";
  st->fit.model_source = "power_law";
  st->fit.input_columns = {"wavelength"};
  st->fit.output_column = "intensity";
  st->fit.group_column = "source";
  st->fit.options.algorithm = laws::FitAlgorithm::kAuto;
  auto report = st->admin->Fit(st->fit);
  if (!report.ok()) {
    ctx->ledger.Fail("Fit: " + report.status().ToString());
    return nullptr;
  }
  return st;
}

void ReportGenerate(RunContext* ctx, const std::vector<double>& generate_ms) {
  ctx->report.Set("lofar.generate_ms", Median(generate_ms), "ms");
}

// ---- lofar_archive ---------------------------------------------------------

/// A private directory for save images, removed with its contents.
class TempDir {
 public:
  explicit TempDir(const std::string& root) {
    std::error_code ec;
    std::filesystem::create_directories(root, ec);
    std::string pattern = root + "/run-XXXXXX";
    if (mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~TempDir() {
    if (path_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// New observations of existing sources, drawn from their true spectra
/// with the generator's in-band jitter.
Table MakeObservationBatch(const LofarState& st, size_t rows, Rng* rng) {
  Table batch(laws::Schema(
      {laws::Field{"source", laws::DataType::kInt64, false},
       laws::Field{"wavelength", laws::DataType::kDouble, false},
       laws::Field{"intensity", laws::DataType::kDouble, false}}));
  for (size_t i = 0; i < rows; ++i) {
    const auto& src = st.truth[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(st.truth.size()) - 1))];
    const double band = st.config.bands[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(st.config.bands.size()) - 1))];
    const double nu =
        band * (1.0 + st.config.band_jitter * (rng->NextDouble() - 0.5));
    const double intensity = src.p * std::pow(nu, src.alpha) *
                             rng->LogNormal(0.0, st.config.noise_sd);
    (void)batch.AppendRow({laws::Value::Int64(src.source),
                           laws::Value::Double(nu),
                           laws::Value::Double(intensity)});
  }
  return batch;
}

/// Compares a loaded database with the snapshot that was saved.
std::string CompareLoaded(const laws::DatabaseSnapshot& saved,
                          const laws::Catalog& tables,
                          const laws::ModelCatalog& models, bool plant) {
  if (saved.tables.ListTables() != tables.ListTables()) {
    return "table names differ";
  }
  for (const std::string& name : saved.tables.ListTables()) {
    auto a = saved.tables.Get(name);
    auto b = tables.Get(name);
    if (!a.ok() || !b.ok()) return "table " + name + " missing";
    std::string diff;
    if (plant) {
      // Self-check: the reference gains one row the image never had.
      Table changed(**a);
      std::vector<laws::Value> row;
      for (size_t c = 0; c < changed.num_columns(); ++c) {
        row.push_back(changed.GetValue(0, c));
      }
      (void)changed.AppendRow(row);
      diff = CompareTables(changed, **b);
    } else {
      diff = CompareTables(**a, **b);
    }
    if (!diff.empty()) return "table " + name + ": " + diff;
  }
  return CompareModels(saved.models, saved.tables, models, tables);
}

}  // namespace

int RunArchive(RunContext* ctx) {
  std::unique_ptr<LofarState> st;
  std::vector<double> generate_ms;
  MeasureSetup(ctx, [&] {
    st.reset();
    st = SetupLofar(ctx, /*query_tables=*/false, &generate_ms);
  });
  if (st == nullptr) return 1;
  ReportGenerate(ctx, generate_ms);
  ctx->env["sessions"] = "1";

  TempDir dir(ctx->options.tmp_root);
  if (dir.path().empty()) {
    ctx->ledger.Fail("cannot create a temporary directory under " +
                     ctx->options.tmp_root);
    return 1;
  }
  const std::string path = dir.path() + "/archive.lwdb";
  Rng rng(ctx->options.seed * 0x9E3779B97F4A7C15ULL + 17);
  const size_t batch_rows = ctx->options.small ? 512 : 4096;
  Tracer& tr = ctx->tracer;
  double image_bytes = 0.0;
  double raw_bytes = 0.0;

  // One archive cycle: append, refit, save durably, reload and compare.
  auto cycle = [&]() -> uint64_t {
    const Table batch = MakeObservationBatch(*st, batch_rows, &rng);
    const uint64_t op = ctx->NewOp();
    SpanScope root(&tr, "op.cycle", -1, op);
    uint64_t ops = 0;

    double ms = 0.0;
    laws::Status s = tr.Time("serve.commit", root.id(), op, &ms, [&] {
      return st->admin->Ingest("measurements", batch);
    });
    ctx->ledger.Record("ingest", ms, s.ok());
    if (!s.ok()) ctx->ledger.Note("Ingest: " + s.ToString());
    ++ops;

    const auto refit = tr.Time("serve.refit", root.id(), op, &ms,
                               [&] { return st->admin->RefitStale(); });
    const bool refit_ok = refit.ok() && refit->failed == 0 && refit->refitted > 0;
    ctx->ledger.Record("fit", ms, refit_ok);
    if (!refit_ok) ctx->ledger.Note("RefitStale did not refit the model");
    ++ops;

    const laws::SnapshotPtr snap = st->admin->PinSnapshot();
    s = tr.Time("core.save", root.id(), op, &ms, [&] {
      return laws::SaveDatabase(snap->tables, snap->models, path);
    });
    ctx->ledger.Record("save", ms, s.ok());
    if (!s.ok()) ctx->ledger.Note("SaveDatabase: " + s.ToString());
    ++ops;

    std::string diff;
    ms = tr.Time("core.load", root.id(), op, [&] {
      laws::Catalog tables;
      laws::ModelCatalog models;
      s = laws::LoadDatabase(path, &tables, &models);
      if (s.ok()) {
        diff = CompareLoaded(*snap, tables, models,
                             ctx->options.plant == Plant::kLoadedImage);
      }
    });
    const bool load_ok = s.ok() && diff.empty();
    ctx->ledger.Record("load", ms, load_ok);
    if (!load_ok) {
      ctx->ledger.Note("LoadDatabase: " + (s.ok() ? diff : s.ToString()));
    }
    ++ops;

    std::error_code ec;
    image_bytes = static_cast<double>(std::filesystem::file_size(path, ec));
    raw_bytes = 0.0;
    for (const std::string& name : snap->tables.ListTables()) {
      const Table& t = **snap->tables.Get(name);
      raw_bytes += static_cast<double>(t.num_rows() * t.num_columns() * 8);
    }
    return ops;
  };

  // The median per-cycle rate: a cycle slowed by a neighbour on the
  // machine does not move it.
  const PhaseResult phase = RunPhases(ctx, [&](double seconds, uint64_t) {
    PhaseResult out;
    std::vector<double> rates;
    const auto start = Clock::now();
    do {
      const auto cycle_start = Clock::now();
      const uint64_t ops = cycle();
      rates.push_back(static_cast<double>(ops) / SecondsSince(cycle_start));
      out.ops += ops;
    } while (SecondsSince(start) < seconds);
    out.ops_per_s = Median(rates);
    return out;
  });

  if (ctx->options.trace) {
    // Module entry points on the current archive, interleaved round by
    // round.
    const laws::SnapshotPtr snap = st->admin->PinSnapshot();
    const Table& table = **snap->tables.Get("measurements");
    ReplayStats stats;
    // SaveDatabase = SaveDatabaseToBytes + the durable write (tmp, fsync,
    // rename). Each round runs the two back to back on the same snapshot;
    // the durable part is the median of the per-round differences. It is
    // small beside the encoding, so the encoding's noise shows in it and
    // it can read below 0.
    std::vector<double> durable_ms;
    std::vector<uint8_t> bytes;
    for (int round = 0; round < kReplayRounds; ++round) {
      ReplayStorage(ctx, table);
      ReplayFit(ctx, table, st->fit, &stats);
      const uint64_t op = ctx->NewOp();
      SpanScope root(&tr, "replay.persist", -1, op);
      for (size_t c = 0; c < table.num_columns(); ++c) {
        const std::string span =
            "compress.column." + table.schema().field(c).name;
        tr.Time(span.c_str(), root.id(), op, [&] {
          (void)laws::CompressColumn(table.column(c),
                                     laws::ColumnEncoding::kAuto);
        });
      }
      const double encode_ms = tr.Time("core.save_bytes", root.id(), op, [&] {
        auto r = laws::SaveDatabaseToBytes(snap->tables, snap->models);
        if (r.ok()) bytes = std::move(*r);
      });
      const double save_ms = tr.Time("core.save", root.id(), op, [&] {
        (void)laws::SaveDatabase(snap->tables, snap->models, path);
      });
      durable_ms.push_back(save_ms - encode_ms);
      tr.Time("core.load_bytes", root.id(), op, [&] {
        laws::Catalog tables;
        laws::ModelCatalog models;
        (void)laws::LoadDatabaseFromBytes(bytes, &tables, &models);
      });
      tr.Time("core.verify", root.id(), op,
              [&] { (void)laws::InspectImage(bytes); });
    }
    ReportTracedLayers(ctx, stats);
    Report& r = ctx->report;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const std::string name = table.schema().field(c).name;
      r.Set("compress.column_ms." + name,
            tr.MedianMillis("compress.column." + name), "ms");
    }
    r.Set("core.save_bytes_ms", tr.MedianMillis("core.save_bytes"), "ms");
    r.Set("core.save_durable_ms", Median(durable_ms), "ms");
    r.Set("core.load_bytes_ms", tr.MedianMillis("core.load_bytes"), "ms");
    r.Set("core.verify_ms", tr.MedianMillis("core.verify"), "ms");
  }

  Report& r = ctx->report;
  r.Set("ingest_p50_ms", Median(ctx->ledger.Samples("ingest")), "ms");
  r.Set("fit_p50_ms", Median(ctx->ledger.Samples("fit")), "ms");
  r.Set("save_p50_ms", Median(ctx->ledger.Samples("save")), "ms");
  r.Set("load_p50_ms", Median(ctx->ledger.Samples("load")), "ms");
  r.Set("image_bytes_per_raw_byte",
        raw_bytes > 0 ? image_bytes / raw_bytes : 0.0, "ratio");
  ReportCommon(ctx, phase, nullptr);
  return 0;
}

// ---- lofar_query_mix -------------------------------------------------------

namespace {

std::vector<ReadClass> BuildMix(const LofarState& st, uint64_t seed) {
  Rng rng(seed * 0xD1B54A32D192ED03ULL + 5);
  std::vector<int64_t> sources;
  for (int i = 0; i < 16; ++i) {
    sources.push_back(
        rng.UniformInt(1, static_cast<int64_t>(st.config.num_sources)));
  }
  std::vector<ReadClass> mix = {
      {"point", "point", true, true, 24, {}},
      {"source_avg", "point", true, true, 16, {}},
      {"fallback", "point", true, false, 4, {}},
      {"point", "point", false, false, 2, {}},
      {"range", "range", false, false, 2, {}},
      {"global_agg", "global_agg", false, false, 1, {}},
      {"group_by", "group_by", false, false, 1, {}},
      {"top_k", "top_k", false, false, 1, {}},
      {"join", "join", false, false, 1, {}},
  };
  for (int64_t s : sources) {
    for (double band : st.config.bands) {
      mix[0].pool.push_back(FormatSql(
          "SELECT intensity FROM measurements WHERE source = %lld AND "
          "wavelength = %.15g",
          static_cast<long long>(s), band));
    }
    mix[1].pool.push_back(FormatSql(
        "SELECT AVG(intensity) FROM measurements WHERE source = %lld",
        static_cast<long long>(s)));
    mix[2].pool.push_back(FormatSql(
        "SELECT COUNT(*) FROM measurements WHERE source = %lld",
        static_cast<long long>(s)));
    mix[3].pool.push_back(FormatSql(
        "SELECT wavelength, intensity FROM measurements WHERE source = %lld",
        static_cast<long long>(s)));
  }
  for (int i = 0; i < 8; ++i) {
    const double lo = rng.Uniform(0.02, 0.2);
    mix[4].pool.push_back(FormatSql(
        "SELECT COUNT(*) FROM measurements WHERE intensity >= %.6f AND "
        "intensity < %.6f",
        lo, lo * 1.5));
  }
  mix[5].pool.push_back("SELECT AVG(intensity) FROM measurements");
  mix[6].pool.push_back(
      "SELECT source, AVG(intensity) FROM measurements GROUP BY source");
  mix[7].pool.push_back(
      "SELECT source, intensity FROM measurements ORDER BY intensity DESC "
      "LIMIT 20");
  mix[8].pool.push_back(
      "SELECT COUNT(*), AVG(intensity) FROM measurements JOIN sources ON "
      "source = sid WHERE flux_class >= 1");
  return mix;
}

}  // namespace

int RunQueryMix(RunContext* ctx) {
  std::unique_ptr<LofarState> st;
  std::vector<double> generate_ms;
  MeasureSetup(ctx, [&] {
    st.reset();
    st = SetupLofar(ctx, /*query_tables=*/true, &generate_ms);
  });
  if (st == nullptr) return 1;
  ReportGenerate(ctx, generate_ms);
  const size_t sessions = SessionCount();
  ctx->env["sessions"] = std::to_string(sessions);

  // References, fixed before the first timed read: exact answers of every
  // statement (model-path ones for the coverage audit) and model digests
  // for the model path.
  std::vector<ReadClass> mix = BuildMix(*st, ctx->options.seed);
  const laws::SnapshotPtr snap = st->admin->PinSnapshot();
  const auto refs_start = Clock::now();
  ExactReference exact;
  std::map<std::string, uint64_t> model_ref;
  for (const ReadClass& c : mix) {
    for (const std::string& sql : c.pool) {
      if (c.want_model) {
        const ReadOutcome m = ModelAnswer(*snap, sql);
        if (!m.ok) {
          ctx->ledger.Fail("model reference failed: " + m.error);
          return 1;
        }
        model_ref[sql] =
            m.digest + (ctx->options.plant == Plant::kModelDigest ? 1 : 0);
      }
      if (!exact.Get(*snap, sql).ok) {
        ctx->ledger.Fail("exact reference failed [" + sql + "]");
        return 1;
      }
    }
  }
  if (ctx->options.plant == Plant::kExactDigest) {
    for (const std::string& sql : mix[3].pool) exact.Poison(sql);
  }
  ctx->report.Set("check.reference_s", SecondsSince(refs_start), "s");

  Coverage coverage;
  ReadCheck check;
  check.ctx = ctx;
  check.exact = &exact;
  check.coverage = &coverage;
  check.model_ref = &model_ref;
  const std::vector<std::shared_ptr<ClientSession>> clients =
      ConnectSessions(ctx, st->server.get(), "q", sessions);
  if (clients.empty()) return 1;

  // Closed loop: each session sends its next read when the last returns.
  // Every session runs whole rounds holding the same count of each class,
  // in its own seeded order, and starts no round after `seconds`. The
  // phase's rate is the sum over sessions of each session's median
  // per-round rate: whole rounds keep the class mix fixed, and the median
  // keeps a round slowed by a neighbour on the machine from moving it.
  std::atomic<uint64_t> read_index{0};
  auto timed_phase = [&](double seconds, uint64_t salt) {
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<uint64_t> ops(sessions, 0);
    std::vector<std::vector<double>> round_rates(sessions);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < sessions; ++i) {
      threads.emplace_back([&, i] {
        Rng rng(ctx->options.seed * 1000003ULL + salt * 101 + i);
        std::vector<size_t> round;
        for (size_t c = 0; c < mix.size(); ++c) {
          for (int k = 0; k < mix[c].per_round; ++k) round.push_back(c);
        }
        do {
          const auto round_start = Clock::now();
          const std::vector<uint32_t> order =
              rng.Permutation(static_cast<uint32_t>(round.size()));
          for (uint32_t o : order) {
            const ReadClass& c = mix[round[o]];
            const std::string& sql = c.pool[static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(c.pool.size()) - 1))];
            double ms = 0.0;
            (void)TimedRead(check, *snap, clients[i].get(), c, sql,
                            read_index.fetch_add(1), &ms);
            ++ops[i];
          }
          round_rates[i].push_back(static_cast<double>(order.size()) /
                                   SecondsSince(round_start));
        } while (Clock::now() < deadline);
      });
    }
    for (auto& t : threads) t.join();
    PhaseResult phase;
    for (size_t i = 0; i < sessions; ++i) {
      phase.ops += ops[i];
      phase.ops_per_s += Median(round_rates[i]);
    }
    return phase;
  };

  const PhaseResult phase = RunPhases(ctx, timed_phase);
  if (ctx->options.trace) {
    ReplayStats stats;
    for (int round = 0; round < kReplayRounds; ++round) {
      ReplayReadRound(ctx, clients[0].get(), mix, round, &stats);
    }
    ReportTracedLayers(ctx, stats);
  }

  // A sample of the references against the independent interpreter,
  // after the timed phase so its boxed rows stay out of peak_rss_mb.
  const auto oracle_start = Clock::now();
  for (const std::string& sql : {mix[3].pool[0], mix[4].pool[0], mix[5].pool[0]}) {
    OracleCrossCheck(ctx, snap->tables, sql,
                     ctx->options.plant == Plant::kOracle);
  }
  ctx->report.Set("check.oracle_s", SecondsSince(oracle_start), "s");

  ReportReadLatencies(ctx);
  ReportCommon(ctx, phase, &coverage);
  return 0;
}

}  // namespace e2e
