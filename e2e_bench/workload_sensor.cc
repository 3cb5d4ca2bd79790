// sensor_stream: four sessions read a growing sensor table while one
// writer appends a tick per sensor every round. Each sensor carries a
// captured piecewise-linear model at the generator's breakpoints and a
// learner harvests the exact fallbacks. Every commit clones the table
// and invalidates the block index, so this is the workload that misses
// the program's caches; models go stale between refits.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <memory>
#include <thread>

#include "common/random.h"
#include "common/trace.h"
#include "learn/learner.h"
#include "learn/loop.h"
#include "workload/sensor.h"
#include "workloads.h"

namespace e2e {

using laws::ClientSession;
using laws::Rng;
using laws::Table;

namespace {

/// Refit and learner tick every this many rounds.
constexpr uint64_t kRefitEvery = 8;

struct SensorState {
  std::unique_ptr<laws::Learner> learner;
  std::unique_ptr<laws::Server> server;
  std::unique_ptr<laws::LearningLoop> loop;
  std::shared_ptr<ClientSession> admin;
  laws::SensorConfig config;
  std::vector<laws::SensorTruth> truth;
  laws::FitRequest fit;

  ~SensorState() {
    admin.reset();
    loop.reset();
    server.reset();
    learner.reset();
  }
};

std::unique_ptr<SensorState> SetupSensor(RunContext* ctx,
                                         std::vector<double>* generate_ms) {
  auto st = std::make_unique<SensorState>();
  st->config.num_sensors = 50;
  st->config.num_ticks = ctx->options.small ? 2'000 : 24'000;
  st->config.seed = ctx->options.seed;
  const auto gen_start = Clock::now();
  auto data = laws::GenerateSensor(st->config);
  generate_ms->push_back(MillisSince(gen_start));
  if (!data.ok()) {
    ctx->ledger.Fail("GenerateSensor: " + data.status().ToString());
    return nullptr;
  }
  st->truth = data->truth;

  laws::LearnerOptions learn_options;
  learn_options.enabled = true;
  st->learner = std::make_unique<laws::Learner>(learn_options);
  st->server =
      std::make_unique<laws::Server>(BenchServerOptions(st->learner.get()));
  st->loop = std::make_unique<laws::LearningLoop>(&st->server->snapshots(),
                                                  st->learner.get());
  auto admin = st->server->Connect("admin");
  if (!admin.ok()) {
    ctx->ledger.Fail("Connect: " + admin.status().ToString());
    return nullptr;
  }
  st->admin = *admin;
  laws::Status s = st->admin->CreateTable("readings", std::move(data->readings));
  if (s.ok()) {
    s = st->admin->RegisterDomain(
        "readings", "tick",
        laws::ColumnDomain::IntegerRange(
            0, static_cast<int64_t>(st->config.num_ticks) - 1, 1));
  }
  if (!s.ok()) {
    ctx->ledger.Fail("create table: " + s.ToString());
    return nullptr;
  }
  char source[128];
  std::snprintf(source, sizeof(source), "piecewise_poly(1;%.17g,%.17g)",
                data->tick_breakpoints[0], data->tick_breakpoints[1]);
  st->fit.table = "readings";
  st->fit.model_source = source;
  st->fit.input_columns = {"tick"};
  st->fit.output_column = "temperature";
  st->fit.group_column = "sensor";
  auto report = st->admin->Fit(st->fit);
  if (!report.ok()) {
    ctx->ledger.Fail("Fit: " + report.status().ToString());
    return nullptr;
  }
  return st;
}

/// One new tick per sensor, continuing each sensor's last regime.
Table MakeTickBatch(const SensorState& st, int64_t tick, Rng* rng) {
  Table batch(laws::Schema(
      {laws::Field{"sensor", laws::DataType::kInt64, false},
       laws::Field{"tick", laws::DataType::kInt64, false},
       laws::Field{"temperature", laws::DataType::kDouble, false}}));
  for (const laws::SensorTruth& t : st.truth) {
    const auto& [intercept, slope] = t.segments.back();
    const double temp = intercept + slope * static_cast<double>(tick) +
                        rng->Normal(0.0, st.config.noise_sd);
    (void)batch.AppendRow({laws::Value::Int64(t.sensor),
                           laws::Value::Int64(tick),
                           laws::Value::Double(temp)});
  }
  return batch;
}

/// Reads over the ticks present at set-up only, so their exact answers
/// never change while the table grows. Hybrid reads may be answered
/// either way (models go stale between refits), so no class expects a
/// model answer; each one seen is checked after its round.
std::vector<ReadClass> BuildReads(const SensorState& st, uint64_t seed) {
  Rng rng(seed * 0xA24BAED4963EE407ULL + 3);
  const int64_t ticks = static_cast<int64_t>(st.config.num_ticks);
  const int64_t sensors = static_cast<int64_t>(st.config.num_sensors);
  std::vector<ReadClass> reads = {
      {"range_agg", "range", false, false, 4, {}},
      {"sensor_point", "point", true, false, 8, {}},
      {"sensor_avg", "range", true, false, 8, {}},
      {"group_by", "group_by", false, false, 1, {}},
      {"top_k", "top_k", false, false, 1, {}},
  };
  for (int i = 0; i < 32; ++i) {
    const int64_t s = rng.UniformInt(1, sensors);
    const int64_t a = rng.UniformInt(0, ticks - 1001);
    reads[0].pool.push_back(FormatSql(
        "SELECT COUNT(*), AVG(temperature) FROM readings WHERE sensor = %lld "
        "AND tick >= %lld AND tick < %lld",
        static_cast<long long>(s), static_cast<long long>(a),
        static_cast<long long>(a + 1000)));
    reads[1].pool.push_back(FormatSql(
        "SELECT temperature FROM readings WHERE sensor = %lld AND tick = %lld",
        static_cast<long long>(s), static_cast<long long>(rng.UniformInt(0, ticks - 1))));
    const int64_t b = rng.UniformInt(0, ticks - 201);
    reads[2].pool.push_back(FormatSql(
        "SELECT AVG(temperature) FROM readings WHERE sensor = %lld AND tick "
        ">= %lld AND tick <= %lld",
        static_cast<long long>(s), static_cast<long long>(b),
        static_cast<long long>(b + 199)));
  }
  for (int i = 0; i < 8; ++i) {
    const int64_t a = rng.UniformInt(0, ticks - 2001);
    reads[3].pool.push_back(FormatSql(
        "SELECT sensor, AVG(temperature) FROM readings WHERE tick >= %lld AND "
        "tick < %lld GROUP BY sensor",
        static_cast<long long>(a), static_cast<long long>(a + 2000)));
    reads[4].pool.push_back(FormatSql(
        "SELECT tick, temperature FROM readings WHERE sensor = %lld AND tick "
        "< %lld ORDER BY temperature DESC LIMIT 5",
        static_cast<long long>(rng.UniformInt(1, sensors)),
        static_cast<long long>(ticks)));
  }
  return reads;
}

/// A model answer a session saw, checked after the round.
struct SeenModelAnswer {
  std::string sql;
  uint64_t digest = 0;
};

}  // namespace

int RunSensorStream(RunContext* ctx) {
  std::unique_ptr<SensorState> st;
  std::vector<double> generate_ms;
  MeasureSetup(ctx, [&] {
    st.reset();
    st = SetupSensor(ctx, &generate_ms);
  });
  if (st == nullptr) return 1;
  ctx->report.Set("workload.sensor_generate_ms", Median(generate_ms), "ms");
  const size_t sessions = SessionCount();
  ctx->env["sessions"] = std::to_string(sessions);

  std::vector<ReadClass> reads = BuildReads(*st, ctx->options.seed);
  ExactReference exact;
  {
    const laws::SnapshotPtr snap = st->admin->PinSnapshot();
    for (const ReadClass& r : reads) {
      for (const std::string& sql : r.pool) {
        if (!exact.Get(*snap, sql).ok) {
          ctx->ledger.Fail("exact reference failed [" + sql + "]");
          return 1;
        }
      }
    }
    if (ctx->options.plant == Plant::kExactDigest) {
      for (const std::string& sql : reads[0].pool) exact.Poison(sql);
    }
  }

  Coverage coverage;
  ReadCheck check;
  check.ctx = ctx;
  check.exact = &exact;
  check.coverage = &coverage;
  Tracer& tr = ctx->tracer;
  const std::vector<std::shared_ptr<ClientSession>> clients =
      ConnectSessions(ctx, st->server.get(), "r", sessions);
  if (clients.empty()) return 1;

  // Rounds: session 0 commits (ingest; every kRefitEvery rounds also a
  // refit and a learner tick), then every session runs the same batch of
  // reads in its own seeded order. Only those phases are timed; model
  // answers are checked between rounds against the round's snapshot.
  Rng writer_rng(ctx->options.seed * 0x9E3779B97F4A7C15ULL + 29);
  int64_t next_tick = static_cast<int64_t>(st->config.num_ticks);
  uint64_t round_no = 0;
  std::atomic<uint64_t> read_index{0};
  std::vector<std::vector<SeenModelAnswer>> seen(sessions);
  std::vector<Rng> reader_rngs;
  for (size_t i = 0; i < sessions; ++i) {
    reader_rngs.emplace_back(ctx->options.seed * 1000003ULL + 7 * i + 1);
  }
  std::vector<size_t> batch;
  for (size_t c = 0; c < reads.size(); ++c) {
    for (int k = 0; k < reads[c].per_round; ++k) batch.push_back(c);
  }

  laws::SnapshotPtr round_snap;
  bool stop = false;
  std::barrier start_line(static_cast<std::ptrdiff_t>(sessions + 1));
  std::barrier finish_line(static_cast<std::ptrdiff_t>(sessions + 1));
  std::atomic<uint64_t> read_ops{0};
  std::vector<std::thread> readers;
  for (size_t i = 0; i < sessions; ++i) {
    readers.emplace_back([&, i] {
      for (;;) {
        start_line.arrive_and_wait();
        if (stop) return;
        const std::vector<uint32_t> order =
            reader_rngs[i].Permutation(static_cast<uint32_t>(batch.size()));
        bool first = true;
        for (uint32_t o : order) {
          const ReadClass& r = reads[batch[o]];
          const std::string& sql = r.pool[static_cast<size_t>(
              reader_rngs[i].UniformInt(0, static_cast<int64_t>(r.pool.size()) - 1))];
          double ms = 0.0;
          const ReadOutcome got = TimedRead(check, *round_snap, clients[i].get(),
                                            r, sql, read_index.fetch_add(1), &ms);
          if (first) {
            ctx->ledger.Sample("first_read_after_commit", ms);
            first = false;
          }
          if (got.ok && got.approximate) seen[i].push_back({sql, got.digest});
          read_ops.fetch_add(1);
        }
        finish_line.arrive_and_wait();
      }
    });
  }

  // Runs one round; returns its timed seconds and adds its operations.
  auto run_round = [&](uint64_t* ops) -> double {
    const Table rows = MakeTickBatch(*st, next_tick++, &writer_rng);
    const auto t0 = Clock::now();
    const uint64_t op = ctx->NewOp();
    const int64_t root = tr.Begin("op.commit", -1, op);
    double ms = 0.0;
    const laws::Status s = tr.Time("serve.commit", root, op, &ms, [&] {
      return clients[0]->Ingest("readings", rows);
    });
    ctx->ledger.Record("ingest", ms, s.ok());
    ++*ops;
    if (!s.ok()) ctx->ledger.Note("Ingest: " + s.ToString());
    if (round_no % kRefitEvery == kRefitEvery - 1) {
      const auto refit = tr.Time("serve.refit", root, op, &ms,
                                 [&] { return clients[0]->RefitStale(); });
      const bool ok = refit.ok() && refit->failed == 0;
      ctx->ledger.Record("fit", ms, ok);
      ++*ops;
      if (!ok) ctx->ledger.Note("RefitStale failed");
      const auto tick = tr.Time("learn.tick", root, op, &ms,
                                [&] { return st->loop->TickNow(); });
      ctx->ledger.Record("learn.tick", ms, tick.ok());
      ++*ops;
      if (!tick.ok()) ctx->ledger.Note("TickNow: " + tick.status().ToString());
    }
    tr.End(root);
    ++round_no;
    round_snap = st->admin->PinSnapshot();
    const double write_s = SecondsSince(t0);
    const uint64_t reads_before = read_ops.load();
    const auto r0 = Clock::now();
    start_line.arrive_and_wait();
    finish_line.arrive_and_wait();
    const double read_s = SecondsSince(r0);
    *ops += read_ops.load() - reads_before;
    // Model answers against the model engine on the same snapshot (no
    // commit happened during the read phase).
    for (auto& answers : seen) {
      for (const SeenModelAnswer& a : answers) {
        const ReadOutcome want = ModelAnswer(*round_snap, a.sql);
        const uint64_t digest =
            want.digest + (ctx->options.plant == Plant::kModelDigest ? 1 : 0);
        if (!want.ok || digest != a.digest) {
          ctx->ledger.Fail("wrong model answer [" + a.sql + "]");
        }
      }
      answers.clear();
    }
    return write_s + read_s;
  };

  // Rounds are timed in blocks of kRefitEvery, each holding one refit and
  // learner tick; the phase's rate is the median block rate, so a block
  // slowed by a neighbour on the machine does not move it.
  const PhaseResult phase = RunPhases(ctx, [&](double seconds, uint64_t) {
    PhaseResult out;
    std::vector<double> rates;
    double timed_s = 0.0;
    do {
      uint64_t block_ops = 0;
      double block_s = 0.0;
      for (uint64_t k = 0; k < kRefitEvery; ++k) block_s += run_round(&block_ops);
      rates.push_back(static_cast<double>(block_ops) / block_s);
      out.ops += block_ops;
      timed_s += block_s;
    } while (timed_s < seconds);
    out.ops_per_s = Median(rates);
    return out;
  });
  stop = true;
  start_line.arrive_and_wait();
  for (auto& t : readers) t.join();

  if (ctx->options.trace) {
    // Module entry points on the grown table, interleaved round by round.
    const laws::SnapshotPtr snap = st->admin->PinSnapshot();
    const Table& table = **snap->tables.Get("readings");
    ReplayStats stats;
    for (int round = 0; round < kReplayRounds; ++round) {
      ReplayStorage(ctx, table);
      ReplayFit(ctx, table, st->fit, &stats);
      ReplayReadRound(ctx, clients[0].get(), reads, round, &stats);
    }
    ReportTracedLayers(ctx, stats);
  }

  // A sample of the references against the independent interpreter,
  // after the timed phase so its boxed rows stay out of peak_rss_mb.
  {
    const laws::SnapshotPtr snap = st->admin->PinSnapshot();
    for (const std::string& sql :
         {reads[0].pool[0], reads[1].pool[0], reads[4].pool[0]}) {
      OracleCrossCheck(ctx, snap->tables, sql,
                       ctx->options.plant == Plant::kOracle);
    }
  }

  Report& r = ctx->report;
  ReportReadLatencies(ctx);
  r.Set("read_after_commit_p50_ms",
        Median(ctx->ledger.Samples("first_read_after_commit")), "ms");
  r.Set("ingest_p50_ms", Median(ctx->ledger.Samples("ingest")), "ms");
  r.Set("fit_p50_ms", Median(ctx->ledger.Samples("fit")), "ms");
  r.Set("learn_tick_p50_ms", Median(ctx->ledger.Samples("learn.tick")), "ms");
  ReportCommon(ctx, phase, &coverage);
  return 0;
}

}  // namespace e2e
