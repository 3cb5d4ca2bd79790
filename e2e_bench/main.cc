// End-to-end benchmark of LawsDB: one workload per process.
//
//   e2e_bench --workload <lofar_archive|lofar_query_mix|sensor_stream>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--tmp-root <dir>] [--git-commit <sha>]
//             [--small] [--plant <check>]
//
// Prints one `metric <name> <value> <unit>` line per metric the workload
// measured, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1). Exits non-zero when any operation failed or
// any answer was wrong.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "harness.h"

namespace {

using e2e::RunContext;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics of BENCHMARK.json, measured with tracing off.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "ops/s"},
    {"peak_rss_mb", "MiB"},
};

/// The per-layer metrics of BENCHMARK.json, from the traced run. A
/// module a workload does not use reports 0.
const MetricSpec kPerLayer[] = {
    {"serve.read_ms", "ms"},
    {"serve.self_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.commit_ms", "ms"},
    {"storage.table_copy_ms", "ms"},
    {"query.parse_us", "us"},
    {"query.exec_ms.point", "ms"},
    {"query.exec_ms.range", "ms"},
    {"query.exec_ms.global_agg", "ms"},
    {"query.exec_ms.group_by", "ms"},
    {"query.exec_ms.top_k", "ms"},
    {"query.exec_ms.join", "ms"},
    {"query.blocks_pruned_share", "ratio"},
    {"query.treewalk_fallback_share", "ratio"},
    {"query.index_builds_per_commit", "ratio"},
    {"compress.block_index_build_ms", "ms"},
    {"compress.column_ms.source", "ms"},
    {"compress.column_ms.wavelength", "ms"},
    {"compress.column_ms.intensity", "ms"},
    {"aqp.model_ms", "ms"},
    {"aqp.hybrid_ms", "ms"},
    {"aqp.fallback_share", "ratio"},
    {"model.fit_grouped_ms", "ms"},
    {"model.groups_per_s", "1/s"},
    {"core.save_bytes_ms", "ms"},
    {"core.save_durable_ms", "ms"},
    {"core.load_bytes_ms", "ms"},
    {"core.verify_ms", "ms"},
    {"learn.tick_ms", "ms"},
    {"learn.harvest_rows_per_fallback", "rows"},
    {"lofar.generate_ms", "ms"},
    {"workload.sensor_generate_ms", "ms"},
    {"common.governor_polls_per_op", "polls"},
    {"trace.overhead_share", "ratio"},
    {"stage.GroupIndex_ms_per_op", "ms"},
    {"stage.FitLoop_ms_per_op", "ms"},
    {"stage.MergeOutcomes_ms_per_op", "ms"},
    {"stage.Sort_ms_per_op", "ms"},
    {"stage.HashAggregate_ms_per_op", "ms"},
    {"stage.SaveImage_ms_per_op", "ms"},
    {"stage.LoadImage_ms_per_op", "ms"},
    {"stage.ExactScan_ms_per_op", "ms"},
    {"stage.ModelPath_ms_per_op", "ms"},
    {"stage.Harvest_ms_per_op", "ms"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "<lofar_archive|lofar_query_mix|sensor_stream> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--tmp-root "
               "<dir>] [--git-commit <sha>] [--small] "
               "[--plant <exact_digest|model_digest|oracle|loaded_image>]\n",
               why);
  std::exit(2);
}

e2e::Options ParseArgs(int argc, char** argv) {
  e2e::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--out-dir") {
      o.out_dir = value();
    } else if (arg == "--tmp-root") {
      o.tmp_root = value();
    } else if (arg == "--git-commit") {
      o.git_commit = value();
    } else if (arg == "--small") {
      o.small = true;
    } else if (arg == "--plant") {
      bool ok = false;
      o.plant = e2e::ParsePlant(value(), &ok);
      if (!ok) Usage("unknown --plant");
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(o.seconds > 0)) Usage("--seconds must be positive");
  return o;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

/// The run's environment: machine, build and what the run measured on.
std::string EnvJson(const RunContext& ctx) {
  const e2e::Options& o = ctx.options;
  std::vector<std::pair<std::string, std::string>> fields = {
      {"workload", JsonString(o.workload)},
      {"seed", std::to_string(o.seed)},
      {"seconds", JsonNumber(o.seconds)},
      {"trace", o.trace ? "true" : "false"},
      {"scale", JsonString(o.small ? "small" : "paper")},
      {"nproc", std::to_string(e2e::UsableCpus())},
      {"hardware_concurrency",
       std::to_string(std::thread::hardware_concurrency())},
      {"pool_lanes", std::to_string(laws::ThreadPool::Global().num_threads())},
      {"build_type", JsonString(LAWS_E2E_BUILD_TYPE)},
      {"compiler", JsonString(kCompiler)},
      {"git_commit", JsonString(o.git_commit)},
      {"save_fsyncs", "true"},
      {"disk_note",
       JsonString("SaveDatabase writes tmp + fsync + rename; save/load "
                  "times are this machine's filesystem, not a device's")},
  };
  for (const auto& [k, v] : ctx.env) fields.push_back({k, JsonString(v)});
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    out += (i ? ", " : "") + JsonString(fields[i].first) + ": " +
           fields[i].second;
  }
  return out + "}";
}

std::string MetricsJson(const RunContext& ctx, const MetricSpec* specs,
                        size_t n) {
  std::string out = "{";
  for (size_t i = 0; i < n; ++i) {
    const double v = ctx.report.Get(specs[i].name);
    out += (i ? ", " : "") + JsonString(specs[i].name) + ": {\"value\": " +
           JsonNumber(v) + ", \"unit\": " + JsonString(specs[i].unit) + "}";
  }
  return out + "}";
}

std::string AllMetricsJson(const RunContext& ctx) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, vu] : ctx.report.entries()) {
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
           JsonNumber(vu.first) + ", \"unit\": " + JsonString(vu.second) +
           "}";
    first = false;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const e2e::Options options = ParseArgs(argc, argv);
  RunContext ctx(options);

  int rc = 0;
  if (options.workload == "lofar_archive") {
    rc = e2e::RunArchive(&ctx);
  } else if (options.workload == "lofar_query_mix") {
    rc = e2e::RunQueryMix(&ctx);
  } else if (options.workload == "sensor_stream") {
    rc = e2e::RunSensorStream(&ctx);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }
  if (!ctx.report.Has("peak_rss_mb")) {
    ctx.report.Set("peak_rss_mb", e2e::PeakRssMiB(), "MiB");
  }

  const uint64_t attempted = ctx.ledger.attempted();
  const uint64_t failed = ctx.ledger.failed();
  const bool correct = rc == 0 && failed == 0 && attempted > 0;

  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  const std::string stem = options.out_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) +
                           (options.trace ? "-trace" : "");
  if (options.trace && !ctx.tracer.WriteTsv(stem + ".spans.tsv")) {
    std::fprintf(stderr, "cannot write %s.spans.tsv\n", stem.c_str());
  }

  const std::string env = EnvJson(ctx);
  std::printf("env %s\n", env.c_str());
  for (const auto& [name, vu] : ctx.report.entries()) {
    std::printf("metric %-34s %16.6f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  std::printf("attempted %" PRIu64 " failed %" PRIu64 "\n", attempted,
              failed);
  for (const std::string& why : ctx.ledger.failures()) {
    std::fprintf(stderr, "FAILED %s\n", why.c_str());
  }

  std::string failures = "[";
  for (const std::string& why : ctx.ledger.failures()) {
    failures += (failures.size() > 1 ? ", " : "") + JsonString(why);
  }
  failures += "]";
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(f,
                 "{\"env\": %s, \"correct\": %s, \"attempted\": %" PRIu64
                 ", \"failed\": %" PRIu64 ", \"failures\": %s, \"metrics\": "
                 "%s}\n",
                 env.c_str(), correct ? "true" : "false", attempted, failed,
                 failures.c_str(), AllMetricsJson(ctx).c_str());
    std::fclose(f);
  }

  const std::string metrics =
      options.trace
          ? MetricsJson(ctx, kPerLayer, std::size(kPerLayer))
          : MetricsJson(ctx, kEndToEnd, std::size(kEndToEnd));
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", std::max<uint64_t>(attempted, 1),
              failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
