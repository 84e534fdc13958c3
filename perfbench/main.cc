// hydra_perfbench: one workload run of the end-to-end benchmark.
//
//   hydra_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --out-dir <dir> [--source <id>]
//
// Prints every metric by name with its unit and sample count, then, as
// the last line, one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics of an untraced run (--trace 0) or the per-layer
// metrics of a traced one (--trace 1). Exits 1 when an output oracle
// failed. The metric table below is the rationale README.md repeats: which
// end-to-end metric each layer metric should move, on which workload.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
  // Workloads that exercise the layer; on the others the layer is idle and
  // the metric reads 0.
  std::vector<std::string> workloads;
  // The end-to-end metric the layer metric should move ("" for end-to-end
  // metrics themselves).
  const char* moves;
};

const std::vector<std::string> kAll = {"regen_wlc", "datagen_wls",
                                       "serve_mixed", "serve_shared_wire"};
const std::vector<std::string> kRegen = {"regen_wlc"};
const std::vector<std::string> kDatagen = {"datagen_wls"};
const std::vector<std::string> kMixed = {"serve_mixed"};
const std::vector<std::string> kWire = {"serve_shared_wire"};
const std::vector<std::string> kServe = {"serve_mixed", "serve_shared_wire"};
const std::vector<std::string> kTpcds = {"regen_wlc", "datagen_wls",
                                         "serve_mixed"};
const std::vector<std::string> kTraced = {"regen_wlc", "datagen_wls"};

const std::vector<MetricSpec>& EndToEnd() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", kAll, ""},
      {"peak_rss_mb", "MiB", kAll, ""},
      {"op_p50_ms", "ms", kAll, ""},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayer() {
  static const std::vector<MetricSpec> specs = {
      // workload (client site, AQPs, similarity)
      {"workload.client_site_ms", "ms", kTpcds, "setup_s"},
      {"workload.similarity_ms", "ms", kRegen, "-"},
      {"workload.similarity.cc_max_rel_err", "ratio", kRegen, "-"},
      // regeneration pipeline
      {"hydra.preprocessor.build_ms", "ms", kRegen, "op_p50_ms"},
      {"hydra.formulator.formulate_ms", "ms", kRegen, "op_p50_ms"},
      {"hydra.formulator.lp_variables", "count", kRegen, "op_p50_ms"},
      {"hydra.formulator.subviews", "count", kRegen, "op_p50_ms"},
      {"lp.simplex.solve_ms", "ms", kRegen, "op_p50_ms"},
      {"lp.simplex.iterations", "count", kRegen, "op_p50_ms"},
      {"lp.simplex.warm_accept_ratio", "ratio", kRegen, "op_p50_ms"},
      {"lp.simplex.refactorize_ms", "ms", kRegen, "op_p50_ms"},
      {"lp.integerize.integerize_ms", "ms", kRegen, "op_p50_ms"},
      {"lp.integerize.max_abs_violation", "count", kRegen, "op_p50_ms"},
      {"hydra.summary_generator.build_ms", "ms", kRegen, "op_p50_ms"},
      {"hydra.summary_io.write_ms", "ms", kRegen, "op_p50_ms"},
      {"hydra.summary_io.read_ms", "ms", kRegen, "op_p50_ms"},
      {"hydra.summary_io.summary_bytes", "B", kRegen, "op_p50_ms"},
      {"common.thread_pool.view_parallel_efficiency", "ratio", kRegen,
       "op_p50_ms"},
      {"regen.max_view_ms", "ms", kRegen, "op_p50_ms"},
      // generation and engine
      {"hydra.tuple_generator.fill_ms", "ms", {"datagen_wls", "serve_mixed"},
       "op_p50_ms"},
      {"hydra.tuple_generator.rows_per_s", "rows/s", kDatagen,
       "client.rows_per_s"},
      {"hydra.tuple_generator.fill_in_query_ms", "ms", kDatagen, "op_p50_ms"},
      {"engine.self_ms", "ms", kDatagen, "op_p50_ms"},
      {"engine.query_ms_p50", "ms", kDatagen, "op_p50_ms"},
      {"engine.query_ms_max", "ms", kDatagen, "client.op_p99_ms"},
      {"engine.rows_out", "count", kDatagen, "-"},
      {"engine.parallel_speedup", "ratio", kDatagen, "op_p50_ms"},
      // serving
      {"serve.server.next_batch_us_p50", "us", kServe, "op_p50_ms"},
      {"serve.server.next_batch_us_p99", "us", kServe, "client.op_p99_ms"},
      {"serve.server.open_session_us_p50", "us", kServe, "op_p50_ms"},
      {"serve.scheduler.admission_wait_us_p50", "us", kServe, "op_p50_ms"},
      {"serve.scheduler.admission_wait_us_p99", "us", kServe,
       "client.op_p99_ms"},
      {"serve.scheduler.admission_wait_us_sum", "us", kMixed,
       "client.rows_per_s"},
      {"serve.scheduler.wait_ratio", "ratio", kMixed, "client.op_p99_ms"},
      {"serve.summary_store.hit_ratio", "ratio", kMixed, "client.op_p99_ms"},
      {"serve.summary_store.evictions", "count", kMixed, "client.op_p99_ms"},
      {"serve.summary_store.load_ms", "ms", kMixed, "client.op_p99_ms"},
      {"serve.summary_store.degraded_batches", "count", kMixed, "op_p50_ms"},
      {"serve.scan_group.fills", "count", kServe, "client.rows_per_s"},
      {"serve.scan_group.hit_ratio", "ratio", kServe, "client.rows_per_s"},
      {"serve.scan_group.passes_per_chunk", "ratio", kWire,
       "client.rows_per_s"},
      {"serve.scan_group.catch_up", "count", kWire, "client.rows_per_s"},
      {"serve.scan_group.pacing_waits", "count", kWire, "client.op_p99_ms"},
      {"serve.scan_group.peak_fanout", "count", kWire, "client.rows_per_s"},
      {"client.op_p99_ms", "ms", kAll, "-"},
      {"client.rows_per_s", "rows/s", kAll, "-"},
      {"client.lookup_p50_us", "us", kMixed, "op_p50_ms"},
      {"client.lookup_p99_us", "us", kMixed, "client.op_p99_ms"},
      {"client.exec_p50_ms", "ms", kMixed, "op_p50_ms"},
      {"client.exec_p99_ms", "ms", kMixed, "client.op_p99_ms"},
      // wire
      {"net.dispatch_wait_us_p50", "us", kWire, "op_p50_ms"},
      {"net.dispatch_wait_us_p99", "us", kWire, "client.op_p99_ms"},
      {"net.handle_us_p50", "us", kWire, "op_p50_ms"},
      {"net.handle_us_p99", "us", kWire, "client.op_p99_ms"},
      {"net.write_us_p99", "us", kWire, "client.op_p99_ms"},
      {"net.frames_per_batch", "ratio", kWire, "client.rows_per_s"},
      // tracing itself
      {"trace_overhead_frac", "ratio", kAll, "-"},
      {"trace_layer_coverage", "ratio", kTraced, "-"},
  };
  return specs;
}

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  for (const std::string& x : v) {
    if (x == s) return true;
  }
  return false;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "hydra_perfbench: %s\nusage: hydra_perfbench --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> --out-dir "
               "<dir> [--source <id>]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string source = "unknown";
  if (argc % 2 == 0) return Usage("every flag takes one value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--source") {
      source = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!Contains(kAll, args.workload)) return Usage("unknown --workload");
  if (args.out_dir.empty()) return Usage("--out-dir is required");
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");
  mkdir(args.out_dir.c_str(), 0755);

  std::printf(
      "# provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %d, \"cpu\": \"%s\", \"build_type\": "
      "\"%s\", \"compiler\": \"%s\", \"source\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, Nproc(),
      JsonEscape(CpuModel()).c_str(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, JsonEscape(source).c_str());
  std::fflush(stdout);

  Result result;
  try {
    if (args.workload == "regen_wlc") {
      RunRegenWlc(args, &result);
    } else if (args.workload == "datagen_wls") {
      RunDatagenWls(args, &result);
    } else if (args.workload == "serve_mixed") {
      RunServeMixed(args, &result);
    } else {
      RunServeSharedWire(args, &result);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hydra_perfbench: %s\n", e.what());
    return 1;
  }
  result.Set("peak_rss_mb", PeakRssMib(), "MiB");
  if (args.trace) {
    const std::string path =
        args.out_dir + "/trace_" + args.workload + ".json";
    if (Tracer::Get().WriteChromeTrace(path)) {
      std::printf("# chrome trace: %s\n", path.c_str());
    }
  }

  // Every metric the workload owns must have been measured.
  const std::vector<MetricSpec>& specs = args.trace ? PerLayer() : EndToEnd();
  for (const MetricSpec& spec : specs) {
    const auto it = result.metrics().find(spec.name);
    if (!Contains(spec.workloads, args.workload)) continue;
    if (it == result.metrics().end() || !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "hydra_perfbench: metric %s was not measured\n",
                   spec.name);
      for (const std::string& failure : result.failures()) {
        std::fprintf(stderr, "hydra_perfbench: %s\n", failure.c_str());
      }
      return 1;
    }
  }

  std::printf("%-46s %16s  %-7s %8s  %s\n", "metric", "value", "unit",
              "samples", args.trace ? "moves (on its workload)" : "");
  for (const MetricSpec& spec : specs) {
    const bool owned = Contains(spec.workloads, args.workload);
    const auto it = result.metrics().find(spec.name);
    const MetricValue v = owned ? it->second : MetricValue{0, spec.unit, 0};
    std::printf("%-46s %16.6g  %-7s %8llu  %s%s\n", spec.name, v.value,
                spec.unit, static_cast<unsigned long long>(v.samples),
                spec.moves, owned ? "" : " (layer idle)");
  }
  for (const std::string& failure : result.failures()) {
    std::printf("# ORACLE FAILED: %s\n", failure.c_str());
  }

  const bool correct = result.failed() == 0 && result.attempted() > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted());
  json += ", \"failed\": " + std::to_string(result.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < specs.size(); ++i) {
    const auto it = result.metrics().find(specs[i].name);
    const bool owned = Contains(specs[i].workloads, args.workload);
    const double value = owned ? it->second.value : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += std::string(i ? ", " : "") + "\"" + specs[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + specs[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
