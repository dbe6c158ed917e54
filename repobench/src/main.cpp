// repobench: runs one workload of the repository benchmark and prints its
// metrics. See README.md for the workloads, metrics and how to run it.
//
//   repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>] [--wrong-answer]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). The full result, with its fingerprint, is written fresh to
// <out-dir>/results/<workload>-seed<n>-trace<t>.json; a traced run also
// writes its spans to <out-dir>/spans/<workload>-seed<n>.spans.csv.
// Exit code 0 when every accepted answer matched the model, 1 when one did
// not, 2 on bad arguments or a failed set-up.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace repobench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ops_per_s", "ops/s"},
    {"gas_per_write", "gas"},
    {"query_p50_us", "us"},
    {"bytes_per_query", "bytes"},
};

const MetricDef kPerLayer[] = {
    {"gas.sstore_per_write", "gas"},
    {"gas.supdate_per_write", "gas"},
    {"gas.sload_per_write", "gas"},
    {"gas.hash_per_write", "gas"},
    {"gas.mem_per_write", "gas"},
    {"crypto.perms_per_write", "count"},
    {"crypto.perms_per_query", "count"},
    {"owner.write_us_p50", "us"},
    {"engine.write_us_p50", "us"},
    {"store.append_us_p50", "us"},
    {"store.journal_bytes_per_write", "bytes"},
    {"store.scan_s", "s"},
    {"recover.total_s", "s"},
    {"recover.replay_s", "s"},
    {"recover.first_answer_ms", "ms"},
    {"chain.read_state_us", "us"},
    {"sp.execute_us_p50", "us"},
    {"sp.first_query_after_writes_us", "us"},
    {"sp.vo_bytes_per_query", "bytes"},
    {"sp.results_per_query", "count"},
    {"wire.serialize_us_p50", "us"},
    {"wire.parse_us_p50", "us"},
    {"client.verify_us_p50", "us"},
    {"shard.slices_per_query", "count"},
    {"net.rtt_us_p50", "us"},
    {"net.rtt_us_p99", "us"},
    {"net.server_request_us_p50", "us"},
    {"net.server_request_us_p99", "us"},
    {"net.busy_sheds", "count"},
    {"multiattr.execute_us_p50.and", "us"},
    {"multiattr.execute_us_p50.or", "us"},
    {"multiattr.execute_us_p50.count", "us"},
    {"multiattr.execute_us_p50.sum", "us"},
    {"multiattr.verify_us_p50.and", "us"},
    {"multiattr.verify_us_p50.or", "us"},
    {"multiattr.verify_us_p50.count", "us"},
    {"multiattr.verify_us_p50.sum", "us"},
    {"multiattr.agg_bytes_per_query", "bytes"},
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest decimal that reads back as exactly `v`: every digit measured.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string MetricsJson(const MetricDef* defs, size_t count,
                        const std::map<std::string, double>& values) {
  std::string out = "{";
  for (size_t i = 0; i < count; ++i) {
    const auto it = values.find(defs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    if (i > 0) out += ", ";
    out += JsonString(defs[i].name) + ": {\"value\": " + JsonNumber(v) +
           ", \"unit\": " + JsonString(defs[i].unit) + "}";
  }
  return out + "}";
}

std::string MapJson(const std::map<std::string, std::string>& values) {
  std::string out = "{";
  for (const auto& [k, v] : values) {
    if (out.size() > 1) out += ", ";
    out += JsonString(k) + ": " + JsonString(v);
  }
  return out + "}";
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--wrong-answer") {
      args->wrong_answer = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds >= 1;
}

template <class Tracer>
bool Dispatch(const Args& args, Tracer& tracer, Outcome* out) {
  if (args.workload == "ingest_recover") {
    *out = RunIngestRecover(args, tracer);
  } else if (args.workload == "range_verify") {
    *out = RunRangeVerify(args, tracer);
  } else if (args.workload == "served_mixed") {
    *out = RunServedMixed(args, tracer);
  } else if (args.workload == "boolean_multiattr") {
    *out = RunBooleanMultiattr(args, tracer);
  } else {
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: repobench --workload <ingest_recover|range_verify|"
                 "served_mixed|boolean_multiattr> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>] [--commit <id>] "
                 "[--wrong-answer]\n";
    return 2;
  }
  namespace fs = std::filesystem;
  fs::create_directories(fs::path(args.out_dir) / "results");

  const std::string stem = args.workload + "-seed" + std::to_string(args.seed);
  Outcome outcome;
  try {
    bool known = false;
    if (args.trace) {
      SpanTracer tracer;
      known = Dispatch(args, tracer, &outcome);
      if (known) {
        outcome.layer_table = tracer.LayerTable();
        fs::create_directories(fs::path(args.out_dir) / "spans");
        const std::string spans =
            (fs::path(args.out_dir) / "spans" / (stem + ".spans.csv")).string();
        if (!tracer.WriteCsv(spans)) {
          throw std::runtime_error("could not write " + spans);
        }
      }
    } else {
      NullTracer untraced;
      known = Dispatch(args, untraced, &outcome);
    }
    if (!known) {
      std::cerr << "unknown workload: " << args.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "repobench " << args.workload << ": " << e.what() << "\n";
    return 2;
  }
  for (const MetricDef& def : kEndToEnd) {
    if (outcome.end_to_end.count(def.name) == 0) {
      std::cerr << "workload did not report " << def.name << "\n";
      return 2;
    }
  }
  if (args.trace) {
    std::cerr << "per-layer p50 self time, " << args.workload << ":\n";
    for (const std::string& line : outcome.layer_table) {
      std::cerr << "  " << line << "\n";
    }
  }
  for (const std::string& note : outcome.check.notes()) {
    std::cerr << "check: " << note << "\n";
  }

  std::map<std::string, std::string> fingerprint = outcome.settings;
  fingerprint["workload"] = args.workload;
  fingerprint["seed"] = std::to_string(args.seed);
  fingerprint["seconds"] = std::to_string(args.seconds);
  fingerprint["trace"] = args.trace ? "1" : "0";
  fingerprint["nproc"] = std::to_string(std::thread::hardware_concurrency());
  fingerprint["build_type"] = REPOBENCH_BUILD_TYPE;
  fingerprint["GEM2_NATIVE_ARCH"] = REPOBENCH_NATIVE_ARCH;
  fingerprint["GEM2_TELEMETRY"] = REPOBENCH_TELEMETRY;
  fingerprint["commit"] = args.commit;

  const Checker& check = outcome.check;
  const std::string head = "{\"correct\": " +
                           std::string(check.correct() ? "true" : "false") +
                           ", \"attempted\": " +
                           std::to_string(check.attempted()) +
                           ", \"failed\": " + std::to_string(check.failed());
  const std::string e2e = MetricsJson(kEndToEnd, std::size(kEndToEnd),
                                      outcome.end_to_end);
  const std::string layers =
      MetricsJson(kPerLayer, std::size(kPerLayer), outcome.per_layer);

  std::string table = "[";
  for (const std::string& line : outcome.layer_table) {
    if (table.size() > 1) table += ", ";
    table += JsonString(line);
  }
  table += "]";
  const std::string result_path =
      (fs::path(args.out_dir) / "results" /
       (stem + "-trace" + (args.trace ? "1" : "0") + ".json"))
          .string();
  std::ofstream result(result_path, std::ios::trunc);
  result << head << ", \"fingerprint\": " << MapJson(fingerprint)
         << ", \"end_to_end\": " << e2e;
  if (args.trace) {
    result << ", \"per_layer\": " << layers << ", \"layer_table\": " << table;
  }
  result << "}\n";
  result.close();
  if (!result) {
    std::cerr << "could not write " << result_path << "\n";
    return 2;
  }

  std::cout << "fingerprint: " << MapJson(fingerprint) << "\n";
  std::cout << head << ", \"metrics\": " << (args.trace ? layers : e2e)
            << "}" << std::endl;
  return check.correct() ? 0 : 1;
}

}  // namespace
}  // namespace repobench

int main(int argc, char** argv) { return repobench::Main(argc, argv); }
