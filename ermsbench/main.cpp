// ermsbench — the ERMS end-to-end benchmark program.
//
//   ermsbench --workload <judge_ingest|cold_archive>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Repeats (set-up, timed phase) of one workload until the timed phases add
// up to --seconds (at least three repetitions), checks every repetition's
// simulated-outcome digest against the first, and prints a report line and,
// last, the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics (medians over repetitions);
// --trace 1 alternates untraced and traced repetitions and reports the
// per-layer spans and counts, plus tracing overhead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "bench_common.h"
#include "ec/gf_region.h"

namespace ermsbench {
namespace {

using RunFn = RepResult (*)(const Options&, Tracer&);

RunFn workload_fn(const std::string& name) {
  if (name == "judge_ingest") {
    return run_judge_ingest;
  }
  if (name == "cold_archive") {
    return run_cold_archive;
  }
  return nullptr;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
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

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "" : ", ") + json_string(m.name) + ": {\"value\": " +
           json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

std::string host_json(const Options& opt) {
  char digits[32];
  std::snprintf(digits, sizeof digits, "%u", std::thread::hardware_concurrency());
  std::string out = "{\"nproc\": ";
  out += digits;
  out += ", \"compiler\": " + json_string(ERMSBENCH_COMPILER);
  out += ", \"build_type\": " + json_string(ERMSBENCH_BUILD_TYPE);
  out += ", \"ec_kernel\": " +
         json_string(std::string(ec::kernel_name(ec::active_kernel())));
  std::snprintf(digits, sizeof digits, "%zu", fill_threads());
  out += ", \"threads\": {\"namespace_fill_pool\": ";
  out += digits;
  // judge_ingest generates its audit stream on one producer thread; the
  // judge runs one CEP shard and serial sweeps; the byte-level codec pool is
  // unused.
  out += ", \"producer_thread\": ";
  out += opt.workload == "judge_ingest" ? "1" : "0";
  out += ", \"judge_shards\": 1, \"sweep_threads\": 1, \"codec_threads\": 1}}";
  return out;
}

std::string ops_json(const Ops& ops) {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "{\"attempted\": %llu, \"ok\": %llu, \"failed\": %llu, \"rejected\": %llu, "
                "\"degraded\": %llu}",
                static_cast<unsigned long long>(ops.attempted),
                static_cast<unsigned long long>(ops.ok),
                static_cast<unsigned long long>(ops.failed),
                static_cast<unsigned long long>(ops.rejected),
                static_cast<unsigned long long>(ops.degraded));
  return buf;
}

/// Per-layer metrics of one traced repetition.
std::vector<Metric> layer_metrics(const RepResult& r, const Tracer& t) {
  std::vector<Metric> m = {
      {"workload.generate_s", t.total(Layer::kGenerate), "s"},
      {"hdfs.populate_s", t.total(Layer::kPopulate), "s"},
      {"hdfs.placement_s", t.total(Layer::kPlacement), "s"},
      {"judge.feed_ingest_s", t.total(Layer::kFeedIngest), "s"},
      {"cep.advance_s", t.total(Layer::kCepAdvance), "s"},
      {"core.evaluate_s", t.total(Layer::kEvaluate), "s"},
      {"core.evaluate_ms_p50", percentile(t.evaluate_ms(), 50.0), "ms"},
      {"core.evaluate_ms_p99", percentile(t.evaluate_ms(), 99.0), "ms"},
      {"sim.dispatch_self_s", t.self(Layer::kSimDispatch), "s"},
  };
  static const std::pair<const char*, const char*> kCounts[] = {
      {"hdfs.placement_calls", "count"}, {"judge.events", "count"},
      {"sim.events", "count"},           {"net.bytes_gib", "GiB"},
      {"net.inter_rack_gib", "GiB"},     {"net.flows_aborted", "count"},
      {"net.active_flows_max", "count"}, {"hdfs.reads_ok", "count"},
      {"hdfs.reads_failed", "count"},    {"hdfs.reads_degraded", "count"},
      {"hdfs.rereplications", "count"},  {"hdfs.recovery_retries", "count"},
      {"hdfs.blocks_lost", "count"},     {"core.evaluations", "count"},
      {"core.promotions", "count"},      {"core.cooldowns", "count"},
      {"core.encodes", "count"},         {"core.decodes", "count"},
      {"core.jobs_failed", "count"},     {"condor.jobs", "count"},
      {"condor.retries", "count"},       {"condor.queued_max", "count"},
      {"condor.completed_ratio", "ratio"},
  };
  for (const auto& [name, unit] : kCounts) {
    m.push_back({name, r.counts.at(name), unit});
  }
  return m;
}

/// Average the span metrics over traced repetitions; counts are identical.
std::vector<Metric> mean_metrics(const std::vector<std::vector<Metric>>& runs) {
  std::vector<Metric> out = runs.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    double sum = 0.0;
    for (const auto& run : runs) {
      sum += run[i].value;
    }
    out[i].value = sum / static_cast<double>(runs.size());
  }
  return out;
}

struct RunOutcome {
  bool correct{true};
  std::vector<std::string> problems;
};

/// Run one workload per the options and print its report and result lines.
RunOutcome run_workload(const Options& opt) {
  const RunFn fn = workload_fn(opt.workload);
  RunOutcome outcome;
  constexpr std::size_t kMinReps = 3;
  constexpr std::size_t kMaxReps = 40;

  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  std::vector<std::vector<Metric>> traced_layers;
  double timed_total = 0.0;
  const std::size_t min_reps = opt.trace ? 1 : kMinReps;
  while (untraced.size() < kMaxReps &&
         (untraced.size() < min_reps || timed_total < opt.seconds)) {
    {
      Tracer off{false};
      untraced.push_back(fn(opt, off));
      timed_total += untraced.back().timed_s;
    }
    if (opt.trace) {
      Tracer on{true};
      traced.push_back(fn(opt, on));
      timed_total += traced.back().timed_s;
      traced_layers.push_back(layer_metrics(traced.back(), on));
    }
  }

  // ---- output checks -------------------------------------------------------
  const RepResult& first = untraced.front();
  const auto check_rep = [&](const RepResult& r, const char* what) {
    for (const std::string& p : r.problems) {
      outcome.problems.push_back(std::string(what) + ": " + p);
    }
    if (r.digest_text != first.digest_text) {
      outcome.problems.push_back(std::string(what) +
                                 ": simulated-outcome digest differs from the first "
                                 "repetition of this seed");
    }
  };
  for (const RepResult& r : untraced) {
    check_rep(r, "untraced repetition");
  }
  for (const RepResult& r : traced) {
    check_rep(r, "traced repetition");
  }

  std::vector<double> setup;
  std::vector<double> speedup;
  std::vector<double> events;
  std::vector<double> timed;
  for (const RepResult& r : untraced) {
    setup.push_back(r.setup_s);
    speedup.push_back(r.sim_s / r.timed_s);
    events.push_back(static_cast<double>(r.feed_events) / r.timed_s);
    timed.push_back(r.timed_s);
  }

  std::vector<Metric> metrics;
  std::string extra;
  if (!opt.trace) {
    metrics = {
        {"setup_s", median(setup), "s"},
        {"sim_speedup", median(speedup), "sim-s/wall-s"},
        {"events_per_s", median(events), "events/s"},
        {"peak_rss_mib", static_cast<double>(erms::bench::peak_rss_bytes()) / 1048576.0,
         "MiB"},
        {"read_mbps", first.read_mbps, "MB/s"},
        {"storage_ratio", first.storage_ratio, "ratio"},
        {"energy_kwh", first.energy_kwh, "kWh"},
    };
  } else {
    std::vector<double> traced_timed;
    for (const RepResult& r : traced) {
      traced_timed.push_back(r.timed_s);
    }
    const double overhead = median(traced_timed) - median(timed);
    double unaccounted = 0.0;
    for (const RepResult& r : traced) {
      unaccounted += (r.timed_s - r.timed_spans_s) / static_cast<double>(traced.size());
    }
    metrics = mean_metrics(traced_layers);
    metrics.push_back({"trace.timed_s", median(traced_timed), "s"});
    metrics.push_back({"trace.overhead_s", overhead, "s"});
    metrics.push_back({"trace.unaccounted_s", unaccounted, "s"});
    // The spans tile the timed phase: what they miss must stay within the
    // tracing overhead (or 2% of the phase plus a millisecond of clock
    // noise, whichever is larger).
    if (std::abs(unaccounted) >
        std::max(std::abs(overhead), 0.02 * median(traced_timed) + 1e-3)) {
      outcome.problems.push_back("spans do not account for the timed wall time");
    }
    const auto share = [&](const char* name) {
      for (const Metric& m : metrics) {
        if (m.name == name) {
          return m.value / median(traced_timed);
        }
      }
      return 0.0;
    };
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  ", \"layer_share\": {\"judge.feed_ingest\": %.4f, "
                  "\"sim.dispatch_self\": %.4f, \"core.evaluate\": %.4f}",
                  share("judge.feed_ingest_s"), share("sim.dispatch_self_s"),
                  share("core.evaluate_s"));
    extra = buf;
  }
  outcome.correct = outcome.problems.empty();

  // ---- report line, then the result line ------------------------------------
  const auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += (i == 0 ? "" : ", ") + json_number(v[i]);
    }
    return out + "]";
  };
  std::string problems = "[";
  for (std::size_t i = 0; i < outcome.problems.size(); ++i) {
    problems += (i == 0 ? "" : ", ") + json_string(outcome.problems[i]);
  }
  problems += "]";
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(fnv1a(first.digest_text)));
  const double failed_share =
      first.ops.attempted == 0
          ? 0.0
          : static_cast<double>(first.ops.failed) / static_cast<double>(first.ops.attempted);
  std::string report = "{\"report\": {\"workload\": " + json_string(opt.workload);
  report += ", \"seed\": " + std::to_string(opt.seed);
  report += ", \"trace\": " + std::string(opt.trace ? "1" : "0");
  report += ", \"repetitions\": " + std::to_string(untraced.size());
  report += ", \"traced_repetitions\": " + std::to_string(traced.size());
  report += ", \"digest\": \"" + std::string(digest) + "\"";
  report += ", \"host\": " + host_json(opt);
  report += ", \"ops\": " + ops_json(first.ops);
  report += ", \"failed_share\": " + json_number(failed_share);
  report += ", \"client_reads\": " + ops_json(first.client_reads);
  report += ", \"setup_s\": " + list(setup);
  report += ", \"timed_s\": " + list(timed);
  report += ", \"evaluations\": " + std::to_string(first.backlog.active_flows.size());
  report += ", \"active_flows_max\": " + json_number(first.counts.at("net.active_flows_max"));
  report += ", \"queued_jobs_max\": " + json_number(first.counts.at("condor.queued_max"));
  report += ", \"backlog_growing\": " +
            std::string(first.backlog.flows_growing() ? "true" : "false");
  report += extra + ", \"problems\": " + problems + "}}";
  std::printf("%s\n", report.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(first.ops.attempted),
              static_cast<unsigned long long>(first.ops.failed),
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return outcome;
}

int usage() {
  std::fprintf(stderr,
               "usage: ermsbench --workload <judge_ingest|cold_archive> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace
}  // namespace ermsbench

int main(int argc, char** argv) {
  using namespace ermsbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else {
      return usage();
    }
  }
  if (argc == 1 || argc % 2 == 0 || workload_fn(opt.workload) == nullptr) {
    return usage();
  }
  return run_workload(opt).correct ? 0 : 1;
}
