// Microbenchmark A5 — CEP engine throughput. The engine sits on the audit
// hot path (every namenode operation flows through it), so events/second
// here bounds the cluster request rate ERMS can watch — the paper picked
// CEP precisely for "high-volume, low-latency" processing.
//
// Two layers:
//  * a custom ingest sweep of the slotted path into the scalar engine, plus
//    a ShardedEngine sweep over shard counts × batch sizes, written to
//    BENCH_cep.json (override with ERMS_BENCH_OUT) so the numbers form a
//    trajectory across PRs;
//  * the usual google-benchmark timings.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "audit/audit.h"
#include "cep/engine.h"
#include "cep/epl_parser.h"
#include "cep/sharded_engine.h"

namespace {

using erms::audit::AuditEvent;
using erms::audit::AuditSlots;
using erms::cep::Engine;
using erms::cep::EngineBase;
using erms::cep::parse_epl;
using erms::cep::ShardedEngine;
using erms::cep::ShardedEngineOptions;
using erms::cep::SlottedEvent;
namespace sim = erms::sim;

AuditEvent make_event(int i) {
  AuditEvent e;
  e.time = erms::sim::SimTime{static_cast<std::int64_t>(i) * 1000};
  e.cmd = (i % 3 == 0) ? "open" : "read";
  e.src = "/data/part-" + std::to_string(i % 50);
  e.block = i % 400;
  e.datanode = i % 18;
  return e;
}

/// The exact standing-query set the Data Judge registers.
void register_judge_queries(EngineBase& engine) {
  engine.register_query(parse_epl(
      "SELECT count(*) AS n FROM audit WHERE cmd == \"open\" GROUP BY src WINDOW TIME 60s"));
  engine.register_query(parse_epl(
      "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY src, blk WINDOW TIME 60s"));
  engine.register_query(parse_epl(
      "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY dn WINDOW TIME 60s"));
  engine.register_query(parse_epl(
      "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY src, dn WINDOW TIME 60s"));
}

// ----- ingest sweep -> BENCH_cep.json ---------------------------------------------

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<AuditEvent> make_workload(int n) {
  std::vector<AuditEvent> events;
  events.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    events.push_back(make_event(i));
  }
  return events;
}

/// Events/s of the slotted ingest path into `engine` (scalar or sharded).
/// Two passes, best-of taken, to shed scheduler noise; the second pass also
/// runs with warm window/group state, which is the steady-state shape.
double slotted_rate(EngineBase& engine, const std::vector<AuditEvent>& events) {
  const AuditSlots slots = AuditSlots::resolve(engine.attr_symbols(), engine.stream_symbols());
  SlottedEvent scratch;
  double best = 0.0;
  sim::SimDuration epoch{0};
  for (int pass = 0; pass < 2; ++pass) {
    const double t0 = now_seconds();
    for (const AuditEvent& e : events) {
      e.to_slotted(slots, scratch);
      scratch.time = e.time + epoch;  // keep times monotone across passes
      engine.push_slotted(scratch);
    }
    engine.advance_to(events.back().time + epoch);  // drain pending batches
    const double dt = now_seconds() - t0;
    best = std::max(best, static_cast<double>(events.size()) / dt);
    epoch = epoch + (events.back().time - sim::SimTime{0}) + sim::seconds(1.0);
  }
  return best;
}

void ingest_sweep(std::FILE* json) {
  // ERMS_CEP_SWEEP_EVENTS shrinks the sweep for sanitizer/CI smoke runs.
  int slotted_events = 400000;
  if (const char* env = std::getenv("ERMS_CEP_SWEEP_EVENTS")) {
    const int n = std::atoi(env);
    if (n > 0) {
      slotted_events = n;
    }
  }
  const int kSlottedEvents = slotted_events;
  const auto large = make_workload(kSlottedEvents);

  double slotted_compiled = 0.0;
  {
    Engine engine;
    register_judge_queries(engine);
    slotted_compiled = slotted_rate(engine, large);
  }

  std::fprintf(json,
               "{\n"
               "  \"bench\": \"micro_cep\",\n"
               "  \"unit\": \"events/s\",\n"
               "  \"hardware_threads\": %u,\n"
               "  \"judge_queries\": 4,\n"
               "  \"single_thread\": {\"slotted_compiled\": %.0f},\n",
               std::thread::hardware_concurrency(), slotted_compiled);

  std::fprintf(json, "  \"sharded_compiled\": {");
  const int shard_counts[] = {1, 2, 4, 8};
  const std::size_t batch_sizes[] = {64, 256, 1024};
  for (std::size_t si = 0; si < 4; ++si) {
    std::fprintf(json, "%s\"s%d\": {", si == 0 ? "" : ", ", shard_counts[si]);
    for (std::size_t bi = 0; bi < 3; ++bi) {
      ShardedEngineOptions opts;
      opts.shards = static_cast<std::size_t>(shard_counts[si]);
      opts.batch_events = batch_sizes[bi];
      ShardedEngine engine(opts);
      register_judge_queries(engine);
      const double rate = slotted_rate(engine, large);
      std::fprintf(json, "%s\"b%zu\": %.0f", bi == 0 ? "" : ", ", batch_sizes[bi], rate);
    }
    std::fprintf(json, "}");
  }
  std::fprintf(json, "},\n");

  {
    const std::string line = make_event(7).to_line();
    const int reps = std::max(5 * kSlottedEvents, 100000);
    auto warm = erms::audit::AuditLogParser::parse_line(line);
    benchmark::DoNotOptimize(warm);
    const double t0 = now_seconds();
    for (int i = 0; i < reps; ++i) {
      auto parsed = erms::audit::AuditLogParser::parse_line(line);
      benchmark::DoNotOptimize(parsed);
    }
    const double dt = now_seconds() - t0;
    std::fprintf(json, "  \"audit_parse\": {\"lines_per_s\": %.0f}\n}\n",
                 static_cast<double>(reps) / dt);
  }
}

// ----- google-benchmark timings ---------------------------------------------------

void BM_CepPushSlottedJudgeQueries(benchmark::State& state) {
  Engine engine;
  register_judge_queries(engine);
  const AuditSlots slots = AuditSlots::resolve(engine.attr_symbols(), engine.stream_symbols());
  std::vector<AuditEvent> events = make_workload(1000);
  SlottedEvent scratch;
  int tick = 0;
  for (auto _ : state) {
    for (AuditEvent& event : events) {
      event.time = erms::sim::SimTime{static_cast<std::int64_t>(tick++) * 1000};
      event.to_slotted(slots, scratch);
      engine.push_slotted(scratch);
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CepPushSlottedJudgeQueries);

void BM_CepSnapshot(benchmark::State& state) {
  Engine engine;
  const auto id = engine.register_query(parse_epl(
      "SELECT count(*) AS n FROM audit GROUP BY src WINDOW TIME 600s"));
  const AuditSlots slots = AuditSlots::resolve(engine.attr_symbols(), engine.stream_symbols());
  SlottedEvent scratch;
  for (int i = 0; i < 5000; ++i) {
    make_event(i).to_slotted(slots, scratch);
    engine.push_slotted(scratch);
  }
  for (auto _ : state) {
    auto rows = engine.snapshot(id);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_CepSnapshot);

void BM_AuditParseLine(benchmark::State& state) {
  const std::string line = make_event(7).to_line();
  for (auto _ : state) {
    auto parsed = erms::audit::AuditLogParser::parse_line(line);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AuditParseLine);

void BM_EplParse(benchmark::State& state) {
  for (auto _ : state) {
    auto q = parse_epl(
        "SELECT count(*) AS n, avg(bytes) AS b FROM audit WHERE cmd == \"read\" "
        "GROUP BY src, dn WINDOW TIME 60s HAVING n > 8");
    benchmark::DoNotOptimize(q);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EplParse);

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = std::getenv("ERMS_BENCH_OUT");
  if (out_path == nullptr) {
    out_path = "BENCH_cep.json";
  }
  std::FILE* json = std::fopen(out_path, "w");
  if (json != nullptr) {
    ingest_sweep(json);
    std::fclose(json);
    std::printf("ingest sweep written to %s\n\n", out_path);
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
