// Microbenchmark A4 — Reed-Solomon codec throughput.
// The encode path runs when ERMS demotes cold files; the decode path runs
// on degraded reads and re-warm. Rates here bound how fast the erasure
// manager can drain its queue.
//
// Two layers:
//  * a custom kernel sweep comparing scalar vs table vs SIMD region kernels
//    and single- vs multi-threaded stripe encode at the RS shapes ERMS uses,
//    written to BENCH_ec.json (override the path with ERMS_BENCH_OUT) so the
//    numbers form a trajectory across PRs;
//  * the usual google-benchmark timings (encode/reconstruct/round-trip),
//    which now exercise whichever kernel ERMS_EC_KERNEL selects.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "ec/codec.h"
#include "ec/codec_registry.h"
#include "ec/gf256.h"
#include "ec/gf_region.h"
#include "ec/stripe_codec.h"
#include "util/thread_pool.h"

namespace {

using erms::ec::GF256;
using erms::ec::KernelKind;
using erms::ec::MulTable;
using erms::ec::RsCodec;
using erms::ec::StripeCodec;
using erms::util::ThreadPool;

std::vector<RsCodec::Shard> random_shards(std::size_t count, std::size_t len) {
  std::mt19937 rng{42};
  std::vector<RsCodec::Shard> shards(count);
  for (auto& s : shards) {
    s.resize(len);
    for (auto& b : s) {
      b = static_cast<std::uint8_t>(rng() % 256);
    }
  }
  return shards;
}

// ----- kernel sweep -> BENCH_ec.json ----------------------------------------------

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// MB/s of repeated muladd_region over a 1 MiB region with kernel `kind`.
double bench_muladd_kernel(KernelKind kind) {
  const std::size_t len = 1 << 20;
  const auto src = random_shards(1, len).front();
  std::vector<std::uint8_t> dst(len, 0);
  const MulTable t(0x8d);
  // Warm up, then time enough repetitions for a stable figure.
  erms::ec::muladd_region(kind, t, dst.data(), src.data(), len);
  const int reps = kind == KernelKind::kScalar ? 64 : 512;
  const double t0 = now_seconds();
  for (int i = 0; i < reps; ++i) {
    erms::ec::muladd_region(kind, t, dst.data(), src.data(), len);
  }
  const double dt = now_seconds() - t0;
  benchmark::DoNotOptimize(dst);
  return static_cast<double>(len) * reps / dt / 1e6;
}

/// MB/s (of data bytes) for RS(k,m) encode of 1 MiB shards.
double bench_rs_encode(const RsCodec& rs, int reps) {
  const std::size_t shard_len = 1 << 20;
  const auto data = random_shards(rs.data_shards(), shard_len);
  auto warm = rs.encode(data);
  benchmark::DoNotOptimize(warm);
  const double t0 = now_seconds();
  for (int i = 0; i < reps; ++i) {
    auto parity = rs.encode(data);
    benchmark::DoNotOptimize(parity);
  }
  const double dt = now_seconds() - t0;
  return static_cast<double>(rs.data_shards()) * shard_len * reps / dt / 1e6;
}

void kernel_sweep(std::FILE* json) {
  std::fprintf(json, "{\n  \"bench\": \"micro_ec\",\n  \"unit\": \"MB/s\",\n");
  std::fprintf(json, "  \"active_kernel\": \"%.*s\",\n",
               static_cast<int>(erms::ec::kernel_name(erms::ec::active_kernel()).size()),
               erms::ec::kernel_name(erms::ec::active_kernel()).data());

  std::printf("== GF(256) muladd region kernels (1 MiB region) ==\n");
  std::fprintf(json, "  \"muladd_region\": {");
  bool first = true;
  for (const KernelKind k : {KernelKind::kScalar, KernelKind::kTable,
                             KernelKind::kSsse3, KernelKind::kAvx2}) {
    if (!erms::ec::kernel_supported(k)) {
      continue;
    }
    const double mbs = bench_muladd_kernel(k);
    std::printf("  %-6.*s %10.1f MB/s\n",
                static_cast<int>(erms::ec::kernel_name(k).size()),
                erms::ec::kernel_name(k).data(), mbs);
    std::fprintf(json, "%s\"%.*s\": %.1f", first ? "" : ", ",
                 static_cast<int>(erms::ec::kernel_name(k).size()),
                 erms::ec::kernel_name(k).data(), mbs);
    first = false;
  }
  std::fprintf(json, "},\n");

  std::printf("\n== RS encode, 1 MiB shards, active kernel ==\n");
  std::fprintf(json, "  \"rs_encode\": {");
  struct Shape {
    std::size_t k;
    std::size_t m;
    const char* name;
  };
  // RS(1+4) is the paper's cold-file config; RS(6,4) and RS(8,4) are the
  // HDFS-RAID-style stripes the issue tracks.
  const Shape shapes[] = {{1, 4, "rs1+4"}, {6, 4, "rs6_4"}, {8, 4, "rs8_4"}};
  first = true;
  for (const Shape& s : shapes) {
    RsCodec rs(s.k, s.m);
    const double mbs = bench_rs_encode(rs, 32);
    std::printf("  RS(%zu,%zu) %10.1f MB/s\n", s.k, s.m, mbs);
    std::fprintf(json, "%s\"%s\": %.1f", first ? "" : ", ", s.name, mbs);
    first = false;
  }
  std::fprintf(json, "},\n");

  std::printf("\n== Stripe encode 8 MiB file, RS(8,4), serial vs pool ==\n");
  std::fprintf(json, "  \"stripe_encode_threads\": {");
  std::vector<std::uint8_t> file(8 << 20);
  for (std::size_t i = 0; i < file.size(); ++i) {
    file[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  first = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    StripeCodec codec(8, 4);
    ThreadPool pool(threads);
    if (threads > 1) {
      codec.set_thread_pool(&pool);
    }
    auto warm = codec.encode(file);
    benchmark::DoNotOptimize(warm);
    const int reps = 16;
    const double t0 = now_seconds();
    for (int i = 0; i < reps; ++i) {
      auto stripe = codec.encode(file);
      benchmark::DoNotOptimize(stripe);
    }
    const double dt = now_seconds() - t0;
    const double mbs = static_cast<double>(file.size()) * reps / dt / 1e6;
    std::printf("  %zu thread%s %10.1f MB/s\n", threads, threads == 1 ? " " : "s",
                mbs);
    std::fprintf(json, "%s\"t%zu\": %.1f", first ? "" : ", ", threads, mbs);
    first = false;
  }
  std::fprintf(json, "},\n");

  // Repair bandwidth of the codec zoo: shard-equivalents read to rebuild
  // one lost data shard (all other shards alive). Deterministic linear
  // algebra, not a timing — the trajectory catches plan regressions.
  std::printf("== Single-shard repair read cost (shard-equivalents) ==\n");
  std::fprintf(json, "  \"repair_shard_equivalents\": {");
  struct ZooShape {
    const char* label;
    erms::ec::CodecSpec spec;
    std::size_t k;
  };
  const ZooShape zoo[] = {
      {"rs8_4", {erms::ec::CodecKind::kRs, 4, 0, 0}, 8},
      {"azure_lrc8_2_2", {erms::ec::CodecKind::kAzureLrc, 0, 2, 2}, 8},
      {"hh_xor_plus8_4", {erms::ec::CodecKind::kHitchhikerXorPlus, 4, 0, 0}, 8},
  };
  first = true;
  for (const ZooShape& z : zoo) {
    const auto codec = erms::ec::make_codec(z.spec, z.k);
    std::vector<bool> present(codec->total_shards(), true);
    present[0] = false;
    const auto plan = codec->plan_repair(0, present);
    const double eq = plan ? plan->shard_equivalents() : 0.0;
    const std::size_t fanout = plan ? plan->fanout() : 0;
    std::printf("  %-16s %5.2f shards from %zu helpers\n", z.label, eq, fanout);
    std::fprintf(json, "%s\"%s\": {\"shard_equivalents\": %.2f, \"fanout\": %zu}",
                 first ? "" : ", ", z.label, eq, fanout);
    first = false;
  }
  std::fprintf(json, "}\n}\n");
  std::printf("\n");
}

// ----- google-benchmark timings ---------------------------------------------------

void BM_GfMultiply(benchmark::State& state) {
  std::uint8_t acc = 1;
  for (auto _ : state) {
    for (unsigned i = 1; i < 256; ++i) {
      acc = GF256::mul(acc | 1, static_cast<std::uint8_t>(i));
    }
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * 255);
}
BENCHMARK(BM_GfMultiply);

void BM_RsEncode(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::size_t shard_len = 1 << 20;  // 1 MiB shards
  RsCodec rs(k, 4);
  const auto data = random_shards(k, shard_len);
  for (auto _ : state) {
    auto parity = rs.encode(data);
    benchmark::DoNotOptimize(parity);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * shard_len));
}
BENCHMARK(BM_RsEncode)->Arg(4)->Arg(8)->Arg(16);

void BM_RsEncodeThreaded(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const std::size_t shard_len = 1 << 20;
  RsCodec rs(k, 4);
  ThreadPool pool(threads);
  rs.set_thread_pool(&pool);
  const auto data = random_shards(k, shard_len);
  for (auto _ : state) {
    auto parity = rs.encode(data);
    benchmark::DoNotOptimize(parity);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * shard_len));
}
BENCHMARK(BM_RsEncodeThreaded)->Args({8, 2})->Args({8, 4});

void BM_RsReconstructFourErasures(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::size_t shard_len = 1 << 20;
  RsCodec rs(k, 4);
  const auto data = random_shards(k, shard_len);
  auto parity = rs.encode(data);
  std::vector<RsCodec::Shard> full = data;
  full.insert(full.end(), parity.begin(), parity.end());
  for (auto _ : state) {
    auto shards = full;
    std::vector<bool> present(k + 4, true);
    present[0] = present[1] = present[k] = present[k + 1] = false;
    shards[0].clear();
    shards[1].clear();
    shards[k].clear();
    shards[k + 1].clear();
    const bool ok = rs.reconstruct(shards, present);
    benchmark::DoNotOptimize(ok);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * shard_len));
}
BENCHMARK(BM_RsReconstructFourErasures)->Arg(8)->Arg(16);

void BM_StripeRoundTrip(benchmark::State& state) {
  StripeCodec codec(8, 4);
  std::vector<std::uint8_t> file(8 << 20);
  for (std::size_t i = 0; i < file.size(); ++i) {
    file[i] = static_cast<std::uint8_t>(i);
  }
  for (auto _ : state) {
    auto stripe = codec.encode(file);
    std::vector<std::uint8_t> out;
    codec.decode(stripe, std::vector<bool>(12, true), out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(file.size()));
}
BENCHMARK(BM_StripeRoundTrip);

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = std::getenv("ERMS_BENCH_OUT");
  if (out_path == nullptr) {
    out_path = "BENCH_ec.json";
  }
  std::FILE* json = std::fopen(out_path, "w");
  if (json != nullptr) {
    kernel_sweep(json);
    std::fclose(json);
    std::printf("kernel sweep written to %s\n\n", out_path);
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
