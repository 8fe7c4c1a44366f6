// judge_ingest — the metadata plane. A large cluster is bulk-populated with
// single-block files; a seeded uniform audit stream then goes through
// AccessStatsFeed::on_audit_batch with periodic window advances and full
// ErmsManager::evaluate() sweeps. Thresholds are raised so no elastic action
// fires: the timed phase is CEP group management and the judge's sweeps.
#include <algorithm>
#include <memory>
#include <random>
#include <thread>

#include "bench.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace ermsbench {
namespace {

constexpr std::uint64_t kFileBytes = 8 * util::MiB;  // one block per file
constexpr std::int64_t kEventGapUs = 100;            // 10k audit events per sim-second

/// O(replicas) placement for bulk populate: stride-probe from a hash of the
/// block id. The stock and ERMS policies scan every node per pick, which at
/// 2k nodes would make set-up, not ingest, the measured work.
class StridePlacement final : public hdfs::PlacementPolicy {
 public:
  explicit StridePlacement(std::uint32_t node_count) : node_count_(node_count) {}

  [[nodiscard]] std::vector<hdfs::NodeId> choose_targets(
      const hdfs::Cluster& cluster, hdfs::BlockId block, std::size_t count,
      std::optional<hdfs::NodeId> /*writer*/, sim::Rng& /*rng*/) const override {
    std::vector<hdfs::NodeId> chosen;
    chosen.reserve(count);
    std::uint64_t h = block.value() * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    const std::uint64_t stride = 1 + (h >> 33) % 97;
    std::uint64_t at = h % node_count_;
    for (std::size_t probe = 0; probe < count * 8 + 16 && chosen.size() < count;
         ++probe) {
      const hdfs::NodeId cand{static_cast<std::uint32_t>(at)};
      at = (at + stride) % node_count_;
      if (cluster.node(cand).state == hdfs::NodeState::kActive &&
          std::find(chosen.begin(), chosen.end(), cand) == chosen.end()) {
        chosen.push_back(cand);
      }
    }
    return chosen;
  }

  [[nodiscard]] std::optional<hdfs::NodeId> choose_replica_to_remove(
      const hdfs::Cluster& cluster, hdfs::BlockId block,
      sim::Rng& /*rng*/) const override {
    const auto& locs = cluster.locations_view(block);
    if (locs.empty()) {
      return std::nullopt;
    }
    return locs[locs.size() - 1];
  }

  [[nodiscard]] std::string name() const override { return "bench-stride"; }

 private:
  std::uint32_t node_count_;
};

core::ErmsConfig quiet_config() {
  core::ErmsConfig cfg;
  cfg.thresholds.window = sim::seconds(60.0);
  // A uniform stream at 10k events/s would trip formula (4) on every node
  // (τ_DN is set for the paper's 19 nodes), turning the workload into an
  // action storm; the metadata plane is the question here.
  cfg.thresholds.tau_M = 1e12;
  cfg.thresholds.M_M = 1e12;
  cfg.thresholds.M_m = 1e11;
  cfg.thresholds.tau_DN = 1e15;
  cfg.manage_standby_power = false;
  cfg.heal_capacity = false;
  cfg.codec_threads = 1;  // the byte-level codec is not on the simulated path
  return cfg;
}

}  // namespace

RepResult run_judge_ingest(const Options& opt, Tracer& tracer) {
  constexpr std::size_t kRacks = 50;
  constexpr std::size_t kNodesPerRack = 40;
  constexpr std::uint64_t kFiles = 200'000;
  constexpr std::uint64_t kEvents = 2'000'000;
  constexpr std::uint64_t kProbeReads = 500;
  RepResult r;

  // ---- set-up: topology, cluster, manager, bulk populate --------------------
  const double setup_start = wall_now();
  sim::Simulation sim;
  const hdfs::Topology topo = hdfs::Topology::uniform(kRacks, kNodesPerRack);
  hdfs::ClusterConfig ccfg;
  ccfg.seed = opt.seed;
  ccfg.namespace_shards = fill_threads();
  hdfs::Cluster cluster{sim, topo, ccfg};
  const StridePlacement stride{static_cast<std::uint32_t>(topo.node_count())};
  auto placement = std::make_shared<TimedPlacement>(stride, tracer);
  cluster.set_placement_policy(placement);
  // Never started: the benchmark feeds the judge and schedules its sweeps.
  core::ErmsManager erms{cluster, /*standby_pool=*/{}, quiet_config()};
  util::ThreadPool pool{fill_threads()};
  {
    constexpr std::uint64_t kBatch = 100'000;
    std::vector<hdfs::Namespace::FileSpec> specs;
    for (std::uint64_t base = 0; base < kFiles; base += kBatch) {
      const std::uint64_t n = std::min(kBatch, kFiles - base);
      specs.clear();
      specs.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        specs.push_back({"/ingest/f" + std::to_string(base + i), kFileBytes, kFileBytes, 3});
      }
      const Span span(tracer, Layer::kPopulate);
      for (const auto& id : cluster.populate_files(specs, &pool)) {
        if (!id) {
          r.problems.push_back("populate_files rejected a file");
        }
      }
    }
  }
  // Per-file path, first-block and holder tables, built before the replay
  // clock starts (as bench/macro_scale does) so the generator never touches
  // the namespace.
  const std::uint64_t files = cluster.metadata().file_count();
  const std::uint32_t nodes = static_cast<std::uint32_t>(cluster.node_count());
  std::vector<std::string_view> path_of(files + 1);
  std::vector<std::int64_t> first_block(files + 1, -1);
  std::vector<std::int64_t> holders(3 * (files + 1), 0);  // three replica nodes per file
  for (std::uint64_t f = 1; f <= files; ++f) {
    const hdfs::FileInfo* info =
        cluster.metadata().find(hdfs::FileId{static_cast<std::uint32_t>(f)});
    path_of[f] = info->path;
    first_block[f] = static_cast<std::int64_t>(info->blocks[0].value());
    const auto& locs = cluster.locations_view(info->blocks[0]);
    for (std::size_t k = 0; k < 3; ++k) {
      holders[3 * f + k] = locs.empty() ? 0 : locs[k % locs.size()].value();
    }
  }
  constexpr std::uint64_t kGenBatch = 32'768;
  std::vector<audit::AuditEvent> bufs[2] = {std::vector<audit::AuditEvent>(kGenBatch),
                                            std::vector<audit::AuditEvent>(kGenBatch)};
  r.setup_s = wall_now() - setup_start;

  // ---- timed: the audit replay ----------------------------------------------
  // A producer thread generates the seeded stream into two ping-pong buffers
  // while this thread ingests the other one, as in bench/macro_scale. The
  // workload.generate_s span is this thread's wait for a filled buffer: the
  // time generation blocks ingest.
  const double timed_start = wall_now();
  const double spans0 = tracer.self_sum();
  const std::uint64_t total_batches = (kEvents + kGenBatch - 1) / kGenBatch;
  util::Mutex mu;
  util::CondVar cv;
  std::uint64_t produced = 0;  // batches filled; guarded by mu
  std::uint64_t released = 0;  // batches ingested and handed back; guarded by mu
  std::thread producer([&] {
    std::mt19937_64 rng{opt.seed * 0x9E3779B97F4A7C15ULL + 0x2012};
    std::int64_t t_us = 0;
    for (std::uint64_t b = 0; b < total_batches; ++b) {
      {
        util::UniqueLock lk(mu);
        while (produced - released >= 2) {
          cv.wait(lk);
        }
      }
      std::vector<audit::AuditEvent>& buf = bufs[b & 1];
      const std::uint64_t n = std::min(kGenBatch, kEvents - b * kGenBatch);
      for (std::uint64_t i = 0; i < n; ++i) {
        audit::AuditEvent& e = buf[i];
        const auto fid = static_cast<std::uint32_t>(1 + rng() % files);
        t_us += kEventGapUs;
        e.time = sim::SimTime{t_us};
        e.fid = fid;
        e.src.assign(path_of[fid]);
        if ((rng() & 3) == 0) {
          e.cmd = "open";
          e.block = std::nullopt;
          e.datanode = std::nullopt;
        } else {
          e.cmd = "read";
          e.block = first_block[fid];
          e.datanode = holders[3 * fid + rng() % 3];
        }
      }
      {
        const util::LockGuard lk(mu);
        ++produced;
      }
      cv.notify_all();
    }
  });

  constexpr std::uint64_t kAdvanceEvery = 250'000;
  constexpr std::uint64_t kEvaluateEvery = kEvents / 8;
  judge::AccessStatsFeed& feed = erms.feed();
  const std::uint64_t feed_before = feed.events_ingested();
  std::uint64_t consumed = 0;
  for (std::uint64_t b = 0; b < total_batches; ++b) {
    {
      const Span span(tracer, Layer::kGenerate);
      util::UniqueLock lk(mu);
      while (produced == b) {
        cv.wait(lk);
      }
    }
    const audit::AuditEvent* buf = bufs[b & 1].data();
    const std::uint64_t n = std::min(kGenBatch, kEvents - consumed);
    r.ops.attempted += n;
    std::uint64_t off = 0;
    while (off < n) {
      // Split at the next advance / evaluate boundary so window and sweep
      // cadence are independent of the generator's batch size.
      const std::uint64_t chunk =
          std::min({n - off, kAdvanceEvery - consumed % kAdvanceEvery,
                    kEvaluateEvery - consumed % kEvaluateEvery});
      {
        const Span span(tracer, Layer::kFeedIngest);
        feed.on_audit_batch(buf + off, chunk);
      }
      off += chunk;
      consumed += chunk;
      const sim::SimTime now{static_cast<std::int64_t>(consumed) * kEventGapUs};
      if (consumed % kAdvanceEvery == 0) {
        const Span span(tracer, Layer::kCepAdvance);
        feed.advance_to(now);
      }
      if (consumed % kEvaluateEvery == 0) {
        {
          const Span span(tracer, Layer::kSimDispatch);
          sim.run_until(now);
        }
        {
          const Span span(tracer, Layer::kEvaluate);
          erms.evaluate();
        }
        r.backlog.sample(cluster, erms);
      }
    }
    {
      const util::LockGuard lk(mu);
      ++released;
    }
    cv.notify_all();
  }
  producer.join();
  r.timed_s = wall_now() - timed_start;
  r.timed_spans_s = tracer.self_sum() - spans0;
  r.sim_s = sim.now().seconds();
  r.feed_events = feed.events_ingested() - feed_before;
  // on_audit_batch accepts every event it is offered, so an audit event
  // cannot fail: failed is 0 by construction on this workload.
  r.ops.ok = r.feed_events;
  r.ops.failed = r.ops.attempted - r.ops.ok;

  // Read probe, after the timed phase and untraced: one file read per
  // sim-second from a seeded client, so the data-plane outcome metrics are
  // defined on this workload too.
  ReadThroughput tp;
  {
    sim::Rng probe_rng{opt.seed ^ 0x9e0be5ULL};
    const sim::SimTime probe_start = sim.now();
    for (std::uint64_t i = 0; i < kProbeReads; ++i) {
      const auto client = hdfs::NodeId{static_cast<std::uint32_t>(
          probe_rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1))};
      const auto file = hdfs::FileId{static_cast<std::uint32_t>(
          probe_rng.uniform_int(1, static_cast<std::int64_t>(files)))};
      sim.schedule_at(probe_start + sim::seconds(static_cast<double>(i)),
                      [&cluster, &r, &tp, client, file] {
                        issue_read(cluster, client, file, r.client_reads, tp);
                      });
    }
    sim.run_until(probe_start + sim::seconds(static_cast<double>(kProbeReads) + 60.0));
  }
  r.read_mbps = tp.mean();

  if (r.client_reads.ok != kProbeReads) {
    r.problems.push_back("probe reads did not all complete ok");
  }
  if (erms.stats().evaluations != 8) {
    r.problems.push_back("expected 8 judge sweeps");
  }
  const core::ErmsStats& s = erms.stats();
  if (s.hot_promotions + s.overload_promotions + s.cooldowns + s.encodes + s.decodes != 0) {
    r.problems.push_back("an elastic action fired on the quiet metadata-plane workload");
  }
  record_outcomes(r, cluster);
  record_counts(r, cluster, erms, *placement);
  r.digest_text = outcome_text(cluster, erms, r, tp);
  return r;
}

}  // namespace ermsbench
