// Snapshot/restore tests. The centerpiece is the resume-determinism
// contract: run → snapshot → restore in a fresh world → run must produce a
// byte-identical trace and invariant report versus the same run never
// interrupted. The rest is hostile-input coverage: truncated, bit-flipped
// and version-skewed snapshot files must be rejected with a structured
// error and must leave the live world untouched.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "classad/classad.h"
#include "core/erms.h"
#include "fault/fault_plan.h"
#include "fault/invariant_checker.h"
#include "hdfs/cluster.h"
#include "obs/observability.h"
#include "snapshot/codec.h"
#include "snapshot/world.h"

namespace erms {
namespace {

using hdfs::Cluster;
using hdfs::ClusterConfig;
using hdfs::NodeId;
using hdfs::Topology;
using util::MiB;

core::ErmsConfig soak_erms() {
  core::ErmsConfig cfg;
  cfg.thresholds.window = sim::seconds(60.0);
  cfg.thresholds.cold_age = sim::minutes(15.0);
  cfg.evaluation_period = sim::seconds(20.0);
  cfg.observe = true;
  cfg.trace_capacity = 65536;
  cfg.job_max_retries = 3;
  cfg.job_retry_backoff = sim::seconds(5.0);
  return cfg;
}

fault::ChaosOptions soak_options() {
  fault::ChaosOptions opt;
  opt.start = sim::SimTime{sim::minutes(1.0).micros()};
  opt.end = sim::SimTime{sim::minutes(10.0).micros()};
  for (std::uint32_t n = 0; n < 10; ++n) {
    opt.victims.push_back(n);
  }
  opt.racks = {0, 1, 2};
  opt.max_concurrent_dead = 1;
  opt.mean_gap = sim::seconds(60.0);
  opt.min_downtime = sim::seconds(30.0);
  opt.max_downtime = sim::seconds(60.0);
  return opt;
}

constexpr sim::SimTime kSnapshotAt{sim::minutes(6.0).micros()};
constexpr sim::SimTime kRunEnd{sim::minutes(20.0).micros()};
constexpr int kReads = 180;

/// One complete soak world: cluster + ERMS + fault injector. Construction
/// order (and therefore metric/query registration order) is identical on
/// every build, which is what lets a restored world pick up exactly where
/// the saved one stopped.
struct SoakWorld {
  sim::Simulation sim;
  Topology topo = Topology::uniform(3, 6);
  std::unique_ptr<Cluster> cluster;
  std::vector<NodeId> pool;
  std::unique_ptr<core::ErmsManager> erms;
  fault::FaultPlan plan;
  std::unique_ptr<fault::FaultInjector> injector;
  std::vector<hdfs::FileId> files;

  explicit SoakWorld(std::uint64_t seed) {
    cluster = std::make_unique<Cluster>(sim, topo, ClusterConfig{});
    for (std::uint32_t n = 10; n < 18; ++n) {
      pool.push_back(NodeId{n});
    }
    erms = std::make_unique<core::ErmsManager>(*cluster, pool, soak_erms());
    plan = fault::FaultPlan::randomized(soak_options(), seed);
    injector =
        std::make_unique<fault::FaultInjector>(*cluster, &erms->observability()->trace());
  }

  [[nodiscard]] snapshot::WorldParts parts() {
    return snapshot::WorldParts{&sim, cluster.get(), erms.get(), injector.get(), nullptr};
  }

  void populate() {
    for (int i = 0; i < 4; ++i) {
      files.push_back(*cluster->populate_file("/snap/f" + std::to_string(i), 64 * MiB, 3));
    }
  }

  /// Schedule the steady read workload, skipping everything at or before
  /// `after` — the restore path re-arms only the not-yet-executed tail. Must
  /// run before injector arming and manager start/resume so that equal-time
  /// events keep the reference run's order: reads, then faults, then tick.
  void schedule_reads(sim::SimTime after) {
    for (int i = 0; i < kReads; ++i) {
      const sim::SimTime at{static_cast<std::int64_t>(i) * 5'000'000};
      if (at <= after) {
        continue;
      }
      sim.schedule_at(at, [this, i] {
        cluster->read_file(NodeId{static_cast<std::uint32_t>(i % 10)},
                           files[static_cast<std::size_t>(i) % files.size()],
                           [](const hdfs::ReadOutcome&) {});
      });
    }
  }

  [[nodiscard]] std::string invariant_report() {
    const fault::InvariantChecker checker{*cluster, &erms->scheduler(),
                                          &erms->observability()->trace()};
    return checker.check(/*converged=*/true).text;
  }

  [[nodiscard]] std::string trace_jsonl() {
    std::ostringstream os;
    erms->observability()->trace().to_jsonl(os);
    return os.str();
  }
};

/// A tiny idle world for file-format fuzzing — quiescent by construction,
/// cheap to rebuild, and stable enough that "untouched" can be asserted by
/// comparing serialized state before and after a rejected restore.
struct TinyWorld {
  sim::Simulation sim;
  Topology topo = Topology::uniform(2, 3);
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<core::ErmsManager> erms;

  explicit TinyWorld(ClusterConfig cfg = {}) {
    cluster = std::make_unique<Cluster>(sim, topo, cfg);
    erms = std::make_unique<core::ErmsManager>(*cluster, std::vector<NodeId>{NodeId{5}},
                                               soak_erms());
    file = cluster->populate_file("/tiny/a", 64 * MiB, 2).value();
  }

  /// Serve a few reads and stop inside the judge's window, so the CEP
  /// engine section carries live groups and window entries.
  void serve_reads() {
    erms->start();  // wires the audit stream to the judge's feed
    for (std::uint32_t client = 0; client < 3; ++client) {
      cluster->read_file(NodeId{client}, file, [](const hdfs::ReadOutcome&) {});
    }
    sim.run_until(sim::SimTime{sim::seconds(5.0).micros()});
    cluster->flush_audit();
  }

  hdfs::FileId file{0};

  [[nodiscard]] snapshot::WorldParts parts() {
    return snapshot::WorldParts{&sim, cluster.get(), erms.get(), nullptr, nullptr};
  }
};

// ---------------------------------------------------------------------------
// Resume determinism
// ---------------------------------------------------------------------------

struct RunArtifacts {
  std::string snapshot_bytes;
  std::string report;
  std::string trace;
  std::uint64_t blocks_lost{0};
  std::uint64_t injected{0};
};

/// The uninterrupted reference: same barrier, same save (flush side effects
/// included), but the run just keeps going afterwards.
RunArtifacts run_reference(std::uint64_t seed) {
  SoakWorld w(seed);
  w.populate();
  w.schedule_reads(sim::SimTime{-1});
  w.injector->arm(w.plan);
  w.erms->start();

  snapshot::SnapshotBarrier barrier{w.sim, w.parts()};
  RunArtifacts out;
  barrier.arm(kSnapshotAt, [&] {
    out.snapshot_bytes = snapshot::save_world_bytes(w.parts(), "seed=" + std::to_string(seed));
  });
  w.sim.run_until(kRunEnd);
  EXPECT_TRUE(barrier.fired()) << "no quiescent point found after " << kSnapshotAt;

  out.report = w.invariant_report();
  out.trace = w.trace_jsonl();
  out.blocks_lost = w.cluster->blocks_lost();
  out.injected = w.injector->injected();
  w.erms->stop();
  return out;
}

/// The interrupted run: identical to the reference until the barrier fires,
/// then the process "dies" (sim stops, world discarded). A fresh world is
/// rebuilt, restored from the snapshot bytes, re-armed and run to the end.
RunArtifacts run_restored(std::uint64_t seed, std::vector<hdfs::FileId>* files_out = nullptr) {
  std::string bytes;
  std::vector<hdfs::FileId> files;
  {
    SoakWorld w(seed);
    w.populate();
    files = w.files;
    w.schedule_reads(sim::SimTime{-1});
    w.injector->arm(w.plan);
    w.erms->start();

    snapshot::SnapshotBarrier barrier{w.sim, w.parts()};
    barrier.arm(kSnapshotAt, [&] {
      bytes = snapshot::save_world_bytes(w.parts(), "seed=" + std::to_string(seed));
      w.sim.stop();
    });
    w.sim.run_until(kRunEnd);
    EXPECT_FALSE(bytes.empty());
  }

  SoakWorld w(seed);
  w.files = files;  // dense ids are deterministic; restore rebuilds the namespace
  std::string user_data;
  const snapshot::SnapshotResult err =
      snapshot::restore_world_bytes(bytes, w.parts(), &user_data);
  EXPECT_FALSE(err.has_value()) << err->to_string();
  EXPECT_EQ(user_data, "seed=" + std::to_string(seed));

  // Re-arm continuation events in the reference run's equal-time order:
  // workload reads first, remaining fault events next, manager tick last.
  w.schedule_reads(w.sim.now());
  w.injector->arm_after(w.plan, w.sim.now());
  w.erms->resume();
  w.sim.run_until(kRunEnd);

  RunArtifacts out;
  out.snapshot_bytes = bytes;
  out.report = w.invariant_report();
  out.trace = w.trace_jsonl();
  out.blocks_lost = w.cluster->blocks_lost();
  out.injected = w.injector->injected();
  w.erms->stop();
  if (files_out != nullptr) {
    *files_out = files;
  }
  return out;
}

TEST(SnapshotResume, ByteIdenticalAcrossChaosSeeds) {
  for (const std::uint64_t seed : {3u, 5u, 9u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RunArtifacts ref = run_reference(seed);
    const RunArtifacts res = run_restored(seed);
    // Both runs were identical up to the barrier, so the snapshots they
    // saved there must match byte for byte...
    EXPECT_EQ(ref.snapshot_bytes, res.snapshot_bytes);
    // ...and so must everything the runs tell about their second half.
    EXPECT_EQ(ref.trace, res.trace);
    EXPECT_EQ(ref.report, res.report);
    EXPECT_EQ(ref.blocks_lost, res.blocks_lost);
    EXPECT_EQ(ref.injected, res.injected);
    EXPECT_EQ(ref.blocks_lost, 0u);
    EXPECT_GT(ref.injected, 0u);
  }
}

TEST(SnapshotResume, SaveRestoreSaveIsIdentity) {
  TinyWorld a;
  const std::string bytes = snapshot::save_world_bytes(a.parts(), "blob");

  TinyWorld b;
  std::string user_data;
  const snapshot::SnapshotResult err = snapshot::restore_world_bytes(bytes, b.parts(), &user_data);
  ASSERT_FALSE(err.has_value()) << err->to_string();
  EXPECT_EQ(user_data, "blob");
  EXPECT_EQ(snapshot::save_world_bytes(b.parts(), "blob"), bytes);
}

// ---------------------------------------------------------------------------
// Hostile input: every corruption is rejected with a structured error and
// zero mutation of the live world.
// ---------------------------------------------------------------------------

TEST(SnapshotResume, SaveRestoreSaveIsIdentityWithLiveCepState) {
  const auto block_reads = [](TinyWorld& w) {
    std::uint64_t total = 0;
    w.erms->feed().for_each_block_access(
        [&](hdfs::FileId, std::int64_t, std::uint64_t n) { total += n; });
    return total;
  };
  TinyWorld a;
  a.serve_reads();
  ASSERT_GT(block_reads(a), 0u);
  const std::string bytes = snapshot::save_world_bytes(a.parts());

  TinyWorld b;
  const snapshot::SnapshotResult err = snapshot::restore_world_bytes(bytes, b.parts());
  ASSERT_FALSE(err.has_value()) << err->to_string();
  EXPECT_EQ(block_reads(b), block_reads(a));
  EXPECT_EQ(snapshot::save_world_bytes(b.parts()), bytes);
}

class SnapshotFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    // The donor holds live CEP state, so the corruptions below also land in
    // the engine section's groups, key texts and window ring.
    donor_ = std::make_unique<TinyWorld>();
    donor_->serve_reads();
    bytes_ = snapshot::save_world_bytes(donor_->parts());
    victim_ = std::make_unique<TinyWorld>();
    baseline_ = snapshot::save_world_bytes(victim_->parts());
  }

  /// Restore must fail with `want` (or any error if nullopt) and must leave
  /// the victim world bit-identical to before the attempt.
  void expect_rejected(const std::string& corrupted,
                       std::optional<snapshot::ErrorCode> want = std::nullopt) {
    const snapshot::SnapshotResult err =
        snapshot::restore_world_bytes(corrupted, victim_->parts());
    ASSERT_TRUE(err.has_value());
    if (want.has_value()) {
      EXPECT_EQ(err->code, *want) << err->to_string();
    }
    EXPECT_FALSE(err->message.empty());
    EXPECT_EQ(snapshot::save_world_bytes(victim_->parts()), baseline_)
        << "rejected restore mutated the live world";
  }

  std::unique_ptr<TinyWorld> donor_;
  std::unique_ptr<TinyWorld> victim_;
  std::string bytes_;
  std::string baseline_;
};

TEST_F(SnapshotFuzz, TruncationsAtEveryBoundaryAreRejected) {
  const std::size_t cuts[] = {0, 1, 4, 7, 8, 11, 12, 15, 16, 20,
                              bytes_.size() / 4, bytes_.size() / 2, bytes_.size() - 1};
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("truncate to " + std::to_string(cut));
    ASSERT_LT(cut, bytes_.size());
    expect_rejected(bytes_.substr(0, cut));
  }
}

TEST_F(SnapshotFuzz, EverySingleByteFlipIsRejected) {
  // Every byte of the file is covered: header fields fail their own field
  // checks, all payload bytes (and the CRCs guarding them) fail CRC.
  for (std::size_t i = 0; i < bytes_.size(); ++i) {
    std::string mutated = bytes_;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    const snapshot::SnapshotResult err =
        snapshot::restore_world_bytes(mutated, victim_->parts());
    ASSERT_TRUE(err.has_value()) << "flip at offset " << i << " was accepted";
  }
  EXPECT_EQ(snapshot::save_world_bytes(victim_->parts()), baseline_);
}

TEST_F(SnapshotFuzz, BadMagicIsDiagnosed) {
  std::string mutated = bytes_;
  mutated[0] = 'X';
  expect_rejected(mutated, snapshot::ErrorCode::kBadMagic);
}

TEST_F(SnapshotFuzz, VersionSkewIsDiagnosedNotCorrupt) {
  std::string mutated = bytes_;
  mutated[8] = static_cast<char>(snapshot::kFormatVersion + 1);  // version u32 LSB
  expect_rejected(mutated, snapshot::ErrorCode::kBadVersion);
}

TEST_F(SnapshotFuzz, GarbageAndEmptyFilesAreRejected) {
  expect_rejected("", snapshot::ErrorCode::kBadMagic);
  expect_rejected(std::string(4096, '\xAB'), snapshot::ErrorCode::kBadMagic);
}

TEST_F(SnapshotFuzz, WrongWorldShapeIsStateMismatch) {
  // A world with a different block size: the meta fingerprint must reject
  // the snapshot before any section is applied.
  ClusterConfig other;
  other.block_size = 32 * MiB;
  TinyWorld wrong(other);
  const std::string wrong_baseline = snapshot::save_world_bytes(wrong.parts());
  const snapshot::SnapshotResult err = snapshot::restore_world_bytes(bytes_, wrong.parts());
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, snapshot::ErrorCode::kStateMismatch) << err->to_string();
  EXPECT_EQ(snapshot::save_world_bytes(wrong.parts()), wrong_baseline);
}

TEST_F(SnapshotFuzz, MissingFileIsIo) {
  TinyWorld w;
  const snapshot::SnapshotResult err =
      snapshot::restore_world("/nonexistent/erms.snap", w.parts());
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, snapshot::ErrorCode::kIo);
}

// ---------------------------------------------------------------------------
// Machine ads
// ---------------------------------------------------------------------------

/// The ad advertise_nodes() would build for `n` from scratch.
classad::ClassAd fresh_machine_ad(const Cluster& cluster, core::ErmsManager& erms, NodeId n) {
  const hdfs::DataNode& dn = cluster.node(n);
  classad::ClassAd ad;
  ad.insert_int("Node", n.value());
  ad.insert_int("Rack", cluster.rack_of(n).value());
  ad.insert_string("State", hdfs::to_string(dn.state));
  ad.insert_int("UsedBytes", static_cast<std::int64_t>(dn.used_bytes));
  ad.insert_int("CapacityBytes", static_cast<std::int64_t>(dn.config.capacity_bytes));
  ad.insert_int("Sessions", dn.active_sessions);
  ad.insert_int("MaxSessions", dn.config.max_sessions);
  ad.insert_bool("StandbyPool", erms.standby().in_pool(n));
  return ad;
}

/// Every node carries exactly its fresh ad, and no other ad exists.
void expect_fresh_ads(const Cluster& cluster, core::ErmsManager& erms, sim::SimTime at) {
  ASSERT_EQ(erms.scheduler().machine_count(), cluster.node_count()) << "t=" << at.seconds();
  for (const NodeId n : cluster.nodes()) {
    const classad::ClassAd* ad = erms.scheduler().machine("dn" + std::to_string(n.value()));
    ASSERT_NE(ad, nullptr) << "t=" << at.seconds() << " dn" << n.value();
    EXPECT_EQ(ad->unparse(), fresh_machine_ad(cluster, erms, n).unparse())
        << "t=" << at.seconds() << " dn" << n.value();
  }
}

/// The paper's testbed with one hot file. The test calls evaluate() itself,
/// every 20 s of sim time, so the ads can be checked right after each one.
struct AdWorld {
  static constexpr sim::SimDuration kPeriod = sim::seconds(20.0);

  sim::Simulation sim;
  Topology topo = Topology::uniform(3, 6);
  std::unique_ptr<Cluster> cluster;
  std::vector<NodeId> pool;
  std::unique_ptr<core::ErmsManager> erms;
  hdfs::FileId hot{0};
  sim::SimTime next_eval{kPeriod.micros()};

  AdWorld() {
    cluster = std::make_unique<Cluster>(sim, topo, ClusterConfig{});
    for (std::uint32_t n = 10; n < 18; ++n) {
      pool.push_back(NodeId{n});
    }
    core::ErmsConfig cfg;
    cfg.thresholds.window = sim::seconds(60.0);
    cfg.thresholds.cold_age = sim::minutes(30.0);
    cfg.evaluation_period = sim::hours(1000.0);  // the manager's own tick never fires
    erms = std::make_unique<core::ErmsManager>(*cluster, pool, cfg);
    hot = *cluster->populate_file("/ads/hot", 128 * MiB, 3);
  }

  [[nodiscard]] snapshot::WorldParts parts() {
    return snapshot::WorldParts{&sim, cluster.get(), erms.get(), nullptr, nullptr};
  }

  /// Two opens a second on the hot file for the first two minutes.
  void storm() {
    for (int i = 0; i < 240; ++i) {
      sim.schedule_at(sim::SimTime{static_cast<std::int64_t>(i) * 500'000}, [this, i] {
        cluster->read_file(NodeId{static_cast<std::uint32_t>(i % 10)}, hot,
                           [](const hdfs::ReadOutcome&) {});
      });
    }
  }

  /// Serving nodes that hold no block: a crash and a revival leave every
  /// advertised field but State as it was.
  [[nodiscard]] std::vector<NodeId> empty_serving_nodes() const {
    std::vector<NodeId> out;
    for (const NodeId n : cluster->nodes()) {
      if (cluster->is_serving(n) && cluster->node(n).used_bytes == 0) {
        out.push_back(n);
      }
    }
    return out;
  }

  /// Evaluate on the 20 s grid up to `until`, checking every ad after each
  /// evaluation.
  void evaluate_until(sim::SimTime until) {
    while (next_eval <= until) {
      sim.run_until(next_eval);
      erms->evaluate();
      expect_fresh_ads(*cluster, *erms, next_eval);
      next_eval = next_eval + kPeriod;
    }
  }
};

TEST(MachineAds, MatchFreshAdsAcrossCrashCooldownAndResume) {
  std::string bytes;
  NodeId bounced;   // crashes and comes back between two evaluations
  NodeId downed;    // dead when the snapshot is taken, revived after resume
  sim::SimTime saved_at;
  {
    AdWorld a;
    const std::vector<NodeId> empty = a.empty_serving_nodes();
    ASSERT_GE(empty.size(), 2u);
    bounced = empty[0];
    downed = empty[1];
    a.erms->start();
    expect_fresh_ads(*a.cluster, *a.erms, a.sim.now());
    a.storm();
    // Before the first evaluation, while the whole pool is powered down, so
    // the healing commission's advertisement is still a boot delay away.
    a.sim.schedule_at(sim::SimTime{sim::seconds(5.0).micros()},
                      [&] { a.cluster->fail_node(bounced); });
    a.sim.schedule_at(sim::SimTime{sim::seconds(5.001).micros()},
                      [&] { ASSERT_TRUE(a.cluster->revive_node(bounced)); });
    a.sim.schedule_at(sim::SimTime{sim::seconds(70.0).micros()},
                      [&] { a.cluster->fail_node(downed); });
    snapshot::SnapshotBarrier barrier{a.sim, a.parts()};
    barrier.arm(sim::SimTime{sim::seconds(140.0).micros()}, [&] {
      bytes = snapshot::save_world_bytes(a.parts());
      saved_at = a.sim.now();
    });
    a.evaluate_until(sim::SimTime{sim::seconds(140.0).micros()});
    while (!barrier.fired() && !HasFatalFailure()) {
      a.evaluate_until(a.next_eval);
    }
    ASSERT_FALSE(bytes.empty());
    EXPECT_GT(a.erms->stats().hot_promotions, 0u);
    EXPECT_EQ(a.cluster->node(downed).state, hdfs::NodeState::kDead);
    a.erms->stop();
  }

  // The restoring manager has advertised its own (t = 0) ads first, so a
  // record that survived load_state would hold fields the restored ads do
  // not.
  AdWorld b;
  b.erms->start();
  b.erms->stop();
  const snapshot::SnapshotResult err = snapshot::restore_world_bytes(bytes, b.parts());
  ASSERT_FALSE(err.has_value()) << err->to_string();
  b.erms->resume();
  const std::size_t commissioned = b.erms->standby().commissioned_count();
  EXPECT_GT(commissioned, 0u);
  // Back to exactly its t = 0 fields, while its restored ad says "dead".
  ASSERT_TRUE(b.cluster->revive_node(downed));
  while (b.next_eval <= saved_at) {
    b.next_eval = b.next_eval + AdWorld::kPeriod;
  }
  b.evaluate_until(sim::SimTime{sim::minutes(12.0).micros()});
  EXPECT_GT(b.erms->stats().cooldowns, 0u);
  EXPECT_LT(b.erms->standby().commissioned_count(), commissioned);
  b.erms->stop();
}

}  // namespace
}  // namespace erms
