// Property-style test sweeps across modules: randomized inputs, invariant
// checks, parameterized over seeds and configuration axes.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <span>

#include "cep/engine.h"
#include "condor/scheduler.h"
#include "core/erms_placement.h"
#include "core/standby.h"
#include "hdfs/cluster.h"
#include "net/network.h"

namespace erms {
namespace {

using hdfs::BlockId;
using hdfs::Cluster;
using hdfs::ClusterConfig;
using hdfs::FileId;
using hdfs::FileInfo;
using hdfs::NodeId;
using hdfs::Topology;
using util::MiB;

// ---------- placement invariants ----------

/// Axes: (seed, replication target, use ERMS policy with commissioned pool).
using PlacementParam = std::tuple<std::uint64_t, std::uint32_t, bool>;

class PlacementInvariants : public ::testing::TestWithParam<PlacementParam> {};

TEST_P(PlacementInvariants, DistinctNodesCapacityAndPoolRules) {
  const auto [seed, rep, erms_policy] = GetParam();
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.seed = seed;
  Cluster cluster{sim, Topology::uniform(3, 6), cfg};

  std::vector<NodeId> pool;
  std::shared_ptr<core::ErmsPlacementPolicy> policy;
  std::unique_ptr<core::StandbyManager> standby;
  if (erms_policy) {
    for (std::uint32_t n = 10; n < 18; ++n) {
      pool.push_back(NodeId{n});
    }
    policy = std::make_shared<core::ErmsPlacementPolicy>(
        std::set<NodeId>(pool.begin(), pool.end()), 3);
    cluster.set_placement_policy(policy);
    standby = std::make_unique<core::StandbyManager>(cluster, pool);
    standby->ensure_commissioned(pool.size());
    sim.run();
  }

  std::vector<FileId> files;
  for (int i = 0; i < 8; ++i) {
    files.push_back(*cluster.populate_file("/p" + std::to_string(i),
                                           (64 + 64 * (i % 4)) * MiB, 3));
  }
  // Elastic cycle on half the files.
  for (std::size_t i = 0; i < files.size(); i += 2) {
    cluster.change_replication(files[i], rep, Cluster::IncreaseMode::kDirect, nullptr);
  }
  sim.run();

  for (std::size_t i = 0; i < files.size(); ++i) {
    const FileInfo* info = cluster.metadata().find(files[i]);
    const std::uint32_t want = (i % 2 == 0) ? rep : 3;
    EXPECT_EQ(info->replication, want);
    for (const BlockId b : info->blocks) {
      const auto locs = cluster.locations(b);
      // Replication satisfied exactly (cluster has enough nodes).
      EXPECT_EQ(locs.size(), want) << "file " << i;
      // No duplicates.
      const std::set<NodeId> distinct(locs.begin(), locs.end());
      EXPECT_EQ(distinct.size(), locs.size());
      // Pool rule: at most rep-3 replicas on the pool, base on actives.
      if (erms_policy) {
        std::size_t on_pool = 0;
        for (const NodeId n : locs) {
          on_pool += policy->in_standby_pool(n) ? 1 : 0;
        }
        EXPECT_LE(on_pool, want > 3 ? want - 3 : 0u);
      }
    }
  }
  // Capacity invariant holds everywhere.
  for (const NodeId n : cluster.nodes()) {
    EXPECT_LE(cluster.node(n).used_bytes, cluster.node(n).config.capacity_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlacementInvariants,
    ::testing::Combine(::testing::Values(1u, 7u, 23u), ::testing::Values(5u, 8u, 10u),
                       ::testing::Bool()));

// ---------- replication churn converges ----------

class ReplicationChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplicationChurn, RandomSequenceEndsConsistent) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.seed = GetParam();
  Cluster cluster{sim, Topology::uniform(3, 6), cfg};
  sim::Rng rng{GetParam() * 31 + 1};

  const FileId file = *cluster.populate_file("/churn", 256 * MiB, 3);
  for (int step = 0; step < 12; ++step) {
    const auto target = static_cast<std::uint32_t>(rng.uniform_int(1, 9));
    const auto mode = rng.chance(0.8) ? Cluster::IncreaseMode::kDirect
                                      : Cluster::IncreaseMode::kOneByOne;
    cluster.change_replication(file, target, mode, nullptr);
    sim.run();
    const FileInfo* info = cluster.metadata().find(file);
    ASSERT_EQ(info->replication, target);
    for (const BlockId b : info->blocks) {
      const auto locs = cluster.locations(b);
      EXPECT_EQ(locs.size(), target) << "step " << step;
      EXPECT_EQ(std::set<NodeId>(locs.begin(), locs.end()).size(), locs.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicationChurn, ::testing::Values(3u, 11u, 42u, 99u));

// ---------- erasure recoverability matches the shard-count rule ----------

class ErasureFailures : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ErasureFailures, AvailabilityIffEnoughShards) {
  sim::Simulation sim;
  ClusterConfig cfg;
  cfg.seed = GetParam();
  Cluster cluster{sim, Topology::uniform(3, 6), cfg};
  const FileId file = *cluster.populate_file("/ec", 512 * MiB, 3);  // k = 8
  cluster.encode_file(file, 4, nullptr);
  sim.run();

  sim::Rng rng{GetParam() + 5};
  // Fail a random subset of nodes and check file_available against the
  // ground truth computed from surviving shard counts.
  std::vector<NodeId> nodes = cluster.nodes();
  rng.shuffle(nodes);
  const auto kill = static_cast<std::size_t>(rng.uniform_int(1, 8));
  for (std::size_t i = 0; i < kill; ++i) {
    // Note: no sim.run() — recovery must not kick in before we check.
    cluster.fail_node(nodes[i]);
  }
  const FileInfo* info = cluster.metadata().find(file);
  std::size_t live = 0;
  auto alive = [&](BlockId b) {
    for (const NodeId n : cluster.locations(b)) {
      if (cluster.is_serving(n)) {
        return true;
      }
    }
    return false;
  };
  for (const BlockId b : info->blocks) {
    live += alive(b) ? 1 : 0;
  }
  for (const BlockId b : info->parity_blocks) {
    live += alive(b) ? 1 : 0;
  }
  EXPECT_EQ(cluster.file_available(file), live >= info->blocks.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ErasureFailures,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---------- network: random fabrics conserve capacity ----------

class NetworkFairness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetworkFairness, SharesNeverExceedLinkCapacity) {
  sim::Rng rng{GetParam()};
  net::FabricSpec spec;
  spec.rack_count = static_cast<std::size_t>(rng.uniform_int(1, 4));
  spec.rack_uplink_bw = rng.uniform_real(50e6, 400e6);
  const auto nodes = static_cast<std::size_t>(rng.uniform_int(4, 16));
  for (std::size_t i = 0; i < nodes; ++i) {
    net::FabricSpec::Node n;
    n.rack = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(spec.rack_count) - 1));
    n.nic_bw = rng.uniform_real(50e6, 200e6);
    n.disk_bw = rng.uniform_real(30e6, 120e6);
    spec.nodes.push_back(n);
  }
  sim::Simulation sim;
  net::NetworkModel netm{sim, spec};

  int done = 0;
  const int flows = 40;
  std::vector<net::FlowId> ids;
  std::vector<std::pair<std::size_t, std::size_t>> endpoints;
  for (int i = 0; i < flows; ++i) {
    const auto src = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
    const auto dst = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
    endpoints.emplace_back(src, dst);
    ids.push_back(netm.start_flow(src, dst,
                                  static_cast<std::uint64_t>(rng.uniform_int(1, 64)) * MiB,
                                  {}, [&](net::FlowId) { ++done; }));
  }
  // Mid-flight: per-source-disk shares must not exceed the disk capacity.
  std::vector<double> disk_sum(nodes, 0.0);
  for (int i = 0; i < flows; ++i) {
    disk_sum[endpoints[i].first] += netm.flow_rate(ids[i]);
  }
  for (std::size_t n = 0; n < nodes; ++n) {
    EXPECT_LE(disk_sum[n], spec.nodes[n].disk_bw * (1.0 + 1e-6)) << "node " << n;
  }
  sim.run();
  EXPECT_EQ(done, flows);
  EXPECT_EQ(netm.active_flows(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkFairness,
                         ::testing::Values(10u, 20u, 30u, 40u, 50u, 60u));

// ---------- scheduler: random job mixes all reach terminal states ----------

class SchedulerChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerChaos, EveryJobTerminatesAndReplayAgrees) {
  sim::Simulation sim;
  condor::Scheduler::Config cfg;
  cfg.max_running = 3;
  condor::Scheduler sched{sim, cfg};
  sim::Rng rng{GetParam()};
  bool idle = false;
  sched.set_idle_probe([&] { return idle; });
  sim.schedule_after(sim::seconds(30.0), [&] { idle = true; });

  sched.register_command(
      "work",
      [&sim, &rng](const classad::ClassAd& ad, std::function<void(bool)> done) {
        const double dur = rng.uniform_real(0.1, 5.0);
        const bool ok = ad.get_int("N").value_or(0) % 5 != 0;
        sim.schedule_after(sim::seconds(dur), [done, ok] { done(ok); });
      },
      [&sim](const classad::ClassAd&, std::function<void()> fin) {
        sim.schedule_after(sim::seconds(0.5), std::move(fin));
      });

  std::vector<condor::JobId> jobs;
  for (int i = 0; i < 40; ++i) {
    classad::ClassAd ad;
    ad.insert_string("Cmd", "work");
    ad.insert_int("N", i);
    const auto cls = rng.chance(0.3) ? condor::JobClass::kWhenIdle
                                     : condor::JobClass::kImmediate;
    jobs.push_back(sched.submit(std::move(ad), cls,
                                static_cast<int>(rng.uniform_int(0, 5))));
  }
  sim.run_until(sim::SimTime{sim::minutes(30.0).micros()});

  const auto replayed = condor::replay_log(sched.log());
  for (const condor::JobId id : jobs) {
    const condor::Job* job = sched.find(id);
    ASSERT_NE(job, nullptr);
    EXPECT_TRUE(job->status == condor::JobStatus::kCompleted ||
                job->status == condor::JobStatus::kRolledBack)
        << condor::to_string(job->status);
    EXPECT_EQ(replayed.at(id), job->status);
  }
  EXPECT_EQ(sched.running_count(), 0u);
  EXPECT_EQ(sched.queued_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerChaos, ::testing::Values(5u, 15u, 25u, 35u));

// ---------- CEP window counts equal a brute-force recount ----------

class WindowInvariant : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WindowInvariant, ContentsAlwaysInWindow) {
  sim::Rng rng{GetParam()};
  const bool time_window = rng.chance(0.5);
  const double duration_s = rng.uniform_real(1.0, 30.0);
  const auto count = static_cast<std::size_t>(rng.uniform_int(1, 50));
  cep::Query q;
  q.from = "s";
  q.group_by = {"k"};
  q.select = {cep::Aggregate{cep::Aggregate::Kind::kCount, "", "n"}};
  q.window = time_window ? cep::WindowSpec::time(sim::seconds(duration_s))
                         : cep::WindowSpec::length(count);
  cep::Engine engine;
  const cep::QueryId id = engine.register_query(std::move(q));

  struct Pushed {
    sim::SimTime time;
    std::int64_t key;
  };
  std::vector<Pushed> pushed;
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    t += rng.uniform_real(0.0, 2.0);
    const sim::SimTime now{static_cast<std::int64_t>(t * 1e6)};
    const auto key = static_cast<std::int64_t>(rng.uniform_int(0, 3));
    engine.push(cep::Event{now, "s"}.with_int("k", key));
    pushed.push_back({now, key});

    // Recount from scratch: a time window holds (now - duration, now], a
    // length window the last `count` events.
    std::map<std::int64_t, std::uint64_t> want;
    const sim::SimTime cutoff = now - sim::seconds(duration_s);
    const std::size_t first = time_window ? 0 : pushed.size() - std::min(pushed.size(), count);
    for (std::size_t j = first; j < pushed.size(); ++j) {
      if (!time_window || pushed[j].time > cutoff) {
        ++want[pushed[j].key];
      }
    }
    std::map<std::int64_t, std::uint64_t> got;
    engine.for_each_group_count(
        id, [&](std::span<const cep::KeyValue> k, std::uint64_t n) { got[k[0].i] = n; });
    ASSERT_EQ(got, want) << "after event " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowInvariant,
                         ::testing::Values(2u, 12u, 22u, 32u, 42u, 52u));

}  // namespace
}  // namespace erms
