#pragma once

// Shared scenario for Figs. 8 and 9: a 1 GiB target file at replication
// factor r, hosted either by an all-active 18-node cluster or by the
// active/standby split (10 active + 8 standby), under a steady background
// load that keeps active datanodes busy — the situation where the paper
// says "standby nodes might be better than active nodes" (§III.B).
//
// Under all-active, every replica shares its node with background traffic.
// Under active/standby, the base 3 replicas sit on (busy) active nodes but
// every extra replica lands on a freshly commissioned, unloaded standby
// node via the ERMS placement policy.

#include "bench_common.h"
#include "core/erms_placement.h"
#include "core/standby.h"

namespace erms::bench {

struct Scenario {
  std::unique_ptr<Testbed> testbed;
  std::string path = "/bench/target";
};

inline Scenario prepare_scenario(bool active_standby, std::uint32_t replication,
                                 std::uint64_t file_bytes = util::GiB) {
  Scenario s;
  s.testbed = std::make_unique<Testbed>();
  Testbed& t = *s.testbed;

  std::shared_ptr<core::ErmsPlacementPolicy> policy;
  std::unique_ptr<core::StandbyManager> standby;
  if (active_standby) {
    const auto pool = t.standby_pool();
    policy = std::make_shared<core::ErmsPlacementPolicy>(
        std::set<hdfs::NodeId>(pool.begin(), pool.end()), 3);
    t.cluster->set_placement_policy(policy);
    standby = std::make_unique<core::StandbyManager>(*t.cluster, pool);
  }

  // Background load: long-lived single-replica filler files, each pinned
  // down by three remote readers. Fillers land on active nodes only (the
  // ERMS policy keeps base replicas off the pool).
  std::vector<hdfs::FileId> fillers;
  for (int i = 0; i < 8; ++i) {
    fillers.push_back(
        *t.cluster->populate_file("/bench/bg" + std::to_string(i), 2 * util::GiB, 1));
  }

  // Target file: base replicas first, then the elastic increase.
  const auto target = t.cluster->populate_file(s.path, file_bytes,
                                               std::min<std::uint32_t>(3, replication));
  if (replication > 3) {
    if (active_standby) {
      // The experiment's standby half is fully available (8 nodes), so the
      // placement policy can spread each block's extra replicas.
      standby->ensure_commissioned(t.standby_pool().size());
      t.sim.run();
    }
    bool done = false;
    t.cluster->change_replication(*target, replication,
                                  hdfs::Cluster::IncreaseMode::kDirect,
                                  [&](bool) { done = true; });
    while (!done && t.sim.step()) {
    }
  }

  // Start the background readers. Each loops over its filler file forever,
  // so the load persists for however long the measurement runs.
  const std::vector<hdfs::NodeId> bg_clients =
      active_standby ? t.active_set() : t.topo.nodes();
  for (std::size_t i = 0; i < fillers.size(); ++i) {
    for (std::uint32_t r = 0; r < 3; ++r) {
      const hdfs::NodeId client = bg_clients[(i * 3 + r) % bg_clients.size()];
      const hdfs::FileId file = fillers[i];
      hdfs::Cluster* cluster = t.cluster.get();
      // The loop holds itself only weakly; the pending read or re-read event
      // holds it strongly, so it is freed with the simulation's queue.
      auto loop = std::make_shared<std::function<void()>>();
      *loop = [cluster, client, file, self = std::weak_ptr(loop)] {
        cluster->read_file(client, file,
                           [cluster, loop = self.lock()](const hdfs::ReadOutcome&) {
                             cluster->simulation().schedule_after(sim::millis(1),
                                                                  [loop] { (*loop)(); });
                           });
      };
      (*loop)();
    }
  }
  // Let the reads get admitted.
  t.sim.run_until(t.sim.now() + sim::millis(10));

  // StandbyManager/policy keep shared state alive via the cluster's policy
  // pointer; the manager itself can go out of scope now.
  return s;
}

}  // namespace erms::bench
