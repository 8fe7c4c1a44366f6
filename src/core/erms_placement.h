#pragma once

#include <set>
#include <vector>

#include "hdfs/placement.h"

namespace erms::core {

/// The ERMS replica placement strategy — Algorithm 1 of the paper.
///
/// * Parity ("coding") blocks go to the **active** node holding the fewest
///   blocks of the same file, so losing one node cannot take out both data
///   and the parity that would rebuild it.
/// * Data blocks at replication below the default factor r_D use the stock
///   HDFS rack-aware policy.
/// * Extra replicas of hot data (r ≥ r_D) go to **standby-pool** nodes —
///   preferring racks that already hold a replica of the block (data
///   locality without new rack traffic) — falling back to active nodes only
///   when no standby node can take the block.
/// * Deletions prefer standby-pool nodes, so dropping extra replicas never
///   requires re-balancing ("the data statuses of running nodes are not
///   changing" — §III.B).
///
/// The standby pool is the set of nodes managed by the active/standby model;
/// pool nodes only receive data while commissioned (serving).
class ErmsPlacementPolicy final : public hdfs::PlacementPolicy {
 public:
  explicit ErmsPlacementPolicy(const std::set<hdfs::NodeId>& standby_pool,
                               std::uint32_t default_replication = 3);

  [[nodiscard]] bool in_standby_pool(hdfs::NodeId node) const {
    return node.value() < in_pool_.size() && in_pool_[node.value()];
  }

  [[nodiscard]] std::vector<hdfs::NodeId> choose_targets(const hdfs::Cluster& cluster,
                                                         hdfs::BlockId block,
                                                         std::size_t count,
                                                         std::optional<hdfs::NodeId> writer,
                                                         sim::Rng& rng) const override;

  [[nodiscard]] std::optional<hdfs::NodeId> choose_replica_to_remove(
      const hdfs::Cluster& cluster, hdfs::BlockId block, sim::Rng& rng) const override;

  [[nodiscard]] std::string name() const override { return "erms-algorithm1"; }

 private:
  /// Standby-pool membership, dense by node id: placement tests it for
  /// every candidate node of every pick.
  std::vector<bool> in_pool_;
  std::uint32_t default_replication_;
  hdfs::DefaultPlacementPolicy default_policy_;
};

}  // namespace erms::core
