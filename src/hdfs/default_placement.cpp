#include <algorithm>
#include <limits>

#include "hdfs/cluster.h"
#include "hdfs/placement.h"

namespace erms::hdfs {

bool eligible_target(const Cluster& cluster, BlockId block, std::uint64_t need, NodeId node,
                     const std::vector<NodeId>& chosen) {
  const DataNode& dn = cluster.node(node);
  return dn.state == NodeState::kActive && dn.used_bytes + need <= dn.config.capacity_bytes &&
         std::find(chosen.begin(), chosen.end(), node) == chosen.end() &&
         !cluster.locations_view(block).contains(node);
}

std::vector<NodeId> DefaultPlacementPolicy::choose_targets(const Cluster& cluster,
                                                           BlockId block, std::size_t count,
                                                           std::optional<NodeId> writer,
                                                           sim::Rng& rng) const {
  std::vector<NodeId> chosen;
  if (count == 0) {
    return chosen;
  }
  const auto& existing = cluster.locations_view(block);
  const BlockInfo* info = cluster.metadata().find_block(block);
  const std::uint64_t need = info != nullptr ? info->size : 0;
  auto eligible = [&](NodeId n) { return eligible_target(cluster, block, need, n, chosen); };

  auto pick_random = [&](auto&& filter) -> std::optional<NodeId> {
    std::vector<NodeId> pool;
    for (std::uint32_t i = 0; i < cluster.node_count(); ++i) {
      const NodeId n{i};
      if (filter(n) && eligible(n)) {
        pool.push_back(n);
      }
    }
    if (pool.empty()) {
      return std::nullopt;
    }
    return pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };

  // Racks already covered (existing replicas count toward rack spread).
  auto rack_used = [&](RackId rack) {
    for (const NodeId n : existing) {
      if (cluster.rack_of(n) == rack) {
        return true;
      }
    }
    for (const NodeId n : chosen) {
      if (cluster.rack_of(n) == rack) {
        return true;
      }
    }
    return false;
  };

  const bool fresh_block = existing.empty();

  // Replica 1: the writer's node when possible, otherwise random.
  if (fresh_block && chosen.size() < count) {
    if (writer && eligible(*writer)) {
      chosen.push_back(*writer);
    } else if (const auto n = pick_random([](NodeId) { return true; })) {
      chosen.push_back(*n);
    }
  }

  // Replica 2: a node in a different rack than replica 1.
  if (fresh_block && chosen.size() < count && !chosen.empty()) {
    const RackId first_rack = cluster.rack_of(chosen.front());
    if (const auto n = pick_random(
            [&](NodeId cand) { return cluster.rack_of(cand) != first_rack; })) {
      chosen.push_back(*n);
    }
  }

  // Replica 3: a different node in replica 2's rack.
  if (fresh_block && chosen.size() < count && chosen.size() >= 2) {
    const RackId second_rack = cluster.rack_of(chosen[1]);
    if (const auto n = pick_random(
            [&](NodeId cand) { return cluster.rack_of(cand) == second_rack; })) {
      chosen.push_back(*n);
    }
  }

  // Remaining replicas: prefer unused racks, then anywhere.
  while (chosen.size() < count) {
    auto n = pick_random([&](NodeId cand) { return !rack_used(cluster.rack_of(cand)); });
    if (!n) {
      n = pick_random([](NodeId) { return true; });
    }
    if (!n) {
      break;  // cluster cannot host more distinct replicas
    }
    chosen.push_back(*n);
  }
  return chosen;
}

std::optional<NodeId> DefaultPlacementPolicy::choose_replica_to_remove(
    const Cluster& cluster, BlockId block, sim::Rng& /*rng*/) const {
  // HDFS removes from the node with the least free space.
  std::optional<NodeId> victim;
  std::uint64_t least_free = std::numeric_limits<std::uint64_t>::max();
  for (const NodeId n : cluster.locations_view(block)) {
    const DataNode& dn = cluster.node(n);
    const std::uint64_t free = dn.config.capacity_bytes - std::min(dn.config.capacity_bytes, dn.used_bytes);
    if (free < least_free) {
      least_free = free;
      victim = n;
    }
  }
  return victim;
}

}  // namespace erms::hdfs
