#include "core/erms_placement.h"

#include <algorithm>
#include <limits>

#include "hdfs/cluster.h"

namespace erms::core {

using hdfs::BlockId;
using hdfs::Cluster;
using hdfs::NodeId;

ErmsPlacementPolicy::ErmsPlacementPolicy(const std::set<NodeId>& standby_pool,
                                         std::uint32_t default_replication)
    : default_replication_(default_replication) {
  if (!standby_pool.empty()) {
    in_pool_.resize(standby_pool.rbegin()->value() + 1);
  }
  for (const NodeId n : standby_pool) {
    in_pool_[n.value()] = true;
  }
}

std::vector<NodeId> ErmsPlacementPolicy::choose_targets(const Cluster& cluster, BlockId block,
                                                        std::size_t count,
                                                        std::optional<NodeId> writer,
                                                        sim::Rng& rng) const {
  const hdfs::BlockInfo* info = cluster.metadata().find_block(block);
  if (info == nullptr || count == 0) {
    return {};
  }
  const auto node_count = static_cast<std::uint32_t>(cluster.node_count());
  std::vector<NodeId> chosen;
  auto eligible = [&](NodeId n) {
    return hdfs::eligible_target(cluster, block, info->size, n, chosen);
  };

  // --- Coding blocks: the active (non-pool) node with the fewest blocks of
  // this file (Algorithm 1 lines 7-13).
  if (info->is_parity) {
    // Blocks (data and parity) of this file per node, counted once from the
    // replica map: ~replication entries per block instead of one hash probe
    // per block per node.
    std::vector<std::uint32_t> file_blocks_on(node_count, 0);
    if (const hdfs::FileInfo* file = cluster.metadata().find(info->file)) {
      for (const auto* list : {&file->blocks, &file->parity_blocks}) {
        for (const BlockId b : *list) {
          for (const NodeId n : cluster.locations_view(b)) {
            ++file_blocks_on[n.value()];
          }
        }
      }
    }
    while (chosen.size() < count) {
      // All active nodes tied for the fewest blocks of this file; pick one
      // at random so parities of different files do not pile up on the
      // lowest-numbered node.
      std::vector<NodeId> best;
      std::uint32_t best_blocks = std::numeric_limits<std::uint32_t>::max();
      for (std::uint32_t i = 0; i < node_count; ++i) {
        const NodeId n{i};
        if (in_standby_pool(n) || !eligible(n)) {
          continue;
        }
        const std::uint32_t file_blocks = file_blocks_on[i];
        if (file_blocks < best_blocks) {
          best_blocks = file_blocks;
          best.clear();
        }
        if (file_blocks == best_blocks) {
          best.push_back(n);
        }
      }
      if (best.empty()) {
        break;
      }
      chosen.push_back(best[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(best.size()) - 1))]);
    }
    return chosen;
  }

  // --- Data blocks (lines 14-37). The first r_D replicas follow the stock
  // rack-aware scheme restricted to non-pool nodes (lines 15-21); replicas
  // beyond r_D are hot extras and go standby-first (lines 22-35).
  const std::size_t current = cluster.locations_view(block).size();
  const std::size_t base_needed =
      current < default_replication_
          ? std::min<std::size_t>(count, default_replication_ - current)
          : 0;

  auto pick = [&](auto&& filter) -> bool {
    std::vector<NodeId> candidates;
    for (std::uint32_t i = 0; i < node_count; ++i) {
      const NodeId n{i};
      if (filter(n) && eligible(n)) {
        candidates.push_back(n);
      }
    }
    if (candidates.empty()) {
      return false;
    }
    chosen.push_back(candidates[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))]);
    return true;
  };
  auto not_pool = [&](NodeId n) { return !in_standby_pool(n); };

  // Base replicas: writer-local, then a second rack, then that rack again,
  // then spread — all on non-pool nodes.
  if (base_needed > 0) {
    const bool fresh_block = current == 0;
    if (fresh_block && chosen.empty() && writer && !in_standby_pool(*writer) &&
        eligible(*writer)) {
      chosen.push_back(*writer);
    }
    while (chosen.size() < base_needed) {
      std::set<std::uint32_t> used_racks;
      for (const NodeId n : cluster.locations_view(block)) {
        used_racks.insert(cluster.rack_of(n).value());
      }
      for (const NodeId n : chosen) {
        used_racks.insert(cluster.rack_of(n).value());
      }
      // Prefer a rack without a replica yet; replica 3 prefers doubling up
      // in the remote rack (the HDFS two-rack layout falls out of this when
      // starting from a single-rack replica 1).
      if (pick([&](NodeId n) {
            return not_pool(n) && !used_racks.contains(cluster.rack_of(n).value()) &&
                   used_racks.size() < 2;
          })) {
        continue;
      }
      if (pick([&](NodeId n) {
            return not_pool(n) && used_racks.contains(cluster.rack_of(n).value());
          })) {
        continue;
      }
      if (pick(not_pool)) {
        continue;
      }
      break;
    }
  }

  // --- Extra replicas of hot data: standby-pool nodes first (lines 22-27),
  // active nodes as the fallback (lines 29-35). Prefer pool nodes in racks
  // that already hold a replica.
  std::set<std::uint32_t> replica_racks;
  for (const NodeId n : cluster.locations_view(block)) {
    replica_racks.insert(cluster.rack_of(n).value());
  }
  for (const NodeId n : chosen) {
    replica_racks.insert(cluster.rack_of(n).value());
  }

  while (chosen.size() < count) {
    // 1. standby node in a rack that already has a replica;
    // 2. any standby node;
    // 3. any active node.
    if (pick([&](NodeId n) {
          return in_standby_pool(n) && replica_racks.contains(cluster.rack_of(n).value());
        })) {
      continue;
    }
    if (pick([&](NodeId n) { return in_standby_pool(n); })) {
      continue;
    }
    if (pick(not_pool)) {
      continue;
    }
    break;
  }
  return chosen;
}

std::optional<NodeId> ErmsPlacementPolicy::choose_replica_to_remove(const Cluster& cluster,
                                                                    BlockId block,
                                                                    sim::Rng& rng) const {
  // Deletion prefers standby-pool nodes (Algorithm 1 lines 39-51), so
  // dropping extra replicas leaves active nodes untouched.
  const auto& locs = cluster.locations_view(block);
  for (const NodeId n : locs) {
    if (in_standby_pool(n)) {
      return n;
    }
  }
  return default_policy_.choose_replica_to_remove(cluster, block, rng);
}

}  // namespace erms::core
