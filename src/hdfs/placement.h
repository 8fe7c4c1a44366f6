#pragma once

#include <optional>
#include <string>
#include <vector>

#include "hdfs/types.h"
#include "sim/random.h"

namespace erms::hdfs {

class Cluster;

/// Pluggable replica-placement strategy — HDFS "administrators ... can also
/// implement their own replica placement strategy" (paper §II), and ERMS
/// ships one (Algorithm 1, implemented in src/core/erms_placement.h).
///
/// Implementations must return distinct nodes that do not already hold the
/// block and are writable (active, space available).
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Pick up to `count` target nodes for new replicas of `block` (or for a
  /// parity block when the block's metadata says is_parity). `writer` is the
  /// client node originating the write, when there is one. May return fewer
  /// than `count` nodes if the cluster cannot host more distinct replicas.
  [[nodiscard]] virtual std::vector<NodeId> choose_targets(
      const Cluster& cluster, BlockId block, std::size_t count,
      std::optional<NodeId> writer, sim::Rng& rng) const = 0;

  /// Pick which replica of `block` to drop when the replication factor
  /// decreases. nullopt if the block has no replica.
  [[nodiscard]] virtual std::optional<NodeId> choose_replica_to_remove(
      const Cluster& cluster, BlockId block, sim::Rng& rng) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Writable-target test every policy shares: `node` is active, has room for
/// `need` more bytes, is not in `chosen` yet and does not already hold
/// `block`. The cheap tests run first; the replica test scans the block's
/// few locations rather than hashing into the node's block set.
[[nodiscard]] bool eligible_target(const Cluster& cluster, BlockId block, std::uint64_t need,
                                   NodeId node, const std::vector<NodeId>& chosen);

/// The stock HDFS rack-aware policy: first replica on the writer's node (or
/// a random active node), second on a node in a different rack, third on a
/// different node of that second rack, further replicas spread randomly
/// (paper §II). Deletion removes from the node with the least free space.
class DefaultPlacementPolicy final : public PlacementPolicy {
 public:
  [[nodiscard]] std::vector<NodeId> choose_targets(const Cluster& cluster, BlockId block,
                                                   std::size_t count,
                                                   std::optional<NodeId> writer,
                                                   sim::Rng& rng) const override;

  [[nodiscard]] std::optional<NodeId> choose_replica_to_remove(const Cluster& cluster,
                                                               BlockId block,
                                                               sim::Rng& rng) const override;

  [[nodiscard]] std::string name() const override { return "hdfs-default"; }
};

}  // namespace erms::hdfs
