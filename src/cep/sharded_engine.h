#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cep/engine.h"
#include "util/thread_pool.h"

namespace erms::cep {

struct ShardedEngineOptions {
  /// Number of engine shards; 0 means std::thread::hardware_concurrency().
  std::size_t shards{0};
  /// Attribute whose value routes an event to a shard. The audit stream is
  /// dominated by per-file group-bys, so hashing the file path (`src`) keeps
  /// every group of the hottest queries local to one shard.
  std::string route_by{"src"};
  /// Events buffered per flush. Larger batches amortize the fan-out cost;
  /// reads (snapshot/group_row/advance_to) always flush first.
  std::size_t batch_events{256};
  /// Worker pool to borrow; nullptr = the engine owns a pool.
  util::ThreadPool* pool{nullptr};
};

/// A sharded CEP front-end: N scalar Engines behind the EngineBase interface.
/// Every query is registered on every shard (QueryIds are allocated in
/// lockstep, so the ids agree); each pushed event is routed to exactly one
/// shard by the hash of its `route_by` attribute and buffered; flush() drains
/// the per-shard batches through the thread pool and then advances every
/// shard to the batch's max event time, so time-window eviction matches the
/// scalar engine. Snapshots merge the shards' raw group states before
/// rendering, which makes them equal to scalar snapshots for time-window
/// queries over time-ordered streams (the differential tests assert this
/// byte-for-byte).
///
/// Known divergences from the scalar engine, by construction:
///  - LENGTH windows become shard-local ("last N per shard") when shards > 1.
///  - Listeners fire on worker threads with shard-local rows.
class ShardedEngine final : public EngineBase {
 public:
  explicit ShardedEngine(ShardedEngineOptions opts = {});
  ~ShardedEngine() override;

  using EngineBase::register_query;
  using EngineBase::group_row;
  using EngineBase::for_each_group_count;
  QueryId register_query(Query query, Listener listener) override;
  bool remove_query(QueryId id) override;
  void push_slotted(const SlottedEvent& event) override;
  void push_batch(const EventBatch& batch) override;
  void advance_to(sim::SimTime now) override;
  [[nodiscard]] std::vector<ResultRow> snapshot(QueryId id) override;
  [[nodiscard]] std::optional<ResultRow> group_row(QueryId id,
                                                   std::span<const KeyValue> key) override;
  void for_each_group_count(QueryId id, const GroupCountVisitor& fn,
                            GroupOrder order) override;
  [[nodiscard]] std::size_t query_count() const override;
  [[nodiscard]] std::uint64_t events_processed() const override { return events_; }
  [[nodiscard]] SymbolTable& attr_symbols() override { return *attrs_; }
  [[nodiscard]] SymbolTable& stream_symbols() override { return *streams_; }
  [[nodiscard]] const std::vector<bool>& read_attrs() const override { return read_attrs_; }
  /// Flushes pending batches, then saves every shard in order (plus the
  /// aggregate event counter). Restore requires the same shard count.
  void save_state(snapshot::Writer& w) override;
  void load_state(snapshot::Reader& r) override;

  /// Drain all pending batches into the shards. Called automatically by
  /// reads and whenever a shard's batch fills.
  void flush();

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] Engine& shard(std::size_t i) { return *shards_[i]; }

  /// Forwarded to every shard (differential tests compare both WHERE paths).
  void set_use_fast_path(bool on);

 private:
  [[nodiscard]] std::size_t route(const SlottedEvent& e) const;
  /// All shards' groups for `id`, merged on their typed keys, in kSorted
  /// order. Key text views the shards' interners.
  [[nodiscard]] std::vector<Engine::RawGroup> merged_raw(QueryId id);
  /// Shard 0's read set plus the routing attribute.
  void refresh_read_attrs();

  std::shared_ptr<SymbolTable> attrs_;
  std::shared_ptr<SymbolTable> streams_;
  std::vector<std::unique_ptr<Engine>> shards_;
  std::vector<EventBatch> pending_;
  std::size_t batch_events_;
  Slot route_slot_{kNoSlot};
  util::ThreadPool* pool_{nullptr};
  std::unique_ptr<util::ThreadPool> owned_pool_;
  std::uint64_t events_{0};
  std::size_t pending_count_{0};
  sim::SimTime pending_max_time_{};
  bool has_pending_{false};
  std::vector<bool> read_attrs_;
};

}  // namespace erms::cep
