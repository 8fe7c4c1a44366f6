#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cep/compiled_query.h"
#include "cep/group_key.h"
#include "cep/query.h"
#include "cep/slotted_event.h"
#include "util/ids.h"
#include "util/ring_buffer.h"

namespace erms::snapshot {
class Reader;
class Writer;
}

namespace erms::cep {

struct QueryTag {};
using QueryId = util::StrongId<QueryTag>;

/// Iteration order for group visitation. kSorted visits groups in the byte
/// order of their rendered, '\x1f'-joined keys (compare_rendered) —
/// identical between the scalar and sharded engines, for consumers whose
/// behaviour depends on visit order. kUnordered visits in whatever order the
/// engine stores groups (deterministic for a given event history, but
/// engine-specific), skipping the per-visit sort — the right choice for
/// consumers that scatter counts into dense arrays.
enum class GroupOrder : std::uint8_t { kSorted, kUnordered };

/// Interface shared by the scalar Engine and the ShardedEngine so consumers
/// (the Data Judge's feed, ErmsManager) can be wired to either. Methods are
/// non-const because a sharded implementation must drain pending batches
/// before answering reads.
class EngineBase {
 public:
  /// Called whenever a group's row satisfies HAVING after an update. Rows
  /// are also readable at any time via snapshot().
  using Listener = std::function<void(const ResultRow&)>;

  virtual ~EngineBase() = default;

  /// Register a continuous query; the listener may be null (poll-only).
  virtual QueryId register_query(Query query, Listener listener) = 0;
  QueryId register_query(Query query) { return register_query(std::move(query), nullptr); }

  /// Remove a query and its state. Returns false if unknown.
  virtual bool remove_query(QueryId id) = 0;

  /// Push a slotted event. The event is consumed during the call (or copied
  /// into a pending batch); callers may reuse it immediately. Listeners fire
  /// window by window (see Engine), in registration order within one.
  virtual void push_slotted(const SlottedEvent& event) = 0;

  /// Push a whole batch of slotted events, equivalent to push_slotted on
  /// each in order. Engines may reorder work internally (e.g. processing the
  /// batch window-major) as long as every query's resulting state matches the
  /// per-event path; only listener firing order may differ within a batch.
  virtual void push_batch(const EventBatch& batch) = 0;

  /// Advance time without an event: evict expired window entries (time
  /// windows only). Judges call this before reading snapshots.
  virtual void advance_to(sim::SimTime now) = 0;

  /// Current result rows of a query (one per group), in kSorted order.
  [[nodiscard]] virtual std::vector<ResultRow> snapshot(QueryId id) = 0;

  /// A single group's row, if that group currently exists. `key` holds one
  /// typed value per group-by attribute, in group-by order.
  [[nodiscard]] virtual std::optional<ResultRow> group_row(
      QueryId id, std::span<const KeyValue> key) = 0;
  [[nodiscard]] std::optional<ResultRow> group_row(QueryId id,
                                                   std::initializer_list<KeyValue> key) {
    return group_row(id, std::span<const KeyValue>(key.begin(), key.size()));
  }

  /// Visit every group of `id` as (typed group-by values, window event
  /// count). Unlike snapshot(), this renders no rows and no key text.
  /// Visitors must not push into the engine.
  using GroupCountVisitor =
      std::function<void(std::span<const KeyValue> key, std::uint64_t count)>;
  virtual void for_each_group_count(QueryId id, const GroupCountVisitor& fn,
                                    GroupOrder order) = 0;
  void for_each_group_count(QueryId id, const GroupCountVisitor& fn) {
    for_each_group_count(id, fn, GroupOrder::kSorted);
  }

  [[nodiscard]] virtual std::size_t query_count() const = 0;
  [[nodiscard]] virtual std::uint64_t events_processed() const = 0;

  /// The engine's attribute / stream interners. Producers resolve their
  /// attribute slots once (e.g. audit::AuditSlots) and then fill slotted
  /// events with no string handling at all.
  [[nodiscard]] virtual SymbolTable& attr_symbols() = 0;
  [[nodiscard]] virtual SymbolTable& stream_symbols() = 0;

  /// Attribute slots some registered query reads (WHERE, GROUP BY,
  /// aggregate inputs, a sharded engine's routing attribute), indexed by
  /// slot. Producers may leave every other attribute unset. The reference
  /// stays valid for the engine's lifetime and tracks register/remove.
  [[nodiscard]] virtual const std::vector<bool>& read_attrs() const = 0;

  /// Snapshot support (src/snapshot/): serialise / restore all window and
  /// group state. load_state expects an engine with the identical query set
  /// already registered (the feed re-registers its standing queries at
  /// construction) and fails the Reader with kStateMismatch otherwise.
  /// Aggregate running sums are stored as raw double bit patterns, so a
  /// restored engine renders byte-identical rows.
  virtual void save_state(snapshot::Writer& w) = 0;
  virtual void load_state(snapshot::Reader& r) = 0;
};

/// The CEP engine: continuous queries over pushed event streams with sliding
/// windows, group-by aggregation and HAVING-triggered listeners. ERMS feeds
/// it parsed HDFS audit-log events and reads back per-file / per-block /
/// per-datanode access counts (paper §III.C).
///
/// Internally each query runs a compiled plan over slotted events. GROUP BY
/// compiles to a fixed-width typed key: one 64-bit word per attribute plus
/// 4-bit kind tags. Ints and bools sit in the word directly; string and real
/// components hold an id into the engine's KeyTexts interner. A group is a
/// slot of plain words in the query's pool — count, tags + bucket index, key
/// words: 24 B for a one-attribute key — behind an open-addressing bucket
/// table (4-byte buckets, linear probing, tombstones on erase). Sums,
/// non-null counts and min/max monotonic deques live in per-query side
/// arrays indexed by slot, empty for count-only queries. Key text is
/// rendered only for rows (snapshot, listeners) and sorting.
///
/// Time-window queries over the same stream and duration share one window
/// ring (the Data Judge's four queries share one): an entry is the event
/// time plus each member query's group slot, so eviction runs once per event
/// and touches each group directly with no hash lookup; a group erased at
/// its last eviction frees its slot onto a LIFO freelist. Windows hold no
/// event copies — numeric aggregate inputs ride in per-query rings.
class Engine final : public EngineBase {
 public:
  Engine();
  /// Construct with shared symbol tables (ShardedEngine gives every shard
  /// the same tables so slots agree across shards).
  Engine(std::shared_ptr<SymbolTable> attrs, std::shared_ptr<SymbolTable> streams);

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
  [[nodiscard]] std::size_t query_count() const override { return queries_.size(); }
  [[nodiscard]] std::uint64_t events_processed() const override { return events_processed_; }
  [[nodiscard]] SymbolTable& attr_symbols() override { return *attrs_; }
  [[nodiscard]] SymbolTable& stream_symbols() override { return *streams_; }
  [[nodiscard]] const std::vector<bool>& read_attrs() const override { return read_attrs_; }
  void save_state(snapshot::Writer& w) override;
  void load_state(snapshot::Reader& r) override;

  /// Raw (pre-rendering) aggregate state, exported so ShardedEngine can
  /// merge groups that span shards before rendering rows.
  struct RawAggregate {
    double sum{0.0};
    std::uint64_t non_null{0};
    double extreme{0.0};  // current min or max, valid when has_extreme
    bool has_extreme{false};
  };
  struct RawGroup {
    std::vector<KeyValue> key;  // text views this engine: valid until it changes
    std::uint64_t count{0};
    std::vector<RawAggregate> aggs;  // parallel to Query::select
  };

  /// All groups of a query in kSorted order (empty if unknown query).
  [[nodiscard]] std::vector<RawGroup> raw_snapshot(QueryId id) const;
  /// One group by typed key, if present.
  [[nodiscard]] std::optional<RawGroup> raw_group(QueryId id,
                                                  std::span<const KeyValue> key) const;
  /// The registered query, or nullptr.
  [[nodiscard]] const Query* query(QueryId id) const;
  /// Distinct string/real key texts live groups hold (all queries).
  [[nodiscard]] std::size_t key_text_count() const { return texts_.size(); }

  /// Render a merged raw group the same way snapshot() renders rows.
  [[nodiscard]] static ResultRow render_row(const Query& q, const RawGroup& g);

 private:
  /// One min/max candidate in a group's monotonic deque.
  struct MonoEntry {
    double value;
    std::uint64_t seq;
  };
  /// A probe key: the typed GROUP BY words of one event.
  struct GroupKey {
    std::uint32_t tags{0};  // KeyKind per component, 4 bits each
    bool unresolved{false};  // string/real words not yet looked up
    std::uint64_t hash{0};
    std::array<std::uint64_t, kMaxGroupBy> words{};
  };
  static constexpr std::uint32_t kEmptyBucket = 0xFFFFFFFFu;
  static constexpr std::uint32_t kTombBucket = 0xFFFFFFFEu;
  static constexpr std::uint32_t kNoGroup = 0xFFFFFFFFu;  // window column: no match
  struct QueryState {
    QueryId id;
    Query query;
    CompiledQuery plan;
    Listener listener;
    // Group slots, `stride` words each: [count][tags | bucket << 32][key...].
    // A slot is live iff its count > 0: groups are created with their first
    // window entry and erased when the last one evicts.
    std::size_t stride{2};
    std::vector<std::uint64_t> pool;
    std::vector<std::uint32_t> free_slots;
    // Open-addressing group table: buckets hold pool-slot indices (or the
    // empty/tombstone sentinels).
    std::vector<std::uint32_t> buckets;  // capacity always a power of two
    std::size_t live_groups{0};
    std::size_t bucket_used{0};  // live + tombstones
    // Numeric-aggregate side state, per slot or per matched window entry
    // (plan.numeric_aggs each); all empty for count-only queries.
    util::RingBuffer<double> ring_values;      // NaN = null input
    util::RingBuffer<std::uint64_t> ring_seq;  // group-local entry sequence
    std::vector<std::uint64_t> next_seq;       // per slot
    std::vector<double> sums;
    std::vector<std::uint64_t> non_null;
    std::vector<std::deque<MonoEntry>> mono;   // used only by min/max aggregates

    [[nodiscard]] std::size_t slot_count() const { return pool.size() / stride; }
    [[nodiscard]] std::uint64_t* group(std::uint32_t s) { return pool.data() + s * stride; }
    [[nodiscard]] const std::uint64_t* group(std::uint32_t s) const {
      return pool.data() + s * stride;
    }
  };
  /// The window ring of one (stream, time window), shared by every query
  /// over it, or private to one LENGTH-window query. An entry is a time plus
  /// one pool slot per member query (kNoGroup where the event did not match
  /// that query); evicting it decrements each member's group. Events no
  /// member matched leave no entry.
  struct Window {
    Slot stream{kNoSlot};
    WindowSpec spec;
    std::vector<std::uint32_t> members;    // indices into queries_
    std::vector<std::uint32_t> same_where;  // per member: first member with its WHERE
    util::RingBuffer<std::int64_t> times;
    util::RingBuffer<std::uint32_t> slots;  // members.size() per entry
  };

  [[nodiscard]] QueryState* find_query(QueryId id);
  [[nodiscard]] const QueryState* find_query(QueryId id) const;
  void refresh_read_attrs();
  /// Rebuild `w`'s ring for a new member list: `column[k]` is new member
  /// k's old column, or -1 for a member with no entries yet.
  static void recolumn(Window& w, std::vector<std::uint32_t> members,
                       const std::vector<int>& column);
  void refresh_same_where(Window& w) const;

  [[nodiscard]] static bool event_matches(const QueryState& qs, const SlottedEvent& e);
  /// Fill `key` from the event's GROUP BY attributes. String and real
  /// components are left unresolved: their ids are looked up at retirement,
  /// since groups created or erased in between may intern or free them.
  static void make_key(const CompiledQuery& plan, const SlottedEvent& e, GroupKey& key);
  /// Look up (or, with `acquire`, intern with one reference each) the ids
  /// of `key`'s string/real components. False if some text is unknown.
  bool resolve_text(const CompiledQuery& plan, const SlottedEvent& e, GroupKey& key,
                    bool acquire);
  /// Pool slot of `key` (resolved), creating the group on a miss.
  /// `text_held` says the key's text ids already carry the new group's
  /// references.
  std::uint32_t resolve_group(QueryState& qs, const GroupKey& key, bool text_held);
  /// resolve_group for an event's key, resolving its text first.
  std::uint32_t group_for(QueryState& qs, const SlottedEvent& e, GroupKey& key);
  /// Pool slot of `key` (resolved), or kEmptyBucket. On a miss `insert_at`
  /// gets the bucket a new group would take: the first tombstone on the
  /// probe path, else the empty bucket that ended it.
  [[nodiscard]] std::uint32_t find_slot(const QueryState& qs, const GroupKey& key,
                                        std::size_t* insert_at = nullptr) const;
  void rehash(QueryState& qs, std::size_t min_buckets);
  /// Tombstone `slot`'s bucket, release its text ids, freelist the slot.
  void erase_group(QueryState& qs, std::uint32_t slot);
  void insert_event(QueryState& qs, const SlottedEvent& e, std::uint32_t slot);
  /// Take one window entry out of `slot`'s group.
  void evict_slot(QueryState& qs, std::uint32_t slot);
  void evict_front(Window& w);
  void evict_time(Window& w, sim::SimTime now);
  /// Run `n` events (`at(i)`) through one window's members with a bounded
  /// software pipeline: the pure per-event work (match tests, key builds,
  /// hashes) runs ahead and prefetches the bucket and group cache lines,
  /// while every mutation is applied in event order.
  template <typename At>
  void push_window(Window& w, std::size_t n, const At& at);
  void notify(QueryState& qs, std::uint32_t slot);
  /// The typed key of a live slot; texts view texts_.
  void key_of(const QueryState& qs, std::uint32_t slot,
              std::array<KeyValue, kMaxGroupBy>& out) const;
  [[nodiscard]] RawGroup export_group(const QueryState& qs, std::uint32_t slot) const;
  /// Live slots of `qs` in kSorted order.
  void sorted_slots(const QueryState& qs, std::vector<std::uint32_t>& out) const;

  std::shared_ptr<SymbolTable> attrs_;
  std::shared_ptr<SymbolTable> streams_;
  std::vector<QueryState> queries_;
  std::vector<Window> windows_;
  KeyTexts texts_;
  std::vector<bool> read_attrs_;
  util::IdGenerator<QueryId> ids_{1};
  std::uint64_t events_processed_{0};
  /// In-flight pipeline state for push_window: per event still between the
  /// fetch stage and retirement, one key and match flag per window member.
  static constexpr std::size_t kPipeDepth = 8;  // power of two
  std::vector<GroupKey> pipe_keys_;           // kPipeDepth x members
  std::vector<std::uint32_t> pipe_slots_;     // kPipeDepth x members; kNoGroup = no match

  std::vector<std::uint32_t> visit_scratch_;  // sorted visitation scratch
};

}  // namespace erms::cep
