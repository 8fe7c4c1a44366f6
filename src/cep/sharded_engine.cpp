#include "cep/sharded_engine.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <iterator>
#include <numeric>
#include <thread>

#include "snapshot/codec.h"

namespace erms::cep {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t hash_bytes(const char* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

/// Hash of the routing attribute's typed value; events missing the attribute
/// all land on shard 0.
std::uint64_t route_hash(const SlotValue* v) {
  if (v == nullptr) {
    return 0;
  }
  switch (v->kind) {
    case SlotValue::Kind::kString:
      return hash_bytes(v->s.data(), v->s.size());
    case SlotValue::Kind::kInt:
      return splitmix64(static_cast<std::uint64_t>(v->i));
    case SlotValue::Kind::kReal: {
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(v->r));
      std::memcpy(&bits, &v->r, sizeof(bits));
      return splitmix64(bits);
    }
    case SlotValue::Kind::kBool:
      return v->b ? 1 : 0;
    case SlotValue::Kind::kNull:
      return 0;
  }
  return 0;
}

/// Fold `src`'s aggregates into `dst` (same group, another shard).
void merge_aggs(const Query& q, Engine::RawGroup& dst, const Engine::RawGroup& src) {
  dst.count += src.count;
  for (std::size_t i = 0; i < q.select.size(); ++i) {
    Engine::RawAggregate& a = dst.aggs[i];
    const Engine::RawAggregate& b = src.aggs[i];
    a.sum += b.sum;
    a.non_null += b.non_null;
    if (b.has_extreme) {
      if (!a.has_extreme) {
        a.extreme = b.extreme;
        a.has_extreme = true;
      } else if (q.select[i].kind == Aggregate::Kind::kMin) {
        a.extreme = std::min(a.extreme, b.extreme);
      } else {
        a.extreme = std::max(a.extreme, b.extreme);
      }
    }
  }
}

}  // namespace

ShardedEngine::ShardedEngine(ShardedEngineOptions opts)
    : attrs_(std::make_shared<SymbolTable>(/*fold_case=*/true)),
      streams_(std::make_shared<SymbolTable>(/*fold_case=*/false)),
      batch_events_(std::max<std::size_t>(1, opts.batch_events)),
      pool_(opts.pool) {
  std::size_t n = opts.shards;
  if (n == 0) {
    n = std::max(1u, std::thread::hardware_concurrency());
  }
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Engine>(attrs_, streams_));
  }
  pending_.resize(n);
  route_slot_ = attrs_->intern(opts.route_by);
  refresh_read_attrs();
  if (pool_ == nullptr) {
    owned_pool_ = std::make_unique<util::ThreadPool>(0);
    pool_ = owned_pool_.get();
  }
}

ShardedEngine::~ShardedEngine() { flush(); }

QueryId ShardedEngine::register_query(Query query, Listener listener) {
  flush();
  QueryId id{};
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const QueryId got = shards_[s]->register_query(query, listener);
    if (s == 0) {
      id = got;
    } else {
      assert(got == id && "shard query ids diverged");
      (void)got;
    }
  }
  refresh_read_attrs();
  return id;
}

bool ShardedEngine::remove_query(QueryId id) {
  flush();
  bool removed = false;
  for (auto& shard : shards_) {
    removed = shard->remove_query(id) || removed;
  }
  refresh_read_attrs();
  return removed;
}

void ShardedEngine::refresh_read_attrs() {
  read_attrs_ = shards_.front()->read_attrs();
  if (read_attrs_.size() <= route_slot_) {
    read_attrs_.resize(route_slot_ + 1);
  }
  read_attrs_[route_slot_] = true;
}

std::size_t ShardedEngine::query_count() const { return shards_.front()->query_count(); }

std::size_t ShardedEngine::route(const SlottedEvent& e) const {
  if (shards_.size() == 1) {
    return 0;
  }
  return static_cast<std::size_t>(route_hash(e.get(route_slot_)) % shards_.size());
}

void ShardedEngine::push_slotted(const SlottedEvent& event) {
  ++events_;
  const std::size_t s = route(event);
  pending_[s].append(event);
  ++pending_count_;
  if (!has_pending_ || event.time > pending_max_time_) {
    pending_max_time_ = event.time;
    has_pending_ = true;
  }
  if (pending_[s].size() >= batch_events_) {
    flush();
  }
}

void ShardedEngine::push_batch(const EventBatch& batch) {
  // Same semantics as push_slotted per event — including the mid-batch
  // flush whenever a shard's pending batch fills — but the whole span is
  // routed in one call, so the feed pays one virtual dispatch per batch.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const SlottedEvent& event = batch[i];
    ++events_;
    const std::size_t s = route(event);
    pending_[s].append(event);
    ++pending_count_;
    if (!has_pending_ || event.time > pending_max_time_) {
      pending_max_time_ = event.time;
      has_pending_ = true;
    }
    if (pending_[s].size() >= batch_events_) {
      flush();
    }
  }
}

void ShardedEngine::flush() {
  if (!has_pending_) {
    return;
  }
  const sim::SimTime max_time = pending_max_time_;
  pool_->parallel_for(shards_.size(), [this, max_time](std::size_t s) {
    Engine& eng = *shards_[s];
    eng.push_batch(pending_[s]);
    // Mirror the scalar engine: every query's time window has seen the
    // batch's high-water time, whether or not this shard got an event.
    eng.advance_to(max_time);
  });
  for (EventBatch& batch : pending_) {
    batch.clear();
  }
  pending_count_ = 0;
  has_pending_ = false;
}

void ShardedEngine::advance_to(sim::SimTime now) {
  flush();
  for (auto& shard : shards_) {
    shard->advance_to(now);
  }
}

std::vector<Engine::RawGroup> ShardedEngine::merged_raw(QueryId id) {
  flush();
  std::vector<Engine::RawGroup> all;
  const Query* q = shards_.front()->query(id);
  if (q == nullptr) {
    return all;
  }
  for (auto& shard : shards_) {
    std::vector<Engine::RawGroup> groups = shard->raw_snapshot(id);
    std::move(groups.begin(), groups.end(), std::back_inserter(all));
  }
  // Sorting brings one key's per-shard parts together: compare_rendered is
  // zero exactly for equal typed keys (shards intern text separately, so
  // keys compare by value, never by id). Ties keep shard order, so parts
  // fold in shard order.
  std::vector<std::uint32_t> order(all.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const int c = compare_rendered(all[a].key, all[b].key);
    return c != 0 ? c < 0 : a < b;
  });
  std::vector<Engine::RawGroup> merged;
  for (const std::uint32_t i : order) {
    if (!merged.empty() && compare_rendered(merged.back().key, all[i].key) == 0) {
      merge_aggs(*q, merged.back(), all[i]);
    } else {
      merged.push_back(std::move(all[i]));
    }
  }
  return merged;
}

std::vector<ResultRow> ShardedEngine::snapshot(QueryId id) {
  std::vector<ResultRow> out;
  const std::vector<Engine::RawGroup> merged = merged_raw(id);
  const Query* q = shards_.front()->query(id);
  if (q == nullptr) {
    return out;
  }
  out.reserve(merged.size());
  for (const Engine::RawGroup& g : merged) {
    out.push_back(Engine::render_row(*q, g));
  }
  return out;
}

void ShardedEngine::for_each_group_count(QueryId id, const GroupCountVisitor& fn,
                                         GroupOrder /*order*/) {
  // Counts add across shards, and the merge leaves groups in kSorted order
  // (a valid kUnordered order too), so visits match the scalar engine's.
  for (const Engine::RawGroup& g : merged_raw(id)) {
    fn(g.key, g.count);
  }
}

std::optional<ResultRow> ShardedEngine::group_row(QueryId id, std::span<const KeyValue> key) {
  flush();
  const Query* q = shards_.front()->query(id);
  if (q == nullptr) {
    return std::nullopt;
  }
  std::optional<Engine::RawGroup> merged;
  for (auto& shard : shards_) {
    std::optional<Engine::RawGroup> g = shard->raw_group(id, key);
    if (!g) {
      continue;
    }
    if (!merged) {
      merged = std::move(g);
    } else {
      merge_aggs(*q, *merged, *g);
    }
  }
  if (!merged) {
    return std::nullopt;
  }
  return Engine::render_row(*q, *merged);
}

void ShardedEngine::save_state(snapshot::Writer& w) {
  flush();
  w.u64(shards_.size());
  for (const auto& shard : shards_) {
    shard->save_state(w);
  }
  w.u64(events_);
}

void ShardedEngine::load_state(snapshot::Reader& r) {
  const std::uint64_t n = r.u64();
  if (!r.require(n == shards_.size(), "engine shard count")) return;
  for (const auto& shard : shards_) {
    shard->load_state(r);
    if (!r.ok()) return;
  }
  events_ = r.u64();
}

}  // namespace erms::cep
