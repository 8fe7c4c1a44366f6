#include "cep/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "cep/event.h"
#include "snapshot/codec.h"

namespace erms::cep {

namespace {

// Group slot layout (QueryState::pool): word 0 the window count, word 1 the
// kind tags (low 32 bits) and the bucket index (high 32), then the key words.
constexpr std::size_t kMetaWord = 1;
constexpr std::size_t kKeyWord = 2;

std::uint32_t tags_of(const std::uint64_t* g) { return static_cast<std::uint32_t>(g[kMetaWord]); }
std::uint32_t bucket_of(const std::uint64_t* g) {
  return static_cast<std::uint32_t>(g[kMetaWord] >> 32);
}
KeyKind kind_at(std::uint32_t tags, std::size_t i) {
  return static_cast<KeyKind>((tags >> (4 * i)) & 0xFu);
}
bool is_text(KeyKind k) { return k == KeyKind::kString || k == KeyKind::kReal; }

std::uint64_t hash_key(std::uint32_t tags, const std::uint64_t* words, std::size_t n) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull * (tags + 1ull);
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ words[i]) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  }
  h *= 0x94D049BB133111EBull;
  return h ^ (h >> 29);
}

}  // namespace

Engine::Engine()
    : Engine(std::make_shared<SymbolTable>(/*fold_case=*/true),
             std::make_shared<SymbolTable>(/*fold_case=*/false)) {}

Engine::Engine(std::shared_ptr<SymbolTable> attrs, std::shared_ptr<SymbolTable> streams)
    : attrs_(std::move(attrs)), streams_(std::move(streams)) {}

QueryId Engine::register_query(Query query, Listener listener) {
  QueryState qs;
  qs.plan = CompiledQuery::compile(query, *attrs_, *streams_);
  qs.id = ids_.next();
  qs.stride = kKeyWord + query.group_by.size();
  qs.query = std::move(query);
  qs.listener = std::move(listener);
  const WindowSpec spec = qs.query.window;
  const Slot stream = qs.plan.stream;
  queries_.push_back(std::move(qs));
  // Time windows over one stream and duration share a ring; LENGTH windows
  // count their own query's events, so each keeps a private one.
  Window* w = nullptr;
  for (Window& cand : windows_) {
    if (spec.kind == WindowSpec::Kind::kTime && cand.spec.kind == WindowSpec::Kind::kTime &&
        cand.spec.duration == spec.duration && cand.stream == stream) {
      w = &cand;
      break;
    }
  }
  if (w == nullptr) {
    w = &windows_.emplace_back();
    w->stream = stream;
    w->spec = spec;
  }
  std::vector<int> column;
  for (std::size_t k = 0; k < w->members.size(); ++k) {
    column.push_back(static_cast<int>(k));
  }
  column.push_back(-1);
  std::vector<std::uint32_t> members = w->members;
  members.push_back(static_cast<std::uint32_t>(queries_.size() - 1));
  recolumn(*w, std::move(members), column);
  refresh_same_where(*w);
  refresh_read_attrs();
  return queries_.back().id;
}

bool Engine::remove_query(QueryId id) {
  for (std::uint32_t qi = 0; qi < queries_.size(); ++qi) {
    QueryState& qs = queries_[qi];
    if (qs.id != id) {
      continue;
    }
    for (std::uint32_t s = 0; s < qs.slot_count(); ++s) {
      if (qs.group(s)[0] > 0) {
        erase_group(qs, s);  // drops the group's key-text references
      }
    }
    for (auto it = windows_.begin(); it != windows_.end();) {
      std::vector<std::uint32_t> members;
      std::vector<int> column;
      for (std::size_t k = 0; k < it->members.size(); ++k) {
        const std::uint32_t m = it->members[k];
        if (m != qi) {
          members.push_back(m > qi ? m - 1 : m);
          column.push_back(static_cast<int>(k));
        }
      }
      if (members.empty()) {
        it = windows_.erase(it);
        continue;
      }
      recolumn(*it, std::move(members), column);
      ++it;
    }
    queries_.erase(queries_.begin() + qi);
    for (Window& w : windows_) {
      refresh_same_where(w);
    }
    refresh_read_attrs();
    return true;
  }
  return false;
}

void Engine::recolumn(Window& w, std::vector<std::uint32_t> members,
                      const std::vector<int>& column) {
  const std::size_t width = w.members.size();
  util::RingBuffer<std::int64_t> times;
  util::RingBuffer<std::uint32_t> slots;
  for (std::size_t e = 0; e < w.times.size(); ++e) {
    const bool kept = std::any_of(column.begin(), column.end(), [&](int c) {
      return c >= 0 && w.slots[e * width + c] != kNoGroup;
    });
    if (!kept) {
      continue;  // only removed members matched this event
    }
    times.push_back(w.times[e]);
    for (const int c : column) {
      slots.push_back(c < 0 ? kNoGroup : w.slots[e * width + c]);
    }
  }
  w.times = std::move(times);
  w.slots = std::move(slots);
  w.members = std::move(members);
}

void Engine::refresh_same_where(Window& w) const {
  // Members with identical compiled WHERE clauses match the same events,
  // so push_window tests each distinct clause once per event.
  w.same_where.resize(w.members.size());
  for (std::size_t k = 0; k < w.members.size(); ++k) {
    w.same_where[k] = static_cast<std::uint32_t>(k);
    const CompiledQuery& a = queries_[w.members[k]].plan;
    if (a.where == CompiledQuery::WhereMode::kClassAd) {
      continue;
    }
    for (std::size_t j = 0; j < k; ++j) {
      const CompiledQuery& b = queries_[w.members[j]].plan;
      if (b.where == a.where && b.preds == a.preds) {
        w.same_where[k] = static_cast<std::uint32_t>(j);
        break;
      }
    }
  }
}

void Engine::refresh_read_attrs() {
  read_attrs_.assign(attrs_->size(), false);
  for (const QueryState& qs : queries_) {
    for (const Slot s : qs.plan.reads) {
      read_attrs_[s] = true;
    }
  }
}

Engine::QueryState* Engine::find_query(QueryId id) {
  for (QueryState& qs : queries_) {
    if (qs.id == id) {
      return &qs;
    }
  }
  return nullptr;
}

const Engine::QueryState* Engine::find_query(QueryId id) const {
  for (const QueryState& qs : queries_) {
    if (qs.id == id) {
      return &qs;
    }
  }
  return nullptr;
}

const Query* Engine::query(QueryId id) const {
  const QueryState* qs = find_query(id);
  return qs == nullptr ? nullptr : &qs->query;
}

bool Engine::event_matches(QueryState& qs, const SlottedEvent& e) {
  const CompiledQuery& plan = qs.plan;
  if (plan.stream != kNoSlot && plan.stream != e.stream) {
    return false;
  }
  if (plan.where == CompiledQuery::WhereMode::kNone) {
    return true;
  }
  if (plan.where == CompiledQuery::WhereMode::kFast && use_fast_path_) {
    for (const FastPred& p : plan.preds) {
      if (!eval_fast_pred(p, e)) {
        return false;
      }
    }
    return true;
  }
  // Compatibility adapter: rebuild a ClassAd view and run the expression.
  classad::ClassAd ad;
  to_classad(e, *attrs_, ad);
  const classad::Value v = ad.evaluate_expr(*qs.query.where);
  return v.is_bool() && v.as_bool();
}

void Engine::make_key(const CompiledQuery& plan, const SlottedEvent& e, GroupKey& key) {
  key.tags = 0;
  key.unresolved = false;
  const std::size_t n = plan.group_slots.size();
  for (std::size_t i = 0; i < n; ++i) {
    const SlotValue* v = e.get(plan.group_slots[i]);
    KeyKind kind = KeyKind::kAbsent;
    std::uint64_t word = 0;
    if (v != nullptr) {
      switch (v->kind) {
        case SlotValue::Kind::kBool:
          kind = KeyKind::kBool;
          word = v->b ? 1 : 0;
          break;
        case SlotValue::Kind::kInt:
          kind = KeyKind::kInt;
          word = static_cast<std::uint64_t>(v->i);
          break;
        case SlotValue::Kind::kReal:
          kind = KeyKind::kReal;
          key.unresolved = true;
          break;
        case SlotValue::Kind::kString:
          kind = KeyKind::kString;
          key.unresolved = true;
          break;
        case SlotValue::Kind::kNull:
          break;
      }
    }
    key.tags |= static_cast<std::uint32_t>(kind) << (4 * i);
    key.words[i] = word;
  }
  if (!key.unresolved) {
    key.hash = hash_key(key.tags, key.words.data(), n);
  }
}

bool Engine::resolve_text(const CompiledQuery& plan, const SlottedEvent& e, GroupKey& key,
                          bool acquire) {
  const std::size_t n = plan.group_slots.size();
  for (std::size_t i = 0; i < n; ++i) {
    const KeyKind kind = kind_at(key.tags, i);
    if (!is_text(kind)) {
      continue;
    }
    const SlotValue* v = e.get(plan.group_slots[i]);
    char buf[48];
    std::string_view text = v->s;
    if (kind == KeyKind::kReal) {
      const int len = std::snprintf(buf, sizeof(buf), "%g", v->r);
      text = std::string_view(buf, static_cast<std::size_t>(len));
    }
    const std::uint32_t id = acquire ? texts_.acquire(text) : texts_.find(text);
    if (id == KeyTexts::kNone) {
      return false;
    }
    key.words[i] = id;
  }
  key.unresolved = false;
  key.hash = hash_key(key.tags, key.words.data(), n);
  return true;
}

void Engine::rehash(QueryState& qs, std::size_t min_buckets) {
  std::size_t cap = 16;
  while (cap < min_buckets) {
    cap <<= 1;
  }
  qs.buckets.assign(cap, kEmptyBucket);
  const std::size_t mask = cap - 1;
  const std::size_t width = qs.stride - kKeyWord;
  for (std::uint32_t s = 0; s < qs.slot_count(); ++s) {
    std::uint64_t* g = qs.group(s);
    if (g[0] == 0) {
      continue;  // freelisted slot
    }
    std::size_t i = hash_key(tags_of(g), g + kKeyWord, width) & mask;
    while (qs.buckets[i] != kEmptyBucket) {
      i = (i + 1) & mask;
    }
    qs.buckets[i] = s;
    g[kMetaWord] = tags_of(g) | (static_cast<std::uint64_t>(i) << 32);
  }
  qs.bucket_used = qs.live_groups;
}

std::uint32_t Engine::find_slot(const QueryState& qs, const GroupKey& key,
                                std::size_t* insert_at) const {
  if (qs.buckets.empty()) {
    return kEmptyBucket;
  }
  const std::size_t width = qs.stride - kKeyWord;
  const std::size_t mask = qs.buckets.size() - 1;
  std::size_t tomb = static_cast<std::size_t>(-1);  // first tombstone seen
  for (std::size_t i = key.hash & mask;; i = (i + 1) & mask) {
    const std::uint32_t b = qs.buckets[i];
    if (b == kEmptyBucket) {
      if (insert_at != nullptr) {
        *insert_at = tomb != static_cast<std::size_t>(-1) ? tomb : i;
      }
      return kEmptyBucket;
    }
    if (b == kTombBucket) {
      if (tomb == static_cast<std::size_t>(-1)) {
        tomb = i;
      }
    } else if (const std::uint64_t* g = qs.group(b);
               tags_of(g) == key.tags &&
               std::equal(g + kKeyWord, g + kKeyWord + width, key.words.begin())) {
      return b;
    }
  }
}

std::uint32_t Engine::group_for(QueryState& qs, const SlottedEvent& e, GroupKey& key) {
  if (key.unresolved && !resolve_text(qs.plan, e, key, /*acquire=*/false)) {
    // Some text is interned by no live group, so neither is this key: take
    // the new group's references up front and insert.
    resolve_text(qs.plan, e, key, /*acquire=*/true);
    return resolve_group(qs, key, /*text_held=*/true);
  }
  return resolve_group(qs, key, /*text_held=*/false);
}

std::uint32_t Engine::resolve_group(QueryState& qs, const GroupKey& key, bool text_held) {
  if (qs.buckets.empty()) {
    rehash(qs, 16);
  }
  std::size_t insert_at = 0;
  const std::uint32_t found = find_slot(qs, key, &insert_at);
  if (found != kEmptyBucket) {
    return found;
  }
  if (qs.buckets[insert_at] == kEmptyBucket) {
    if ((qs.bucket_used + 1) * 2 > qs.buckets.size()) {
      // Keep the table at most half full of live+tombstone buckets. Sizing
      // off the live count alone sheds accumulated tombstones, so a
      // churn-heavy steady state rehashes the same-sized table every
      // ~live/2 erases — amortized O(1) per operation.
      rehash(qs, (qs.live_groups + 1) * 4);
      const std::size_t mask = qs.buckets.size() - 1;
      insert_at = key.hash & mask;
      while (qs.buckets[insert_at] != kEmptyBucket) {
        insert_at = (insert_at + 1) & mask;
      }
    }
    ++qs.bucket_used;  // a tombstone reused is already counted
  }
  const std::size_t width = qs.stride - kKeyWord;
  if (!text_held) {
    for (std::size_t c = 0; c < width; ++c) {
      if (is_text(kind_at(key.tags, c))) {
        texts_.retain(static_cast<std::uint32_t>(key.words[c]));
      }
    }
  }
  // Take the most recently freed slot if one is free (LIFO reuse keeps the
  // pool compact and its order a function of the event history alone).
  std::uint32_t slot;
  if (!qs.free_slots.empty()) {
    slot = qs.free_slots.back();
    qs.free_slots.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(qs.slot_count());
    qs.pool.resize(qs.pool.size() + qs.stride);
    const std::size_t naggs = qs.plan.numeric_aggs;
    if (naggs > 0) {
      qs.next_seq.push_back(0);
      qs.sums.resize(qs.sums.size() + naggs);
      qs.non_null.resize(qs.non_null.size() + naggs);
      qs.mono.resize(qs.mono.size() + naggs);
    }
  }
  std::uint64_t* g = qs.group(slot);
  g[0] = 0;
  g[kMetaWord] = key.tags | (static_cast<std::uint64_t>(insert_at) << 32);
  std::copy_n(key.words.begin(), width, g + kKeyWord);
  if (const std::size_t naggs = qs.plan.numeric_aggs; naggs > 0) {
    qs.next_seq[slot] = 0;
    for (std::size_t a = slot * naggs; a < (slot + 1) * naggs; ++a) {
      qs.sums[a] = 0.0;
      qs.non_null[a] = 0;
      qs.mono[a].clear();
    }
  }
  ++qs.live_groups;
  qs.buckets[insert_at] = slot;
  return slot;
}

void Engine::erase_group(QueryState& qs, std::uint32_t slot) {
  std::uint64_t* g = qs.group(slot);
  assert(qs.buckets[bucket_of(g)] == slot && "group's cached bucket index is stale");
  qs.buckets[bucket_of(g)] = kTombBucket;
  const std::uint32_t tags = tags_of(g);
  for (std::size_t c = 0; c + kKeyWord < qs.stride; ++c) {
    if (is_text(kind_at(tags, c))) {
      texts_.release(static_cast<std::uint32_t>(g[kKeyWord + c]));
    }
  }
  g[0] = 0;
  --qs.live_groups;
  qs.free_slots.push_back(slot);
}

void Engine::insert_event(QueryState& qs, const SlottedEvent& e, std::uint32_t slot) {
  ++qs.group(slot)[0];
  const CompiledQuery& plan = qs.plan;
  if (plan.numeric_aggs > 0) {
    const std::uint64_t seq = qs.next_seq[slot]++;
    qs.ring_seq.push_back(seq);
    const std::size_t base = slot * plan.numeric_aggs;
    for (std::size_t i = 0; i < qs.query.select.size(); ++i) {
      const std::int32_t ni = plan.agg_numeric_index[i];
      if (ni < 0) {
        continue;
      }
      const SlotValue* v = e.get(plan.agg_slots[i]);
      double val = std::nan("");
      if (v != nullptr && v->is_number()) {
        const double n = v->as_number();
        if (!std::isnan(n)) {
          val = n;
          qs.sums[base + ni] += n;
          ++qs.non_null[base + ni];
          if (plan.agg_is_minmax[i]) {
            std::deque<MonoEntry>& dq = qs.mono[base + ni];
            if (qs.query.select[i].kind == Aggregate::Kind::kMin) {
              while (!dq.empty() && dq.back().value > n) {
                dq.pop_back();
              }
            } else {
              while (!dq.empty() && dq.back().value < n) {
                dq.pop_back();
              }
            }
            dq.push_back(MonoEntry{n, seq});
          }
        }
      }
      qs.ring_values.push_back(val);
    }
  }
}

void Engine::evict_slot(QueryState& qs, std::uint32_t slot) {
  std::uint64_t* g = qs.group(slot);
  assert(g[0] > 0 && "evicting from a missing group");
  --g[0];
  const CompiledQuery& plan = qs.plan;
  if (plan.numeric_aggs > 0) {
    const std::uint64_t seq = qs.ring_seq.front();
    qs.ring_seq.pop_front();
    const std::size_t base = slot * plan.numeric_aggs;
    for (std::size_t i = 0; i < qs.query.select.size(); ++i) {
      const std::int32_t ni = plan.agg_numeric_index[i];
      if (ni < 0) {
        continue;
      }
      const double val = qs.ring_values.front();
      qs.ring_values.pop_front();
      if (!std::isnan(val)) {
        qs.sums[base + ni] -= val;
        --qs.non_null[base + ni];
        if (plan.agg_is_minmax[i]) {
          std::deque<MonoEntry>& dq = qs.mono[base + ni];
          if (!dq.empty() && dq.front().seq == seq) {
            dq.pop_front();
          }
        }
      }
    }
  }
  if (g[0] == 0) {
    erase_group(qs, slot);
  }
}

void Engine::evict_front(Window& w) {
  w.times.pop_front();
  for (const std::uint32_t qi : w.members) {
    const std::uint32_t slot = w.slots.front();
    w.slots.pop_front();
    if (slot != kNoGroup) {
      evict_slot(queries_[qi], slot);
    }
  }
}

void Engine::evict_time(Window& w, sim::SimTime now) {
  if (w.spec.kind != WindowSpec::Kind::kTime) {
    return;
  }
  const std::int64_t cutoff = (now - w.spec.duration).micros();
  // Eviction's cache misses are the victims' group lines (the ring entries
  // themselves are contiguous). Keep the next few entries' lines in flight
  // so a burst of expiries doesn't stall once per entry.
  constexpr std::size_t kAhead = 4;
  const std::size_t width = w.members.size();
  std::size_t primed = 0;  // entries [0, primed) of the ring are prefetched
  while (!w.times.empty() && w.times.front() <= cutoff) {
    while (primed < kAhead && primed < w.times.size() && w.times[primed] <= cutoff) {
      for (std::size_t m = 0; m < width; ++m) {
        const std::uint32_t slot = w.slots[primed * width + m];
        if (slot != kNoGroup) {
          __builtin_prefetch(queries_[w.members[m]].group(slot));
        }
      }
      ++primed;
    }
    evict_front(w);
    if (primed > 0) {
      --primed;
    }
  }
}

void Engine::notify(QueryState& qs, std::uint32_t slot) {
  if (!qs.listener) {
    return;
  }
  if (qs.group(slot)[0] == 0) {
    return;  // the group was fully evicted by a LENGTH window before notify
  }
  const ResultRow row = render_row(qs.query, export_group(qs, slot));
  if (qs.query.having) {
    const classad::Value v = row.values.evaluate_expr(*qs.query.having);
    if (!v.is_bool() || !v.as_bool()) {
      return;
    }
  }
  qs.listener(row);
}

void Engine::push_slotted(const SlottedEvent& event) {
  ++events_processed_;
  for (Window& w : windows_) {
    push_window(w, 1, [&](std::size_t) -> const SlottedEvent& { return event; });
  }
}

void Engine::push_batch(const EventBatch& batch) {
  events_processed_ += batch.size();
  // Window-major: windows share only the key-text interner, whose ids never
  // reach query results, so running the whole batch through one window
  // before the next gives byte-identical per-query results to the per-event
  // path while keeping each window's plans, buckets and ring hot in cache.
  // Only listener firing order differs within a batch.
  for (Window& w : windows_) {
    push_window(w, batch.size(), [&](std::size_t i) -> const SlottedEvent& { return batch[i]; });
  }
}

template <typename At>
void Engine::push_window(Window& w, std::size_t n, const At& at) {
  // A matched event costs two dependent cache misses per member query in
  // resolve_group: the bucket line (hash & mask into a multi-MB array), then
  // the group line it points at. This pipeline hides both behind later
  // events' pure work.
  //
  //   fetch(i):  match tests, key builds, hashes — all functions of the
  //              event and the immutable plans only — then prefetch each
  //              bucket line. Keys with string/real components stay
  //              unresolved until retirement and skip the prefetches.
  //   probe(i):  peek each head bucket (its line is arriving by now) and
  //              prefetch the group it names. The peek is only a hint:
  //              retire() may rehash or erase between probe and retirement,
  //              so retirement re-probes from scratch — a stale prefetch
  //              wastes a line, never correctness.
  //   retire(i): every mutation, in event order — window eviction, full
  //              resolve_group on the precomputed keys, group inserts, the
  //              ring entry, LENGTH eviction, notify.
  const std::size_t width = w.members.size();
  if (pipe_keys_.size() < kPipeDepth * width) {
    pipe_keys_.resize(kPipeDepth * width);
    pipe_slots_.resize(kPipeDepth * width);
  }
  constexpr std::size_t kMask = kPipeDepth - 1;
  constexpr std::size_t kProbeLag = kPipeDepth / 2;
  // Per in-flight event: one key and one slot per member. Fetch marks a
  // match with 0 (kNoGroup otherwise); retirement stores the group's slot.
  const auto keys_of = [&](std::size_t i) { return &pipe_keys_[(i & kMask) * width]; };
  const auto slots_of = [&](std::size_t i) { return &pipe_slots_[(i & kMask) * width]; };
  const auto fetch = [&](std::size_t i) {
    const SlottedEvent& e = at(i);
    GroupKey* keys = keys_of(i);
    std::uint32_t* slots = slots_of(i);
    for (std::size_t m = 0; m < width; ++m) {
      QueryState& qs = queries_[w.members[m]];
      const std::uint32_t first = w.same_where[m];
      const bool hit = first != m ? slots[first] != kNoGroup : event_matches(qs, e);
      slots[m] = hit ? 0 : kNoGroup;
      if (!hit) {
        continue;
      }
      make_key(qs.plan, e, keys[m]);
      if (!keys[m].unresolved && !qs.buckets.empty()) {
        __builtin_prefetch(&qs.buckets[keys[m].hash & (qs.buckets.size() - 1)]);
      }
    }
    // Warm the likely eviction victims too: by the time this event retires,
    // retirement will have consumed a few ring entries, so prefetch a little
    // way in. (Bursts are short — often one victim per event — so the
    // in-loop lookahead in evict_time alone starts every burst cold.)
    if (w.times.size() > kPipeDepth) {
      for (std::size_t m = 0; m < width; ++m) {
        const std::uint32_t slot = w.slots[(kPipeDepth - 2) * width + m];
        if (slot != kNoGroup) {
          __builtin_prefetch(queries_[w.members[m]].group(slot));
        }
      }
    }
  };
  const auto probe = [&](std::size_t i) {
    const GroupKey* keys = keys_of(i);
    const std::uint32_t* slots = slots_of(i);
    for (std::size_t m = 0; m < width; ++m) {
      const QueryState& qs = queries_[w.members[m]];
      if (slots[m] == kNoGroup || keys[m].unresolved || qs.buckets.empty()) {
        continue;
      }
      const std::uint32_t b = qs.buckets[keys[m].hash & (qs.buckets.size() - 1)];
      if (b < qs.slot_count()) {  // excludes the empty/tombstone sentinels
        __builtin_prefetch(qs.group(b));
      }
    }
  };
  const auto retire = [&](std::size_t i) {
    const SlottedEvent& e = at(i);
    // Time advances for every window, matching or not.
    evict_time(w, e.time);
    GroupKey* keys = keys_of(i);
    std::uint32_t* slots = slots_of(i);
    bool any = false;
    for (std::size_t m = 0; m < width; ++m) {
      if (slots[m] == kNoGroup) {
        continue;
      }
      QueryState& qs = queries_[w.members[m]];
      slots[m] = group_for(qs, e, keys[m]);
      insert_event(qs, e, slots[m]);
      any = true;
    }
    if (!any) {
      return;
    }
    w.times.push_back(e.time.micros());
    for (std::size_t m = 0; m < width; ++m) {
      w.slots.push_back(slots[m]);
    }
    if (w.spec.kind == WindowSpec::Kind::kLength) {
      while (w.times.size() > w.spec.count) {
        evict_front(w);
      }
    }
    for (std::size_t m = 0; m < width; ++m) {
      if (slots[m] != kNoGroup) {
        notify(queries_[w.members[m]], slots[m]);
      }
    }
  };
  // retire() runs first each step so pipe slot (t & kMask) is free before
  // fetch(t) overwrites it.
  for (std::size_t t = 0; t < n + kPipeDepth; ++t) {
    if (t >= kPipeDepth) {
      retire(t - kPipeDepth);
    }
    if (t < n) {
      fetch(t);
    }
    if (t >= kProbeLag && t - kProbeLag < n) {
      probe(t - kProbeLag);
    }
  }
}

void EngineBase::push(const Event& event) {
  convert_scratch_.reset(event.time, stream_symbols().intern(event.type));
  for (const std::string& name : event.attrs.attribute_names()) {
    const classad::Value v = event.attrs.evaluate(name);
    const Slot slot = attr_symbols().intern(name);
    switch (v.type()) {
      case classad::Value::Type::kBool:
        convert_scratch_.set_bool(slot, v.as_bool());
        break;
      case classad::Value::Type::kInt:
        convert_scratch_.set_int(slot, v.as_int());
        break;
      case classad::Value::Type::kReal:
        convert_scratch_.set_real(slot, v.as_real());
        break;
      case classad::Value::Type::kString:
        convert_scratch_.set_string(slot, v.as_string());
        break;
      default:
        break;  // UNDEFINED / ERROR attributes stay absent
    }
  }
  push_slotted(convert_scratch_);
}

void Engine::advance_to(sim::SimTime now) {
  for (Window& w : windows_) {
    evict_time(w, now);
  }
}

void Engine::key_of(const QueryState& qs, std::uint32_t slot,
                    std::array<KeyValue, kMaxGroupBy>& out) const {
  const std::uint64_t* g = qs.group(slot);
  const std::uint32_t tags = tags_of(g);
  for (std::size_t c = 0; c + kKeyWord < qs.stride; ++c) {
    const std::uint64_t word = g[kKeyWord + c];
    switch (kind_at(tags, c)) {
      case KeyKind::kInt:
        out[c] = KeyValue{static_cast<std::int64_t>(word)};
        break;
      case KeyKind::kBool:
        out[c] = KeyValue::boolean(word != 0);
        break;
      case KeyKind::kString:
        out[c] = KeyValue{texts_.text(static_cast<std::uint32_t>(word))};
        break;
      case KeyKind::kReal:
        out[c] = KeyValue::real(texts_.text(static_cast<std::uint32_t>(word)));
        break;
      case KeyKind::kAbsent:
        out[c] = KeyValue{};
        break;
    }
  }
}

Engine::RawGroup Engine::export_group(const QueryState& qs, std::uint32_t slot) const {
  RawGroup out;
  std::array<KeyValue, kMaxGroupBy> key;
  key_of(qs, slot, key);
  out.key.assign(key.begin(), key.begin() + static_cast<std::ptrdiff_t>(qs.stride - kKeyWord));
  out.count = qs.group(slot)[0];
  out.aggs.resize(qs.query.select.size());
  const std::size_t base = slot * qs.plan.numeric_aggs;
  for (std::size_t i = 0; i < qs.query.select.size(); ++i) {
    const std::int32_t ni = qs.plan.agg_numeric_index[i];
    if (ni < 0) {
      continue;
    }
    RawAggregate& agg = out.aggs[i];
    agg.sum = qs.sums[base + ni];
    agg.non_null = qs.non_null[base + ni];
    if (qs.plan.agg_is_minmax[i] && !qs.mono[base + ni].empty()) {
      agg.extreme = qs.mono[base + ni].front().value;
      agg.has_extreme = true;
    }
  }
  return out;
}

ResultRow Engine::render_row(const Query& q, const RawGroup& g) {
  ResultRow row;
  std::string text;
  for (std::size_t i = 0; i < q.group_by.size(); ++i) {
    text.clear();
    append_rendered(text, g.key[i]);
    row.values.insert_string(q.group_by[i], text);
  }
  for (std::size_t i = 0; i < q.select.size(); ++i) {
    const Aggregate& agg = q.select[i];
    switch (agg.kind) {
      case Aggregate::Kind::kCount:
        row.values.insert_int(agg.alias, static_cast<std::int64_t>(g.count));
        break;
      case Aggregate::Kind::kSum:
        row.values.insert_real(agg.alias, g.aggs[i].sum);
        break;
      case Aggregate::Kind::kAvg:
        if (g.aggs[i].non_null > 0) {
          row.values.insert_real(agg.alias,
                                 g.aggs[i].sum / static_cast<double>(g.aggs[i].non_null));
        }
        break;
      case Aggregate::Kind::kMin:
      case Aggregate::Kind::kMax:
        if (g.aggs[i].has_extreme) {
          row.values.insert_real(agg.alias, g.aggs[i].extreme);
        }
        break;
    }
  }
  return row;
}

void Engine::sorted_slots(const QueryState& qs, std::vector<std::uint32_t>& out) const {
  out.clear();
  out.reserve(qs.live_groups);
  for (std::uint32_t s = 0; s < qs.slot_count(); ++s) {
    if (qs.group(s)[0] > 0) {
      out.push_back(s);
    }
  }
  const std::size_t width = qs.stride - kKeyWord;
  std::sort(out.begin(), out.end(), [&](std::uint32_t a, std::uint32_t b) {
    std::array<KeyValue, kMaxGroupBy> ka;
    std::array<KeyValue, kMaxGroupBy> kb;
    key_of(qs, a, ka);
    key_of(qs, b, kb);
    return compare_rendered({ka.data(), width}, {kb.data(), width}) < 0;
  });
}

std::vector<Engine::RawGroup> Engine::raw_snapshot(QueryId id) const {
  std::vector<RawGroup> out;
  const QueryState* qs = find_query(id);
  if (qs == nullptr) {
    return out;
  }
  std::vector<std::uint32_t> slots;
  sorted_slots(*qs, slots);
  out.reserve(slots.size());
  for (const std::uint32_t s : slots) {
    out.push_back(export_group(*qs, s));
  }
  return out;
}

std::optional<Engine::RawGroup> Engine::raw_group(QueryId id,
                                                  std::span<const KeyValue> key) const {
  const QueryState* qs = find_query(id);
  if (qs == nullptr || key.size() != qs->stride - kKeyWord) {
    return std::nullopt;
  }
  GroupKey probe;
  for (std::size_t c = 0; c < key.size(); ++c) {
    probe.tags |= static_cast<std::uint32_t>(key[c].kind) << (4 * c);
    if (is_text(key[c].kind)) {
      const std::uint32_t text_id = texts_.find(key[c].text);
      if (text_id == KeyTexts::kNone) {
        return std::nullopt;
      }
      probe.words[c] = text_id;
    } else {
      probe.words[c] = static_cast<std::uint64_t>(key[c].i);
    }
  }
  probe.hash = hash_key(probe.tags, probe.words.data(), key.size());
  const std::uint32_t slot = find_slot(*qs, probe);
  if (slot == kEmptyBucket) {
    return std::nullopt;
  }
  return export_group(*qs, slot);
}

std::vector<ResultRow> Engine::snapshot(QueryId id) {
  std::vector<ResultRow> out;
  const QueryState* qs = find_query(id);
  if (qs == nullptr) {
    return out;
  }
  const std::vector<RawGroup> raw = raw_snapshot(id);
  out.reserve(raw.size());
  for (const RawGroup& g : raw) {
    out.push_back(render_row(qs->query, g));
  }
  return out;
}

void Engine::for_each_group_count(QueryId id, const GroupCountVisitor& fn,
                                  GroupOrder order) {
  const QueryState* qs = find_query(id);
  if (qs == nullptr) {
    return;
  }
  const std::size_t width = qs->stride - kKeyWord;
  std::array<KeyValue, kMaxGroupBy> key;
  const auto visit = [&](std::uint32_t s) {
    key_of(*qs, s, key);
    fn({key.data(), width}, qs->group(s)[0]);
  };
  if (order == GroupOrder::kUnordered) {
    // Pool order: deterministic for a given event history, no sort, no
    // allocation — for consumers that scatter into dense arrays.
    for (std::uint32_t s = 0; s < qs->slot_count(); ++s) {
      if (qs->group(s)[0] > 0) {
        visit(s);
      }
    }
    return;
  }
  sorted_slots(*qs, visit_scratch_);
  for (const std::uint32_t s : visit_scratch_) {
    visit(s);
  }
}

std::optional<ResultRow> Engine::group_row(QueryId id, std::span<const KeyValue> key) {
  const QueryState* qs = find_query(id);
  if (qs == nullptr) {
    return std::nullopt;
  }
  const auto raw = raw_group(id, key);
  if (!raw) {
    return std::nullopt;
  }
  return render_row(qs->query, *raw);
}

// ---------------------------------------------------------------------------
// Snapshot support. The layout is serialised verbatim — key texts, bucket
// table, slot pool, freelist, ring contents — rather than replayed, so probe
// sequences, slot reuse order and therefore every subsequent visit order are
// identical to the uninterrupted run. Doubles travel as raw bit patterns.
// ---------------------------------------------------------------------------

void Engine::save_state(snapshot::Writer& w) {
  w.u64(queries_.size());
  texts_.save(w);
  for (const QueryState& qs : queries_) {
    w.u64(qs.id.value());
    w.u32(static_cast<std::uint32_t>(qs.plan.numeric_aggs));
    w.u32(static_cast<std::uint32_t>(qs.stride));
    w.u64(qs.ring_seq.size());
    for (std::size_t i = 0; i < qs.ring_seq.size(); ++i) w.u64(qs.ring_seq[i]);
    w.u64(qs.ring_values.size());
    for (std::size_t i = 0; i < qs.ring_values.size(); ++i) w.f64(qs.ring_values[i]);

    w.u64(qs.buckets.size());
    for (const std::uint32_t b : qs.buckets) w.u32(b);
    w.u64(qs.pool.size());
    for (const std::uint64_t word : qs.pool) w.u64(word);
    for (const std::uint64_t s : qs.next_seq) w.u64(s);
    for (const double s : qs.sums) w.f64(s);
    for (const std::uint64_t n : qs.non_null) w.u64(n);
    for (const auto& dq : qs.mono) {
      w.u64(dq.size());
      for (const MonoEntry& m : dq) {
        w.f64(m.value);
        w.u64(m.seq);
      }
    }

    w.u64(qs.free_slots.size());
    for (const std::uint32_t s : qs.free_slots) w.u32(s);
    w.u64(qs.live_groups);
    w.u64(qs.bucket_used);
  }
  w.u64(windows_.size());
  for (const Window& win : windows_) {
    w.u64(win.members.size());
    for (const std::uint32_t m : win.members) w.u64(queries_[m].id.value());
    w.u64(win.times.size());
    for (std::size_t i = 0; i < win.times.size(); ++i) {
      w.i64(win.times[i]);
      for (std::size_t m = 0; m < win.members.size(); ++m) {
        w.u32(win.slots[i * win.members.size() + m]);
      }
    }
  }
  w.u64(ids_.peek());
  w.u64(events_processed_);
}

void Engine::load_state(snapshot::Reader& r) {
  const std::uint64_t nq = r.u64();
  if (!r.require(nq == queries_.size(), "engine query count")) return;
  texts_.load(r);
  for (QueryState& qs : queries_) {
    if (!r.ok()) return;
    const std::uint64_t id = r.u64();
    if (!r.require(id == qs.id.value(), "engine query id")) return;
    const std::uint32_t naggs = r.u32();
    if (!r.require(naggs == qs.plan.numeric_aggs, "query aggregate shape")) return;
    const std::uint32_t stride = r.u32();
    if (!r.require(stride == qs.stride, "query key width")) return;

    const std::uint64_t seq_n = r.u64();
    if (!r.require(seq_n <= r.remaining() / 8 + 1, "window sequence size")) return;
    qs.ring_seq.clear();
    for (std::uint64_t i = 0; i < seq_n && r.ok(); ++i) qs.ring_seq.push_back(r.u64());
    const std::uint64_t rv_n = r.u64();
    if (!r.require(rv_n == seq_n * naggs, "window values size")) return;
    qs.ring_values.clear();
    for (std::uint64_t i = 0; i < rv_n && r.ok(); ++i) qs.ring_values.push_back(r.f64());

    const std::uint64_t nbuckets = r.u64();
    if (!r.require(nbuckets <= r.remaining() / 4 + 1 && (nbuckets & (nbuckets - 1)) == 0,
                   "bucket table size")) {
      return;
    }
    qs.buckets.clear();
    qs.buckets.reserve(nbuckets);
    for (std::uint64_t i = 0; i < nbuckets && r.ok(); ++i) qs.buckets.push_back(r.u32());

    const std::uint64_t nwords = r.u64();
    if (!r.require(nwords <= r.remaining() / 8 + 1 && nwords % stride == 0,
                   "slot pool size")) {
      return;
    }
    qs.pool.clear();
    qs.pool.reserve(nwords);
    for (std::uint64_t i = 0; i < nwords && r.ok(); ++i) qs.pool.push_back(r.u64());
    const std::size_t nslots = qs.slot_count();
    const std::size_t nside = nslots * naggs;
    if (!r.require(nside <= r.remaining() / 8 + 1, "aggregate state size")) return;
    qs.next_seq.assign(naggs > 0 ? nslots : 0, 0);
    for (auto& s : qs.next_seq) s = r.u64();
    qs.sums.assign(nside, 0.0);
    for (auto& s : qs.sums) s = r.f64();
    qs.non_null.assign(nside, 0);
    for (auto& n : qs.non_null) n = r.u64();
    qs.mono.assign(nside, {});
    for (auto& dq : qs.mono) {
      const std::uint64_t dn = r.u64();
      if (!r.require(dn <= r.remaining() / 16 + 1, "mono deque size")) return;
      for (std::uint64_t j = 0; j < dn && r.ok(); ++j) {
        MonoEntry m;
        m.value = r.f64();
        m.seq = r.u64();
        dq.push_back(m);
      }
    }

    const std::uint64_t nfree = r.u64();
    if (!r.require(nfree <= nslots, "freelist size")) return;
    qs.free_slots.clear();
    for (std::uint64_t i = 0; i < nfree && r.ok(); ++i) {
      const std::uint32_t s = r.u32();
      if (!r.require(s < nslots, "freelist entry")) return;
      qs.free_slots.push_back(s);
    }
    qs.live_groups = r.u64();
    qs.bucket_used = r.u64();

    // Every index the hot path follows must land inside the restored state.
    for (const std::uint32_t b : qs.buckets) {
      if (!r.require(b >= kTombBucket || b < nslots, "bucket entry")) return;
    }
    for (std::uint32_t s = 0; s < nslots; ++s) {
      const std::uint64_t* g = qs.group(s);
      if (g[0] == 0) {
        continue;
      }
      if (!r.require(bucket_of(g) < nbuckets && qs.buckets[bucket_of(g)] == s,
                     "group bucket index")) {
        return;
      }
      for (std::size_t c = 0; c + kKeyWord < stride; ++c) {
        if (is_text(kind_at(tags_of(g), c)) &&
            !r.require(texts_.valid(static_cast<std::uint32_t>(g[kKeyWord + c])),
                       "group key text")) {
          return;
        }
      }
    }
  }

  const std::uint64_t nw = r.u64();
  if (!r.require(nw == windows_.size(), "engine window count")) return;
  std::vector<std::uint64_t> matched(queries_.size());
  for (Window& win : windows_) {
    const std::uint64_t nm = r.u64();
    if (!r.require(nm == win.members.size(), "window member count")) return;
    for (const std::uint32_t m : win.members) {
      if (!r.require(r.u64() == queries_[m].id.value(), "window member")) return;
    }
    const std::uint64_t entries = r.u64();
    if (!r.require(entries <= r.remaining() / (8 + 4 * nm) + 1, "window ring size")) return;
    win.times.clear();
    win.slots.clear();
    for (std::uint64_t i = 0; i < entries && r.ok(); ++i) {
      win.times.push_back(r.i64());
      for (const std::uint32_t m : win.members) {
        const std::uint32_t slot = r.u32();
        if (slot != kNoGroup) {
          if (!r.require(slot < queries_[m].slot_count() && queries_[m].group(slot)[0] > 0,
                         "window entry group")) {
            return;
          }
          ++matched[m];
        }
        win.slots.push_back(slot);
      }
    }
  }
  for (std::size_t q = 0; q < queries_.size(); ++q) {
    if (!r.require(queries_[q].plan.numeric_aggs == 0 || queries_[q].ring_seq.size() == matched[q],
                   "window aggregate inputs")) {
      return;
    }
  }
  ids_.reset(r.u64());
  events_processed_ = r.u64();
}

}  // namespace erms::cep
