#include "judge/feed.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <string>
#include <string_view>

#include "cep/epl_parser.h"
#include "snapshot/codec.h"

namespace erms::judge {

namespace {

// The standing queries' `cmd` literals.
constexpr std::string_view kOpen = "open";
constexpr std::string_view kRead = "read";

std::string window_clause(sim::SimDuration window) {
  return " WINDOW TIME " + std::to_string(window.seconds()) + "s";
}

std::string count_query(std::string_view cmd, const char* group_by, sim::SimDuration window) {
  return "SELECT count(*) AS n FROM audit WHERE cmd == \"" + std::string(cmd) +
         "\" GROUP BY " + group_by + window_clause(window);
}

/// Whether `cmd` matches the queries' `cmd == "<want>"`: ClassAd compares
/// strings ignoring case, and T_a must agree with the windowed counts.
bool cmd_is(std::string_view cmd, std::string_view want) {
  return std::equal(cmd.begin(), cmd.end(), want.begin(), want.end(), [](char a, char b) {
    return std::tolower(static_cast<unsigned char>(a)) == b;
  });
}

/// A key component as a FileId; FileId{0} (never a valid id) unless it is a
/// positive int in range.
hdfs::FileId as_fid(const cep::KeyValue& v) {
  if (v.kind != cep::KeyKind::kInt || v.i <= 0 ||
      v.i > static_cast<std::int64_t>(std::numeric_limits<hdfs::FileId::rep_type>::max())) {
    return hdfs::FileId{0};
  }
  return hdfs::FileId{static_cast<hdfs::FileId::rep_type>(v.i)};
}

bool is_int(const cep::KeyValue& v) { return v.kind == cep::KeyKind::kInt; }

}  // namespace

AccessStatsFeed::AccessStatsFeed(cep::EngineBase& engine, sim::SimDuration window)
    : engine_(engine),
      // The judge's standing queries, written in the engine's EPL. All
      // grouping is by the interned fid — an int key word — instead of the
      // path string.
      file_query_(engine.register_query(cep::parse_epl(count_query(kOpen, "fid", window)))),
      block_query_(
          engine.register_query(cep::parse_epl(count_query(kRead, "fid, blk", window)))),
      node_query_(engine.register_query(cep::parse_epl(count_query(kRead, "dn", window)))),
      file_node_query_(
          engine.register_query(cep::parse_epl(count_query(kRead, "fid, dn", window)))),
      slots_(audit::AuditSlots::resolve(engine.attr_symbols(), engine.stream_symbols())) {
  slots_.read = &engine.read_attrs();
}

void AccessStatsFeed::note_access(const audit::AuditEvent& event) {
  ++events_ingested_;
  if (event.fid > 0 && (cmd_is(event.cmd, kOpen) || cmd_is(event.cmd, kRead))) {
    const auto idx = static_cast<std::size_t>(event.fid);
    if (last_access_.size() <= idx) {
      last_access_.resize(idx + 1);
    }
    last_access_[idx] = event.time;
  }
}

void AccessStatsFeed::on_audit(const audit::AuditEvent& event) {
  note_access(event);
  event.to_slotted(slots_, scratch_);
  engine_.push_slotted(scratch_);
}

void AccessStatsFeed::on_audit_batch(const audit::AuditEvent* events, std::size_t count) {
  // Feed the engine in bounded chunks: the engine runs each chunk through
  // every query, so a chunk that fits in cache is read hot on every pass
  // where an unbounded batch would stream from memory each time. Chunk
  // boundaries are unobservable — push_batch(a+b) ≡ push_batch(a),
  // push_batch(b) — so any caller batch size yields identical state.
  constexpr std::size_t kEngineChunk = 4096;
  for (std::size_t base = 0; base < count; base += kEngineChunk) {
    const std::size_t n = std::min(kEngineChunk, count - base);
    batch_.clear();  // keeps the slotted events' capacity for reuse
    for (std::size_t i = 0; i < n; ++i) {
      const audit::AuditEvent& event = events[base + i];
      note_access(event);
      event.to_slotted(slots_, batch_.emplace_back());
    }
    engine_.push_batch(batch_);
  }
}

void AccessStatsFeed::advance_to(sim::SimTime now) { engine_.advance_to(now); }

std::uint64_t AccessStatsFeed::file_accesses(hdfs::FileId file) const {
  const auto row =
      engine_.group_row(file_query_, {cep::KeyValue{static_cast<std::int64_t>(file.value())}});
  if (!row) {
    return 0;
  }
  return static_cast<std::uint64_t>(row->values.get_int("n").value_or(0));
}

void AccessStatsFeed::for_each_file_access(
    const std::function<void(hdfs::FileId, std::uint64_t)>& fn,
    cep::GroupOrder order) const {
  engine_.for_each_group_count(
      file_query_,
      [&](std::span<const cep::KeyValue> key, std::uint64_t n) {
        const hdfs::FileId fid = as_fid(key[0]);
        if (fid.value() != 0) {
          fn(fid, n);
        }
      },
      order);
}

void AccessStatsFeed::for_each_block_access(
    const std::function<void(hdfs::FileId, std::int64_t, std::uint64_t)>& fn,
    cep::GroupOrder order) const {
  engine_.for_each_group_count(
      block_query_,
      [&](std::span<const cep::KeyValue> key, std::uint64_t n) {
        const hdfs::FileId fid = as_fid(key[0]);
        if (fid.value() != 0 && is_int(key[1])) {
          fn(fid, key[1].i, n);
        }
      },
      order);
}

void AccessStatsFeed::for_each_node_access(
    const std::function<void(std::int64_t, std::uint64_t)>& fn) const {
  engine_.for_each_group_count(
      node_query_, [&](std::span<const cep::KeyValue> key, std::uint64_t n) {
        if (is_int(key[0])) {
          fn(key[0].i, n);
        }
      });
}

void AccessStatsFeed::for_each_file_node_access(
    const std::function<void(hdfs::FileId, std::int64_t, std::uint64_t)>& fn) const {
  engine_.for_each_group_count(
      file_node_query_, [&](std::span<const cep::KeyValue> key, std::uint64_t n) {
        const hdfs::FileId fid = as_fid(key[0]);
        if (fid.value() != 0 && is_int(key[1])) {
          fn(fid, key[1].i, n);
        }
      });
}

void AccessStatsFeed::for_each_file_access_on_node(
    std::int64_t datanode,
    const std::function<void(hdfs::FileId, std::uint64_t)>& fn) const {
  engine_.for_each_group_count(
      file_node_query_, [&](std::span<const cep::KeyValue> key, std::uint64_t n) {
        const hdfs::FileId fid = as_fid(key[0]);
        if (fid.value() != 0 && is_int(key[1]) && key[1].i == datanode) {
          fn(fid, n);
        }
      });
}

sim::SimTime AccessStatsFeed::last_access(hdfs::FileId file) const {
  if (file.value() >= last_access_.size()) {
    return sim::SimTime{0};
  }
  return last_access_[file.value()];
}

std::vector<hdfs::FileId> AccessStatsFeed::active_files() const {
  std::vector<hdfs::FileId> out;
  for_each_file_access([&](hdfs::FileId fid, std::uint64_t) { out.push_back(fid); });
  return out;
}

void AccessStatsFeed::save_state(snapshot::Writer& w) const {
  w.u64(last_access_.size());
  for (const sim::SimTime t : last_access_) w.i64(t.micros());
  w.u64(events_ingested_);
}

void AccessStatsFeed::load_state(snapshot::Reader& r) {
  const std::uint64_t n = r.u64();
  if (!r.require(n <= r.remaining() / sizeof(std::int64_t) + 1, "last-access table size")) return;
  last_access_.clear();
  last_access_.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    last_access_.push_back(sim::SimTime{r.i64()});
  }
  events_ingested_ = r.u64();
}

}  // namespace erms::judge
