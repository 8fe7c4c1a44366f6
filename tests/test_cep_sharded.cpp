// Differential and oracle tests for the audit ingest pipeline. The
// ShardedEngine must produce byte-identical snapshots to the scalar engine,
// the scalar engine must match brute-force recounts, and every compiled
// WHERE predicate must agree with the ClassAd expression it came from.
// Workloads are randomized (fixed seeds) over every aggregate kind, time and
// length windows, group churn and eviction. Numeric attribute values are
// integers so sums are exact in double arithmetic — cross-shard merge order
// must not be able to change a correct result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "cep/engine.h"
#include "cep/epl_parser.h"
#include "cep/sharded_engine.h"
#include "cep_test_event.h"
#include "classad/classad.h"
#include "classad/parser.h"

namespace erms::cep {
namespace {

/// A randomized audit-like workload with monotone non-decreasing times.
/// `files` controls group churn: small pools revisit groups, large pools
/// keep creating (and evicting) fresh ones.
std::vector<TestEvent> make_workload(std::uint32_t seed, int n, int files) {
  std::mt19937 rng{seed};
  std::vector<TestEvent> events;
  events.reserve(static_cast<std::size_t>(n));
  std::int64_t t_us = 0;
  for (int i = 0; i < n; ++i) {
    t_us += static_cast<std::int64_t>(rng() % 2000);  // repeats timestamps too
    const char* cmds[] = {"open", "read", "write", "delete"};
    TestEvent e{sim::SimTime{t_us}, rng() % 10 == 0 ? "other" : "audit"};
    e.with_string("cmd", cmds[rng() % 4]);
    e.with_string("src", "/data/f" + std::to_string(rng() % static_cast<std::uint32_t>(files)));
    e.with_int("blk", static_cast<std::int64_t>(rng() % 64));
    e.with_int("dn", static_cast<std::int64_t>(rng() % 12));
    if (rng() % 5 != 0) {  // sometimes absent: exercises null aggregate inputs
      e.with_int("bytes", static_cast<std::int64_t>(rng() % 100000));
    }
    if (rng() % 7 == 0) {
      e.with_bool("allowed", rng() % 2 == 0);
    }
    events.push_back(std::move(e));
  }
  return events;
}

/// Queries covering every aggregate kind, WHERE shapes on and off the fast
/// path, multi-attribute group-bys and a global (no group-by) aggregate.
std::vector<std::string> time_window_queries() {
  return {
      "SELECT count(*) AS n FROM audit WHERE cmd == \"open\" GROUP BY src WINDOW TIME 20s",
      "SELECT count(*) AS n, sum(bytes) AS s, avg(bytes) AS a, min(bytes) AS mn, "
      "max(bytes) AS mx FROM audit WHERE cmd == \"read\" GROUP BY src WINDOW TIME 12s",
      "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY src, blk WINDOW TIME 8s",
      "SELECT count(*) AS n, max(bytes) AS mx FROM audit GROUP BY dn WINDOW TIME 30s",
      "SELECT count(*) AS n, min(bytes) AS mn FROM audit WHERE allowed GROUP BY src "
      "WINDOW TIME 15s",
      "SELECT sum(bytes) AS s, avg(bytes) AS a FROM audit WHERE cmd != \"delete\" "
      "WINDOW TIME 10s",
      "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" && dn >= 6 GROUP BY dn "
      "WINDOW TIME 25s",
  };
}

std::vector<QueryId> register_all(EngineBase& engine, const std::vector<std::string>& epl) {
  std::vector<QueryId> ids;
  ids.reserve(epl.size());
  for (const std::string& q : epl) {
    ids.push_back(engine.register_query(parse_epl(q)));
  }
  return ids;
}

/// Push the same events through both engines, comparing every query's
/// snapshot at periodic checkpoints and after a final advance past the
/// longest window.
void run_differential(EngineBase& reference, EngineBase& candidate,
                      const std::vector<TestEvent>& events,
                      const std::vector<std::string>& epl, int checkpoint_every,
                      bool expect_drain = true) {
  const std::vector<QueryId> ref_ids = register_all(reference, epl);
  const std::vector<QueryId> cand_ids = register_all(candidate, epl);
  ASSERT_EQ(ref_ids.size(), cand_ids.size());
  int since_check = 0;
  for (const TestEvent& e : events) {
    push(reference, e);
    push(candidate, e);
    if (++since_check >= checkpoint_every) {
      since_check = 0;
      // Align both engines' notion of "now" before reading (the sharded
      // engine drains and advances its shards on read).
      reference.advance_to(e.time);
      candidate.advance_to(e.time);
      for (std::size_t q = 0; q < ref_ids.size(); ++q) {
        ASSERT_EQ(render(reference.snapshot(ref_ids[q])),
                  render(candidate.snapshot(cand_ids[q])))
            << "query " << q << " diverged at t=" << e.time;
      }
    }
  }
  // Advance far past every window: both must drain to empty the same way.
  const sim::SimTime far{events.back().time + sim::seconds(120.0)};
  reference.advance_to(far);
  candidate.advance_to(far);
  for (std::size_t q = 0; q < ref_ids.size(); ++q) {
    const std::string ref_rows = render(reference.snapshot(ref_ids[q]));
    EXPECT_EQ(ref_rows, render(candidate.snapshot(cand_ids[q]))) << "query " << q;
    if (expect_drain) {  // time windows empty out; length windows keep N
      EXPECT_TRUE(ref_rows.empty()) << "window failed to drain for query " << q;
    }
  }
}

TEST(CepDifferential, ShardedMatchesScalarAcrossShardCounts) {
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    for (const std::size_t batch : {32u, 256u}) {
      Engine scalar;
      ShardedEngineOptions opts;
      opts.shards = shards;
      opts.batch_events = batch;
      ShardedEngine sharded(opts);
      run_differential(scalar, sharded,
                       make_workload(40 + static_cast<std::uint32_t>(shards), 4000, 50),
                       time_window_queries(), 401);
    }
  }
}

TEST(CepDifferential, LengthWindowsMatchAtOneShard) {
  // LENGTH windows are shard-local by design; equivalence holds at 1 shard.
  const std::vector<std::string> epl = {
      "SELECT count(*) AS n, sum(bytes) AS s, min(bytes) AS mn, max(bytes) AS mx "
      "FROM audit WHERE cmd == \"read\" GROUP BY src WINDOW LENGTH 64",
      "SELECT count(*) AS n FROM audit GROUP BY dn WINDOW LENGTH 7",
  };
  Engine scalar;
  ShardedEngineOptions opts;
  opts.shards = 1;
  opts.batch_events = 64;
  ShardedEngine sharded(opts);
  run_differential(scalar, sharded, make_workload(11, 3000, 20), epl, 311,
                   /*expect_drain=*/false);
}

TEST(CepDifferential, GroupChurnAndEvictionUnderTinyWindow) {
  // 2s window + ~1ms..2s inter-arrival: groups constantly appear, empty out
  // and get re-created, on both sides of the shard boundary.
  const std::vector<std::string> epl = {
      "SELECT count(*) AS n, max(bytes) AS mx FROM audit GROUP BY src WINDOW TIME 2s",
      "SELECT count(*) AS n, min(bytes) AS mn FROM audit GROUP BY src, dn WINDOW TIME 2s",
  };
  for (const std::uint32_t seed : {5u, 6u}) {
    Engine scalar;
    ShardedEngineOptions opts;
    opts.shards = 4;
    opts.batch_events = 16;
    ShardedEngine sharded(opts);
    run_differential(scalar, sharded, make_workload(seed, 5000, 500), epl, 199);
  }
}

// ---------- compiled WHERE predicates vs ClassAd strict truth ----------

/// The event as a ClassAd, which the oracle evaluates the WHERE against.
classad::ClassAd to_classad(const TestEvent& e) {
  classad::ClassAd ad;
  for (const auto& [name, v] : e.attrs) {
    switch (v.kind) {
      case SlotValue::Kind::kBool:
        ad.insert_bool(name, v.b);
        break;
      case SlotValue::Kind::kInt:
        ad.insert_int(name, v.i);
        break;
      case SlotValue::Kind::kReal:
        ad.insert_real(name, v.r);
        break;
      case SlotValue::Kind::kString:
        ad.insert_string(name, v.s);
        break;
      case SlotValue::Kind::kNull:
        break;
    }
  }
  return ad;
}

/// WHERE clauses beyond time_window_queries(), one per semantic edge the
/// compiler must reproduce.
std::vector<std::string> edge_wheres() {
  return {
      "missing == 3", "missing", "missing != \"x\"",          // absent attribute
      "cmd == 5", "dn == \"3\"", "dn < \"9\"",                 // string vs int
      "cmd == \"OPEN\"", "cmd < \"Read\"", "cmd >= \"rEaD\"",  // case folding
      "ratio == 2", "ratio > 1", "dn == 3.0", "dn <= 2.5",     // int vs real
      "allowed < true", "allowed >= false", "allowed == true", "allowed != false",
      "5 < dn", "3 >= dn", "\"open\" == cmd", "\"m\" < cmd", "2.5 <= ratio",  // flip
      "dn == undefined", "undefined != cmd", "cmd == error",    // UNDEFINED/ERROR literal
      "MY.dn >= 6", "MY.cmd == \"read\" && allowed",             // MY. scope
      "ratio", "dn", "cmd", "allowed",                          // bare truth tests
      "cmd == \"read\" && dn >= 6 && ratio < 2",
  };
}

/// Events that hit each edge: no attributes at all, mixed-case strings,
/// reals equal to and between ints, zero and non-zero truth values, and a
/// `dn` that is a string or a real instead of an int.
std::vector<TestEvent> edge_events() {
  std::vector<TestEvent> events;
  const sim::SimTime t{1};
  events.emplace_back(t, "audit");
  for (const char* cmd : {"OPEN", "open", "Read", "rEaD", "delete", "M", ""}) {
    events.emplace_back(t, "audit");
    events.back().with_string("cmd", cmd);
  }
  for (const double ratio : {0.0, 1.0, 2.0, 2.5, -1.0}) {
    for (const std::int64_t dn : {0, 3, 6}) {
      events.emplace_back(t, "audit");
      events.back().with_real("ratio", ratio).with_int("dn", dn).with_string("cmd", "read");
    }
  }
  for (const bool allowed : {true, false}) {
    events.emplace_back(t, "audit");
    events.back().with_bool("allowed", allowed).with_string("cmd", "READ").with_int("dn", 7);
  }
  events.emplace_back(t, "audit");
  events.back().with_string("dn", "3").with_string("missing", "x");
  events.emplace_back(t, "audit");
  events.back().with_real("dn", 3.0).with_int("missing", 3);
  events.emplace_back(t, "audit");
  events.back().with_bool("dn", true).with_bool("ratio", false).with_int("cmd", 5);
  return events;
}

TEST(CepPredicateOracle, CompiledWhereMatchesClassAdStrictTruth) {
  std::vector<std::string> wheres;
  for (const std::string& epl : time_window_queries()) {
    if (const Query q = parse_epl(epl); q.where) {
      wheres.push_back(q.where->unparse());
    }
  }
  const std::vector<std::string> edges = edge_wheres();
  wheres.insert(wheres.end(), edges.begin(), edges.end());
  std::vector<TestEvent> events = make_workload(3, 2000, 50);
  for (TestEvent& e : edge_events()) {
    events.push_back(std::move(e));
  }
  std::size_t ever_true = 0;  // WHERE clauses some event satisfies
  for (const std::string& where : wheres) {
    SCOPED_TRACE("WHERE " + where);
    Engine engine;  // supplies the symbol tables both sides intern into
    Query q;
    q.from = "audit";
    q.where = classad::parse_expr(where);
    const CompiledQuery plan =
        CompiledQuery::compile(q, engine.attr_symbols(), engine.stream_symbols());
    ASSERT_FALSE(plan.preds.empty());
    SlottedEvent slotted;
    bool any = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
      events[i].to_slotted(engine, slotted);
      const bool fast = std::all_of(plan.preds.begin(), plan.preds.end(),
                                    [&](const FastPred& p) { return eval_fast_pred(p, slotted); });
      const classad::Value v = to_classad(events[i]).evaluate_expr(*q.where);
      ASSERT_EQ(fast, v.is_bool() && v.as_bool()) << "event " << i;
      any = any || fast;
    }
    ever_true += any ? 1 : 0;
  }
  // Most clauses select something, so the agreement above is not vacuous.
  EXPECT_GT(ever_true, wheres.size() / 2);
}

/// Brute-force oracle: recompute one query's windowed aggregates straight
/// from the event list and compare against the engine. Guards against the
/// reference engine and the candidates being identically wrong.
TEST(CepOracle, ScalarEngineMatchesBruteForce) {
  const sim::SimDuration window = sim::seconds(12.0);
  Engine engine;
  const QueryId id = engine.register_query(parse_epl(
      "SELECT count(*) AS n, sum(bytes) AS s, min(bytes) AS mn, max(bytes) AS mx "
      "FROM audit WHERE cmd == \"read\" GROUP BY src WINDOW TIME 12s"));
  const std::vector<TestEvent> events = make_workload(21, 3000, 25);
  std::vector<const TestEvent*> matched;  // in arrival order
  int i = 0;
  for (const TestEvent& e : events) {
    push(engine, e);
    if (e.stream == "audit" && e.get_string("cmd") == "read") {
      matched.push_back(&e);
    }
    if (++i % 500 != 0) {
      continue;
    }
    const sim::SimTime cutoff = e.time - window;
    struct Agg {
      std::int64_t n{0};
      std::int64_t sum{0};
      std::int64_t mn{0};
      std::int64_t mx{0};
      bool any_bytes{false};
    };
    std::map<std::string, Agg> expect;
    for (const TestEvent* m : matched) {
      if (m->time <= cutoff) {
        continue;  // evicted
      }
      Agg& a = expect[*m->get_string("src")];
      ++a.n;
      if (const auto b = m->get_int("bytes")) {
        a.sum += *b;
        a.mn = a.any_bytes ? std::min(a.mn, *b) : *b;
        a.mx = a.any_bytes ? std::max(a.mx, *b) : *b;
        a.any_bytes = true;
      }
    }
    const std::vector<ResultRow> rows = engine.snapshot(id);
    ASSERT_EQ(rows.size(), expect.size()) << "at t=" << e.time;
    for (const ResultRow& row : rows) {
      const auto src = row.values.get_string("src");
      ASSERT_TRUE(src.has_value());
      const auto it = expect.find(*src);
      ASSERT_NE(it, expect.end()) << "unexpected group " << *src;
      EXPECT_EQ(row.values.get_int("n").value_or(-1), it->second.n) << *src;
      EXPECT_EQ(row.values.get_real("s").value_or(-1),
                static_cast<double>(it->second.sum))
          << *src;
      if (it->second.any_bytes) {
        EXPECT_EQ(row.values.get_real("mn").value_or(-1),
                  static_cast<double>(it->second.mn))
            << *src;
        EXPECT_EQ(row.values.get_real("mx").value_or(-1),
                  static_cast<double>(it->second.mx))
            << *src;
      } else {
        EXPECT_FALSE(row.values.get_real("mn").has_value()) << *src;
        EXPECT_FALSE(row.values.get_real("mx").has_value()) << *src;
      }
    }
  }
}

/// An audit record as a named-attribute event: the attribute set the audit
/// stream publishes, written out independently of AuditEvent::to_slotted.
TestEvent named_audit(const audit::AuditEvent& a) {
  TestEvent e{a.time, audit::AuditEvent::kStream};
  e.with_bool("allowed", a.allowed)
      .with_string("ugi", a.ugi)
      .with_string("ip", a.ip)
      .with_string("cmd", a.cmd)
      .with_string("src", a.src);
  if (!a.dst.empty()) {
    e.with_string("dst", a.dst);
  }
  if (a.block) {
    e.with_int("blk", *a.block);
  }
  if (a.datanode) {
    e.with_int("dn", *a.datanode);
  }
  if (a.fid != 0) {
    e.with_int("fid", a.fid);
  }
  return e;
}

TEST(CepSharded, SlottedAuditPathMatchesNamedEvents) {
  // The feed's real ingest shape: AuditEvent::to_slotted into a reused
  // event and a sharded engine, versus the same records as named-attribute
  // events into a scalar engine.
  Engine scalar;
  ShardedEngineOptions opts;
  opts.shards = 4;
  opts.batch_events = 64;
  ShardedEngine sharded(opts);
  const std::vector<std::string> epl = {
      "SELECT count(*) AS n FROM audit WHERE cmd == \"open\" GROUP BY src WINDOW TIME 60s",
      "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY src, blk WINDOW TIME 60s",
      "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY dn WINDOW TIME 60s",
  };
  const std::vector<QueryId> sids = register_all(scalar, epl);
  const std::vector<QueryId> hids = register_all(sharded, epl);
  const audit::AuditSlots slots =
      audit::AuditSlots::resolve(sharded.attr_symbols(), sharded.stream_symbols());
  SlottedEvent scratch;
  std::mt19937 rng{99};
  std::int64_t t_us = 0;
  for (int i = 0; i < 5000; ++i) {
    t_us += static_cast<std::int64_t>(rng() % 5000);
    audit::AuditEvent e;
    e.time = sim::SimTime{t_us};
    e.cmd = (rng() % 3 == 0) ? "open" : "read";
    e.src = "/data/part-" + std::to_string(rng() % 40);
    e.block = static_cast<std::int64_t>(rng() % 200);
    e.datanode = static_cast<std::int64_t>(rng() % 16);
    push(scalar, named_audit(e));
    e.to_slotted(slots, scratch);
    sharded.push_slotted(scratch);
  }
  const sim::SimTime now{t_us};
  scalar.advance_to(now);
  sharded.advance_to(now);
  for (std::size_t q = 0; q < epl.size(); ++q) {
    EXPECT_EQ(render(scalar.snapshot(sids[q])), render(sharded.snapshot(hids[q])))
        << "query " << q;
  }
  EXPECT_EQ(scalar.events_processed(), sharded.events_processed());
}

TEST(CepSharded, RegisterAndRemoveFanOut) {
  ShardedEngineOptions opts;
  opts.shards = 3;
  ShardedEngine engine(opts);
  const QueryId a = engine.register_query(
      parse_epl("SELECT count(*) AS n FROM audit GROUP BY src WINDOW TIME 10s"));
  const QueryId b = engine.register_query(
      parse_epl("SELECT count(*) AS n FROM audit GROUP BY dn WINDOW TIME 10s"));
  EXPECT_NE(a, b);
  EXPECT_EQ(engine.query_count(), 2u);
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    EXPECT_EQ(engine.shard(s).query_count(), 2u);
  }
  EXPECT_TRUE(engine.remove_query(a));
  EXPECT_FALSE(engine.remove_query(a));
  EXPECT_EQ(engine.query_count(), 1u);

  TestEvent e{sim::SimTime{1000}, "audit"};
  e.with_string("src", "/x").with_int("dn", 3);
  push(engine, e);
  const auto rows = engine.snapshot(b);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].values.get_int("n"), 1);
  EXPECT_TRUE(engine.snapshot(a).empty());
}

// ---------- typed group keys vs a brute-force recount ----------

/// A group key as the oracle sees it: each component's kind and rendering.
using OracleKey = std::vector<std::pair<KeyKind, std::string>>;

OracleKey oracle_key(const TestEvent& e, const std::vector<std::string>& group_by) {
  OracleKey key;
  for (const std::string& attr : group_by) {
    const SlotValue* v = e.find(attr);
    switch (v == nullptr ? SlotValue::Kind::kNull : v->kind) {
      case SlotValue::Kind::kInt:
        key.emplace_back(KeyKind::kInt, std::to_string(v->i));
        break;
      case SlotValue::Kind::kReal: {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%g", v->r);
        key.emplace_back(KeyKind::kReal, buf);
        break;
      }
      case SlotValue::Kind::kString:
        key.emplace_back(KeyKind::kString, v->s);
        break;
      case SlotValue::Kind::kBool:
        key.emplace_back(KeyKind::kBool, v->b ? "true" : "false");
        break;
      case SlotValue::Kind::kNull:
        key.emplace_back(KeyKind::kAbsent, "");
        break;
    }
  }
  return key;
}

OracleKey engine_key(std::span<const KeyValue> key) {
  OracleKey out;
  for (const KeyValue& v : key) {
    std::string text;
    append_rendered(text, v);
    out.emplace_back(v.kind, text);
  }
  return out;
}

/// A key's renderings joined with '\x1f': kSorted follows this text's byte
/// order.
std::string joined(const OracleKey& key) {
  std::string out;
  for (std::size_t i = 0; i < key.size(); ++i) {
    out += (i == 0 ? "" : "\x1f") + key[i].second;
  }
  return out;
}

/// Events over every key kind: an absent `blk` on some reads, negative ints
/// and an absent first component in (a, b), strings (`user`, `cmd`, `src`),
/// reals that collide once rendered (`k`), and an int 5 beside a string "5"
/// (`m`).
std::vector<TestEvent> make_keyed_workload(std::uint32_t seed, int n) {
  std::mt19937 rng{seed};
  std::vector<TestEvent> events;
  std::int64_t t_us = 0;
  const char* cmds[] = {"open", "read", "write"};
  const char* users[] = {"alice", "bob", "10", "2", ""};
  const double reals[] = {0.5, -3.25, 1.0000001, 1.0000002, 1e-7, 250000.0};
  for (int i = 0; i < n; ++i) {
    t_us += static_cast<std::int64_t>(rng() % 400'000);
    TestEvent e{sim::SimTime{t_us}, "s"};
    e.with_string("cmd", cmds[rng() % 3]);
    e.with_int("fid", static_cast<std::int64_t>(1 + rng() % 12));
    if (rng() % 4 != 0) {
      e.with_int("blk", static_cast<std::int64_t>(100 + rng() % 3));
    }
    if (rng() % 3 != 0) {
      e.with_int("a", static_cast<std::int64_t>(rng() % 11) - 5);
    }
    e.with_int("b", static_cast<std::int64_t>(rng() % 7) - 3);
    e.with_string("user", users[rng() % 5]);
    e.with_real("k", reals[rng() % 6]);
    e.with_string("src", "/d/f" + std::to_string(rng() % 15));
    e.with_int("dn", static_cast<std::int64_t>(rng() % 6));
    switch (rng() % 3) {
      case 0:
        e.with_int("m", 5);
        break;
      case 1:
        e.with_string("m", "5");
        break;
      default:
        break;
    }
    events.push_back(std::move(e));
  }
  return events;
}

struct KeyedQuery {
  std::string epl;
  bool reads_only;  // WHERE cmd == "read"
};

std::vector<KeyedQuery> keyed_queries() {
  return {
      {"SELECT count(*) AS n FROM s WHERE cmd == \"read\" GROUP BY fid, blk WINDOW TIME 5s",
       true},
      {"SELECT count(*) AS n FROM s GROUP BY a, b WINDOW TIME 7s", false},
      {"SELECT count(*) AS n FROM s GROUP BY user WINDOW TIME 4s", false},
      {"SELECT count(*) AS n FROM s GROUP BY k WINDOW TIME 6s", false},
      {"SELECT count(*) AS n FROM s GROUP BY cmd WINDOW TIME 5s", false},
      {"SELECT count(*) AS n FROM s GROUP BY src, dn WINDOW TIME 3s", false},
      {"SELECT count(*) AS n FROM s GROUP BY m WINDOW TIME 5s", false},
  };
}

/// Push the workload, and at every checkpoint recount each query's window
/// from the raw events: the typed groups, their counts, both visit orders,
/// and the snapshot rows must all agree with the recount.
void check_keyed_recount(EngineBase& engine, std::uint32_t seed) {
  const std::vector<KeyedQuery> queries = keyed_queries();
  std::vector<QueryId> ids;
  std::vector<Query> parsed;
  for (const KeyedQuery& q : queries) {
    parsed.push_back(parse_epl(q.epl));
    ids.push_back(engine.register_query(parse_epl(q.epl)));
  }
  const std::vector<TestEvent> events = make_keyed_workload(seed, 1500);
  for (std::size_t i = 0; i < events.size(); ++i) {
    push(engine, events[i]);
    if ((i + 1) % 250 != 0) {
      continue;
    }
    const sim::SimTime now = events[i].time;
    engine.advance_to(now);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      SCOPED_TRACE(queries[q].epl + " at event " + std::to_string(i));
      std::map<OracleKey, std::uint64_t> want;
      for (std::size_t j = 0; j <= i; ++j) {
        const TestEvent& e = events[j];
        if (e.time <= now - parsed[q].window.duration) {
          continue;
        }
        if (queries[q].reads_only && e.get_string("cmd") != "read") {
          continue;
        }
        ++want[oracle_key(e, parsed[q].group_by)];
      }
      std::map<OracleKey, std::uint64_t> sorted;
      std::vector<OracleKey> order;
      engine.for_each_group_count(ids[q], [&](std::span<const KeyValue> key, std::uint64_t n) {
        order.push_back(engine_key(key));
        sorted[order.back()] = n;
      });
      EXPECT_EQ(sorted, want);
      ASSERT_EQ(order.size(), want.size()) << "a group was visited twice";
      for (std::size_t k = 1; k < order.size(); ++k) {
        EXPECT_LE(joined(order[k - 1]), joined(order[k]))
            << "kSorted must follow the joined renderings' byte order";
      }
      std::map<OracleKey, std::uint64_t> unordered;
      engine.for_each_group_count(
          ids[q],
          [&](std::span<const KeyValue> key, std::uint64_t n) { unordered[engine_key(key)] = n; },
          GroupOrder::kUnordered);
      EXPECT_EQ(unordered, want);
      const std::vector<ResultRow> rows = engine.snapshot(ids[q]);
      ASSERT_EQ(rows.size(), order.size());
      for (std::size_t k = 0; k < rows.size(); ++k) {
        for (std::size_t c = 0; c < parsed[q].group_by.size(); ++c) {
          EXPECT_EQ(rows[k].values.get_string(parsed[q].group_by[c]), order[k][c].second);
        }
        EXPECT_EQ(rows[k].values.get_int("n"), static_cast<std::int64_t>(sorted[order[k]]));
      }
    }
  }
}

class TypedKeyRecount : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TypedKeyRecount, ScalarEngine) {
  Engine engine;
  check_keyed_recount(engine, GetParam());
}

TEST_P(TypedKeyRecount, ShardedEngine) {
  ShardedEngineOptions opts;
  opts.shards = 3;
  opts.batch_events = 16;
  ShardedEngine engine{opts};
  check_keyed_recount(engine, GetParam());
}

TEST_P(TypedKeyRecount, OneShardBatchedPipeline) {
  // One shard, 64-event batches: every event runs through push_batch's
  // software pipeline, string and real keys included.
  ShardedEngineOptions opts;
  opts.shards = 1;
  opts.batch_events = 64;
  ShardedEngine engine{opts};
  check_keyed_recount(engine, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TypedKeyRecount, ::testing::Values(1u, 2u, 3u));

TEST(TypedKeys, SortedVisitOrdersDecimalTextNotValue) {
  // kSorted orders keys by their decimal text, "10" before "2", on both
  // engines — check_node_overload's first-strictly-greater pick relies on it.
  ShardedEngineOptions opts;
  opts.shards = 4;
  Engine scalar;
  ShardedEngine sharded{opts};
  for (EngineBase* engine : std::initializer_list<EngineBase*>{&scalar, &sharded}) {
    const QueryId id = engine->register_query(
        parse_epl("SELECT count(*) AS n FROM s GROUP BY fid WINDOW TIME 60s"));
    for (const std::int64_t fid : {2, 10, 1, -3, 10}) {
      TestEvent e{sim::SimTime{1000}, "s"};
      e.with_int("fid", fid).with_string("src", "/f" + std::to_string(fid));
      push(*engine, e);
    }
    std::vector<std::int64_t> order;
    std::vector<std::uint64_t> counts;
    engine->for_each_group_count(id, [&](std::span<const KeyValue> key, std::uint64_t n) {
      order.push_back(key[0].i);
      counts.push_back(n);
    });
    EXPECT_EQ(order, (std::vector<std::int64_t>{-3, 1, 10, 2}));
    EXPECT_EQ(counts, (std::vector<std::uint64_t>{1, 1, 2, 1}));
  }
}

TEST(TypedKeys, IntAndStringRenderingAlikeAreDifferentGroups) {
  // Groups key on (kind, value): int 5 and string "5" stay apart although
  // both render as "5".
  Engine engine;
  const QueryId id =
      engine.register_query(parse_epl("SELECT count(*) AS n FROM s GROUP BY m WINDOW TIME 60s"));
  push(engine, TestEvent{sim::SimTime{1}, "s"}.with_int("m", 5));
  push(engine, TestEvent{sim::SimTime{2}, "s"}.with_string("m", "5"));
  push(engine, TestEvent{sim::SimTime{3}, "s"}.with_int("m", 5));
  push(engine, TestEvent{sim::SimTime{4}, "s"});  // m absent
  const std::vector<ResultRow> rows = engine.snapshot(id);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].values.get_string("m"), "");  // absent renders empty, sorts first
  EXPECT_EQ(rows[1].values.get_string("m"), "5");
  EXPECT_EQ(rows[2].values.get_string("m"), "5");
  EXPECT_EQ(engine.group_row(id, {5})->values.get_int("n"), 2);
  EXPECT_EQ(engine.group_row(id, {"5"})->values.get_int("n"), 1);
  EXPECT_EQ(engine.group_row(id, {KeyValue{}})->values.get_int("n"), 1);
  EXPECT_FALSE(engine.group_row(id, {6}).has_value());
}

TEST(TypedKeys, RemoveAndReRegisterRecyclesSlots) {
  // Two queries share one 10 s window; removing one mid-stream and
  // registering another that joins the same window must leave every
  // survivor exactly where a fresh engine fed the same events would be.
  const std::string by_user = "SELECT count(*) AS n FROM s GROUP BY user WINDOW TIME 10s";
  const std::string by_src = "SELECT count(*) AS n FROM s GROUP BY src, dn WINDOW TIME 10s";
  const std::vector<TestEvent> events = make_keyed_workload(9, 1200);
  Engine engine;
  Engine whole;  // sees every event, by_user only
  Engine late;   // sees the events after the swap, by_src only
  const QueryId doomed = engine.register_query(parse_epl(by_src));
  const QueryId kept = engine.register_query(parse_epl(by_user));
  const QueryId whole_id = whole.register_query(parse_epl(by_user));
  QueryId fresh{};
  QueryId late_id{};
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i == 600) {
      ASSERT_TRUE(engine.remove_query(doomed));
      fresh = engine.register_query(parse_epl(by_src));
      late_id = late.register_query(parse_epl(by_src));
    }
    push(engine, events[i]);
    push(whole, events[i]);
    if (i >= 600) {
      push(late, events[i]);
    }
    if (i % 150 == 149) {
      EXPECT_EQ(render(engine.snapshot(kept)), render(whole.snapshot(whole_id))) << i;
      if (i >= 600) {
        EXPECT_EQ(render(engine.snapshot(fresh)), render(late.snapshot(late_id))) << i;
      }
    }
  }
  engine.advance_to(events.back().time + sim::seconds(60.0));
  EXPECT_TRUE(engine.snapshot(kept).empty());
  EXPECT_TRUE(engine.snapshot(fresh).empty());
  EXPECT_TRUE(engine.snapshot(doomed).empty());
}

}  // namespace
}  // namespace erms::cep
