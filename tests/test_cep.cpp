#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "cep/engine.h"
#include "cep/epl_parser.h"
#include "cep/sharded_engine.h"
#include "cep_test_event.h"
#include "classad/parser.h"

namespace erms::cep {
namespace {

TestEvent ev(double t_seconds, const std::string& type) {
  return TestEvent{sim::SimTime{static_cast<std::int64_t>(t_seconds * 1e6)}, type};
}

// ---------- windows ----------

Query sum_of_v(WindowSpec window) {
  Query q;
  q.from = "a";
  q.select = {Aggregate{Aggregate::Kind::kCount, "", "n"},
              Aggregate{Aggregate::Kind::kSum, "v", "sum"}};
  q.window = window;
  return q;
}

TEST(Window, TimeWindowEvictsOldEvents) {
  Engine engine;
  const QueryId id = engine.register_query(sum_of_v(WindowSpec::time(sim::seconds(10.0))));
  for (const double t : {0.0, 5.0, 11.0}) {
    push(engine, ev(t, "a").with_real("v", t));
  }
  // t=11 pushes t=0 out of (1, 11]; t=5 stays.
  const auto rows = engine.snapshot(id);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].values.get_int("n"), 2);
  EXPECT_DOUBLE_EQ(*rows[0].values.get_real("sum"), 16.0);
}

TEST(Window, LengthWindowKeepsLastN) {
  Engine engine;
  const QueryId id = engine.register_query(sum_of_v(WindowSpec::length(3)));
  for (int i = 0; i < 5; ++i) {
    push(engine, ev(i, "a").with_real("v", i));
  }
  // The last three pushes (v = 2, 3, 4) remain.
  const auto rows = engine.snapshot(id);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].values.get_int("n"), 3);
  EXPECT_DOUBLE_EQ(*rows[0].values.get_real("sum"), 9.0);
}

// ---------- engine ----------

Query count_by_user(double window_s) {
  Query q;
  q.from = "req";
  q.group_by = {"user"};
  q.select = {Aggregate{Aggregate::Kind::kCount, "", "n"}};
  q.window = WindowSpec::time(sim::seconds(window_s));
  return q;
}

TEST(Engine, CountsPerGroup) {
  Engine engine;
  const QueryId id = engine.register_query(count_by_user(60.0));
  push(engine, ev(1.0, "req").with_string("user", "alice"));
  push(engine, ev(2.0, "req").with_string("user", "bob"));
  push(engine, ev(3.0, "req").with_string("user", "alice"));
  const auto rows = engine.snapshot(id);
  ASSERT_EQ(rows.size(), 2u);
  const auto alice = engine.group_row(id, {"alice"});
  ASSERT_TRUE(alice.has_value());
  EXPECT_EQ(alice->values.get_int("n"), 2);
}

TEST(Engine, WindowEvictionDecrementsCounts) {
  Engine engine;
  const QueryId id = engine.register_query(count_by_user(10.0));
  push(engine, ev(0.0, "req").with_string("user", "alice"));
  push(engine, ev(5.0, "req").with_string("user", "alice"));
  push(engine, ev(12.0, "req").with_string("user", "alice"));
  const auto row = engine.group_row(id, {"alice"});
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->values.get_int("n"), 2);  // t=0 expired
}

TEST(Engine, AdvanceToEvictsWithoutEvents) {
  Engine engine;
  const QueryId id = engine.register_query(count_by_user(10.0));
  push(engine, ev(0.0, "req").with_string("user", "alice"));
  engine.advance_to(sim::SimTime{30'000'000});
  EXPECT_TRUE(engine.snapshot(id).empty());  // group removed at count 0
}

TEST(Window, TimeWindowBoundaryInclusiveEviction) {
  // A time window holds (now - duration, now]: one microsecond short of
  // `duration` the event still counts, at exactly `duration` it is gone.
  Engine engine;
  const QueryId id = engine.register_query(count_by_user(10.0));
  push(engine, ev(0.0, "req").with_string("user", "alice"));
  engine.advance_to(sim::SimTime{9'999'999});
  const auto row = engine.group_row(id, {"alice"});
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->values.get_int("n"), 1);
  engine.advance_to(sim::SimTime{10'000'000});
  EXPECT_TRUE(engine.snapshot(id).empty());
}

TEST(Window, LengthWindowIgnoresEvictUntil) {
  // Advancing the clock evicts from time windows only; a length window
  // keeps its events however far the clock moves.
  Query q;
  q.from = "m";
  q.select = {Aggregate{Aggregate::Kind::kCount, "", "n"}};
  q.window = WindowSpec::length(10);
  Engine engine;
  const QueryId id = engine.register_query(std::move(q));
  push(engine, ev(0.0, "m"));
  engine.advance_to(sim::SimTime{100'000'000});
  const auto rows = engine.snapshot(id);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].values.get_int("n"), 1);
}

TEST(Engine, WhereFilters) {
  Query q = count_by_user(60.0);
  q.where = classad::parse_expr("cmd == \"open\"");
  Engine engine;
  const QueryId id = engine.register_query(std::move(q));
  push(engine, ev(1.0, "req").with_string("user", "a").with_string("cmd", "open"));
  push(engine, ev(2.0, "req").with_string("user", "a").with_string("cmd", "delete"));
  const auto row = engine.group_row(id, {"a"});
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->values.get_int("n"), 1);
}

TEST(Engine, FromFiltersStream) {
  Engine engine;
  const QueryId id = engine.register_query(count_by_user(60.0));
  push(engine, ev(1.0, "req").with_string("user", "a"));
  push(engine, ev(2.0, "other").with_string("user", "a"));
  const auto row = engine.group_row(id, {"a"});
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->values.get_int("n"), 1);
}

TEST(Engine, SumAvgMinMax) {
  Query q;
  q.from = "m";
  q.group_by = {"k"};
  q.select = {Aggregate{Aggregate::Kind::kSum, "v", "s"},
              Aggregate{Aggregate::Kind::kAvg, "v", "a"},
              Aggregate{Aggregate::Kind::kMin, "v", "lo"},
              Aggregate{Aggregate::Kind::kMax, "v", "hi"}};
  q.window = WindowSpec::time(sim::seconds(100.0));
  Engine engine;
  const QueryId id = engine.register_query(std::move(q));
  for (const double v : {4.0, 1.0, 7.0}) {
    push(engine, ev(v, "m").with_string("k", "g").with_real("v", v));
  }
  const auto row = engine.group_row(id, {"g"});
  ASSERT_TRUE(row.has_value());
  EXPECT_DOUBLE_EQ(*row->values.get_real("s"), 12.0);
  EXPECT_DOUBLE_EQ(*row->values.get_real("a"), 4.0);
  EXPECT_DOUBLE_EQ(*row->values.get_real("lo"), 1.0);
  EXPECT_DOUBLE_EQ(*row->values.get_real("hi"), 7.0);
}

TEST(Engine, MinMaxSurviveEviction) {
  Query q;
  q.from = "m";
  q.select = {Aggregate{Aggregate::Kind::kMax, "v", "hi"}};
  q.window = WindowSpec::time(sim::seconds(10.0));
  Engine engine;
  const QueryId id = engine.register_query(std::move(q));
  push(engine, ev(0.0, "m").with_real("v", 100.0));
  push(engine, ev(5.0, "m").with_real("v", 1.0));
  push(engine, ev(12.0, "m").with_real("v", 2.0));  // evicts the 100
  const auto rows = engine.snapshot(id);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(*rows[0].values.get_real("hi"), 2.0);
}

TEST(Engine, HavingGatesListener) {
  Query q = count_by_user(60.0);
  q.having = classad::parse_expr("n > 2");
  Engine engine;
  std::vector<std::int64_t> fired;
  engine.register_query(std::move(q), [&](const ResultRow& row) {
    fired.push_back(*row.values.get_int("n"));
  });
  for (int i = 0; i < 4; ++i) {
    push(engine, ev(i, "req").with_string("user", "a"));
  }
  // Listener fires on the 3rd and 4th events (n=3, n=4).
  EXPECT_EQ(fired, (std::vector<std::int64_t>{3, 4}));
}

TEST(Engine, RemoveQuery) {
  Engine engine;
  const QueryId id = engine.register_query(count_by_user(60.0));
  EXPECT_TRUE(engine.remove_query(id));
  EXPECT_FALSE(engine.remove_query(id));
  EXPECT_TRUE(engine.snapshot(id).empty());
}

TEST(Engine, LengthWindowQuery) {
  Query q;
  q.from = "m";
  q.select = {Aggregate{Aggregate::Kind::kCount, "", "n"}};
  q.window = WindowSpec::length(3);
  Engine engine;
  const QueryId id = engine.register_query(std::move(q));
  for (int i = 0; i < 10; ++i) {
    push(engine, ev(i, "m"));
  }
  const auto rows = engine.snapshot(id);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].values.get_int("n"), 3);
}

TEST(Engine, MultipleQueriesIndependent) {
  Engine engine;
  const QueryId q1 = engine.register_query(count_by_user(60.0));
  Query by_cmd;
  by_cmd.from = "req";
  by_cmd.group_by = {"cmd"};
  by_cmd.select = {Aggregate{Aggregate::Kind::kCount, "", "n"}};
  by_cmd.window = WindowSpec::time(sim::seconds(60.0));
  const QueryId q2 = engine.register_query(std::move(by_cmd));
  push(engine, ev(1.0, "req").with_string("user", "a").with_string("cmd", "open"));
  push(engine, ev(2.0, "req").with_string("user", "b").with_string("cmd", "open"));
  EXPECT_EQ(engine.snapshot(q1).size(), 2u);
  const auto open = engine.group_row(q2, {"open"});
  ASSERT_TRUE(open.has_value());
  EXPECT_EQ(open->values.get_int("n"), 2);
  EXPECT_EQ(engine.events_processed(), 2u);
}

TEST(Engine, StringKeyTextsAreReleasedWithTheirGroups) {
  // A high-churn string group-by: every event names a fresh user, so the
  // key-text interner must shrink back as groups leave the window.
  Engine engine;
  const QueryId id = engine.register_query(count_by_user(10.0));
  Query by_both = count_by_user(20.0);
  by_both.group_by = {"user", "host"};
  const QueryId both = engine.register_query(std::move(by_both));
  const auto numbered = [](char prefix, int n) {
    std::string out(1, prefix);
    out.append(std::to_string(n));
    return out;
  };
  for (int i = 0; i < 500; ++i) {
    push(engine, ev(i * 0.1, "req")
                     .with_string("user", numbered('u', i % 200))
                     .with_string("host", numbered('h', i % 3)));
  }
  EXPECT_EQ(engine.key_text_count(), 203u);
  engine.advance_to(sim::SimTime{62'000'000});  // only `both` still holds groups
  EXPECT_TRUE(engine.snapshot(id).empty());
  EXPECT_FALSE(engine.snapshot(both).empty());
  EXPECT_TRUE(engine.remove_query(both));
  EXPECT_EQ(engine.key_text_count(), 0u);
  push(engine, ev(100.0, "req").with_string("user", "u7"));
  EXPECT_EQ(engine.key_text_count(), 1u);
  engine.advance_to(sim::SimTime{200'000'000});
  EXPECT_EQ(engine.key_text_count(), 0u);
}

// ---------- EPL parser ----------

TEST(Epl, ParsesFullStatement) {
  const Query q = parse_epl(
      "SELECT count(*) AS n, avg(latency) AS lat FROM audit "
      "WHERE cmd == \"open\" GROUP BY src, dn WINDOW TIME 60s HAVING n > 10");
  EXPECT_EQ(q.from, "audit");
  ASSERT_EQ(q.select.size(), 2u);
  EXPECT_EQ(q.select[0].kind, Aggregate::Kind::kCount);
  EXPECT_EQ(q.select[0].alias, "n");
  EXPECT_EQ(q.select[1].kind, Aggregate::Kind::kAvg);
  EXPECT_EQ(q.select[1].attr, "latency");
  EXPECT_EQ(q.group_by, (std::vector<std::string>{"src", "dn"}));
  EXPECT_EQ(q.window.kind, WindowSpec::Kind::kTime);
  EXPECT_EQ(q.window.duration.micros(), 60'000'000);
  ASSERT_NE(q.where, nullptr);
  ASSERT_NE(q.having, nullptr);
}

TEST(Epl, WindowUnits) {
  EXPECT_EQ(parse_epl("SELECT count(*) FROM s WINDOW TIME 500ms").window.duration.micros(),
            500'000);
  EXPECT_EQ(parse_epl("SELECT count(*) FROM s WINDOW TIME 2m").window.duration.micros(),
            120'000'000);
  EXPECT_EQ(parse_epl("SELECT count(*) FROM s WINDOW TIME 1h").window.duration.micros(),
            3'600'000'000ll);
}

TEST(Epl, LengthWindow) {
  const Query q = parse_epl("SELECT count(*) FROM s WINDOW LENGTH 250");
  EXPECT_EQ(q.window.kind, WindowSpec::Kind::kLength);
  EXPECT_EQ(q.window.count, 250u);
}

TEST(Epl, DefaultAliases) {
  const Query q = parse_epl("SELECT count(*), sum(x) FROM s WINDOW TIME 1s");
  EXPECT_EQ(q.select[0].alias, "count");
  EXPECT_EQ(q.select[1].alias, "sum_x");
}

TEST(Epl, CaseInsensitiveKeywords) {
  const Query q =
      parse_epl("select count(*) as N from S where a > 1 window time 5s having N > 2");
  EXPECT_EQ(q.from, "S");
  EXPECT_NE(q.where, nullptr);
  EXPECT_NE(q.having, nullptr);
}

TEST(Epl, KeywordInsideStringLiteralIgnored) {
  const Query q = parse_epl(
      "SELECT count(*) AS n FROM s WHERE cmd == \"where from\" WINDOW TIME 1s");
  EXPECT_EQ(q.from, "s");
  ASSERT_NE(q.where, nullptr);
}

TEST(Epl, RejectsMalformed) {
  EXPECT_THROW(parse_epl("FROM s WINDOW TIME 1s"), classad::ParseError);
  EXPECT_THROW(parse_epl("SELECT count(*) FROM s"), classad::ParseError);  // no window
  EXPECT_THROW(parse_epl("SELECT count(*) WINDOW TIME 1s"), classad::ParseError);
  EXPECT_THROW(parse_epl("SELECT nonsense(*) FROM s WINDOW TIME 1s"), classad::ParseError);
  EXPECT_THROW(parse_epl("SELECT sum(*) FROM s WINDOW TIME 1s"), classad::ParseError);
  EXPECT_THROW(parse_epl("SELECT count(*) FROM s WINDOW TIME abc"), classad::ParseError);
  EXPECT_THROW(parse_epl("SELECT count(*) FROM s WINDOW LENGTH -3"), classad::ParseError);
  // Durations that are negative, not finite, or overflow 64-bit microseconds.
  for (const char* bad : {"-5s", "nan", "inf", "1e300s", "9.3e12", "2e11h"}) {
    EXPECT_THROW(parse_epl(std::string("SELECT count(*) FROM s WINDOW TIME ") + bad),
                 classad::ParseError)
        << bad;
  }
  EXPECT_THROW(parse_epl("SELECT count(*) FROM s GROUP x WINDOW TIME 1s"),
               classad::ParseError);
}

TEST(Epl, ParsedQueryRunsEndToEnd) {
  Engine engine;
  const QueryId id = engine.register_query(parse_epl(
      "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY src WINDOW TIME "
      "30s"));
  for (int i = 0; i < 5; ++i) {
    push(engine, ev(i, "audit").with_string("cmd", "read").with_string("src", "/f"));
  }
  push(engine, ev(5.0, "audit").with_string("cmd", "open").with_string("src", "/f"));
  const auto row = engine.group_row(id, {"/f"});
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->values.get_int("n"), 5);
}

// ---------- registration rejects WHERE clauses it cannot compile ----------

/// Everything a rejected registration must leave as it was.
struct EngineShape {
  std::size_t queries;
  std::vector<bool> reads;
  std::size_t attrs;
  std::size_t streams;
  friend bool operator==(const EngineShape&, const EngineShape&) = default;
};

EngineShape shape_of(EngineBase& engine) {
  return {engine.query_count(), engine.read_attrs(), engine.attr_symbols().size(),
          engine.stream_symbols().size()};
}

constexpr const char* kBaseQuery =
    "SELECT count(*) AS n FROM req WHERE cmd == \"open\" GROUP BY user WINDOW TIME 30s";
constexpr const char* kNextQuery =
    "SELECT count(*) AS n, max(v) AS hi FROM req WHERE v >= 2 GROUP BY cmd WINDOW TIME 20s";

void feed(EngineBase& engine, int from, int to) {
  const char* cmds[] = {"open", "read", "delete"};
  for (int i = from; i < to; ++i) {
    push(engine, ev(i * 0.5, "req")
                     .with_string("user", i % 2 == 0 ? "alice" : "bob")
                     .with_string("cmd", cmds[i % 3])
                     .with_int("v", i % 5));
  }
}

/// Register `kBaseQuery`, feed events, then try every unsupported WHERE:
/// each must throw std::invalid_argument and leave the engine untouched, and
/// a valid query registered afterwards must behave as in `fresh`, which
/// never saw the rejected ones.
void check_rejections(EngineBase& engine, EngineBase& fresh) {
  const QueryId base = engine.register_query(parse_epl(kBaseQuery));
  const QueryId fresh_base = fresh.register_query(parse_epl(kBaseQuery));
  feed(engine, 0, 40);
  feed(fresh, 0, 40);
  const EngineShape before = shape_of(engine);
  // Each clause names attributes no valid query uses (and its query names a
  // new stream and GROUP BY attribute), so a half-done registration would
  // show in the symbol tables or the read set.
  for (const char* where : {
           "new_a == 1 || new_b == 2",         // disjunction
           "!new_a",                           // negation
           "new_a + 1 > 3",                    // arithmetic
           "isUndefined(new_a)",               // function call
           "TARGET.new_a == 3",                // TARGET. scope
           "new_a == new_b",                   // attribute vs attribute
           "1 == 1",                           // literal vs literal
           "new_a == 1 && new_b * 2 < 4",      // compilable conjunct first
           "new_a > 0 ? new_b : false",        // conditional
       }) {
    SCOPED_TRACE(where);
    Query q = parse_epl(std::string("SELECT count(*) AS n, sum(new_c) AS s FROM new_stream ") +
                        "WHERE " + where + " GROUP BY new_d WINDOW TIME 10s");
    EXPECT_THROW(engine.register_query(std::move(q)), std::invalid_argument);
    EXPECT_TRUE(shape_of(engine) == before);
  }
  const QueryId next = engine.register_query(parse_epl(kNextQuery));
  const QueryId fresh_next = fresh.register_query(parse_epl(kNextQuery));
  EXPECT_EQ(next, fresh_next);  // rejected registrations consumed no id
  feed(engine, 40, 90);
  feed(fresh, 40, 90);
  EXPECT_EQ(render(engine.snapshot(base)), render(fresh.snapshot(fresh_base)));
  EXPECT_EQ(render(engine.snapshot(next)), render(fresh.snapshot(fresh_next)));
  EXPECT_FALSE(engine.snapshot(next).empty());
  EXPECT_TRUE(shape_of(engine) == shape_of(fresh));
}

TEST(Registration, RejectsUnsupportedWhereLeavingEngineUnchanged) {
  Engine engine;
  Engine fresh;
  check_rejections(engine, fresh);
}

TEST(Registration, ShardedRejectsUnsupportedWhereLeavingEngineUnchanged) {
  ShardedEngineOptions opts;
  opts.shards = 4;
  opts.batch_events = 8;
  ShardedEngine engine(opts);
  ShardedEngine fresh(opts);
  check_rejections(engine, fresh);
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    EXPECT_EQ(engine.shard(s).query_count(), 2u);
  }
}

// ---------- EPL mutation fuzzer ----------

/// Valid statements covering every clause, aggregate and window unit.
std::vector<std::string> epl_corpus() {
  return {
      "SELECT count(*) AS n, avg(latency) AS lat FROM audit WHERE cmd == \"open\" "
      "GROUP BY src, dn WINDOW TIME 60s HAVING n > 10",
      "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY src, blk WINDOW TIME 60s",
      "select count(*) as N from S where a > 1 window time 5s having N > 2",
      "SELECT count(*), sum(x) FROM s WINDOW TIME 500ms",
      "SELECT min(v) AS lo, max(v) AS hi FROM m WHERE allowed && dn >= 6 WINDOW LENGTH 250",
      "SELECT count(*) AS n FROM s WHERE cmd == \"where from\" GROUP BY k WINDOW TIME 2m",
      "SELECT sum(bytes) AS s FROM audit WHERE 3 < dn && MY.cmd != \"delete\" WINDOW TIME 1h",
  };
}

/// Parse and register one mutant. Returns an empty string when it was
/// handled (accepted, or rejected with a ParseError or invalid_argument),
/// else a description of the failure.
std::string try_mutant(const std::string& text) {
  Query q;
  try {
    q = parse_epl(text);
  } catch (const classad::ParseError&) {
    return "";
  } catch (const std::exception& e) {
    return std::string("parse_epl threw ") + e.what();
  }
  Engine engine;
  try {
    const QueryId id = engine.register_query(std::move(q));
    // Run the accepted query a little so its plan is exercised too.
    for (int i = 0; i < 3; ++i) {
      push(engine, ev(i, "audit").with_string("cmd", "read").with_int("dn", 7 + i));
    }
    (void)engine.snapshot(id);
  } catch (const std::invalid_argument&) {
    return "";
  } catch (const std::exception& e) {
    return std::string("register_query threw ") + e.what();
  }
  return "";
}

TEST(EplFuzz, MutantsParseOrFailCleanly) {
  const std::vector<std::string> corpus = epl_corpus();
  std::vector<std::string> mutants;
  for (const std::string& stmt : corpus) {
    ASSERT_EQ(try_mutant(stmt), "") << stmt;
    ASSERT_NO_THROW(Engine().register_query(parse_epl(stmt))) << stmt;
    for (std::size_t cut = 0; cut < stmt.size(); ++cut) {  // truncations
      mutants.push_back(stmt.substr(0, cut));
    }
    for (std::size_t i = 0; i < stmt.size(); ++i) {  // bit flips
      for (const unsigned char mask : {0x01, 0x04, 0x20, 0x80}) {
        std::string m = stmt;
        m[i] = static_cast<char>(static_cast<unsigned char>(m[i]) ^ mask);
        mutants.push_back(std::move(m));
      }
    }
  }
  std::mt19937 rng{20261022};
  for (int k = 0; k < 4000; ++k) {  // splices: a prefix of one, a suffix of another
    const std::string& a = corpus[rng() % corpus.size()];
    const std::string& b = corpus[rng() % corpus.size()];
    std::string m = a.substr(0, rng() % (a.size() + 1));
    m.append(b.substr(rng() % (b.size() + 1)));
    mutants.push_back(std::move(m));
  }
  std::size_t failures = 0;
  for (const std::string& m : mutants) {
    const std::string failure = try_mutant(m);
    if (!failure.empty() && ++failures <= 10) {
      ADD_FAILURE() << failure << " on: " << m;
    }
  }
  EXPECT_EQ(failures, 0u) << "of " << mutants.size() << " mutants";
}

}  // namespace
}  // namespace erms::cep
