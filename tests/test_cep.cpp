#include <gtest/gtest.h>

#include "cep/engine.h"
#include "cep/epl_parser.h"
#include "cep/pattern.h"
#include "classad/parser.h"

namespace erms::cep {
namespace {

Event ev(double t_seconds, const std::string& type) {
  return Event{sim::SimTime{static_cast<std::int64_t>(t_seconds * 1e6)}, type};
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
    engine.push(ev(t, "a").with_real("v", t));
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
    engine.push(ev(i, "a").with_real("v", i));
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
  engine.push(ev(1.0, "req").with_string("user", "alice"));
  engine.push(ev(2.0, "req").with_string("user", "bob"));
  engine.push(ev(3.0, "req").with_string("user", "alice"));
  const auto rows = engine.snapshot(id);
  ASSERT_EQ(rows.size(), 2u);
  const auto alice = engine.group_row(id, {"alice"});
  ASSERT_TRUE(alice.has_value());
  EXPECT_EQ(alice->values.get_int("n"), 2);
}

TEST(Engine, WindowEvictionDecrementsCounts) {
  Engine engine;
  const QueryId id = engine.register_query(count_by_user(10.0));
  engine.push(ev(0.0, "req").with_string("user", "alice"));
  engine.push(ev(5.0, "req").with_string("user", "alice"));
  engine.push(ev(12.0, "req").with_string("user", "alice"));
  const auto row = engine.group_row(id, {"alice"});
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->values.get_int("n"), 2);  // t=0 expired
}

TEST(Engine, AdvanceToEvictsWithoutEvents) {
  Engine engine;
  const QueryId id = engine.register_query(count_by_user(10.0));
  engine.push(ev(0.0, "req").with_string("user", "alice"));
  engine.advance_to(sim::SimTime{30'000'000});
  EXPECT_TRUE(engine.snapshot(id).empty());  // group removed at count 0
}

TEST(Window, TimeWindowBoundaryInclusiveEviction) {
  // A time window holds (now - duration, now]: one microsecond short of
  // `duration` the event still counts, at exactly `duration` it is gone.
  Engine engine;
  const QueryId id = engine.register_query(count_by_user(10.0));
  engine.push(ev(0.0, "req").with_string("user", "alice"));
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
  engine.push(ev(0.0, "m"));
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
  engine.push(ev(1.0, "req").with_string("user", "a").with_string("cmd", "open"));
  engine.push(ev(2.0, "req").with_string("user", "a").with_string("cmd", "delete"));
  const auto row = engine.group_row(id, {"a"});
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->values.get_int("n"), 1);
}

TEST(Engine, FromFiltersStream) {
  Engine engine;
  const QueryId id = engine.register_query(count_by_user(60.0));
  engine.push(ev(1.0, "req").with_string("user", "a"));
  engine.push(ev(2.0, "other").with_string("user", "a"));
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
    engine.push(ev(v, "m").with_string("k", "g").with_real("v", v));
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
  engine.push(ev(0.0, "m").with_real("v", 100.0));
  engine.push(ev(5.0, "m").with_real("v", 1.0));
  engine.push(ev(12.0, "m").with_real("v", 2.0));  // evicts the 100
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
    engine.push(ev(i, "req").with_string("user", "a"));
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
    engine.push(ev(i, "m"));
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
  engine.push(ev(1.0, "req").with_string("user", "a").with_string("cmd", "open"));
  engine.push(ev(2.0, "req").with_string("user", "b").with_string("cmd", "open"));
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
  for (int i = 0; i < 500; ++i) {
    engine.push(ev(i * 0.1, "req").with_string("user", "u" + std::to_string(i % 200))
                    .with_string("host", "h" + std::to_string(i % 3)));
  }
  EXPECT_EQ(engine.key_text_count(), 203u);
  engine.advance_to(sim::SimTime{62'000'000});  // only `both` still holds groups
  EXPECT_TRUE(engine.snapshot(id).empty());
  EXPECT_FALSE(engine.snapshot(both).empty());
  EXPECT_TRUE(engine.remove_query(both));
  EXPECT_EQ(engine.key_text_count(), 0u);
  engine.push(ev(100.0, "req").with_string("user", "u7"));
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
  EXPECT_THROW(parse_epl("SELECT count(*) FROM s GROUP x WINDOW TIME 1s"),
               classad::ParseError);
}

// ---------- pattern detector ----------

Pattern born_hot(std::size_t followers, double within_s) {
  Pattern p;
  p.name = "born-hot";
  p.from = "audit";
  p.opening = classad::parse_expr("cmd == \"create\"");
  p.follower = classad::parse_expr("cmd == \"read\"");
  p.correlate_by = {"src"};
  p.follower_count = followers;
  p.within = sim::seconds(within_s);
  return p;
}

Event audit_ev(double t, const std::string& cmd, const std::string& src) {
  return ev(t, "audit").with_string("cmd", cmd).with_string("src", src);
}

TEST(Patterns, FiresOnSequenceWithinWindow) {
  PatternDetector det;
  std::vector<PatternMatch> fired;
  det.add_pattern(born_hot(3, 60.0),
                  [&](const PatternMatch& m) { fired.push_back(m); });
  det.push(audit_ev(0.0, "create", "/f"));
  det.push(audit_ev(10.0, "read", "/f"));
  det.push(audit_ev(20.0, "read", "/f"));
  EXPECT_TRUE(fired.empty());
  det.push(audit_ev(30.0, "read", "/f"));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].pattern, "born-hot");
  EXPECT_EQ(fired[0].key, (std::vector<std::string>{"/f"}));
  EXPECT_DOUBLE_EQ(fired[0].opened.seconds(), 0.0);
  EXPECT_DOUBLE_EQ(fired[0].completed.seconds(), 30.0);
  EXPECT_EQ(det.matches_fired(), 1u);
}

TEST(Patterns, WindowExpiryDropsInstance) {
  PatternDetector det;
  int fired = 0;
  const PatternId id =
      det.add_pattern(born_hot(2, 30.0), [&](const PatternMatch&) { ++fired; });
  det.push(audit_ev(0.0, "create", "/f"));
  EXPECT_EQ(det.open_instances(id), 1u);
  det.push(audit_ev(10.0, "read", "/f"));
  // The window closes; followers after it must not complete the pattern.
  det.push(audit_ev(100.0, "read", "/f"));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(det.open_instances(id), 0u);
}

TEST(Patterns, CorrelationKeysAreIndependent) {
  PatternDetector det;
  std::vector<std::string> fired;
  det.add_pattern(born_hot(2, 60.0),
                  [&](const PatternMatch& m) { fired.push_back(m.key[0]); });
  det.push(audit_ev(0.0, "create", "/a"));
  det.push(audit_ev(1.0, "create", "/b"));
  det.push(audit_ev(2.0, "read", "/a"));
  det.push(audit_ev(3.0, "read", "/b"));
  det.push(audit_ev(4.0, "read", "/b"));
  EXPECT_EQ(fired, (std::vector<std::string>{"/b"}));
  det.push(audit_ev(5.0, "read", "/a"));
  EXPECT_EQ(fired, (std::vector<std::string>{"/b", "/a"}));
}

TEST(Patterns, FollowersWithoutOpenerIgnored) {
  PatternDetector det;
  int fired = 0;
  det.add_pattern(born_hot(1, 60.0), [&](const PatternMatch&) { ++fired; });
  det.push(audit_ev(0.0, "read", "/f"));
  det.push(audit_ev(1.0, "read", "/f"));
  EXPECT_EQ(fired, 0);
}

TEST(Patterns, ReopenAfterMatch) {
  PatternDetector det;
  int fired = 0;
  det.add_pattern(born_hot(1, 60.0), [&](const PatternMatch&) { ++fired; });
  det.push(audit_ev(0.0, "create", "/f"));
  det.push(audit_ev(1.0, "read", "/f"));
  EXPECT_EQ(fired, 1);
  // After completion, reads alone must not fire again until a new opener.
  det.push(audit_ev(2.0, "read", "/f"));
  EXPECT_EQ(fired, 1);
  det.push(audit_ev(3.0, "create", "/f"));
  det.push(audit_ev(4.0, "read", "/f"));
  EXPECT_EQ(fired, 2);
}

TEST(Patterns, OpenerRefreshRestartsWindow) {
  PatternDetector det;
  int fired = 0;
  det.add_pattern(born_hot(2, 30.0), [&](const PatternMatch&) { ++fired; });
  det.push(audit_ev(0.0, "create", "/f"));
  det.push(audit_ev(10.0, "read", "/f"));
  det.push(audit_ev(25.0, "create", "/f"));  // refresh: follower count resets
  det.push(audit_ev(40.0, "read", "/f"));
  EXPECT_EQ(fired, 0);  // only one follower since the refresh
  det.push(audit_ev(50.0, "read", "/f"));
  EXPECT_EQ(fired, 1);
}

TEST(Patterns, StreamFilterApplies) {
  PatternDetector det;
  int fired = 0;
  det.add_pattern(born_hot(1, 60.0), [&](const PatternMatch&) { ++fired; });
  det.push(ev(0.0, "other").with_string("cmd", "create").with_string("src", "/f"));
  det.push(ev(1.0, "other").with_string("cmd", "read").with_string("src", "/f"));
  EXPECT_EQ(fired, 0);
}

TEST(Patterns, RemovePattern) {
  PatternDetector det;
  const PatternId id = det.add_pattern(born_hot(1, 60.0), nullptr);
  EXPECT_EQ(det.pattern_count(), 1u);
  EXPECT_TRUE(det.remove_pattern(id));
  EXPECT_FALSE(det.remove_pattern(id));
  EXPECT_EQ(det.pattern_count(), 0u);
}

TEST(EplPattern, ParsesFullStatement) {
  const Pattern p = parse_epl_pattern(
      "PATTERN born_hot ON audit OPENING cmd == \"create\" "
      "FOLLOWED BY 10 MATCHING cmd == \"read\" CORRELATE BY src WITHIN 120s");
  EXPECT_EQ(p.name, "born_hot");
  EXPECT_EQ(p.from, "audit");
  ASSERT_NE(p.opening, nullptr);
  ASSERT_NE(p.follower, nullptr);
  EXPECT_EQ(p.follower_count, 10u);
  EXPECT_EQ(p.correlate_by, (std::vector<std::string>{"src"}));
  EXPECT_EQ(p.within.micros(), 120'000'000);
}

TEST(EplPattern, OptionalClausesAndUnits) {
  const Pattern p = parse_epl_pattern(
      "PATTERN x OPENING a > 1 FOLLOWED BY 2 MATCHING b > 2 WITHIN 2m");
  EXPECT_TRUE(p.from.empty());
  EXPECT_TRUE(p.correlate_by.empty());
  EXPECT_EQ(p.within.micros(), 120'000'000);
}

TEST(EplPattern, ParsedPatternDetects) {
  PatternDetector det;
  int fired = 0;
  det.add_pattern(parse_epl_pattern("PATTERN b ON audit OPENING cmd == \"create\" "
                                    "FOLLOWED BY 2 MATCHING cmd == \"read\" "
                                    "CORRELATE BY src WITHIN 60s"),
                  [&](const PatternMatch&) { ++fired; });
  det.push(audit_ev(0.0, "create", "/f"));
  det.push(audit_ev(1.0, "read", "/f"));
  det.push(audit_ev(2.0, "read", "/f"));
  EXPECT_EQ(fired, 1);
}

TEST(EplPattern, RejectsMalformed) {
  EXPECT_THROW(parse_epl_pattern("OPENING a FOLLOWED BY 1 MATCHING b WITHIN 1s"),
               classad::ParseError);  // must start with PATTERN
  EXPECT_THROW(parse_epl_pattern("PATTERN p FOLLOWED BY 1 MATCHING b WITHIN 1s"),
               classad::ParseError);  // missing OPENING
  EXPECT_THROW(parse_epl_pattern("PATTERN p OPENING a FOLLOWED BY 1 WITHIN 1s"),
               classad::ParseError);  // missing MATCHING
  EXPECT_THROW(parse_epl_pattern("PATTERN p OPENING a FOLLOWED BY 1 MATCHING b"),
               classad::ParseError);  // missing WITHIN
  EXPECT_THROW(
      parse_epl_pattern("PATTERN p OPENING a FOLLOWED BY 0 MATCHING b WITHIN 1s"),
      classad::ParseError);  // zero count
  EXPECT_THROW(
      parse_epl_pattern("PATTERN p OPENING a FOLLOWED 3 MATCHING b WITHIN 1s"),
      classad::ParseError);  // FOLLOWED without BY
}

TEST(Epl, ParsedQueryRunsEndToEnd) {
  Engine engine;
  const QueryId id = engine.register_query(parse_epl(
      "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY src WINDOW TIME "
      "30s"));
  for (int i = 0; i < 5; ++i) {
    engine.push(ev(i, "audit").with_string("cmd", "read").with_string("src", "/f"));
  }
  engine.push(ev(5.0, "audit").with_string("cmd", "open").with_string("src", "/f"));
  const auto row = engine.group_row(id, {"/f"});
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->values.get_int("n"), 5);
}

}  // namespace
}  // namespace erms::cep
