#include <gtest/gtest.h>

#include <map>

#include "audit/audit.h"
#include "cep/engine.h"
#include "cep/epl_parser.h"
#include "hdfs/types.h"
#include "judge/feed.h"
#include "judge/judge.h"

namespace erms::judge {
namespace {

Thresholds paper_thresholds() {
  Thresholds t;
  t.tau_M = 8.0;
  t.tau_d = 2.0;
  t.tau_m = 0.5;
  t.tau_DN = 40.0;
  t.M_M = 12.0;
  t.M_m = 6.0;
  t.epsilon = 0.5;
  t.cold_age = sim::hours(24.0);
  t.window = sim::seconds(60.0);
  return t;
}

FileObservation obs(std::uint64_t accesses, std::uint32_t rep,
                    std::vector<std::uint64_t> blocks = {}, std::size_t block_count = 4) {
  FileObservation o;
  o.file = hdfs::FileId{1};
  o.accesses = accesses;
  o.replication = rep;
  o.block_accesses = std::move(blocks);
  o.block_count = block_count;
  o.last_access = sim::SimTime{0};
  return o;
}

const sim::SimTime kNow{sim::hours(1.0).micros()};

TEST(Thresholds, ValidityInvariant) {
  EXPECT_TRUE(paper_thresholds().valid());
  Thresholds bad = paper_thresholds();
  bad.tau_m = 3.0;  // violates tau_m < tau_d
  EXPECT_FALSE(bad.valid());
  bad = paper_thresholds();
  bad.M_m = 20.0;  // violates M_m < M_M
  EXPECT_FALSE(bad.valid());
  bad = paper_thresholds();
  bad.epsilon = 1.0;
  EXPECT_FALSE(bad.valid());
}

// ---------- formula (1): per-replica file load ----------

TEST(Classify, Formula1Hot) {
  DataJudge judge{paper_thresholds()};
  // N_d/r = 30/3 = 10 > τ_M = 8 → hot.
  const auto c = judge.classify(obs(30, 3), kNow, 3, 10);
  EXPECT_EQ(c.type, DataType::kHot);
  EXPECT_EQ(c.rule, 1);
  // Optimal: ceil(30/8) = 4.
  EXPECT_EQ(c.optimal_replication, 4u);
}

TEST(Classify, Formula1BoundaryNotHot) {
  DataJudge judge{paper_thresholds()};
  // N_d/r = 24/3 = 8 is NOT > 8 → not hot by (1).
  const auto c = judge.classify(obs(24, 3), kNow, 3, 10);
  EXPECT_NE(c.rule, 1);
}

TEST(Classify, MoreReplicasAbsorbLoad) {
  DataJudge judge{paper_thresholds()};
  // Same 30 accesses but r=5: 30/5 = 6 ≤ 8 → normal.
  const auto c = judge.classify(obs(30, 5), kNow, 3, 10);
  EXPECT_EQ(c.type, DataType::kNormal);
}

// ---------- formula (2): single-block hotspot ----------

TEST(Classify, Formula2BlockHotspot) {
  DataJudge judge{paper_thresholds()};
  // File-level: 20/3 ≈ 6.7 ≤ 8. But one block has 40/3 ≈ 13.3 > M_M = 12.
  const auto c = judge.classify(obs(20, 3, {40, 1, 1}), kNow, 3, 10);
  EXPECT_EQ(c.type, DataType::kHot);
  EXPECT_EQ(c.rule, 2);
  // Optimal must absorb the hot block: ceil(40/12) = 4.
  EXPECT_EQ(c.optimal_replication, 4u);
}

// ---------- formula (3): many intensely-accessed blocks ----------

TEST(Classify, Formula3SpreadHeat) {
  DataJudge judge{paper_thresholds()};
  // 4 blocks, 3 of them above M_m·r = 18 accesses: 3/4 > ε = 0.5 → hot.
  const auto c = judge.classify(obs(20, 3, {19, 19, 19, 1}, 4), kNow, 3, 10);
  EXPECT_EQ(c.type, DataType::kHot);
  EXPECT_EQ(c.rule, 3);
}

TEST(Classify, Formula3NotEnoughBlocks) {
  DataJudge judge{paper_thresholds()};
  // Only 2 of 4 blocks intense: 0.5 is NOT > ε = 0.5.
  const auto c = judge.classify(obs(20, 3, {19, 19, 1, 1}, 4), kNow, 3, 10);
  EXPECT_NE(c.type, DataType::kHot);
}

// ---------- formula (5): cooled ----------

TEST(Classify, CooledRequiresExtraReplicas) {
  DataJudge judge{paper_thresholds()};
  // 5 accesses at r=6: 5/6 < τ_d = 2 and r > r_D → cooled.
  FileObservation o = obs(5, 6);
  o.last_access = kNow;  // recently accessed, so not cold
  const auto c = judge.classify(o, kNow, 3, 10);
  EXPECT_EQ(c.type, DataType::kCooled);
  EXPECT_EQ(c.rule, 5);
  // Same load at the default factor is just normal.
  FileObservation base = obs(5, 3);
  base.last_access = kNow;
  EXPECT_EQ(judge.classify(base, kNow, 3, 10).type, DataType::kNormal);
}

// ---------- formula (6): cold ----------

TEST(Classify, ColdNeedsAgeAndSilence) {
  DataJudge judge{paper_thresholds()};
  FileObservation o = obs(0, 3);
  o.last_access = sim::SimTime{0};
  const sim::SimTime now{sim::hours(25.0).micros()};
  const auto c = judge.classify(o, now, 3, 10);
  EXPECT_EQ(c.type, DataType::kCold);
  EXPECT_EQ(c.rule, 6);
}

TEST(Classify, RecentDataNotCold) {
  DataJudge judge{paper_thresholds()};
  FileObservation o = obs(0, 3);
  o.last_access = sim::SimTime{sim::hours(20.0).micros()};
  const sim::SimTime now{sim::hours(25.0).micros()};
  EXPECT_EQ(judge.classify(o, now, 3, 10).type, DataType::kNormal);
}

TEST(Classify, QuietButNotSilentNotCold) {
  DataJudge judge{paper_thresholds()};
  // 3 accesses at r=3 → 1.0 per replica; τ_m = 0.5, so not below.
  FileObservation o = obs(3, 3);
  o.last_access = sim::SimTime{0};
  const sim::SimTime now{sim::hours(25.0).micros()};
  EXPECT_EQ(judge.classify(o, now, 3, 10).type, DataType::kNormal);
}

// ---------- optimal replication ----------

TEST(Optimal, ClampedToBounds) {
  DataJudge judge{paper_thresholds()};
  // Enormous load: ceil(1000/8) = 125, clamped to max 10.
  EXPECT_EQ(judge.optimal_replication(obs(1000, 3), 3, 10), 10u);
  // Tiny load: at least the default factor.
  EXPECT_EQ(judge.optimal_replication(obs(1, 3), 3, 10), 3u);
}

TEST(Optimal, BlockTermDominatesWhenHotter) {
  DataJudge judge{paper_thresholds()};
  // File: ceil(16/8) = 2; block: ceil(60/12) = 5 → 5.
  EXPECT_EQ(judge.optimal_replication(obs(16, 3, {60}), 3, 10), 5u);
}

// ---------- formula (4) ----------

TEST(NodeOverload, ThresholdComparison) {
  DataJudge judge{paper_thresholds()};
  EXPECT_FALSE(judge.node_overloaded(40.0));
  EXPECT_TRUE(judge.node_overloaded(40.5));
}

// ---------- calibration ----------

TEST(Calibrate, ScalesThresholdsProportionally) {
  DataJudge judge{paper_thresholds()};
  judge.calibrate(16.0);  // measured 16 sessions per replica
  EXPECT_DOUBLE_EQ(judge.thresholds().tau_M, 16.0);
  EXPECT_DOUBLE_EQ(judge.thresholds().tau_d, 4.0);
  EXPECT_DOUBLE_EQ(judge.thresholds().M_M, 24.0);
  EXPECT_TRUE(judge.thresholds().valid());
}

TEST(Calibrate, IgnoresNonPositive) {
  DataJudge judge{paper_thresholds()};
  judge.calibrate(0.0);
  EXPECT_DOUBLE_EQ(judge.thresholds().tau_M, 8.0);
}

// ---------- the CEP feed ----------

audit::AuditEvent audit_read(double t, std::int64_t fid, std::int64_t blk,
                             std::int64_t dn) {
  audit::AuditEvent e;
  e.time = sim::SimTime{static_cast<std::int64_t>(t * 1e6)};
  e.cmd = "read";
  e.src = "/f" + std::to_string(fid);
  e.fid = fid;
  e.block = blk;
  e.datanode = dn;
  return e;
}

audit::AuditEvent audit_open(double t, std::int64_t fid) {
  audit::AuditEvent e;
  e.time = sim::SimTime{static_cast<std::int64_t>(t * 1e6)};
  e.cmd = "open";
  e.src = "/f" + std::to_string(fid);
  e.fid = fid;
  return e;
}

constexpr hdfs::FileId kFileA{1};
constexpr hdfs::FileId kFileB{2};

TEST(Feed, CountsFilesBlocksNodes) {
  cep::Engine engine;
  AccessStatsFeed feed{engine, sim::seconds(60.0)};
  feed.on_audit(audit_open(1.0, 1));
  feed.on_audit(audit_open(2.0, 1));
  feed.on_audit(audit_open(3.0, 2));
  feed.on_audit(audit_read(1.5, 1, 11, 0));
  feed.on_audit(audit_read(2.5, 1, 11, 0));
  feed.on_audit(audit_read(2.6, 1, 12, 1));

  EXPECT_EQ(feed.file_accesses(kFileA), 2u);
  EXPECT_EQ(feed.file_accesses(kFileB), 1u);
  EXPECT_EQ(feed.file_accesses(hdfs::FileId{99}), 0u);

  std::map<std::int64_t, std::uint64_t> blocks_a;
  feed.for_each_block_access([&](hdfs::FileId fid, std::int64_t blk, std::uint64_t n) {
    if (fid == kFileA) {
      blocks_a[blk] = n;
    }
    EXPECT_NE(fid, kFileB);  // /f2 was never read, only opened
  });
  EXPECT_EQ(blocks_a.at(11), 2u);
  EXPECT_EQ(blocks_a.at(12), 1u);

  std::map<std::int64_t, std::uint64_t> nodes;
  feed.for_each_node_access(
      [&](std::int64_t dn, std::uint64_t n) { nodes[dn] = n; });
  EXPECT_EQ(nodes.at(0), 2u);
  EXPECT_EQ(nodes.at(1), 1u);

  std::map<hdfs::FileId, std::uint64_t> on0;
  feed.for_each_file_access_on_node(
      0, [&](hdfs::FileId fid, std::uint64_t n) { on0[fid] = n; });
  EXPECT_EQ(on0.at(kFileA), 2u);
  EXPECT_EQ(on0.size(), 1u);

  EXPECT_EQ(feed.events_ingested(), 6u);
}

TEST(Feed, WindowExpiryDropsCounts) {
  cep::Engine engine;
  AccessStatsFeed feed{engine, sim::seconds(10.0)};
  feed.on_audit(audit_open(0.0, 1));
  feed.on_audit(audit_open(5.0, 1));
  EXPECT_EQ(feed.file_accesses(kFileA), 2u);
  feed.advance_to(sim::SimTime{sim::seconds(12.0).micros()});
  EXPECT_EQ(feed.file_accesses(kFileA), 1u);
  feed.advance_to(sim::SimTime{sim::seconds(30.0).micros()});
  EXPECT_EQ(feed.file_accesses(kFileA), 0u);
}

TEST(Feed, LastAccessSurvivesWindow) {
  cep::Engine engine;
  AccessStatsFeed feed{engine, sim::seconds(10.0)};
  feed.on_audit(audit_open(3.0, 1));
  feed.advance_to(sim::SimTime{sim::minutes(10.0).micros()});
  EXPECT_EQ(feed.last_access(kFileA), sim::SimTime{3'000'000});
  EXPECT_EQ(feed.last_access(hdfs::FileId{99}), sim::SimTime{0});
}

TEST(Feed, ActiveFiles) {
  cep::Engine engine;
  AccessStatsFeed feed{engine, sim::seconds(60.0)};
  feed.on_audit(audit_open(1.0, 1));
  feed.on_audit(audit_open(2.0, 2));
  const auto files = feed.active_files();
  EXPECT_EQ(files.size(), 2u);
}

TEST(Feed, EventsWithoutFidCarryNoPerFileState) {
  cep::Engine engine;
  AccessStatsFeed feed{engine, sim::seconds(60.0)};
  audit::AuditEvent e = audit_open(1.0, 7);
  e.fid = 0;  // e.g. a read of an unknown path
  feed.on_audit(e);
  EXPECT_EQ(feed.events_ingested(), 1u);
  EXPECT_TRUE(feed.active_files().empty());
  EXPECT_EQ(feed.last_access(hdfs::FileId{7}), sim::SimTime{0});
}

TEST(Feed, LastAccessFollowsTheQueriesCaseInsensitiveCmd) {
  // The standing queries' `cmd == "open"` is a ClassAd string compare, which
  // ignores case; T_a must count exactly the records the window counts.
  cep::Engine engine;
  AccessStatsFeed feed{engine, sim::seconds(60.0)};
  audit::AuditEvent open = audit_open(4.0, 1);
  open.cmd = "OPEN";
  audit::AuditEvent read = audit_read(6.0, 2, 20, 0);
  read.cmd = "Read";
  feed.on_audit(open);
  feed.on_audit_batch(&read, 1);
  EXPECT_EQ(feed.file_accesses(kFileA), 1u);
  EXPECT_EQ(feed.last_access(kFileA), sim::SimTime{4'000'000});
  EXPECT_EQ(feed.last_access(kFileB), sim::SimTime{6'000'000});

  audit::AuditEvent other = audit_open(8.0, 1);
  other.cmd = "opened";  // neither counted nor an access
  feed.on_audit(other);
  EXPECT_EQ(feed.file_accesses(kFileA), 1u);
  EXPECT_EQ(feed.last_access(kFileA), sim::SimTime{4'000'000});
}

TEST(Feed, FillsOnlyAttributesSomeQueryReads) {
  cep::Engine engine;
  AccessStatsFeed feed{engine, sim::seconds(60.0)};
  const std::vector<bool>& read = engine.read_attrs();
  const auto reads = [&](const char* attr) {
    const cep::Slot s = engine.attr_symbols().find(attr);
    return s != cep::kNoSlot && s < read.size() && read[s];
  };
  for (const char* attr : {"cmd", "fid", "blk", "dn"}) {
    EXPECT_TRUE(reads(attr)) << attr;
  }
  for (const char* attr : {"ugi", "ip", "src", "dst", "allowed"}) {
    EXPECT_FALSE(reads(attr)) << attr;
  }
  // A query registered later widens the read set, and the feed fills it.
  const cep::QueryId by_src = engine.register_query(cep::parse_epl(
      "SELECT count(*) AS n FROM audit GROUP BY src WINDOW TIME 60s"));
  EXPECT_TRUE(reads("src"));
  feed.on_audit(audit_open(1.0, 1));
  EXPECT_TRUE(engine.group_row(by_src, {"/f1"}).has_value());
  EXPECT_TRUE(engine.remove_query(by_src));
  EXPECT_FALSE(reads("src"));
}

/// End-to-end: feed counts + judge formulas produce the expected verdict.
TEST(FeedJudge, HotFileDetectedThroughCep) {
  cep::Engine engine;
  AccessStatsFeed feed{engine, sim::seconds(60.0)};
  DataJudge judge{paper_thresholds()};
  for (int i = 0; i < 30; ++i) {
    feed.on_audit(audit_open(i * 0.1, 1));
  }
  FileObservation o;
  o.file = kFileA;
  o.accesses = feed.file_accesses(kFileA);
  o.replication = 3;
  o.block_count = 2;
  o.last_access = feed.last_access(kFileA);
  const auto c = judge.classify(o, sim::SimTime{sim::seconds(10.0).micros()}, 3, 10);
  EXPECT_EQ(c.type, DataType::kHot);
  EXPECT_EQ(c.optimal_replication, 4u);
}

}  // namespace
}  // namespace erms::judge
