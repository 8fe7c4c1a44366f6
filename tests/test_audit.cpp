#include <gtest/gtest.h>

#include <map>
#include <string>

#include "audit/audit.h"

namespace erms::audit {
namespace {

AuditEvent sample_event() {
  AuditEvent e;
  e.time = sim::SimTime{3'725'123'000};  // 01:02:05.123
  e.allowed = true;
  e.ugi = "hadoop";
  e.ip = "/10.0.1.7";
  e.cmd = "open";
  e.src = "/data/part-0001";
  return e;
}

TEST(AuditFormat, LineShape) {
  const std::string line = sample_event().to_line();
  EXPECT_NE(line.find("INFO FSNamesystem.audit:"), std::string::npos);
  EXPECT_NE(line.find("allowed=true"), std::string::npos);
  EXPECT_NE(line.find("ugi=hadoop"), std::string::npos);
  EXPECT_NE(line.find("ip=/10.0.1.7"), std::string::npos);
  EXPECT_NE(line.find("cmd=open"), std::string::npos);
  EXPECT_NE(line.find("src=/data/part-0001"), std::string::npos);
  EXPECT_NE(line.find("dst=null"), std::string::npos);
  EXPECT_NE(line.find("01:02:05,123"), std::string::npos);
}

TEST(AuditFormat, ExtensionsOnlyWhenPresent) {
  AuditEvent e = sample_event();
  EXPECT_EQ(e.to_line().find("blk="), std::string::npos);
  e.block = 42;
  e.datanode = 7;
  const std::string line = e.to_line();
  EXPECT_NE(line.find("blk=42"), std::string::npos);
  EXPECT_NE(line.find("dn=7"), std::string::npos);
}

TEST(AuditParse, RoundTrip) {
  AuditEvent e = sample_event();
  e.block = 11;
  e.datanode = 3;
  const auto parsed = AuditLogParser::parse_line(e.to_line());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->time, e.time);
  EXPECT_EQ(parsed->allowed, e.allowed);
  EXPECT_EQ(parsed->ugi, e.ugi);
  EXPECT_EQ(parsed->ip, e.ip);
  EXPECT_EQ(parsed->cmd, e.cmd);
  EXPECT_EQ(parsed->src, e.src);
  EXPECT_EQ(parsed->block, e.block);
  EXPECT_EQ(parsed->datanode, e.datanode);
}

TEST(AuditParse, RoundTripDenied) {
  AuditEvent e = sample_event();
  e.allowed = false;
  const auto parsed = AuditLogParser::parse_line(e.to_line());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->allowed);
}

TEST(AuditParse, RealHadoopLine) {
  const auto parsed = AuditLogParser::parse_line(
      "2012-05-03 14:21:07,987 INFO FSNamesystem.audit: allowed=true "
      "ugi=webuser ip=/10.0.2.14 cmd=open src=/logs/day1 dst=null perm=null");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cmd, "open");
  EXPECT_EQ(parsed->src, "/logs/day1");
  EXPECT_TRUE(parsed->dst.empty());
  EXPECT_FALSE(parsed->block.has_value());
}

TEST(AuditParse, RejectsNonAuditLines) {
  EXPECT_FALSE(AuditLogParser::parse_line("").has_value());
  EXPECT_FALSE(AuditLogParser::parse_line("not an audit line at all").has_value());
  EXPECT_FALSE(AuditLogParser::parse_line(
                   "2012-05-03 14:21:07,987 INFO NameNode: something else entirely")
                   .has_value());
  // Missing cmd= field.
  EXPECT_FALSE(AuditLogParser::parse_line(
                   "2012-05-03 14:21:07,987 INFO FSNamesystem.audit: allowed=true")
                   .has_value());
}

TEST(AuditParse, WholeLogSkipsJunk) {
  const AuditEvent a = sample_event();
  AuditEvent b = sample_event();
  b.cmd = "create";
  const std::string log =
      a.to_line() + "\njunk line\n\n" + b.to_line() + "\ntrailing junk";
  const auto events = AuditLogParser::parse(log);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].cmd, "open");
  EXPECT_EQ(events[1].cmd, "create");
}

TEST(AuditParse, MalformedAndTruncatedLines) {
  // Empty / whitespace-only input.
  EXPECT_FALSE(AuditLogParser::parse_line("").has_value());
  EXPECT_FALSE(AuditLogParser::parse_line("   ").has_value());
  // Truncated before the audit tag.
  EXPECT_FALSE(AuditLogParser::parse_line("2012-05-01 01:02:05,123").has_value());
  EXPECT_FALSE(AuditLogParser::parse_line("2012-05-01 01:02:05,123 INFO").has_value());
  // Truncated timestamps.
  EXPECT_FALSE(AuditLogParser::parse_line(
                   "2012-05 01:02:05,123 INFO FSNamesystem.audit: cmd=open src=/a")
                   .has_value());
  EXPECT_FALSE(AuditLogParser::parse_line(
                   "2012-05-01 01:02 INFO FSNamesystem.audit: cmd=open src=/a")
                   .has_value());
  EXPECT_FALSE(AuditLogParser::parse_line(
                   "2012-05-01 01:02:05 INFO FSNamesystem.audit: cmd=open src=/a")
                   .has_value());
  // Non-numeric timestamp fields.
  EXPECT_FALSE(AuditLogParser::parse_line(
                   "yyyy-mm-dd 01:02:05,123 INFO FSNamesystem.audit: cmd=open src=/a")
                   .has_value());
  // Wrong tag.
  EXPECT_FALSE(AuditLogParser::parse_line(
                   "2012-05-01 01:02:05,123 INFO NameNode.audit: cmd=open src=/a")
                   .has_value());
  // A line cut off mid key=value list still parses what it has, as long as
  // cmd= survived.
  const std::string full = sample_event().to_line();
  const std::string cut = full.substr(0, full.find(" src="));
  const auto parsed = AuditLogParser::parse_line(cut);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cmd, "open");
  EXPECT_TRUE(parsed->src.empty());
  // Cut before cmd= → rejected.
  EXPECT_FALSE(
      AuditLogParser::parse_line(full.substr(0, full.find(" cmd="))).has_value());
}

TEST(AuditParse, FieldsWithoutEqualsAreSkipped) {
  const auto parsed = AuditLogParser::parse_line(
      "2012-05-01 01:02:05,123 INFO FSNamesystem.audit: noise cmd=open src=/a junk");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cmd, "open");
  EXPECT_EQ(parsed->src, "/a");
}

TEST(AuditParse, NonNumericExtensionParsesAsZero) {
  // strtoll-compatible behavior: garbage yields 0, not a reject.
  const auto parsed = AuditLogParser::parse_line(
      "2012-05-01 01:02:05,123 INFO FSNamesystem.audit: cmd=read src=/a blk=abc dn=9");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->block.has_value());
  EXPECT_EQ(*parsed->block, 0);
  EXPECT_EQ(parsed->datanode, 9);
}

TEST(AuditParse, RejectsFidOutsideFileIdRange) {
  const std::string prefix =
      "2012-05-01 01:02:05,123 INFO FSNamesystem.audit: cmd=open src=/a fid=";
  for (const char* fid :
       {"4294967296", "-1", "9223372036854775807", "99999999999999999999"}) {
    EXPECT_FALSE(AuditLogParser::parse_line(prefix + fid).has_value()) << "fid=" << fid;
  }
  const auto top = AuditLogParser::parse_line(prefix + "4294967295");
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(top->fid, 4294967295);
  const auto zero = AuditLogParser::parse_line(prefix + "0");
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(zero->fid, 0);
}

TEST(AuditParse, ParseReservesAndHandlesTrailingNewline) {
  std::string log;
  for (int i = 0; i < 100; ++i) {
    AuditEvent e = sample_event();
    e.time = sim::SimTime{static_cast<std::int64_t>(i) * 1'000'000};
    log += e.to_line();
    log += '\n';
  }
  const auto events = AuditLogParser::parse(log);
  ASSERT_EQ(events.size(), 100u);
  EXPECT_EQ(events[99].time, sim::SimTime{99'000'000});
  // No trailing newline on the last line.
  const auto events2 = AuditLogParser::parse(log.substr(0, log.size() - 1));
  EXPECT_EQ(events2.size(), 100u);
}

/// The attributes a slotted event carries, by name, rendered with their kind.
std::map<std::string, std::string> attribute_set(const cep::SlottedEvent& e,
                                                 const cep::SymbolTable& attrs) {
  std::map<std::string, std::string> out;
  for (const cep::Slot slot : e.touched()) {
    const cep::SlotValue* v = e.get(slot);
    if (v == nullptr) {
      continue;
    }
    std::string& text = out[attrs.name(slot)];
    switch (v->kind) {
      case cep::SlotValue::Kind::kBool:
        text = v->b ? "bool:true" : "bool:false";
        break;
      case cep::SlotValue::Kind::kInt:
        text = "int:";
        text.append(std::to_string(v->i));
        break;
      case cep::SlotValue::Kind::kReal:
        text = "real:";
        text.append(std::to_string(v->r));
        break;
      case cep::SlotValue::Kind::kString:
        text = "string:";
        text.append(v->s);
        break;
      case cep::SlotValue::Kind::kNull:
        break;
    }
  }
  return out;
}

TEST(AuditSlotted, FillsTheAuditAttributeSet) {
  cep::SymbolTable attrs(/*fold_case=*/true);
  cep::SymbolTable streams(/*fold_case=*/false);
  const AuditSlots slots = AuditSlots::resolve(attrs, streams);
  AuditEvent e = sample_event();
  e.block = 11;
  e.datanode = 3;
  e.dst = "/moved";
  e.fid = 42;
  cep::SlottedEvent slotted;
  e.to_slotted(slots, slotted);
  EXPECT_EQ(slotted.time, e.time);
  EXPECT_EQ(slotted.stream, streams.find(AuditEvent::kStream));
  const std::map<std::string, std::string> full = {
      {"allowed", "bool:true"},   {"ugi", "string:hadoop"},
      {"ip", "string:/10.0.1.7"}, {"cmd", "string:open"},
      {"src", "string:/data/part-0001"}, {"dst", "string:/moved"},
      {"blk", "int:11"},          {"dn", "int:3"},
      {"fid", "int:42"}};
  EXPECT_EQ(attribute_set(slotted, attrs), full);

  // Reusing the event for a record without extensions clears them: dst,
  // blk, dn and fid are absent, not empty or zero.
  AuditEvent bare = sample_event();
  bare.to_slotted(slots, slotted);
  std::map<std::string, std::string> base = full;
  for (const char* extension : {"dst", "blk", "dn", "fid"}) {
    base.erase(extension);
  }
  EXPECT_EQ(attribute_set(slotted, attrs), base);
}

TEST(AuditTimestamp, MultiDayRollover) {
  AuditEvent e = sample_event();
  e.time = sim::SimTime{(48ll * 3600 + 61) * 1'000'000};  // day 3, 00:01:01
  const auto parsed = AuditLogParser::parse_line(e.to_line());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->time, e.time);
}

}  // namespace
}  // namespace erms::audit
