#include "audit/audit.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <limits>

#include "util/strings.h"

namespace erms::audit {

namespace {

/// Render SimTime as the audit log's "YYYY-MM-DD hh:mm:ss,mmm" timestamp.
/// Simulation time zero maps to an arbitrary epoch date.
std::string format_timestamp(sim::SimTime t) {
  const std::int64_t total_ms = t.micros() / 1000;
  const std::int64_t ms = total_ms % 1000;
  std::int64_t secs = total_ms / 1000;
  const std::int64_t sec = secs % 60;
  secs /= 60;
  const std::int64_t min = secs % 60;
  secs /= 60;
  const std::int64_t hour = secs % 24;
  const std::int64_t day = secs / 24;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "2012-05-%02" PRId64 " %02" PRId64 ":%02" PRId64 ":%02" PRId64 ",%03" PRId64,
                1 + day % 28, hour, min, sec, ms);
  return buf;
}

/// Consume a decimal int from the front of `s`; false if none is there.
bool eat_int(std::string_view& s, int& out) {
  const auto res = std::from_chars(s.data(), s.data() + s.size(), out);
  if (res.ec != std::errc()) {
    return false;
  }
  s.remove_prefix(static_cast<std::size_t>(res.ptr - s.data()));
  return true;
}

bool eat_char(std::string_view& s, char c) {
  if (s.empty() || s.front() != c) {
    return false;
  }
  s.remove_prefix(1);
  return true;
}

/// Invert format_timestamp back to SimTime (micros). No intermediate
/// std::string: the fields are consumed in place with from_chars.
std::optional<sim::SimTime> parse_timestamp(std::string_view date, std::string_view clock) {
  int year = 0;
  int month = 0;
  int day = 0;
  int hour = 0;
  int min = 0;
  int sec = 0;
  int ms = 0;
  if (!eat_int(date, year) || !eat_char(date, '-') || !eat_int(date, month) ||
      !eat_char(date, '-') || !eat_int(date, day)) {
    return std::nullopt;
  }
  if (!eat_int(clock, hour) || !eat_char(clock, ':') || !eat_int(clock, min) ||
      !eat_char(clock, ':') || !eat_int(clock, sec) || !eat_char(clock, ',') ||
      !eat_int(clock, ms)) {
    return std::nullopt;
  }
  const std::int64_t days = day - 1;
  const std::int64_t total_ms =
      ((days * 24 + hour) * 60 + min) * 60000ll + sec * 1000ll + ms;
  return sim::SimTime{total_ms * 1000};
}

/// strtoll-like prefix parse: garbage yields 0, trailing junk is ignored.
std::int64_t parse_i64(std::string_view s) {
  std::int64_t v = 0;
  std::from_chars(s.data(), s.data() + s.size(), v);
  return v;
}

/// Walks ' '-separated fields in place, with exactly util::split semantics
/// (empty fields kept), but without materializing a vector per line.
struct FieldCursor {
  std::string_view rest;
  bool done{false};

  bool next(std::string_view& out) {
    if (done) {
      return false;
    }
    const std::size_t pos = rest.find(' ');
    if (pos == std::string_view::npos) {
      out = rest;
      done = true;
      return true;
    }
    out = rest.substr(0, pos);
    rest.remove_prefix(pos + 1);
    return true;
  }
};

}  // namespace

AuditSlots AuditSlots::resolve(cep::SymbolTable& attrs, cep::SymbolTable& streams) {
  AuditSlots s;
  s.stream = streams.intern(AuditEvent::kStream);
  s.allowed = attrs.intern("allowed");
  s.ugi = attrs.intern("ugi");
  s.ip = attrs.intern("ip");
  s.cmd = attrs.intern("cmd");
  s.src = attrs.intern("src");
  s.dst = attrs.intern("dst");
  s.blk = attrs.intern("blk");
  s.dn = attrs.intern("dn");
  s.fid = attrs.intern("fid");
  return s;
}

std::string AuditEvent::to_line() const {
  std::string line = format_timestamp(time);
  line += " INFO FSNamesystem.audit: allowed=";
  line += allowed ? "true" : "false";
  line += " ugi=" + ugi;
  line += " ip=" + ip;
  line += " cmd=" + cmd;
  line += " src=" + src;
  line += " dst=" + (dst.empty() ? std::string("null") : dst);
  line += " perm=null";
  if (block) {
    line += " blk=" + std::to_string(*block);
  }
  if (datanode) {
    line += " dn=" + std::to_string(*datanode);
  }
  if (fid != 0) {
    line += " fid=" + std::to_string(fid);
  }
  return line;
}

cep::Event AuditEvent::to_cep_event() const {
  cep::Event event{time, kStream};
  event.attrs.insert_bool("allowed", allowed);
  event.with_string("ugi", ugi)
      .with_string("ip", ip)
      .with_string("cmd", cmd)
      .with_string("src", src);
  if (!dst.empty()) {
    event.with_string("dst", dst);
  }
  if (block) {
    event.with_int("blk", *block);
  }
  if (datanode) {
    event.with_int("dn", *datanode);
  }
  if (fid != 0) {
    event.with_int("fid", fid);
  }
  return event;
}

void AuditEvent::to_slotted(const AuditSlots& slots, cep::SlottedEvent& out) const {
  out.reset(time, slots.stream);
  if (slots.wants(slots.allowed)) {
    out.set_bool(slots.allowed, allowed);
  }
  if (slots.wants(slots.ugi)) {
    out.set_string(slots.ugi, ugi);
  }
  if (slots.wants(slots.ip)) {
    out.set_string(slots.ip, ip);
  }
  if (slots.wants(slots.cmd)) {
    out.set_string(slots.cmd, cmd);
  }
  if (slots.wants(slots.src)) {
    out.set_string(slots.src, src);
  }
  if (!dst.empty() && slots.wants(slots.dst)) {
    out.set_string(slots.dst, dst);
  }
  if (block && slots.wants(slots.blk)) {
    out.set_int(slots.blk, *block);
  }
  if (datanode && slots.wants(slots.dn)) {
    out.set_int(slots.dn, *datanode);
  }
  if (fid != 0 && slots.wants(slots.fid)) {
    out.set_int(slots.fid, fid);
  }
}

std::optional<AuditEvent> AuditLogParser::parse_line(std::string_view line) {
  FieldCursor cursor{util::trim(line)};
  // Minimum shape: date time INFO FSNamesystem.audit: k=v...
  std::string_view date;
  std::string_view clock;
  std::string_view level;
  std::string_view tag;
  if (!cursor.next(date) || !cursor.next(clock) || !cursor.next(level) || !cursor.next(tag)) {
    return std::nullopt;
  }
  if (tag != "FSNamesystem.audit:") {
    return std::nullopt;
  }
  const auto time = parse_timestamp(date, clock);
  if (!time) {
    return std::nullopt;
  }
  AuditEvent event;
  event.time = *time;
  bool saw_cmd = false;
  bool saw_field = false;
  std::string_view field;
  while (cursor.next(field)) {
    saw_field = true;
    std::string_view key;
    std::string_view value;
    if (!util::split_key_value(field, key, value)) {
      continue;
    }
    if (key == "allowed") {
      event.allowed = value == "true";
    } else if (key == "ugi") {
      event.ugi = value;
    } else if (key == "ip") {
      event.ip = value;
    } else if (key == "cmd") {
      event.cmd = value;
      saw_cmd = true;
    } else if (key == "src") {
      event.src = value;
    } else if (key == "dst") {
      event.dst = value == "null" ? std::string_view() : value;
    } else if (key == "blk") {
      event.block = parse_i64(value);
    } else if (key == "dn") {
      event.datanode = parse_i64(value);
    } else if (key == "fid") {
      // A FileId is 32 bits wide: a fid outside [0, 2^32 - 1] (overflow
      // included) names no file, so the record is rejected rather than
      // clamped. Garbage still reads as 0 (unknown), like blk= and dn=.
      std::int64_t fid = 0;
      const auto res = std::from_chars(value.data(), value.data() + value.size(), fid);
      if (res.ec == std::errc::result_out_of_range || fid < 0 ||
          fid > std::int64_t{std::numeric_limits<std::uint32_t>::max()}) {
        return std::nullopt;
      }
      event.fid = fid;
    }
  }
  if (!saw_cmd || !saw_field) {
    return std::nullopt;
  }
  return event;
}

std::vector<AuditEvent> AuditLogParser::parse(std::string_view log_text) {
  std::vector<AuditEvent> events;
  events.reserve(static_cast<std::size_t>(
                     std::count(log_text.begin(), log_text.end(), '\n')) +
                 1);
  std::size_t start = 0;
  while (start <= log_text.size()) {
    const std::size_t pos = log_text.find('\n', start);
    const std::string_view line =
        log_text.substr(start, pos == std::string_view::npos ? std::string_view::npos
                                                             : pos - start);
    if (auto event = parse_line(line)) {
      events.push_back(std::move(*event));
    }
    if (pos == std::string_view::npos) {
      break;
    }
    start = pos + 1;
  }
  return events;
}

}  // namespace erms::audit
