#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cep/slotted_event.h"
#include "sim/time.h"

namespace erms::audit {

/// The audit stream's attribute/stream slots, resolved once against a CEP
/// engine's symbol tables. With these in hand, AuditEvent::to_slotted fills
/// a reusable SlottedEvent with zero map inserts and (once warm) zero
/// allocations — the hot half of the audit → Data Judge ingest path.
struct AuditSlots {
  cep::Slot stream{cep::kNoSlot};
  cep::Slot allowed{cep::kNoSlot};
  cep::Slot ugi{cep::kNoSlot};
  cep::Slot ip{cep::kNoSlot};
  cep::Slot cmd{cep::kNoSlot};
  cep::Slot src{cep::kNoSlot};
  cep::Slot dst{cep::kNoSlot};
  cep::Slot blk{cep::kNoSlot};
  cep::Slot dn{cep::kNoSlot};
  cep::Slot fid{cep::kNoSlot};
  /// When set, to_slotted fills only the attributes this read set marks
  /// (cep::EngineBase::read_attrs); null fills every attribute.
  const std::vector<bool>* read{nullptr};

  static AuditSlots resolve(cep::SymbolTable& attrs, cep::SymbolTable& streams);

  [[nodiscard]] bool wants(cep::Slot slot) const {
    return read == nullptr || (slot < read->size() && (*read)[slot]);
  }
};

/// One HDFS namenode audit record. Mirrors the real FSNamesystem.audit line:
///
///   <ts> INFO FSNamesystem.audit: allowed=true ugi=hadoop ip=/10.0.1.7
///     cmd=open src=/data/part-0001 dst=null perm=null
///
/// plus three ERMS extensions: `blk=` and `dn=` carrying the block and
/// datanode of block-level reads, which the Data Judge's per-block and
/// per-datanode queries need, and `fid=` carrying the interned FileId so
/// the judge's hot path groups by a dense 32-bit key instead of re-hashing
/// the path string (the paper's parser joins audit records with namenode
/// metadata to the same effect).
struct AuditEvent {
  sim::SimTime time;
  bool allowed{true};
  std::string ugi{"hadoop"};
  std::string ip;       // "/10.0.<rack>.<node>"
  std::string cmd;      // open / create / setReplication / delete / ...
  std::string src;
  std::string dst;      // empty = "null"
  std::optional<std::int64_t> block;     // ERMS extension
  std::optional<std::int64_t> datanode;  // ERMS extension
  std::int64_t fid{0};                   // ERMS extension: interned FileId (0 = unknown)

  /// The CEP stream name audit events are published on.
  static constexpr const char* kStream = "audit";

  /// Format as an audit-log line (without trailing newline).
  [[nodiscard]] std::string to_line() const;

  /// Fill `out` as a CEP event on stream kStream with attributes allowed,
  /// ugi, ip, cmd, src and, when present, dst, blk, dn and fid (fid != 0),
  /// less any `slots` does not want. No per-attribute allocations.
  void to_slotted(const AuditSlots& slots, cep::SlottedEvent& out) const;
};

/// Parses audit-log lines back into events — the component the paper calls
/// its "log parser ... to analyze the HDFS audit logs and translate the logs
/// records into events for CEP system" (§III.C).
class AuditLogParser {
 public:
  /// Parse one line; nullopt if the line is not an audit record or its
  /// `fid=` lies outside FileId's range [0, 2^32 - 1].
  [[nodiscard]] static std::optional<AuditEvent> parse_line(std::string_view line);

  /// Parse a whole log (lines separated by '\n'), skipping non-audit lines.
  [[nodiscard]] static std::vector<AuditEvent> parse(std::string_view log_text);
};

}  // namespace erms::audit
