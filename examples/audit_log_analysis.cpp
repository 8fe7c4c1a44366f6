// Standalone CEP over an HDFS audit log: generate a log file in the real
// FSNamesystem.audit format, parse it back, and run continuous queries — the
// paper's "log parser + CEP engine" pipeline (§III.C) without a cluster.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "audit/audit.h"
#include "cep/engine.h"
#include "cep/epl_parser.h"
#include "sim/random.h"

using namespace erms;

namespace {

/// Synthesize an audit log: 2000 records over 10 minutes, Zipf-skewed over
/// 20 paths, served by 18 datanodes.
std::string synthesize_log() {
  sim::Rng rng{7};
  const sim::ZipfDistribution zipf{20, 1.2};
  std::ostringstream os;
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) {
    t += rng.exponential(0.3);
    const std::size_t rank = zipf.sample(rng);
    audit::AuditEvent e;
    e.time = sim::SimTime{static_cast<std::int64_t>(t * 1e6)};
    e.cmd = rng.chance(0.3) ? "open" : "read";
    e.src = "/warehouse/table-" + std::to_string(rank);
    e.ip = "/10.0." + std::to_string(rng.uniform_int(0, 2)) + "." +
           std::to_string(rng.uniform_int(0, 17));
    if (e.cmd == "read") {
      e.block = rng.uniform_int(1, 200);
      e.datanode = rng.uniform_int(0, 17);
    }
    os << e.to_line() << '\n';
  }
  return os.str();
}

}  // namespace

int main() {
  const std::string log_text = synthesize_log();
  std::printf("Parsing %zu bytes of audit log...\n", log_text.size());
  const std::vector<audit::AuditEvent> events = audit::AuditLogParser::parse(log_text);
  std::printf("Parsed %zu audit records. First record:\n  %s\n\n", events.size(),
              events.front().to_line().c_str());

  // Continuous queries, written in the engine's EPL.
  cep::Engine engine;
  const cep::QueryId hot_paths = engine.register_query(cep::parse_epl(
      "SELECT count(*) AS n FROM audit GROUP BY src WINDOW TIME 120s"));
  const cep::QueryId node_load = engine.register_query(cep::parse_epl(
      "SELECT count(*) AS n FROM audit WHERE cmd == \"read\" GROUP BY dn WINDOW TIME "
      "120s"));

  // An alerting query: fire whenever a path exceeds 50 accesses in-window
  // (what the Data Judge does with τ_M·r).
  std::size_t alerts = 0;
  std::string last_alert;
  engine.register_query(
      cep::parse_epl("SELECT count(*) AS n FROM audit GROUP BY src WINDOW TIME 120s "
                     "HAVING n == 50"),
      [&](const cep::ResultRow& row) {
        ++alerts;
        last_alert = row.values.get_string("src").value_or("?");
      });

  // Feed the engine: resolve the audit stream's slots once, then fill one
  // reused slotted event per record.
  const audit::AuditSlots slots =
      audit::AuditSlots::resolve(engine.attr_symbols(), engine.stream_symbols());
  cep::SlottedEvent scratch;
  for (const audit::AuditEvent& e : events) {
    e.to_slotted(slots, scratch);
    engine.push_slotted(scratch);
  }

  // Top-5 hottest paths in the final window.
  auto rows = engine.snapshot(hot_paths);
  std::sort(rows.begin(), rows.end(), [](const cep::ResultRow& a, const cep::ResultRow& b) {
    return a.values.get_int("n").value_or(0) > b.values.get_int("n").value_or(0);
  });
  std::printf("Top paths in the last 120 s window:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, rows.size()); ++i) {
    std::printf("  %-28s %3lld accesses\n",
                rows[i].values.get_string("src").value_or("?").c_str(),
                static_cast<long long>(rows[i].values.get_int("n").value_or(0)));
  }

  auto nodes = engine.snapshot(node_load);
  std::sort(nodes.begin(), nodes.end(),
            [](const cep::ResultRow& a, const cep::ResultRow& b) {
              return a.values.get_int("n").value_or(0) > b.values.get_int("n").value_or(0);
            });
  std::printf("\nBusiest datanodes in the window:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(3, nodes.size()); ++i) {
    std::printf("  dn%-3s %3lld block reads\n",
                nodes[i].values.get_string("dn").value_or("?").c_str(),
                static_cast<long long>(nodes[i].values.get_int("n").value_or(0)));
  }

  std::printf("\nHot-path alerts fired: %zu (last: %s)\n", alerts,
              last_alert.empty() ? "none" : last_alert.c_str());
  std::printf("Engine processed %llu events across %zu queries.\n",
              static_cast<unsigned long long>(engine.events_processed()),
              engine.query_count());
  return 0;
}
