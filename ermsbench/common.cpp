#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "ec/codec_registry.h"

namespace ermsbench {

bool BacklogSamples::flows_growing() const {
  const std::size_t n = active_flows.size();
  if (n < 8) {
    return false;
  }
  double quarter[4] = {};
  for (std::size_t q = 0; q < 4; ++q) {
    const std::size_t lo = q * n / 4;
    const std::size_t hi = (q + 1) * n / 4;
    for (std::size_t i = lo; i < hi; ++i) {
      quarter[q] += static_cast<double>(active_flows[i]);
    }
    quarter[q] /= static_cast<double>(hi - lo);
  }
  constexpr double kFloor = 64.0;  // flows; a healthy run stays far below
  return quarter[1] > quarter[0] && quarter[2] > quarter[1] && quarter[3] > quarter[2] &&
         quarter[3] > 2.0 * quarter[0] && quarter[3] > kFloor;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string outcome_text(hdfs::Cluster& cluster, core::ErmsManager& erms,
                         const RepResult& r, const ReadThroughput& reads) {
  std::string out;
  char line[160];
  const auto put = [&](const char* key, unsigned long long v) {
    std::snprintf(line, sizeof line, "%s=%llu\n", key, v);
    out += line;
  };
  const auto put_f = [&](const char* key, double v) {
    std::snprintf(line, sizeof line, "%s=%.17g\n", key, v);
    out += line;
  };
  const core::ErmsStats& s = erms.stats();
  put("erms.evaluations", s.evaluations);
  put("erms.hot_promotions", s.hot_promotions);
  put("erms.overload_promotions", s.overload_promotions);
  put("erms.predictive_promotions", s.predictive_promotions);
  put("erms.cooldowns", s.cooldowns);
  put("erms.encodes", s.encodes);
  put("erms.encodes_cooling", s.encodes_cooling);
  put("erms.encodes_frozen", s.encodes_frozen);
  put("erms.decodes", s.decodes);
  put("erms.jobs_failed", s.jobs_failed);
  put("hdfs.reads_completed", cluster.reads_completed());
  put("hdfs.reads_rejected", cluster.reads_rejected());
  put("hdfs.blocks_lost", cluster.blocks_lost());
  put("hdfs.rereplications", cluster.rereplications_completed());
  put("hdfs.recovery_retries", cluster.recovery_retries());
  put("hdfs.recoveries_abandoned", cluster.recoveries_abandoned());
  put("hdfs.corruptions_detected", cluster.corruptions_detected());
  put("hdfs.used_bytes", cluster.used_bytes_total());
  for (const auto& [name, ops] : {std::pair{"ops", &r.ops}, {"reads", &r.client_reads}}) {
    const std::string key(name);
    put((key + ".attempted").c_str(), ops->attempted);
    put((key + ".ok").c_str(), ops->ok);
    put((key + ".failed").c_str(), ops->failed);
    put((key + ".rejected").c_str(), ops->rejected);
    put((key + ".degraded").c_str(), ops->degraded);
  }
  put("reads.timed", reads.reads);
  put_f("reads.sum_mbps", reads.sum_mbps);
  put("judge.events", erms.feed().events_ingested());
  put("sim.events", cluster.simulation().events_executed());
  put("sim.now_us", static_cast<unsigned long long>(cluster.simulation().now().micros()));
  put("net.bytes", cluster.network().total_bytes_completed());
  put("net.inter_rack_bytes", cluster.network().inter_rack_bytes());
  put("net.flows_aborted", cluster.network().flows_aborted());
  put("net.bytes_aborted", cluster.network().bytes_aborted());
  put_f("energy_joules", cluster.energy_joules_total());

  // Final (replication factor, codec) histogram across live files.
  std::map<std::string, std::uint64_t> shape;
  const hdfs::Namespace& ns = cluster.metadata();
  for (std::size_t f = 1; f < ns.file_id_bound(); ++f) {
    const hdfs::FileInfo* info = ns.find(hdfs::FileId{static_cast<std::uint32_t>(f)});
    if (info == nullptr) {
      continue;
    }
    std::string key = info->erasure_coded
                          ? std::string(ec::to_string(static_cast<ec::CodecKind>(
                                info->ec_codec))) +
                                "+" + std::to_string(info->parity_blocks.size())
                          : "rep";
    key += ":r" + std::to_string(info->replication);
    ++shape[key];
  }
  for (const auto& [key, count] : shape) {
    put(("files." + key).c_str(), count);
  }
  return out;
}

void record_outcomes(RepResult& r, hdfs::Cluster& cluster) {
  std::uint64_t logical = 0;
  const hdfs::Namespace& ns = cluster.metadata();
  for (std::size_t f = 1; f < ns.file_id_bound(); ++f) {
    if (const hdfs::FileInfo* info = ns.find(hdfs::FileId{static_cast<std::uint32_t>(f)})) {
      logical += info->size;
    }
  }
  r.storage_ratio = logical == 0 ? 0.0
                                 : static_cast<double>(cluster.used_bytes_total()) /
                                       static_cast<double>(logical);
  r.energy_kwh = cluster.energy_joules_total() / 3.6e6;
}

void record_counts(RepResult& r, hdfs::Cluster& cluster, core::ErmsManager& erms,
                   const TimedPlacement& placement) {
  constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
  const net::NetworkModel& net = cluster.network();
  const core::ErmsStats& s = erms.stats();
  const condor::Scheduler& sched = erms.scheduler();
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  for (const condor::JobLogRecord& rec : sched.log()) {
    submitted += rec.kind == condor::JobLogRecord::Kind::kSubmit ? 1 : 0;
    completed += rec.kind == condor::JobLogRecord::Kind::kTerminateOk ? 1 : 0;
  }
  const auto max_of = [](const std::vector<std::size_t>& v) {
    return v.empty() ? 0.0 : static_cast<double>(*std::max_element(v.begin(), v.end()));
  };
  auto& c = r.counts;
  c["hdfs.placement_calls"] = static_cast<double>(placement.calls());
  c["judge.events"] = static_cast<double>(erms.feed().events_ingested());
  c["sim.events"] = static_cast<double>(cluster.simulation().events_executed());
  c["net.bytes_gib"] = static_cast<double>(net.total_bytes_completed()) / kGiB;
  c["net.inter_rack_gib"] = static_cast<double>(net.inter_rack_bytes()) / kGiB;
  c["net.flows_aborted"] = static_cast<double>(net.flows_aborted());
  c["net.active_flows_max"] = max_of(r.backlog.active_flows);
  c["hdfs.reads_ok"] = static_cast<double>(r.client_reads.ok);
  c["hdfs.reads_failed"] = static_cast<double>(r.client_reads.failed);
  c["hdfs.reads_degraded"] = static_cast<double>(r.client_reads.degraded);
  c["hdfs.rereplications"] = static_cast<double>(cluster.rereplications_completed());
  c["hdfs.recovery_retries"] = static_cast<double>(cluster.recovery_retries());
  c["hdfs.blocks_lost"] = static_cast<double>(cluster.blocks_lost());
  c["core.evaluations"] = static_cast<double>(s.evaluations);
  c["core.promotions"] =
      static_cast<double>(s.hot_promotions + s.overload_promotions + s.predictive_promotions);
  c["core.cooldowns"] = static_cast<double>(s.cooldowns);
  c["core.encodes"] = static_cast<double>(s.encodes);
  c["core.decodes"] = static_cast<double>(s.decodes);
  c["core.jobs_failed"] = static_cast<double>(s.jobs_failed);
  c["condor.jobs"] = static_cast<double>(submitted);
  c["condor.retries"] = static_cast<double>(sched.retries());
  c["condor.queued_max"] = max_of(r.backlog.queued_jobs);
  c["condor.completed_ratio"] =
      submitted == 0 ? 1.0 : static_cast<double>(completed) / static_cast<double>(submitted);
}

std::size_t fill_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

}  // namespace ermsbench
