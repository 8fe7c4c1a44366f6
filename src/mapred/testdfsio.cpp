#include "mapred/testdfsio.h"

#include <map>
#include <algorithm>
#include <memory>

namespace erms::mapred {

namespace {

/// Sequentially read every block of `file` from `client`, retrying
/// session-rejected blocks after `backoff` (up to `max_retries` per block).
/// cb(ok, rejected_at_least_once, bytes).
void read_file_with_retry(hdfs::Cluster& cluster, hdfs::NodeId client,
                          const hdfs::FileInfo& file, sim::SimDuration backoff,
                          std::uint32_t max_retries,
                          std::function<void(bool, bool, std::uint64_t)> cb) {
  auto blocks = std::make_shared<std::vector<hdfs::BlockId>>(file.blocks);
  auto rejected = std::make_shared<bool>(false);
  auto bytes = std::make_shared<std::uint64_t>(0);
  auto next = std::make_shared<std::function<void(std::size_t, std::uint32_t)>>();
  // The step holds itself only weakly; the pending read or retry holds it
  // strongly, so the chain is freed once the last block's callback is done.
  *next = [&cluster, client, blocks, rejected, bytes, backoff, max_retries, cb,
           self = std::weak_ptr(next)](std::size_t i, std::uint32_t attempts) {
    if (i >= blocks->size()) {
      cb(true, *rejected, *bytes);
      return;
    }
    const auto next = self.lock();
    cluster.read_block(client, (*blocks)[i],
                       [&cluster, client, blocks, rejected, bytes, backoff, max_retries,
                        cb, next, i, attempts](const hdfs::ReadOutcome& out) {
                         if (out.ok) {
                           *bytes += out.bytes;
                           (*next)(i + 1, 0);
                           return;
                         }
                         if (out.error == hdfs::ReadError::kAllBusy) {
                           *rejected = true;
                           if (attempts < max_retries) {
                             cluster.simulation().schedule_after(
                                 backoff, [next, i, attempts] { (*next)(i, attempts + 1); });
                             return;
                           }
                         }
                         cb(false, *rejected, *bytes);
                       });
  };
  (*next)(0, 0);
}

std::vector<hdfs::NodeId> default_clients(hdfs::Cluster& cluster) {
  // Interleave racks so a small reader count is still rack-balanced (the
  // paper's clients were "distributed").
  std::map<std::uint32_t, std::vector<hdfs::NodeId>> by_rack;
  std::size_t serving = 0;
  for (const hdfs::NodeId n : cluster.nodes()) {
    if (cluster.is_serving(n)) {
      by_rack[cluster.rack_of(n).value()].push_back(n);
      ++serving;
    }
  }
  std::vector<hdfs::NodeId> clients;
  clients.reserve(serving);
  for (std::size_t i = 0; clients.size() < serving; ++i) {
    for (auto& [rack, nodes] : by_rack) {
      if (i < nodes.size()) {
        clients.push_back(nodes[i]);
      }
    }
  }
  return clients;
}

}  // namespace

TestDfsIoResult run_concurrent_read(hdfs::Cluster& cluster, const std::string& path,
                                    const TestDfsIoOptions& options) {
  TestDfsIoResult result;
  result.readers = options.readers;
  const hdfs::FileInfo* info = cluster.metadata().find_path(path);
  if (info == nullptr || options.readers == 0) {
    return result;
  }
  std::vector<hdfs::NodeId> clients =
      options.client_nodes.empty() ? default_clients(cluster) : options.client_nodes;
  if (clients.empty()) {
    return result;
  }

  sim::Simulation& sim = cluster.simulation();
  const sim::SimTime t0 = sim.now();
  auto done = std::make_shared<std::size_t>(0);
  struct PerReader {
    bool ok{false};
    bool rejected{false};
    double exec_s{0.0};
    std::uint64_t bytes{0};
  };
  auto readers = std::make_shared<std::vector<PerReader>>(options.readers);

  for (std::size_t i = 0; i < options.readers; ++i) {
    const hdfs::NodeId client = clients[i % clients.size()];
    read_file_with_retry(
        cluster, client, *info, options.busy_backoff, options.max_retries,
        [&sim, readers, done, i, t0](bool ok, bool rejected, std::uint64_t bytes) {
          PerReader& r = (*readers)[i];
          r.ok = ok;
          r.rejected = rejected;
          r.bytes = bytes;
          r.exec_s = (sim.now() - t0).seconds();
          ++*done;
        });
  }
  while (*done < options.readers && sim.step()) {
  }

  double sum_exec = 0.0;
  double sum_tp = 0.0;
  std::uint64_t total_bytes = 0;
  for (const PerReader& r : *readers) {
    if (!r.ok) {
      continue;
    }
    ++result.succeeded;
    result.rejected_initially += r.rejected ? 1 : 0;
    sum_exec += r.exec_s;
    result.max_execution_s = std::max(result.max_execution_s, r.exec_s);
    total_bytes += r.bytes;
    if (r.exec_s > 0.0) {
      sum_tp += static_cast<double>(r.bytes) / r.exec_s / 1e6;
    }
  }
  if (result.succeeded > 0) {
    result.mean_execution_s = sum_exec / static_cast<double>(result.succeeded);
    result.mean_reader_throughput_mbps = sum_tp / static_cast<double>(result.succeeded);
  }
  if (result.max_execution_s > 0.0) {
    result.aggregate_throughput_mbps =
        static_cast<double>(total_bytes) / result.max_execution_s / 1e6;
  }
  return result;
}

std::size_t max_concurrent_readers(hdfs::Cluster& cluster, const std::string& path,
                                   std::size_t limit,
                                   const std::vector<hdfs::NodeId>& client_nodes) {
  const hdfs::FileInfo* info = cluster.metadata().find_path(path);
  if (info == nullptr || limit == 0) {
    return 0;
  }
  std::vector<hdfs::NodeId> clients =
      client_nodes.empty() ? default_clients(cluster) : client_nodes;
  if (clients.empty()) {
    return 0;
  }
  sim::Simulation& sim = cluster.simulation();

  // probe(n): n concurrent full-file readers with no retries; true if no
  // reader is session-rejected (the paper ramped concurrent threads until
  // requests started being refused).
  auto probe = [&](std::size_t n) {
    auto done = std::make_shared<std::size_t>(0);
    auto clean = std::make_shared<bool>(true);
    for (std::size_t i = 0; i < n; ++i) {
      read_file_with_retry(cluster, clients[i % clients.size()], *info,
                           sim::millis(1), /*max_retries=*/0,
                           [done, clean](bool ok, bool rejected, std::uint64_t) {
                             *clean = *clean && ok && !rejected;
                             ++*done;
                           });
    }
    while (*done < n && sim.step()) {
    }
    return *clean;
  };

  // Binary search for the largest admitted reader count.
  std::size_t lo = 0;        // known good
  std::size_t hi = limit + 1;  // known bad (or untested bound)
  if (probe(limit)) {
    return limit;
  }
  while (lo + 1 < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (probe(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace erms::mapred
