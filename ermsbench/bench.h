#pragma once

// Shared pieces of the ERMS benchmark: run options, the per-layer span
// tracer, the timing placement decorator, one repetition's result, and the
// simulated-outcome digest. See README.md for the workloads and metrics.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/erms.h"
#include "hdfs/cluster.h"
#include "hdfs/placement.h"

namespace ermsbench {

using namespace erms;

struct Options {
  std::string workload{"judge_ingest"};
  std::uint64_t seed{1};
  double seconds{1.0};
  bool trace{false};
};

/// Host wall clock.
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The layers the traced run times, one per src/ module boundary the
/// benchmark itself calls through.
enum class Layer : int {
  kGenerate,     // workload: synthesising the seeded inputs
  kPopulate,     // hdfs: Cluster::populate_files
  kPlacement,    // hdfs: PlacementPolicy calls (timing decorator)
  kFeedIngest,   // judge: AccessStatsFeed::on_audit_batch (batch sink)
  kCepAdvance,   // cep: AccessStatsFeed::advance_to window eviction
  kEvaluate,     // core: ErmsManager::evaluate
  kSimDispatch,  // sim: Simulation::run_until
  kCount
};

/// Nested wall-clock spans on the main thread. Off, every call is one
/// branch, so untraced and traced runs execute the same simulation; on,
/// each layer accumulates its total and its self time (total minus the
/// spans nested inside it).
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  void begin(Layer layer) {
    if (on_) {
      stack_.push_back(Frame{layer, wall_now(), 0.0});
    }
  }

  void end() {
    if (!on_) {
      return;
    }
    const Frame f = stack_.back();
    stack_.pop_back();
    const double d = wall_now() - f.start;
    const auto i = static_cast<std::size_t>(f.layer);
    total_[i] += d;
    self_[i] += d - f.children;
    if (!stack_.empty()) {
      stack_.back().children += d;
    }
    if (f.layer == Layer::kEvaluate) {
      evaluate_ms_.push_back(d * 1e3);
    }
  }

  [[nodiscard]] double total(Layer layer) const {
    return total_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] double self(Layer layer) const {
    return self_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] const std::vector<double>& evaluate_ms() const { return evaluate_ms_; }
  /// Sum of every layer's self time: the wall time covered by spans.
  [[nodiscard]] double self_sum() const {
    double sum = 0.0;
    for (const double s : self_) {
      sum += s;
    }
    return sum;
  }

 private:
  struct Frame {
    Layer layer;
    double start;
    double children;
  };
  bool on_;
  std::vector<Frame> stack_;
  double total_[static_cast<std::size_t>(Layer::kCount)]{};
  double self_[static_cast<std::size_t>(Layer::kCount)]{};
  std::vector<double> evaluate_ms_;
};

class Span {
 public:
  Span(Tracer& tracer, Layer layer) : tracer_(tracer) { tracer_.begin(layer); }
  ~Span() { tracer_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

/// Decorates the placement policy the cluster would otherwise use: counts
/// every call and, when tracing, times it. `inner` must outlive the
/// decorator's use by the cluster (the ErmsManager or the world owns it).
class TimedPlacement final : public hdfs::PlacementPolicy {
 public:
  TimedPlacement(const hdfs::PlacementPolicy& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] std::vector<hdfs::NodeId> choose_targets(
      const hdfs::Cluster& cluster, hdfs::BlockId block, std::size_t count,
      std::optional<hdfs::NodeId> writer, sim::Rng& rng) const override {
    ++calls_;
    const Span span(tracer_, Layer::kPlacement);
    return inner_.choose_targets(cluster, block, count, writer, rng);
  }

  [[nodiscard]] std::optional<hdfs::NodeId> choose_replica_to_remove(
      const hdfs::Cluster& cluster, hdfs::BlockId block, sim::Rng& rng) const override {
    ++calls_;
    const Span span(tracer_, Layer::kPlacement);
    return inner_.choose_replica_to_remove(cluster, block, rng);
  }

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  const hdfs::PlacementPolicy& inner_;
  Tracer& tracer_;
  mutable std::uint64_t calls_{0};
};

/// Operations of one repetition: client reads (cold_archive) or
/// audit events offered to the feed (judge_ingest).
struct Ops {
  std::uint64_t attempted{0};
  std::uint64_t ok{0};
  std::uint64_t failed{0};    // includes rejected
  std::uint64_t rejected{0};  // kAllBusy: every replica holder was saturated
  std::uint64_t degraded{0};  // served through erasure-code reconstruction
};

/// Mean throughput of completed client reads, in simulated time.
struct ReadThroughput {
  double sum_mbps{0.0};
  std::uint64_t reads{0};

  void add(const hdfs::ReadOutcome& out) {
    const double s = out.duration.seconds();
    if (out.ok && s > 0.0) {
      sum_mbps += static_cast<double>(out.bytes) / s / 1e6;
      ++reads;
    }
  }
  [[nodiscard]] double mean() const {
    return reads == 0 ? 0.0 : sum_mbps / static_cast<double>(reads);
  }
};

/// Issue one client read of `file` from `client` and tally its outcome.
/// `ops` and `tp` must outlive the simulation run that completes the read.
inline void issue_read(hdfs::Cluster& cluster, hdfs::NodeId client, hdfs::FileId file,
                       Ops& ops, ReadThroughput& tp) {
  ++ops.attempted;
  cluster.read_file(client, file, [&ops, &tp](const hdfs::ReadOutcome& out) {
    ops.degraded += out.degraded ? 1 : 0;
    if (out.ok) {
      ++ops.ok;
      tp.add(out);
    } else {
      ++ops.failed;
      ops.rejected += out.error == hdfs::ReadError::kAllBusy ? 1 : 0;
    }
  });
}

/// Backlog samples taken at every evaluation the benchmark schedules.
struct BacklogSamples {
  std::vector<std::size_t> active_flows;
  std::vector<std::size_t> queued_jobs;

  void sample(hdfs::Cluster& cluster, core::ErmsManager& erms) {
    active_flows.push_back(cluster.network().active_flows());
    queued_jobs.push_back(erms.scheduler().queued_count());
  }

  /// A run past capacity measures its own backlog: flag one whose flow
  /// count keeps climbing — each quarter of the run averaging above the
  /// last, ending well above both where it started and a small floor.
  [[nodiscard]] bool flows_growing() const;
};

/// Everything one repetition (one setup + one timed phase) produces.
struct RepResult {
  double setup_s{0.0};
  double timed_s{0.0};
  double timed_spans_s{0.0};  // wall time the spans cover inside the timed phase
  double sim_s{0.0};            // simulated seconds advanced in the timed phase
  std::uint64_t feed_events{0};  // audit events delivered to the feed, timed phase
  double read_mbps{0.0};
  double storage_ratio{0.0};
  double energy_kwh{0.0};
  Ops ops;           // the failed-share base
  Ops client_reads;  // reads through Cluster::read_file (== ops on data planes)
  BacklogSamples backlog;
  std::string digest_text;  // canonical simulated outcome
  std::vector<std::string> problems;  // failed output checks

  // Per-layer counts (exact, from public accessors).
  std::map<std::string, double> counts;
};

/// Canonical text of the deterministic simulated outcome of a finished
/// world: ErmsStats, cluster read/recovery/loss counters, executed sim
/// events, network bytes and the (replication, codec) histogram of files.
std::string outcome_text(hdfs::Cluster& cluster, core::ErmsManager& erms,
                         const RepResult& r, const ReadThroughput& reads);

/// FNV-1a 64 of `text`.
std::uint64_t fnv1a(const std::string& text);

/// Counts shared by every workload's per-layer report.
void record_counts(RepResult& r, hdfs::Cluster& cluster, core::ErmsManager& erms,
                   const TimedPlacement& placement);

/// Storage and energy outcomes at end of run.
void record_outcomes(RepResult& r, hdfs::Cluster& cluster);

/// Namespace fill pool size: at most four threads, never more than the host has.
std::size_t fill_threads();

RepResult run_judge_ingest(const Options& opt, Tracer& tracer);
RepResult run_cold_archive(const Options& opt, Tracer& tracer);

}  // namespace ermsbench
