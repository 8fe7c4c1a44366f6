#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cep/engine.h"
#include "cep/sharded_engine.h"
#include "condor/scheduler.h"
#include "core/erms_placement.h"
#include "core/standby.h"
#include "ec/codec_registry.h"
#include "hdfs/cluster.h"
#include "judge/feed.h"
#include "judge/judge.h"
#include "judge/predictor.h"
#include "obs/observability.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace erms::snapshot {
class Reader;
class Writer;
}

namespace erms::core {

/// Tunables of the ERMS control loop.
struct ErmsConfig {
  judge::Thresholds thresholds;
  /// Reed–Solomon parities for cold data (paper §IV.B: "a replication
  /// factor of one and four coding parities").
  std::uint32_t parity_count = 4;
  /// Read by nothing: the manager owns no byte-level codec and no pool for
  /// one. Kept only because the benchmark harness assigns it; it goes when
  /// that assignment does.
  std::size_t codec_threads = 0;
  /// Erasure code per temperature band, by registry name ("rs",
  /// "azure_lrc", "hh_xor_plus" — see docs/EC_CODECS.md). A file the judge
  /// rules cold encodes with `codec_cooling` while it has been idle for
  /// less than `frozen_age`: recently-cooled data still sees the odd read,
  /// so a repair-cheap code (AzureLRC reads its local group, not k shards)
  /// pays for itself on every degraded read and node failure. Once idle at
  /// least `frozen_age` the file is deep archive and encodes with
  /// `codec_frozen` — plain RS, the highest-rate MDS code, whose whole-k
  /// repair cost almost never comes due. Unknown names fall back to "rs".
  std::string codec_cooling = "azure_lrc";
  std::string codec_frozen = "rs";
  /// Idle-time boundary between the cooling and frozen bands.
  sim::SimDuration frozen_age = sim::hours(72.0);
  /// AzureLRC shape when a band selects "azure_lrc": l local groups and g
  /// global parities over the file's k data blocks (l + g parity blocks
  /// total; the default (2,2) matches the paper's 4-parity budget).
  std::uint32_t lrc_local_groups = 2;
  std::uint32_t lrc_global_parities = 2;
  /// How often the Data Judge evaluates the window and issues actions.
  sim::SimDuration evaluation_period = sim::seconds(30.0);
  /// Upper bound on any file's replication factor.
  std::uint32_t max_replication = 10;
  /// Network flows at or below this count as "cluster idle" for deferred
  /// (kWhenIdle) Condor jobs.
  std::size_t idle_flow_threshold = 2;
  /// Power drained standby nodes down after cooling (set false to keep them
  /// hot for benchmarks that want steady capacity).
  bool manage_standby_power = true;
  /// Derive τ_M (and the proportional thresholds) from the cluster's actual
  /// per-datanode session capacity at start() — "ERMS could dynamically
  /// change these thresholds based on system environments" (§III.C).
  bool auto_calibrate = false;
  /// Promote *rising* files before they cross τ_M, using a Holt
  /// double-exponential forecast of the windowed access count (the paper's
  /// §V future work on predicting data types). Cooling/encoding decisions
  /// always use observed counts.
  bool predictive = false;
  judge::AccessPredictor::Config predictor;
  /// CEP engine shards behind the Data Judge's feed. 1 = the scalar engine;
  /// >1 = a ShardedEngine routing audit events by src hash; 0 = one shard
  /// per hardware thread.
  std::size_t judge_shards = 1;
  /// Events buffered per shard flush when judge_shards != 1.
  std::size_t judge_batch_events = 256;
  /// When nonzero, the manager installs the cluster's *batched* audit sink:
  /// emitted records accumulate in a reused buffer and reach the judge's
  /// feed as spans of this many events (one engine dispatch per span)
  /// instead of one call each. Every evaluation flushes the buffer first,
  /// so windowed reads never miss buffered events. 0 keeps the per-event
  /// sink.
  std::size_t judge_batch_flush_events = 0;
  /// Worker threads for the judge's per-file classify sweep and the node
  /// overload sweep. 1 (default) runs them serially; 0 means one per
  /// hardware thread. Any value produces byte-identical action traces: the
  /// sweeps classify disjoint id ranges in parallel against a frozen view
  /// and apply the merged decisions serially in id order.
  std::size_t sweep_threads = 1;
  /// Attach an Observability bundle (metrics registry + action trace) to the
  /// whole stack: cluster, network, Condor scheduler, standby manager, and
  /// the control loop itself. Off by default — when false no registry exists
  /// and every instrumentation site reduces to one null-pointer test.
  bool observe = false;
  /// Bounded capacity of the action-trace ring when observe is true; the
  /// oldest events are evicted (and counted as dropped) past this.
  std::size_t trace_capacity = 4096;
  /// Failed Condor job attempts are requeued with capped exponential
  /// backoff up to this many times before rollback/terminate fires.
  std::uint32_t job_max_retries = 3;
  /// First retry delay; doubles per attempt up to job_retry_backoff_cap.
  sim::SimDuration job_retry_backoff = sim::seconds(5.0);
  sim::SimDuration job_retry_backoff_cap = sim::minutes(2.0);
  /// Per-attempt execution budget for Condor jobs (0 disables the
  /// watchdog; attempts past it count as failures and follow retry rules).
  sim::SimDuration job_timeout{};
  /// When a datanode dies, commission a standby replacement so serving
  /// capacity recovers (self-healing). Off leaves capacity degraded.
  bool heal_capacity = true;
};

/// Counters describing what ERMS has done so far.
struct ErmsStats {
  std::uint64_t evaluations{0};
  std::uint64_t hot_promotions{0};
  std::uint64_t overload_promotions{0};   // formula (4) firings
  std::uint64_t predictive_promotions{0};  // hot on forecast, not yet on facts
  std::uint64_t cooldowns{0};
  std::uint64_t encodes{0};
  std::uint64_t encodes_cooling{0};  // encode chose the cooling-band codec
  std::uint64_t encodes_frozen{0};   // encode chose the frozen-band codec
  std::uint64_t decodes{0};
  std::uint64_t jobs_failed{0};
};

/// The Elastic Replication Management System: wires the audit stream through
/// the CEP engine into the Data Judge, and turns classifications into Condor
/// jobs that adjust replication, drive erasure coding, and manage standby
/// nodes (paper Fig. 1's architecture).
class ErmsManager {
 public:
  ErmsManager(hdfs::Cluster& cluster, std::vector<hdfs::NodeId> standby_pool,
              ErmsConfig config = {},
              util::Logger& logger = util::Logger::null_logger());
  /// Detaches the manager-owned observability bundle from the (externally
  /// owned) cluster and network before it is destroyed.
  ~ErmsManager();

  /// Install the audit sink + placement policy and start the periodic
  /// evaluation loop.
  void start();
  /// Resume after Cluster/manager state was restored from a snapshot:
  /// installs the same sinks/listeners as start() but does NOT re-advertise
  /// machine ads (the restored ads are as stale as the original run's were)
  /// and schedules the next evaluation at the restored absolute tick time
  /// instead of one period from now. Call after snapshot::restore_world.
  void resume();
  /// Stop evaluating (the placement policy stays installed). When observe is
  /// on and ERMS_TRACE_PATH is set, exports the action trace as JSONL there.
  void stop();

  /// Run one Data Judge evaluation immediately (also called by the loop).
  void evaluate();

  [[nodiscard]] const ErmsStats& stats() const { return stats_; }
  [[nodiscard]] const judge::DataJudge& data_judge() const { return judge_; }
  [[nodiscard]] judge::DataJudge& data_judge() { return judge_; }
  [[nodiscard]] StandbyManager& standby() { return standby_; }
  [[nodiscard]] condor::Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] cep::EngineBase& cep_engine() { return *engine_; }
  [[nodiscard]] judge::AccessStatsFeed& feed() { return feed_; }
  [[nodiscard]] const ErmsConfig& config() const { return config_; }

  /// Latest classification for one file (updated each evaluation).
  /// kNormal for files the judge has never evaluated.
  [[nodiscard]] judge::DataType current_type(hdfs::FileId file) const {
    const std::size_t idx = file.value();
    if (idx >= types_.size() || types_[idx] == 0) {
      return judge::DataType::kNormal;
    }
    return static_cast<judge::DataType>(types_[idx] - 1);
  }
  [[nodiscard]] judge::DataType current_type(const std::string& path) const {
    const hdfs::FileInfo* info = cluster_.metadata().find_path(path);
    return info == nullptr ? judge::DataType::kNormal : current_type(info->id);
  }
  /// How many files the judge has classified at least once.
  [[nodiscard]] std::size_t tracked_file_count() const { return tracked_files_; }

  /// The manager-owned observability bundle — nullptr unless
  /// ErmsConfig::observe was true at construction.
  [[nodiscard]] obs::Observability* observability() { return obs_.get(); }

  /// Condor actions currently in flight (snapshot quiescence input).
  [[nodiscard]] std::size_t actions_in_flight() const { return in_flight_count_; }

  /// Snapshot support (src/snapshot/): sweep state (types_/in_flight_/
  /// first_seen_), stats, the next-tick time, and the owned subcomponents —
  /// CEP engine, feed, predictor, scheduler, standby manager, trace ring
  /// and metrics registry. The manager must be constructed with the same
  /// config as the saved one (kStateMismatch otherwise); restore before
  /// resume(), never while running.
  void save_state(snapshot::Writer& w);
  void load_state(snapshot::Reader& r);

 private:
  /// Why a Condor job was submitted — threaded into its trace event.
  struct ActionContext {
    int rule{0};
    double trigger{0.0};
    double threshold{0.0};
    /// Encode jobs only: which code the temperature band selected and why
    /// ("cooling"/"frozen") — attributed on the job's ClassAd and trace.
    ec::CodecSpec spec{ec::CodecKind::kRs, 0, 0, 0};
    const char* band{nullptr};
  };

  /// One file's sweep outcome, recorded during the (possibly parallel)
  /// classify phase and applied serially in id order. Only files with a
  /// visible consequence — a classification flip, an action to submit, or a
  /// predictive promotion to count — get a record.
  struct Decision {
    hdfs::FileId file;
    judge::Classification verdict;
    judge::DataType prev_type{judge::DataType::kNormal};
    std::uint64_t accesses{0};
    bool flip{false};
    bool predictive{false};
    /// Cold verdicts: idle at least ErmsConfig::frozen_age at classify time
    /// (selects the frozen-band codec instead of the cooling one).
    bool frozen{false};
  };
  /// Per-worker scratch for the classify sweep; reused across evaluations.
  struct SweepShard {
    std::vector<Decision> decisions;
    judge::FileObservation fobs;     // reused per file
    judge::FileObservation boosted;  // reused predictive scratch
    std::size_t tracked_delta{0};    // files first classified this sweep
  };
  /// One (file, datanode, reads) group from the window, snapshotted in
  /// group-key order for the overload sweep.
  struct FileNodeAccess {
    hdfs::FileId file;
    std::int64_t node{0};
    std::uint64_t reads{0};
  };

  void schedule_tick();
  void register_executors();
  /// Advertise a machine ad for every node whose advertised fields changed
  /// since its last ad (or that has none on record).
  void advertise_nodes();
  /// Forget the record of `node`'s last ad: its next advertise_nodes() sends
  /// a fresh one.
  void forget_node_ad(hdfs::NodeId node);
  /// Classify every existing file with id in [begin, end), writing only
  /// own-range dense state (types_, first_seen_, predictor slots) and
  /// appending decisions to `shard`. Reads a frozen in_flight view; submits
  /// nothing.
  void classify_range(SweepShard& shard, std::size_t begin, std::size_t end,
                      sim::SimTime now);
  void classify_file(SweepShard& shard, const hdfs::FileInfo& info,
                     std::uint64_t accesses, sim::SimTime now);
  /// Serial phase: stats, trace events, log lines, Condor submissions.
  void apply_decision(const Decision& d);
  void check_node_overload();
  /// Earliest (in group-key order) maximally-read file on `node` per the
  /// scratch_file_nodes_ snapshot, skipping files for which `in_flight`
  /// returns true; FileId{0} when no candidate.
  [[nodiscard]] hdfs::FileId overload_winner(
      std::int64_t node, const std::function<bool(hdfs::FileId)>& in_flight) const;
  void submit_change(hdfs::FileId file, const std::string& cmd, std::uint32_t target,
                     condor::JobClass sched_class, int priority, ActionContext ctx);

  [[nodiscard]] bool action_in_flight(hdfs::FileId file) const {
    const std::size_t idx = file.value();
    return idx < in_flight_.size() && in_flight_[idx] != 0;
  }
  void set_in_flight(hdfs::FileId file);
  void clear_in_flight(hdfs::FileId file);

  hdfs::Cluster& cluster_;
  ErmsConfig config_;
  util::Logger& log_;
  // Declared before the instrumented members (standby_, scheduler_) so the
  // bundle outlives them.
  std::unique_ptr<obs::Observability> obs_;
  std::unique_ptr<cep::EngineBase> engine_;  // scalar or sharded per config
  judge::AccessStatsFeed feed_;
  judge::DataJudge judge_;
  std::optional<judge::AccessPredictor> predictor_;
  StandbyManager standby_;
  condor::Scheduler scheduler_;
  std::shared_ptr<ErmsPlacementPolicy> placement_;
  ErmsStats stats_;
  // Hot per-file state is dense, indexed by the interned FileId (slot 0
  // unused): no string keys, no node allocation, flat memory at 5M files.
  std::vector<std::uint8_t> types_;        // 0 = never judged, else DataType+1
  std::vector<std::uint8_t> in_flight_;    // 1 while a Condor action is pending
  std::vector<sim::SimTime> first_seen_;   // valid iff types_[fid] != 0
  std::size_t tracked_files_{0};           // nonzero entries in types_
  std::size_t in_flight_count_{0};         // nonzero entries in in_flight_
  // evaluate() scratch, reused across sweeps so the steady state allocates
  // nothing: windowed open counts per fid, and (fid, reads) pairs per block.
  std::vector<std::uint64_t> scratch_accesses_;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> scratch_blocks_;
  std::vector<FileNodeAccess> scratch_file_nodes_;
  std::vector<hdfs::FileId> scratch_winners_;
  /// The eight fields of the last machine ad sent for each node, by node
  /// id; empty = no ad on record, send one.
  struct NodeAdFields {
    std::int64_t node{0};
    std::int64_t rack{0};
    hdfs::NodeState state{hdfs::NodeState::kActive};
    std::uint64_t used_bytes{0};
    std::uint64_t capacity_bytes{0};
    std::uint32_t sessions{0};
    std::uint32_t max_sessions{0};
    bool standby_pool{false};
    bool operator==(const NodeAdFields&) const = default;
  };
  std::vector<std::optional<NodeAdFields>> node_ads_;
  std::vector<SweepShard> sweep_shards_;
  std::unique_ptr<util::ThreadPool> sweep_pool_;  // null when sweep_threads == 1
  bool running_{false};
  sim::EventHandle tick_;
  /// Absolute time the pending tick_ fires — serialised so a resumed run
  /// evaluates at exactly the times the uninterrupted run would have.
  sim::SimTime next_tick_time_;

  struct ObsIds {
    obs::CounterId evaluations, classify_flips, hot_promotions, overload_promotions,
        predictive_promotions, cooldowns, encodes, encodes_cooling, encodes_frozen,
        decodes, jobs_failed;
    obs::GaugeId in_flight, tracked_files;
  };
  ObsIds obs_ids_;
};

}  // namespace erms::core
