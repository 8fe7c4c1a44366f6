#include "core/erms.h"

#include <algorithm>
#include <memory>
#include <set>
#include <unordered_map>

#include "snapshot/codec.h"

namespace erms::core {

namespace {
constexpr int kPriorityUrgent = 10;
constexpr int kPriorityBackground = 0;

/// Executor-side lookup: jobs carry the interned id (authoritative) plus the
/// path string (for operators reading the queue). Returns nullptr when the
/// file vanished between submit and execution.
const hdfs::FileInfo* file_for_ad(const hdfs::Cluster& cluster,
                                  const classad::ClassAd& ad) {
  const auto fid = ad.get_int("Fid");
  if (!fid || *fid <= 0) {
    return nullptr;
  }
  return cluster.metadata().find(
      hdfs::FileId{static_cast<hdfs::FileId::rep_type>(*fid)});
}

obs::ActionKind action_kind_for(const std::string& cmd) {
  if (cmd == "increase_replication") {
    return obs::ActionKind::kReplicaIncrease;
  }
  if (cmd == "decrease_replication") {
    return obs::ActionKind::kReplicaDecrease;
  }
  if (cmd == "encode") {
    return obs::ActionKind::kEncode;
  }
  return obs::ActionKind::kDecode;
}

std::unique_ptr<cep::EngineBase> make_judge_engine(const ErmsConfig& config) {
  if (config.judge_shards == 1) {
    return std::make_unique<cep::Engine>();
  }
  cep::ShardedEngineOptions opts;
  opts.shards = config.judge_shards;
  opts.batch_events = config.judge_batch_events;
  // Route by the interned file id: all four standing queries group by fid
  // (or by dn, which every shard can answer after the merge), so same-file
  // events land on one shard and the merge stays cheap.
  opts.route_by = "fid";
  return std::make_unique<cep::ShardedEngine>(opts);
}
}  // namespace

ErmsManager::ErmsManager(hdfs::Cluster& cluster, std::vector<hdfs::NodeId> standby_pool,
                         ErmsConfig config, util::Logger& logger)
    : cluster_(cluster),
      config_(config),
      log_(logger),
      engine_(make_judge_engine(config)),
      feed_(*engine_, config.thresholds.window),
      judge_(config.thresholds),
      standby_(cluster, standby_pool),
      scheduler_(cluster.simulation(),
                 condor::Scheduler::Config{/*max_running=*/8, /*idle_poll=*/sim::seconds(5.0),
                                           config.job_max_retries, config.job_retry_backoff,
                                           config.job_retry_backoff_cap, config.job_timeout},
                 logger),
      placement_(std::make_shared<ErmsPlacementPolicy>(
          std::set<hdfs::NodeId>(standby_pool.begin(), standby_pool.end()),
          cluster.config().default_replication)) {
  if (config_.observe) {
    obs_ = std::make_unique<obs::Observability>(config_.trace_capacity);
    cluster_.set_observability(obs_.get());
    cluster_.network().set_metrics(&obs_->registry());
    scheduler_.set_metrics(&obs_->registry());
    scheduler_.set_trace(&obs_->trace());
    standby_.set_observability(obs_.get());
    obs::MetricsRegistry& r = obs_->registry();
    obs_ids_.evaluations = r.counter("erms.evaluations");
    obs_ids_.classify_flips = r.counter("erms.classify.flips");
    obs_ids_.hot_promotions = r.counter("erms.promotions.hot");
    obs_ids_.overload_promotions = r.counter("erms.promotions.overload");
    obs_ids_.predictive_promotions = r.counter("erms.promotions.predictive");
    obs_ids_.cooldowns = r.counter("erms.cooldowns");
    obs_ids_.encodes = r.counter("erms.encodes");
    obs_ids_.encodes_cooling = r.counter("erms.encodes.cooling");
    obs_ids_.encodes_frozen = r.counter("erms.encodes.frozen");
    obs_ids_.decodes = r.counter("erms.decodes");
    obs_ids_.jobs_failed = r.counter("erms.jobs.failed");
    obs_ids_.in_flight = r.gauge("erms.actions.in_flight");
    obs_ids_.tracked_files = r.gauge("erms.files.tracked");
  }
  if (config_.predictive) {
    predictor_.emplace(config_.predictor);
  }
  if (config_.sweep_threads != 1) {
    sweep_pool_ = std::make_unique<util::ThreadPool>(config_.sweep_threads);
  }
  sweep_shards_.resize(sweep_pool_ == nullptr ? 1 : sweep_pool_->size());
  register_executors();
  scheduler_.set_idle_probe([this] {
    return cluster_.background_idle() &&
           cluster_.network().active_flows() <= config_.idle_flow_threshold;
  });
}

ErmsManager::~ErmsManager() {
  // The cluster (and its network) outlive this manager; everything they
  // point at — the audit sink feeding the CEP engine, the observability
  // bundle — dies with it, so detach before it does. Detaching the batch
  // sink first flushes any buffered records into the feed while it lives.
  cluster_.set_audit_batch_sink(nullptr, 1);
  cluster_.set_audit_sink(nullptr);
  cluster_.set_failure_listener(nullptr);
  if (obs_ != nullptr) {
    cluster_.set_observability(nullptr);
    cluster_.network().set_metrics(nullptr);
  }
}

void ErmsManager::start() {
  cluster_.set_placement_policy(placement_);
  if (config_.judge_batch_flush_events > 0) {
    cluster_.set_audit_batch_sink(
        [this](const audit::AuditEvent* events, std::size_t n) {
          feed_.on_audit_batch(events, n);
        },
        config_.judge_batch_flush_events);
  } else {
    cluster_.set_audit_sink([this](const audit::AuditEvent& e) { feed_.on_audit(e); });
  }
  cluster_.set_failure_listener([this](hdfs::NodeId n) {
    // The dead datanode's machine ad is stale — drop it so matchmaking and
    // operator queries stop seeing it.
    scheduler_.invalidate("dn" + std::to_string(n.value()));
    forget_node_ad(n);
    if (config_.heal_capacity) {
      // Self-healing: bring a standby node online to replace the lost
      // serving capacity (no-op when the pool is exhausted).
      standby_.ensure_commissioned(standby_.commissioned_count() + 1,
                                   [this] { advertise_nodes(); });
    }
  });
  if (config_.auto_calibrate) {
    // τ_M is "the largest access number one data replica could hold" —
    // bounded by the datanodes' serving-session capacity (what Fig. 8
    // measures empirically on real hardware).
    double sessions = 0.0;
    std::size_t nodes = 0;
    for (const hdfs::NodeId n : cluster_.nodes()) {
      sessions += cluster_.node(n).config.max_sessions;
      ++nodes;
    }
    if (nodes > 0) {
      judge_.calibrate(sessions / static_cast<double>(nodes));
    }
  }
  advertise_nodes();
  if (running_) {
    return;
  }
  running_ = true;
  schedule_tick();
}

void ErmsManager::schedule_tick() {
  next_tick_time_ = cluster_.simulation().now() + config_.evaluation_period;
  tick_ = cluster_.simulation().schedule_at(next_tick_time_, [this] {
    if (!running_) {
      return;
    }
    evaluate();
    schedule_tick();
  });
}

void ErmsManager::resume() {
  // Same wiring as start(), with two deliberate differences: machine ads are
  // NOT re-advertised (the restored ads are exactly as stale as the original
  // run's were at this point), and the next evaluation fires at the restored
  // absolute tick time rather than one period from now.
  cluster_.set_placement_policy(placement_);
  if (config_.judge_batch_flush_events > 0) {
    cluster_.set_audit_batch_sink(
        [this](const audit::AuditEvent* events, std::size_t n) {
          feed_.on_audit_batch(events, n);
        },
        config_.judge_batch_flush_events);
  } else {
    cluster_.set_audit_sink([this](const audit::AuditEvent& e) { feed_.on_audit(e); });
  }
  cluster_.set_failure_listener([this](hdfs::NodeId n) {
    scheduler_.invalidate("dn" + std::to_string(n.value()));
    forget_node_ad(n);
    if (config_.heal_capacity) {
      standby_.ensure_commissioned(standby_.commissioned_count() + 1,
                                   [this] { advertise_nodes(); });
    }
  });
  if (config_.auto_calibrate) {
    // Deterministic recomputation: max_sessions is static node config, so
    // this reproduces the τ_M the original start() derived.
    double sessions = 0.0;
    std::size_t nodes = 0;
    for (const hdfs::NodeId n : cluster_.nodes()) {
      sessions += cluster_.node(n).config.max_sessions;
      ++nodes;
    }
    if (nodes > 0) {
      judge_.calibrate(sessions / static_cast<double>(nodes));
    }
  }
  if (running_) {
    return;
  }
  running_ = true;
  tick_ = cluster_.simulation().schedule_at(next_tick_time_, [this] {
    if (!running_) {
      return;
    }
    evaluate();
    schedule_tick();
  });
}

void ErmsManager::stop() {
  running_ = false;
  tick_.cancel();
  if (obs_ != nullptr) {
    if (const char* path = obs::Observability::env_trace_path()) {
      obs_->export_trace(path);
    }
  }
}

void ErmsManager::advertise_nodes() {
  // Machine ads let operators (and our tests) query the cluster through
  // Condor — "The ClassAds mechanism is used in ERMS to detect when
  // datanodes are commissioned or decommissioned" (§III.A).
  // An ad is rebuilt only when one of its fields moved: most nodes are
  // unchanged between two calls.
  node_ads_.resize(cluster_.node_count());
  for (const hdfs::NodeId n : cluster_.nodes()) {
    const hdfs::DataNode& dn = cluster_.node(n);
    const NodeAdFields fields{n.value(),
                              cluster_.rack_of(n).value(),
                              dn.state,
                              dn.used_bytes,
                              dn.config.capacity_bytes,
                              dn.active_sessions,
                              dn.config.max_sessions,
                              standby_.in_pool(n)};
    std::optional<NodeAdFields>& sent = node_ads_[n.value()];
    if (sent == fields) {
      continue;
    }
    sent = fields;
    classad::ClassAd ad;
    ad.insert_int("Node", fields.node);
    ad.insert_int("Rack", fields.rack);
    ad.insert_string("State", hdfs::to_string(fields.state));
    ad.insert_int("UsedBytes", static_cast<std::int64_t>(fields.used_bytes));
    ad.insert_int("CapacityBytes", static_cast<std::int64_t>(fields.capacity_bytes));
    ad.insert_int("Sessions", fields.sessions);
    ad.insert_int("MaxSessions", fields.max_sessions);
    ad.insert_bool("StandbyPool", fields.standby_pool);
    scheduler_.advertise("dn" + std::to_string(n.value()), std::move(ad));
  }
}

void ErmsManager::forget_node_ad(hdfs::NodeId node) {
  if (node.value() < node_ads_.size()) {
    node_ads_[node.value()].reset();
  }
}

void ErmsManager::register_executors() {
  // Replication increase: commission standby capacity, then copy directly to
  // the optimal factor. Rollback restores the previous factor.
  scheduler_.register_command(
      "increase_replication",
      [this](const classad::ClassAd& ad, std::function<void(bool)> done) {
        const auto target = ad.get_int("Target");
        const hdfs::FileInfo* info = file_for_ad(cluster_, ad);
        if (info == nullptr || !target) {
          done(false);
          return;
        }
        const hdfs::FileId file = info->id;
        const auto want =
            static_cast<std::uint32_t>(std::max<std::int64_t>(1, *target));
        const std::uint32_t extra =
            want > info->replication ? want - info->replication : 0;
        standby_.ensure_commissioned(extra, [this, file, want, done] {
          advertise_nodes();
          cluster_.change_replication(file, want, hdfs::Cluster::IncreaseMode::kDirect,
                                      done);
        });
      },
      [this](const classad::ClassAd& ad, std::function<void()> rolled_back) {
        const auto previous = ad.get_int("Previous");
        const hdfs::FileInfo* info = file_for_ad(cluster_, ad);
        if (info == nullptr || !previous) {
          rolled_back();
          return;
        }
        cluster_.change_replication(info->id, static_cast<std::uint32_t>(*previous),
                                    hdfs::Cluster::IncreaseMode::kDirect,
                                    [rolled_back](bool) { rolled_back(); });
      });

  // Replication decrease (cooled data) — deletes prefer standby nodes, then
  // drained nodes are powered down.
  scheduler_.register_command(
      "decrease_replication",
      [this](const classad::ClassAd& ad, std::function<void(bool)> done) {
        const auto target = ad.get_int("Target");
        const hdfs::FileInfo* info = file_for_ad(cluster_, ad);
        if (info == nullptr || !target) {
          done(false);
          return;
        }
        cluster_.change_replication(
            info->id, static_cast<std::uint32_t>(std::max<std::int64_t>(1, *target)),
            hdfs::Cluster::IncreaseMode::kDirect, [this, done](bool ok) {
              if (config_.manage_standby_power) {
                standby_.power_down_drained();
                advertise_nodes();
              }
              done(ok);
            });
      });

  // Erasure-encode cold data. The temperature band's codec choice rides on
  // the job's ClassAd; a job without one (externally submitted) encodes
  // with the paper's RS default.
  scheduler_.register_command(
      "encode", [this](const classad::ClassAd& ad, std::function<void(bool)> done) {
        const hdfs::FileInfo* info = file_for_ad(cluster_, ad);
        if (info == nullptr) {
          done(false);
          return;
        }
        ec::CodecSpec spec{ec::CodecKind::kRs, config_.parity_count, 0, 0};
        if (const auto name = ad.get_string("Codec")) {
          if (const auto kind = ec::codec_kind_from(*name)) {
            spec.kind = *kind;
            if (*kind == ec::CodecKind::kAzureLrc) {
              spec.parities = 0;
              spec.local_groups = static_cast<std::uint32_t>(
                  ad.get_int("LrcLocals").value_or(config_.lrc_local_groups));
              spec.global_parities = static_cast<std::uint32_t>(
                  ad.get_int("LrcGlobals").value_or(config_.lrc_global_parities));
            }
          }
        }
        cluster_.encode_file(info->id, spec, [this, done](bool ok) {
          if (config_.manage_standby_power) {
            standby_.power_down_drained();
          }
          done(ok);
        });
      });

  // Decode re-warmed cold data back to replication.
  scheduler_.register_command(
      "decode", [this](const classad::ClassAd& ad, std::function<void(bool)> done) {
        const auto target = ad.get_int("Target");
        const hdfs::FileInfo* info = file_for_ad(cluster_, ad);
        if (info == nullptr || !target) {
          done(false);
          return;
        }
        cluster_.decode_file(info->id, static_cast<std::uint32_t>(*target), done);
      });
}

void ErmsManager::set_in_flight(hdfs::FileId file) {
  const std::size_t idx = file.value();
  if (in_flight_.size() <= idx) {
    in_flight_.resize(idx + 1, 0);
  }
  if (in_flight_[idx] == 0) {
    in_flight_[idx] = 1;
    ++in_flight_count_;
  }
}

void ErmsManager::clear_in_flight(hdfs::FileId file) {
  const std::size_t idx = file.value();
  if (idx < in_flight_.size() && in_flight_[idx] != 0) {
    in_flight_[idx] = 0;
    --in_flight_count_;
  }
}

void ErmsManager::submit_change(hdfs::FileId file, const std::string& cmd,
                                std::uint32_t target, condor::JobClass sched_class,
                                int priority, ActionContext ctx) {
  const hdfs::FileInfo* info = cluster_.metadata().find(file);
  if (info == nullptr) {
    return;
  }
  classad::ClassAd ad;
  ad.insert_string("Cmd", cmd);
  // The id is what the executors act on; the path rides along so operators
  // querying the Condor queue still see a readable name.
  ad.insert_int("Fid", static_cast<std::int64_t>(file.value()));
  ad.insert_string("File", std::string(info->path));
  ad.insert_int("Target", target);
  ad.insert_int("Previous", info->replication);
  if (ctx.band != nullptr) {
    // Encode jobs carry the band's codec choice so the executor (and anyone
    // reading the Condor queue) sees which code will be written and why.
    ad.insert_string("Codec", std::string(ec::to_string(ctx.spec.kind)));
    ad.insert_string("Band", ctx.band);
    if (ctx.spec.kind == ec::CodecKind::kAzureLrc) {
      ad.insert_int("LrcLocals", ctx.spec.local_groups);
      ad.insert_int("LrcGlobals", ctx.spec.global_parities);
    }
  }
  set_in_flight(file);

  // Snapshot the file's replica footprint so the terminate event can report
  // the node-set delta and the bytes the action actually moved or deleted.
  using Footprint = std::unordered_map<hdfs::BlockId, std::vector<hdfs::NodeId>>;
  std::shared_ptr<Footprint> before;
  const std::uint32_t rep_before = info->replication;
  if (obs_ != nullptr) {
    obs_->registry().set(obs_ids_.in_flight, static_cast<double>(in_flight_count_));
    before = std::make_shared<Footprint>();
    for (const hdfs::BlockId b : info->blocks) {
      (*before)[b] = cluster_.locations(b);
    }
    for (const hdfs::BlockId b : info->parity_blocks) {
      (*before)[b] = cluster_.locations(b);
    }
  }

  std::string path(info->path);
  scheduler_.submit(
      std::move(ad), sched_class, priority,
      [this, file, path = std::move(path), cmd, ctx, rep_before,
       before](const condor::Job& job) {
        clear_in_flight(file);
        if (job.status != condor::JobStatus::kCompleted) {
          ++stats_.jobs_failed;
          if (obs_ != nullptr) {
            obs_->registry().add(obs_ids_.jobs_failed);
          }
        }
        if (obs_ == nullptr) {
          return;
        }
        obs_->registry().set(obs_ids_.in_flight, static_cast<double>(in_flight_count_));

        obs::TraceEvent ev;
        ev.kind = action_kind_for(cmd);
        ev.at = cluster_.simulation().now();
        ev.path = path;
        ev.rule = ctx.rule;
        ev.trigger = ctx.trigger;
        ev.threshold = ctx.threshold;
        ev.rep_before = rep_before;
        ev.job = static_cast<std::int64_t>(job.id.value());
        ev.outcome = condor::to_string(job.status);
        if (ctx.band != nullptr) {
          ev.codec = ec::to_string(ctx.spec.kind);
          ev.band = ctx.band;
        }
        if (job.status != condor::JobStatus::kCancelled) {
          ev.queue_wait = job.started - job.submitted;
          ev.exec_span = job.finished - job.started;
        }
        // Diff the footprint per block: a node is a "gainer" if it received a
        // replica or shard of some block, a "loser" if one was deleted from
        // it — regardless of what other blocks of the file it still holds.
        const hdfs::FileInfo* now_info = cluster_.metadata().find(file);
        if (now_info != nullptr && before != nullptr) {
          ev.rep_after = now_info->replication;
          std::set<std::int64_t> gained;
          std::set<std::int64_t> lost;
          std::set<hdfs::BlockId> all_blocks;
          for (const auto& [blk, nodes] : *before) {
            all_blocks.insert(blk);
          }
          all_blocks.insert(now_info->blocks.begin(), now_info->blocks.end());
          all_blocks.insert(now_info->parity_blocks.begin(),
                            now_info->parity_blocks.end());
          for (const hdfs::BlockId blk : all_blocks) {
            const std::vector<hdfs::NodeId> now_nodes = cluster_.locations(blk);
            const auto before_it = before->find(blk);
            static const std::vector<hdfs::NodeId> kNone;
            const std::vector<hdfs::NodeId>& before_nodes =
                before_it == before->end() ? kNone : before_it->second;
            const hdfs::BlockInfo* binfo = cluster_.metadata().find_block(blk);
            if (binfo != nullptr && now_nodes.size() != before_nodes.size()) {
              const std::size_t delta = now_nodes.size() > before_nodes.size()
                                            ? now_nodes.size() - before_nodes.size()
                                            : before_nodes.size() - now_nodes.size();
              ev.bytes_moved += binfo->size * delta;
            }
            for (const hdfs::NodeId n : now_nodes) {
              if (std::find(before_nodes.begin(), before_nodes.end(), n) ==
                  before_nodes.end()) {
                gained.insert(static_cast<std::int64_t>(n.value()));
              }
            }
            for (const hdfs::NodeId n : before_nodes) {
              if (std::find(now_nodes.begin(), now_nodes.end(), n) == now_nodes.end()) {
                lost.insert(static_cast<std::int64_t>(n.value()));
              }
            }
          }
          const std::set<std::int64_t>& targets = gained.empty() ? lost : gained;
          ev.targets.assign(targets.begin(), targets.end());
        }
        obs_->trace().record(std::move(ev));
      });
}

void ErmsManager::classify_range(SweepShard& shard, std::size_t begin, std::size_t end,
                                 sim::SimTime now) {
  shard.decisions.clear();
  shard.tracked_delta = 0;
  // Merge-walk: scratch_blocks_ is sorted by fid, so position once at the
  // range's first entry and advance monotonically.
  std::size_t bi = static_cast<std::size_t>(
      std::lower_bound(scratch_blocks_.begin(), scratch_blocks_.end(), begin,
                       [](const std::pair<std::uint32_t, std::uint64_t>& a,
                          std::size_t v) { return a.first < v; }) -
      scratch_blocks_.begin());
  for (std::size_t id = begin; id < end; ++id) {
    shard.fobs.block_accesses.clear();
    while (bi < scratch_blocks_.size() && scratch_blocks_[bi].first == id) {
      shard.fobs.block_accesses.push_back(scratch_blocks_[bi].second);
      ++bi;
    }
    const hdfs::FileInfo* info =
        cluster_.metadata().find(hdfs::FileId{static_cast<hdfs::FileId::rep_type>(id)});
    if (info != nullptr) {
      classify_file(shard, *info, scratch_accesses_[id], now);
    }
  }
}

void ErmsManager::classify_file(SweepShard& shard, const hdfs::FileInfo& info,
                                std::uint64_t accesses, sim::SimTime now) {
  const hdfs::FileId file = info.id;
  if (action_in_flight(file)) {
    return;
  }
  const std::size_t idx = file.value();
  if (types_[idx] == 0) {
    first_seen_[idx] = now;
  }

  judge::FileObservation& fobs = shard.fobs;
  fobs.file = file;
  fobs.accesses = accesses;
  fobs.block_count = info.blocks.size();
  fobs.replication = info.replication;
  const sim::SimTime last = feed_.last_access(file);
  fobs.last_access = std::max(last, first_seen_[idx]);

  const std::uint32_t default_rep = cluster_.config().default_replication;
  judge::Classification verdict =
      judge_.classify(fobs, now, default_rep, config_.max_replication);

  // Predictive upgrade (opt-in): a rising file may be promoted — or
  // promoted *further* — on the forecast before the observed counts get
  // there. Only the hot verdict (and its optimal factor) may come from a
  // forecast; cooling and encoding always wait for real counts.
  bool predictive = false;
  if (predictor_) {
    predictor_->observe(file, static_cast<double>(fobs.accesses));
    const double predicted = predictor_->predict(file);
    if (predicted > static_cast<double>(fobs.accesses)) {
      // Scale the whole observation by the forecast ratio so the
      // block-level rules (2) and (3) see the rise too.
      const double ratio = predicted / std::max(1.0, static_cast<double>(fobs.accesses));
      judge::FileObservation& boosted = shard.boosted;
      boosted.file = fobs.file;
      boosted.block_count = fobs.block_count;
      boosted.replication = fobs.replication;
      boosted.last_access = fobs.last_access;
      boosted.accesses = static_cast<std::uint64_t>(predicted);
      boosted.block_accesses.assign(fobs.block_accesses.begin(),
                                    fobs.block_accesses.end());
      for (std::uint64_t& nb : boosted.block_accesses) {
        nb = static_cast<std::uint64_t>(static_cast<double>(nb) * ratio);
      }
      const judge::Classification forecast =
          judge_.classify(boosted, now, default_rep, config_.max_replication);
      const bool upgrades =
          forecast.type == judge::DataType::kHot &&
          (verdict.type != judge::DataType::kHot ||
           forecast.optimal_replication > verdict.optimal_replication);
      if (upgrades) {
        predictive = forecast.optimal_replication > info.replication;
        verdict = forecast;
      }
    }
  }
  const bool first_verdict = types_[idx] == 0;
  const judge::DataType prev_type =
      first_verdict ? judge::DataType::kNormal
                    : static_cast<judge::DataType>(types_[idx] - 1);
  types_[idx] = static_cast<std::uint8_t>(verdict.type) + 1;
  if (first_verdict) {
    ++shard.tracked_delta;
  }

  // Record a decision only when the apply phase has something to do: a flip
  // to trace, an action to submit, or a predictive promotion to count. In
  // steady state (stable classifications, no actions) nothing is recorded.
  const bool flip = prev_type != verdict.type;
  bool acts = false;
  switch (verdict.type) {
    case judge::DataType::kHot:
      acts = info.erasure_coded || verdict.optimal_replication > info.replication;
      break;
    case judge::DataType::kCooled:
      acts = info.replication > default_rep;
      break;
    case judge::DataType::kCold:
      acts = !info.erasure_coded;
      break;
    case judge::DataType::kNormal:
      break;
  }
  if (flip || acts || predictive) {
    // Temperature band for cold files: idle past frozen_age is deep archive
    // (frozen-band codec); anything fresher is merely cooling.
    const bool frozen = verdict.type == judge::DataType::kCold &&
                        now - fobs.last_access >= config_.frozen_age;
    shard.decisions.push_back(
        Decision{file, verdict, prev_type, accesses, flip, predictive, frozen});
  }
}

void ErmsManager::apply_decision(const Decision& d) {
  const hdfs::FileInfo* info = cluster_.metadata().find(d.file);
  if (info == nullptr) {
    return;
  }
  const judge::Classification& verdict = d.verdict;
  if (d.predictive) {
    ++stats_.predictive_promotions;
    if (obs_ != nullptr) {
      obs_->registry().add(obs_ids_.predictive_promotions);
    }
  }
  if (obs_ != nullptr && d.flip) {
    // A classification flip is the decision record behind every elastic
    // action — trace it with the rule that fired and the value it compared.
    obs_->registry().add(obs_ids_.classify_flips);
    obs::TraceEvent ev;
    ev.kind = obs::ActionKind::kClassify;
    ev.at = cluster_.simulation().now();
    ev.path = info->path;
    ev.rule = verdict.rule;
    ev.trigger = verdict.trigger;
    ev.threshold = verdict.threshold;
    ev.from = judge::to_string(d.prev_type);
    ev.to = judge::to_string(verdict.type);
    ev.rep_before = info->replication;
    ev.count = d.accesses;
    obs_->trace().record(std::move(ev));
  }

  const std::uint32_t default_rep = cluster_.config().default_replication;
  const hdfs::FileId file = d.file;
  const ActionContext ctx{verdict.rule, verdict.trigger, verdict.threshold};
  switch (verdict.type) {
    case judge::DataType::kHot: {
      if (info->erasure_coded) {
        // Re-warmed cold data: decode first (urgent, like increases).
        ++stats_.decodes;
        if (obs_ != nullptr) {
          obs_->registry().add(obs_ids_.decodes);
        }
        submit_change(file, "decode", std::max(default_rep, verdict.optimal_replication),
                      condor::JobClass::kImmediate, kPriorityUrgent, ctx);
        break;
      }
      if (verdict.optimal_replication > info->replication) {
        ++stats_.hot_promotions;
        if (obs_ != nullptr) {
          obs_->registry().add(obs_ids_.hot_promotions);
        }
        if (log_.enabled(util::LogLevel::kInfo)) {
          log_.log(util::LogLevel::kInfo, "erms",
                   std::string(info->path) + " hot (rule " +
                       std::to_string(verdict.rule) + "), rep " +
                       std::to_string(info->replication) + " -> " +
                       std::to_string(verdict.optimal_replication));
        }
        submit_change(file, "increase_replication", verdict.optimal_replication,
                      condor::JobClass::kImmediate, kPriorityUrgent, ctx);
      }
      break;
    }
    case judge::DataType::kCooled: {
      if (info->replication > default_rep) {
        ++stats_.cooldowns;
        if (obs_ != nullptr) {
          obs_->registry().add(obs_ids_.cooldowns);
        }
        submit_change(file, "decrease_replication", default_rep,
                      condor::JobClass::kWhenIdle, kPriorityBackground, ctx);
      }
      break;
    }
    case judge::DataType::kCold: {
      if (!info->erasure_coded) {
        ++stats_.encodes;
        if (d.frozen) {
          ++stats_.encodes_frozen;
        } else {
          ++stats_.encodes_cooling;
        }
        if (obs_ != nullptr) {
          obs_->registry().add(obs_ids_.encodes);
          obs_->registry().add(d.frozen ? obs_ids_.encodes_frozen
                                        : obs_ids_.encodes_cooling);
        }
        // Band → code: cooling keeps repairs cheap, frozen maximises rate
        // and tolerance (docs/EC_CODECS.md has the mapping and overrides).
        ActionContext ectx = ctx;
        ectx.band = d.frozen ? "frozen" : "cooling";
        const std::string& codec_name =
            d.frozen ? config_.codec_frozen : config_.codec_cooling;
        ectx.spec = ec::CodecSpec{ec::CodecKind::kRs, config_.parity_count, 0, 0};
        if (const auto kind = ec::codec_kind_from(codec_name)) {
          ectx.spec.kind = *kind;
        }
        if (ectx.spec.kind == ec::CodecKind::kAzureLrc) {
          ectx.spec.parities = 0;
          ectx.spec.local_groups = config_.lrc_local_groups;
          ectx.spec.global_parities = config_.lrc_global_parities;
        }
        if (log_.enabled(util::LogLevel::kInfo)) {
          log_.log(util::LogLevel::kInfo, "erms",
                   std::string(info->path) + " cold (" + ectx.band + " band), encoding " +
                       std::string(ec::to_string(ectx.spec.kind)));
        }
        submit_change(file, "encode", 1, condor::JobClass::kWhenIdle, kPriorityBackground,
                      ectx);
      }
      break;
    }
    case judge::DataType::kNormal:
      break;
  }
}

hdfs::FileId ErmsManager::overload_winner(
    std::int64_t node, const std::function<bool(hdfs::FileId)>& in_flight) const {
  hdfs::FileId worst_file{0};
  std::uint64_t worst = 0;
  for (const FileNodeAccess& a : scratch_file_nodes_) {
    if (a.node == node && a.reads > worst && !in_flight(a.file)) {
      worst = a.reads;
      worst_file = a.file;
    }
  }
  return worst_file;
}

void ErmsManager::check_node_overload() {
  // Formula (4): Σ_i N_bi·r_bi > τ_DN on a node → raise the replication of
  // the file contributing the most accesses to that node. The candidate walk
  // is in group-key order, so the winner (first strictly greater) is
  // deterministic for any shard count.
  std::vector<std::pair<std::int64_t, std::uint64_t>> overloaded;
  feed_.for_each_node_access([&](std::int64_t dn, std::uint64_t count) {
    if (judge_.node_overloaded(static_cast<double>(count))) {
      overloaded.emplace_back(dn, count);
    }
  });
  if (overloaded.empty()) {
    return;
  }

  // One key-ordered snapshot of the (file, datanode, reads) relation covers
  // every overloaded node, instead of re-walking the engine's group state
  // per node. Winners are computed against a frozen in_flight view — in
  // parallel when a sweep pool exists — then applied serially in node
  // order. A frozen winner can only be invalidated by an *earlier* node's
  // submission in this same loop; re-checking it live (and rescanning
  // serially on a hit) restores exactly the serial walk's answer, because
  // dropping a non-winner candidate never changes the earliest maximum.
  scratch_file_nodes_.clear();
  feed_.for_each_file_node_access(
      [&](hdfs::FileId fid, std::int64_t dn, std::uint64_t n) {
        scratch_file_nodes_.push_back(FileNodeAccess{fid, dn, n});
      });
  // in_flight_ is mutated only by the apply loop below, so during the scan
  // phase this predicate reads the frozen pre-sweep view; called again from
  // the apply loop it reads the live one.
  const auto in_flight_now = [this](hdfs::FileId fid) { return action_in_flight(fid); };
  scratch_winners_.assign(overloaded.size(), hdfs::FileId{0});
  if (sweep_pool_ != nullptr && overloaded.size() > 1) {
    sweep_pool_->parallel_for(overloaded.size(), [&](std::size_t k) {
      scratch_winners_[k] = overload_winner(overloaded[k].first, in_flight_now);
    });
  } else {
    for (std::size_t k = 0; k < overloaded.size(); ++k) {
      scratch_winners_[k] = overload_winner(overloaded[k].first, in_flight_now);
    }
  }

  for (std::size_t k = 0; k < overloaded.size(); ++k) {
    const auto& [dn, count] = overloaded[k];
    hdfs::FileId worst_file = scratch_winners_[k];
    if (worst_file.value() != 0 && action_in_flight(worst_file)) {
      worst_file = overload_winner(dn, in_flight_now);
    }
    if (worst_file.value() == 0) {
      continue;
    }
    const hdfs::FileInfo* info = cluster_.metadata().find(worst_file);
    if (info == nullptr || info->erasure_coded ||
        info->replication >= config_.max_replication) {
      continue;
    }
    ++stats_.overload_promotions;
    if (obs_ != nullptr) {
      obs_->registry().add(obs_ids_.overload_promotions);
      obs::TraceEvent ev;
      ev.kind = obs::ActionKind::kOverload;
      ev.at = cluster_.simulation().now();
      ev.path = info->path;
      ev.node = static_cast<std::int64_t>(dn);
      ev.rule = 4;
      ev.trigger = static_cast<double>(count);
      ev.threshold = judge_.thresholds().tau_DN;
      ev.rep_before = info->replication;
      obs_->trace().record(std::move(ev));
    }
    submit_change(worst_file, "increase_replication", info->replication + 1,
                  condor::JobClass::kImmediate, kPriorityUrgent,
                  ActionContext{4, static_cast<double>(count), judge_.thresholds().tau_DN});
  }
}

void ErmsManager::evaluate() {
  ++stats_.evaluations;
  cluster_.flush_audit();  // deliver any batched audit records to the feed
  const sim::SimTime now = cluster_.simulation().now();
  feed_.advance_to(now);

  // One pass over the engine's group state up front — O(active groups) —
  // instead of two group-row probes per file per sweep (which made each
  // evaluation quadratic-ish in file count against the window state). The
  // gathers scatter into dense fid-indexed scratch, so visit order doesn't
  // matter and the unordered walk skips the per-visit key sort.
  const std::size_t bound = cluster_.metadata().file_id_bound();
  scratch_accesses_.assign(bound, 0);
  feed_.for_each_file_access(
      [&](hdfs::FileId fid, std::uint64_t n) {
        if (fid.value() < bound) {
          scratch_accesses_[fid.value()] = n;
        }
      },
      cep::GroupOrder::kUnordered);
  scratch_blocks_.clear();
  feed_.for_each_block_access(
      [&](hdfs::FileId fid, std::int64_t /*blk*/, std::uint64_t n) {
        if (fid.value() < bound) {
          scratch_blocks_.emplace_back(fid.value(), n);
        }
      },
      cep::GroupOrder::kUnordered);
  // Sort by fid for the classify sweep's merge walk. A file's per-block
  // order is visitation order, which only feeds the judge's order-
  // insensitive block rules (max and intense-block fraction).
  std::stable_sort(scratch_blocks_.begin(), scratch_blocks_.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  // Classify phase: disjoint id ranges, each writing only own-range dense
  // state and its shard's decision list, against a frozen in_flight view.
  // Apply phase: decisions merged in id order, run serially — so stats,
  // trace events and submissions are byte-identical whatever the thread
  // count (a submission only flips the submitting file's own in_flight bit,
  // and each file is classified exactly once per sweep).
  if (types_.size() < bound) {
    types_.resize(bound, 0);
    first_seen_.resize(bound);
  }
  if (predictor_) {
    predictor_->reserve(bound);
  }
  const std::size_t shards = sweep_shards_.size();
  if (sweep_pool_ != nullptr && shards > 1 && bound > 2) {
    const std::size_t ids = bound - 1;  // ids 1..bound-1; slot 0 unused
    const std::size_t chunk = (ids + shards - 1) / shards;
    sweep_pool_->parallel_for(shards, [&](std::size_t s) {
      const std::size_t begin = 1 + s * chunk;
      const std::size_t end = std::min(bound, begin + chunk);
      if (begin < end) {
        classify_range(sweep_shards_[s], begin, end, now);
      } else {
        sweep_shards_[s].decisions.clear();
        sweep_shards_[s].tracked_delta = 0;
      }
    });
  } else if (bound > 1) {
    classify_range(sweep_shards_[0], 1, bound, now);
    for (std::size_t s = 1; s < shards; ++s) {
      sweep_shards_[s].decisions.clear();
      sweep_shards_[s].tracked_delta = 0;
    }
  } else {
    for (SweepShard& shard : sweep_shards_) {
      shard.decisions.clear();
      shard.tracked_delta = 0;
    }
  }
  for (SweepShard& shard : sweep_shards_) {
    tracked_files_ += shard.tracked_delta;
    for (const Decision& d : shard.decisions) {
      apply_decision(d);
    }
  }
  check_node_overload();
  advertise_nodes();
  if (obs_ != nullptr) {
    obs_->registry().add(obs_ids_.evaluations);
    obs_->registry().set(obs_ids_.tracked_files, static_cast<double>(tracked_files_));
  }
}

namespace {

void save_trace_event(snapshot::Writer& w, const obs::TraceEvent& e) {
  w.u64(e.seq);
  w.u8(static_cast<std::uint8_t>(e.kind));
  w.i64(e.at.micros());
  w.str(e.path);
  w.i64(e.node);
  w.i64(e.block);
  w.i64(e.rule);
  w.f64(e.trigger);
  w.f64(e.threshold);
  w.str(e.from);
  w.str(e.to);
  w.i64(e.rep_before);
  w.i64(e.rep_after);
  w.u64(e.bytes_moved);
  w.u64(e.count);
  w.i64(e.queue_wait.micros());
  w.i64(e.exec_span.micros());
  w.i64(e.job);
  w.str(e.outcome);
  w.u64(e.targets.size());
  for (const std::int64_t t : e.targets) w.i64(t);
  w.str(e.codec);
  w.str(e.band);
  w.u64(e.bytes_read);
}

obs::TraceEvent load_trace_event(snapshot::Reader& r) {
  obs::TraceEvent e;
  e.seq = r.u64();
  e.kind = static_cast<obs::ActionKind>(r.u8());
  e.at = sim::SimTime{r.i64()};
  e.path = r.str();
  e.node = r.i64();
  e.block = r.i64();
  e.rule = static_cast<int>(r.i64());
  e.trigger = r.f64();
  e.threshold = r.f64();
  e.from = r.str();
  e.to = r.str();
  e.rep_before = r.i64();
  e.rep_after = r.i64();
  e.bytes_moved = r.u64();
  e.count = r.u64();
  e.queue_wait = sim::SimDuration{r.i64()};
  e.exec_span = sim::SimDuration{r.i64()};
  e.job = r.i64();
  e.outcome = r.str();
  const std::uint64_t ntargets = r.u64();
  if (!r.require(ntargets <= r.remaining() / 8 + 1, "trace target count")) return e;
  e.targets.reserve(ntargets);
  for (std::uint64_t i = 0; i < ntargets && r.ok(); ++i) e.targets.push_back(r.i64());
  e.codec = r.str();
  e.band = r.str();
  e.bytes_read = r.u64();
  return e;
}

}  // namespace

void ErmsManager::save_state(snapshot::Writer& w) {
  engine_->save_state(w);
  feed_.save_state(w);
  w.u8(predictor_.has_value() ? 1 : 0);
  if (predictor_) {
    predictor_->save_state(w);
  }
  scheduler_.save_state(w);
  standby_.save_state(w);

  w.u64(stats_.evaluations);
  w.u64(stats_.hot_promotions);
  w.u64(stats_.overload_promotions);
  w.u64(stats_.predictive_promotions);
  w.u64(stats_.cooldowns);
  w.u64(stats_.encodes);
  w.u64(stats_.encodes_cooling);
  w.u64(stats_.encodes_frozen);
  w.u64(stats_.decodes);
  w.u64(stats_.jobs_failed);

  w.u64(types_.size());
  for (const std::uint8_t t : types_) w.u8(t);
  w.u64(in_flight_.size());
  for (const std::uint8_t f : in_flight_) w.u8(f);
  w.u64(first_seen_.size());
  for (const sim::SimTime t : first_seen_) w.i64(t.micros());
  w.u64(tracked_files_);
  w.u64(in_flight_count_);
  w.i64(next_tick_time_.micros());

  w.u8(obs_ != nullptr ? 1 : 0);
  if (obs_ != nullptr) {
    const std::vector<obs::TraceEvent> events = obs_->trace().snapshot();
    w.u64(events.size());
    for (const obs::TraceEvent& e : events) save_trace_event(w, e);
    w.u64(obs_->trace().recorded() + 1);  // next_seq

    const obs::MetricsRegistry::Snapshot metrics = obs_->registry().snapshot();
    w.u64(metrics.counters.size());
    for (const auto& [name, value] : metrics.counters) {
      w.str(name);
      w.u64(value);
    }
    w.u64(metrics.gauges.size());
    for (const auto& [name, value] : metrics.gauges) {
      w.str(name);
      w.f64(value);
    }
    w.u64(metrics.histograms.size());
    for (const auto& h : metrics.histograms) {
      w.str(h.name);
      w.f64(h.histogram.lo());
      w.f64(h.histogram.hi());
      w.u64(h.histogram.bucket_count());
      for (std::size_t i = 0; i < h.histogram.bucket_count(); ++i) {
        w.u64(h.histogram.bucket(i));
      }
      w.u64(h.histogram.underflow());
      w.u64(h.histogram.overflow());
      w.f64(h.sum);
    }
  }
}

void ErmsManager::load_state(snapshot::Reader& r) {
  // The restored scheduler carries the saved run's ads; nothing here knows
  // which fields they hold.
  node_ads_.clear();
  engine_->load_state(r);
  feed_.load_state(r);
  const bool had_predictor = r.u8() != 0;
  if (!r.require(had_predictor == predictor_.has_value(), "predictor config")) return;
  if (predictor_) {
    predictor_->load_state(r);
  }
  scheduler_.load_state(r);
  standby_.load_state(r);
  if (!r.ok()) return;

  stats_.evaluations = r.u64();
  stats_.hot_promotions = r.u64();
  stats_.overload_promotions = r.u64();
  stats_.predictive_promotions = r.u64();
  stats_.cooldowns = r.u64();
  stats_.encodes = r.u64();
  stats_.encodes_cooling = r.u64();
  stats_.encodes_frozen = r.u64();
  stats_.decodes = r.u64();
  stats_.jobs_failed = r.u64();

  const std::uint64_t ntypes = r.u64();
  if (!r.require(ntypes <= r.remaining() + 1, "types table size")) return;
  types_.resize(ntypes);
  for (auto& t : types_) t = r.u8();
  const std::uint64_t nflight = r.u64();
  if (!r.require(nflight <= r.remaining() + 1, "in-flight table size")) return;
  in_flight_.resize(nflight);
  for (auto& f : in_flight_) f = r.u8();
  const std::uint64_t nseen = r.u64();
  if (!r.require(nseen <= r.remaining() / 8 + 1, "first-seen table size")) return;
  first_seen_.resize(nseen);
  for (auto& t : first_seen_) t = sim::SimTime{r.i64()};
  tracked_files_ = r.u64();
  in_flight_count_ = r.u64();
  next_tick_time_ = sim::SimTime{r.i64()};

  const bool had_obs = r.u8() != 0;
  if (!r.require(had_obs == (obs_ != nullptr), "observability config")) return;
  if (obs_ != nullptr) {
    const std::uint64_t nevents = r.u64();
    if (!r.require(nevents <= r.remaining(), "trace event count")) return;
    std::vector<obs::TraceEvent> events;
    events.reserve(nevents);
    for (std::uint64_t i = 0; i < nevents && r.ok(); ++i) {
      events.push_back(load_trace_event(r));
    }
    const std::uint64_t next_seq = r.u64();
    if (!r.ok()) return;
    obs_->trace().restore(std::move(events), next_seq);

    obs::MetricsRegistry& reg = obs_->registry();
    const std::uint64_t ncounters = r.u64();
    if (!r.require(ncounters <= r.remaining(), "counter count")) return;
    for (std::uint64_t i = 0; i < ncounters && r.ok(); ++i) {
      const std::string name = r.str();
      const std::uint64_t value = r.u64();
      const obs::CounterId id = reg.counter(name);
      // Counters are monotonic adders with no absolute store, so bridge from
      // whatever this world counted before the restore (population noise on
      // a fresh world) up to the saved value.
      const std::uint64_t current = reg.counter_value(id);
      if (!r.require(current <= value, "counter " + name + " exceeds snapshot")) return;
      reg.add(id, value - current);
    }
    const std::uint64_t ngauges = r.u64();
    if (!r.require(ngauges <= r.remaining(), "gauge count")) return;
    for (std::uint64_t i = 0; i < ngauges && r.ok(); ++i) {
      const std::string name = r.str();
      const double value = r.f64();
      reg.set(reg.gauge(name), value);
    }
    const std::uint64_t nhists = r.u64();
    if (!r.require(nhists <= r.remaining(), "histogram count")) return;
    for (std::uint64_t i = 0; i < nhists && r.ok(); ++i) {
      const std::string name = r.str();
      const double lo = r.f64();
      const double hi = r.f64();
      const std::uint64_t buckets = r.u64();
      if (!r.require(buckets <= r.remaining() / 8 + 1, "histogram bucket count")) return;
      std::vector<std::uint64_t> counts;
      counts.reserve(buckets + 2);
      for (std::uint64_t j = 0; j < buckets && r.ok(); ++j) counts.push_back(r.u64());
      counts.push_back(r.u64());  // underflow
      counts.push_back(r.u64());  // overflow
      const double sum = r.f64();
      if (!r.ok()) return;
      reg.restore_histogram(name, lo, hi, counts, sum);
    }
  }
}

}  // namespace erms::core
