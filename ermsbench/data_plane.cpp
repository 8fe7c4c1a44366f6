// The data-plane workload. It starts a full ErmsManager over a 400-node
// cluster (20 racks × 20, a quarter of each rack in the standby pool) and
// drives client reads through Cluster::read_file and the max-min network.
//
// cold_archive — a Zipf read burst (replica promotions, then cool-downs),
//                a quiet phase in which most files pass cold_age and are
//                erasure-coded in bulk by idle-time Condor jobs, then node
//                crashes on coded files while reads resume on part of the
//                cold set (degraded reads, reconstruction, decodes).
#include <algorithm>
#include <functional>
#include <memory>

#include "bench.h"
#include "fault/invariant_checker.h"
#include "util/thread_pool.h"
#include "workload/swim.h"

namespace ermsbench {
namespace {

constexpr std::size_t kRacks = 20;
constexpr std::size_t kNodesPerRack = 20;
constexpr std::size_t kStandbyPerRack = 5;
constexpr std::size_t kFlushEvents = 4096;  // batched audit sink span

/// One client read due at `at`.
struct Arrival {
  sim::SimTime at;
  hdfs::FileId file;
  hdfs::NodeId client;
};

/// A populated cluster with a started-then-paused ErmsManager: the manager's
/// sinks, placement policy and failure listener are installed, but the
/// benchmark schedules evaluate() itself so every sweep can be timed.
struct World {
  sim::Simulation sim;
  hdfs::Topology topo;
  std::unique_ptr<hdfs::Cluster> cluster;
  std::unique_ptr<core::ErmsManager> erms;
  std::shared_ptr<TimedPlacement> placement;
  std::vector<hdfs::NodeId> active;  // serving nodes outside the standby pool
  std::vector<hdfs::FileId> files;   // in trace file order
};

/// Build topology, cluster and manager and populate `trace.files`.
std::unique_ptr<World> build_world(const Options& opt, Tracer& tracer,
                                   const workload::Trace& trace, core::ErmsConfig cfg,
                                   hdfs::ClusterConfig ccfg, RepResult& r) {
  auto w = std::make_unique<World>();
  w->topo = hdfs::Topology::uniform(kRacks, kNodesPerRack);
  ccfg.seed = opt.seed;
  ccfg.namespace_shards = fill_threads();
  w->cluster = std::make_unique<hdfs::Cluster>(w->sim, w->topo, ccfg);
  hdfs::Cluster& cluster = *w->cluster;

  std::vector<hdfs::NodeId> pool;
  for (std::uint32_t n = 0; n < kRacks * kNodesPerRack; ++n) {
    (n % kNodesPerRack >= kNodesPerRack - kStandbyPerRack ? pool : w->active)
        .push_back(hdfs::NodeId{n});
  }
  cfg.judge_batch_flush_events = kFlushEvents;
  cfg.codec_threads = 1;  // the byte-level codec is not on the simulated path
  w->erms = std::make_unique<core::ErmsManager>(cluster, pool, cfg);
  core::ErmsManager& erms = *w->erms;
  erms.start();
  erms.stop();  // keep the wiring, drop the manager's own evaluation timer

  // Re-install the batched audit sink and wrap the ERMS placement policy
  // (owned by the manager, which outlives every placement call).
  judge::AccessStatsFeed& feed = erms.feed();
  cluster.set_audit_batch_sink(
      [&tracer, &feed](const audit::AuditEvent* events, std::size_t n) {
        const Span span(tracer, Layer::kFeedIngest);
        feed.on_audit_batch(events, n);
      },
      kFlushEvents);
  w->placement = std::make_shared<TimedPlacement>(cluster.placement_policy(), tracer);
  cluster.set_placement_policy(w->placement);

  std::vector<hdfs::Namespace::FileSpec> specs;
  specs.reserve(trace.files.size());
  for (const workload::FileSpec& f : trace.files) {
    specs.push_back({f.path, f.bytes, ccfg.block_size, 3});
  }
  util::ThreadPool fill{fill_threads()};
  const Span span(tracer, Layer::kPopulate);
  for (const auto& id : cluster.populate_files(specs, &fill)) {
    if (!id) {
      r.problems.push_back("populate_files rejected a file");
    }
    w->files.push_back(id.value_or(hdfs::FileId{0}));
  }
  return w;
}

/// Seeded SWIM-like read trace: Zipf(1.1) popularity over `files` files
/// of `file_bytes` each,
/// reshuffled every `epoch`, Poisson arrivals at `rate` reads per second.
workload::Trace make_trace(std::uint64_t seed, std::size_t files, std::uint64_t file_bytes,
                           double rate, sim::SimDuration duration, sim::SimDuration epoch) {
  workload::SwimConfig swim;
  swim.file_count = files;
  swim.zipf_exponent = 1.1;
  swim.min_file_bytes = file_bytes;
  swim.max_file_bytes = file_bytes;
  swim.mean_interarrival_s = 1.0 / rate;
  swim.duration = duration;
  swim.epoch = epoch;
  swim.diurnal_amplitude = 0.0;
  return workload::SwimTraceGenerator{swim}.generate(seed);
}

/// Trace file index of a job: path "/data/part-i" names trace file i.
std::size_t file_index(const workload::JobSpec& job) {
  return std::stoul(job.input_path.substr(job.input_path.rfind('-') + 1));
}

/// Resolve a trace's jobs to (time, file, client) arrivals, offset by
/// `start`, with clients drawn from `clients`. Trace file i is world file
/// `files[i]`.
std::vector<Arrival> arrivals(const workload::Trace& trace,
                              const std::vector<hdfs::FileId>& files,
                              const std::vector<hdfs::NodeId>& clients,
                              sim::SimTime start, std::uint64_t seed) {
  sim::Rng rng{seed};
  std::vector<Arrival> out;
  out.reserve(trace.jobs.size());
  for (const workload::JobSpec& job : trace.jobs) {
    const std::size_t i = file_index(job);
    const auto client = clients[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(clients.size()) - 1))];
    out.push_back(Arrival{start + sim::micros(job.submit_time.micros()), files[i], client});
  }
  return out;
}

/// Replay `list` as an open loop: each arrival issues its read and schedules
/// the next, so one pending generator event exists at a time.
void replay(World& w, std::shared_ptr<const std::vector<Arrival>> list, RepResult& r,
            ReadThroughput& tp, std::size_t i = 0) {
  if (i >= list->size()) {
    return;
  }
  w.sim.schedule_at((*list)[i].at, [&w, list, &r, &tp, i] {
    const Arrival& a = (*list)[i];
    issue_read(*w.cluster, a.client, a.file, r.client_reads, tp);
    replay(w, list, r, tp, i + 1);
  });
}

/// Crash victims for the reheat phase: `crashes` serving nodes, one per
/// rack, drawn from `rng`.
std::vector<hdfs::NodeId> choose_victims(const World& w, std::size_t crashes, sim::Rng& rng) {
  std::vector<hdfs::NodeId> victims;
  std::vector<std::size_t> racks;
  while (victims.size() < crashes) {
    const hdfs::NodeId n = w.active[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(w.active.size()) - 1))];
    const std::size_t rack = w.cluster->rack_of(n).value();
    if (std::find(racks.begin(), racks.end(), rack) == racks.end()) {
      victims.push_back(n);
      racks.push_back(rack);
    }
  }
  return victims;
}

/// The part of the cold set clients return to: the coded files whose only
/// copy of some data block sat on a victim (so the crashes land on data
/// that is being read), topped up with other files to `count`, in a seeded
/// random order so popularity ranks fall anywhere in the set.
std::vector<hdfs::FileId> reheat_set(const World& w, const std::vector<hdfs::NodeId>& victims,
                                     std::size_t count, sim::Rng& rng) {
  std::vector<hdfs::FileId> exposed;
  std::vector<hdfs::FileId> others;
  for (const hdfs::FileId f : w.files) {
    const hdfs::FileInfo* info = w.cluster->metadata().find(f);
    bool hit = false;
    for (const hdfs::BlockId b : info->blocks) {
      const auto& locs = w.cluster->locations_view(b);
      hit = hit || (info->erasure_coded && locs.size() == 1 &&
                    std::find(victims.begin(), victims.end(), locs[0]) != victims.end());
    }
    (hit ? exposed : others).push_back(f);
  }
  rng.shuffle(others);
  exposed.resize(std::min(exposed.size(), count));
  for (std::size_t i = 0; exposed.size() < count && i < others.size(); ++i) {
    exposed.push_back(others[i]);
  }
  rng.shuffle(exposed);
  return exposed;
}

/// The benchmark's own evaluation timer: every evaluation_period, run one
/// timed ErmsManager::evaluate(), sample the backlog, then `after`. Once
/// `after` returns false the simulation stops, so the run ends (and energy
/// stops accruing) at a time set by simulated state alone.
void schedule_tick(World& w, Tracer& tracer, RepResult& r,
                   std::shared_ptr<std::function<bool()>> after) {
  w.sim.schedule_after(w.erms->config().evaluation_period, [&w, &tracer, &r, after] {
    {
      const Span span(tracer, Layer::kEvaluate);
      w.erms->evaluate();
    }
    r.backlog.sample(*w.cluster, *w.erms);
    if ((*after)()) {
      schedule_tick(w, tracer, r, after);
    } else {
      w.sim.stop();
    }
  });
}

bool drained(World& w) {
  return w.cluster->background_idle() && w.cluster->network().active_flows() == 0 &&
         w.erms->scheduler().queued_count() == 0 &&
         w.erms->scheduler().running_count() == 0;
}

/// End-of-run bookkeeping of the data-plane workload; the `*_start`
/// arguments are the clock and feed count at the timed phase's start.
void finish(World& w, RepResult& r, const ReadThroughput& tp, double timed_start,
            std::uint64_t feed_start) {
  w.cluster->flush_audit();
  r.timed_s = wall_now() - timed_start;
  r.feed_events = w.erms->feed().events_ingested() - feed_start;
  r.sim_s = w.sim.now().seconds();
  r.ops = r.client_reads;
  r.read_mbps = tp.mean();
  if (r.client_reads.ok + r.client_reads.failed != r.client_reads.attempted) {
    r.problems.push_back("client reads still pending at end of run");
  }
  if (r.backlog.flows_growing()) {
    r.problems.push_back("network flow backlog keeps growing: offered load past capacity");
  }
  record_outcomes(r, *w.cluster);
  record_counts(r, *w.cluster, *w.erms, *w.placement);
  r.digest_text = outcome_text(*w.cluster, *w.erms, r, tp);
}

}  // namespace

RepResult run_cold_archive(const Options& opt, Tracer& tracer) {
  constexpr std::size_t kFileCount = 1'500;
  constexpr std::size_t kReheatFiles = 150;
  const sim::SimDuration burst = sim::minutes(5.0);
  const sim::SimDuration reheat = sim::minutes(6.0);
  constexpr std::uint64_t kFileBytes = 128 * util::MiB;
  constexpr double kBurstRate = 10.0;  // file reads per sim-second
  constexpr double kReheatRate = 4.0;
  constexpr std::size_t kCrashes = 3;
  RepResult r;

  workload::Trace trace;
  workload::Trace reheat_trace;
  {
    const Span span(tracer, Layer::kGenerate);
    trace = make_trace(opt.seed, kFileCount, kFileBytes, kBurstRate, burst, sim::minutes(5.0));
    reheat_trace =
        make_trace(opt.seed + 2, kReheatFiles, kFileBytes, kReheatRate, reheat, reheat);
  }

  const double setup_start = wall_now();
  core::ErmsConfig cfg;
  cfg.thresholds.cold_age = sim::minutes(15.0);
  hdfs::ClusterConfig ccfg;
  // Eight 16 MiB blocks per file, so an LRC/RS stripe really saves storage.
  ccfg.block_size = 16 * util::MiB;
  // A tighter recovery budget than the default 12 streams: lost coded
  // blocks stay missing long enough for client reads to take the degraded
  // path while they are rebuilt.
  ccfg.max_background_streams = 4;
  std::unique_ptr<World> w = build_world(opt, tracer, trace, cfg, ccfg, r);
  r.setup_s = wall_now() - setup_start;

  const double t0 = wall_now();
  const double spans0 = tracer.self_sum();
  const std::uint64_t feed0 = w->erms->feed().events_ingested();
  World& world = *w;
  ReadThroughput tp;
  {
    const Span span(tracer, Layer::kGenerate);
    replay(world,
           std::make_shared<const std::vector<Arrival>>(
               arrivals(trace, world.files, world.active, world.sim.now(), opt.seed + 1)),
           r, tp);
  }

  sim::Rng fault_rng{opt.seed ^ 0xc7a5eULL};
  // Phases advance on simulated state only, checked at each evaluation.
  enum class Phase { kBurstAndQuiet, kReheat, kSettle, kDone };
  auto phase = std::make_shared<Phase>(Phase::kBurstAndQuiet);
  auto reheat_end = std::make_shared<sim::SimTime>();
  const sim::SimTime quiet_from = world.sim.now() + burst;
  const sim::SimDuration cold_age = cfg.thresholds.cold_age;
  const sim::SimTime horizon = world.sim.now() + sim::hours(24.0);
  auto step = std::make_shared<std::function<bool()>>([&, phase, reheat_end] {
    const sim::SimTime now = world.sim.now();
    if (now >= horizon) {
      r.problems.push_back("cold_archive did not settle within 24 sim-hours");
      *phase = Phase::kDone;
      return false;
    }
    switch (*phase) {
      case Phase::kBurstAndQuiet:
        // Every file has passed cold_age and the bulk encode queue drained.
        if (now >= quiet_from + cold_age + sim::minutes(1.0) &&
            world.erms->stats().encodes > 0 && drained(world)) {
          *phase = Phase::kReheat;
          *reheat_end = now + reheat;
          // Crash nodes in distinct racks at once, then resume reads, from
          // the surviving nodes, on the part of the cold set they held.
          const std::vector<hdfs::NodeId> victims = choose_victims(world, kCrashes, fault_rng);
          const std::vector<hdfs::FileId> files =
              reheat_set(world, victims, kReheatFiles, fault_rng);
          std::vector<hdfs::NodeId> clients;
          for (const hdfs::NodeId n : world.active) {
            if (std::find(victims.begin(), victims.end(), n) == victims.end()) {
              clients.push_back(n);
            }
          }
          for (const hdfs::NodeId victim : victims) {
            world.cluster->fail_node(victim);
          }
          replay(world,
                 std::make_shared<const std::vector<Arrival>>(
                     arrivals(reheat_trace, files, clients, now, opt.seed + 3)),
                 r, tp);
        }
        return true;
      case Phase::kReheat:
        if (now >= *reheat_end + cold_age + sim::minutes(1.0)) {
          *phase = Phase::kSettle;
        }
        return true;
      case Phase::kSettle:
        if (drained(world)) {
          *phase = Phase::kDone;
          return false;
        }
        return true;
      case Phase::kDone:
        break;
    }
    return false;
  });
  schedule_tick(world, tracer, r, step);
  {
    const Span span(tracer, Layer::kSimDispatch);
    world.sim.run();
  }
  finish(world, r, tp, t0, feed0);
  r.timed_spans_s = tracer.self_sum() - spans0;

  const fault::InvariantReport report =
      fault::InvariantChecker{*world.cluster, &world.erms->scheduler()}.check(true);
  for (const std::string& v : report.violations) {
    r.problems.push_back("invariant: " + v);
  }
  r.digest_text += report.text;
  const core::ErmsStats& s = world.erms->stats();
  if (s.encodes == 0 || s.decodes == 0 || r.client_reads.degraded == 0) {
    r.problems.push_back("cold_archive needs encodes, decodes and degraded reads");
  }
  if (s.hot_promotions + s.overload_promotions == 0 || s.cooldowns == 0) {
    r.problems.push_back("cold_archive fired no promotion or no cool-down");
  }
  if (world.cluster->blocks_lost() != 0) {
    r.problems.push_back("blocks lost");
  }
  return r;
}

}  // namespace ermsbench
