#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "obs/metrics_registry.h"
#include "sim/simulation.h"
#include "util/ids.h"

namespace erms::snapshot {
class Reader;
class Writer;
}

namespace erms::net {

struct FlowTag {};
using FlowId = util::StrongId<FlowTag>;

/// Static description of the cluster fabric.
struct FabricSpec {
  struct Node {
    std::size_t rack{0};
    double nic_bw{125.0e6};   // bytes/s (GbE ≈ 125 MB/s)
    double disk_bw{80.0e6};   // bytes/s (2012-era SATA)
  };
  std::vector<Node> nodes;
  std::size_t rack_count{1};
  /// Per-rack uplink to the core switch, each direction. An oversubscribed
  /// fabric has rack_uplink_bw < sum of member NIC bandwidth.
  double rack_uplink_bw{500.0e6};
};

/// Event-driven fluid-flow network model with max-min fair bandwidth
/// sharing. Every transfer (block read, replication pipeline hop) is a flow
/// whose path claims capacity on: the source disk (optional), source NIC,
/// rack uplinks when crossing racks, destination NIC, and destination disk
/// (optional, for writes). A start, finish, cancel, abort or degradation
/// only marks the fabric dirty; rates are settled by progressive filling
/// once, before the simulation next looks at its queue or moves its clock
/// (a Simulation::PreDispatch hook). The fabric then holds one completion
/// event, at the earliest flow's due instant.
///
/// This is what makes replica count matter in the experiments: a single
/// replica's node saturates its disk/NIC as readers pile on, while extra
/// replicas on other nodes add capacity (paper Figs. 6, 8, 9).
class NetworkModel {
 public:
  using CompletionFn = std::function<void(FlowId)>;
  /// Abort notification: the flow was torn down before the last byte arrived
  /// (endpoint died, deadline expired, or an explicit abort). Receives the
  /// bytes that did make it across so callers can account partial transfers.
  using AbortFn = std::function<void(FlowId, std::uint64_t bytes_transferred)>;

  struct FlowOptions {
    bool src_disk = true;   // transfer reads from the source disk
    bool dst_disk = false;  // transfer writes to the destination disk
    /// Per-flow rate ceiling (bytes/s); 0 = uncapped. Models HDFS's
    /// throttled balancer/re-replication streams
    /// (dfs.datanode.balance.bandwidthPerSec).
    double max_rate = 0.0;
    /// Per-flow deadline watchdog; if the flow is still active this long
    /// after starting it is aborted (on_abort fires). 0 = no deadline.
    sim::SimDuration timeout{};
    /// Fires instead of the completion callback when the flow is aborted.
    /// Flows without an abort handler are torn down silently (legacy
    /// cancel_flow semantics).
    AbortFn on_abort;
  };

  /// Everything a caller needs to account a flow that died mid-transfer.
  struct AbortedFlow {
    FlowId id;
    std::size_t src{0};
    std::size_t dst{0};
    std::uint64_t bytes_transferred{0};
    std::uint64_t total_bytes{0};
  };

  NetworkModel(sim::Simulation& simulation, FabricSpec spec);

  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;

  /// Start a transfer of `bytes` from node `src` to node `dst` (indices into
  /// the spec). src == dst models a local read (disk-only path). `on_done`
  /// fires on the simulation clock when the last byte arrives.
  FlowId start_flow(std::size_t src, std::size_t dst, std::uint64_t bytes,
                    FlowOptions options, CompletionFn on_done);

  /// Abort a flow; its completion callback never fires. No-op if already
  /// finished.
  void cancel_flow(FlowId id);

  /// Abort a flow and fire its abort handler (if any) with the bytes that
  /// made it across. No-op if already finished.
  void abort_flow(FlowId id);

  /// Tear down every flow whose source or destination is `node` — what a
  /// node crash does to its in-flight transfers. Partial bytes are charged
  /// to the abort counters and each flow's abort handler fires (after all
  /// victims are removed, so handlers may start replacement flows). Returns
  /// the aborted flows in FlowId order for deterministic accounting.
  std::vector<AbortedFlow> abort_flows_touching(std::size_t node);

  /// Scale a node's disk and NIC link capacities to `factor` × their spec
  /// values (0 < factor ≤ 1 degrades; 1 restores; 0 partitions the node —
  /// its flows stall until aborted or restored).
  void set_node_degradation(std::size_t node, double factor);

  /// Scale a rack's uplink capacities, both directions. factor as above.
  void set_rack_degradation(std::size_t rack, double factor);

  [[nodiscard]] double node_degradation(std::size_t node) const;

  /// Current rate (bytes/s) of an active flow; 0 if finished/unknown.
  /// Settles pending rate changes first.
  [[nodiscard]] double flow_rate(FlowId id);

  [[nodiscard]] std::size_t active_flows() const { return flows_.size(); }
  [[nodiscard]] std::size_t node_count() const { return spec_.nodes.size(); }
  [[nodiscard]] const FabricSpec& spec() const { return spec_; }

  /// Aggregate counters for the experiment harnesses.
  [[nodiscard]] std::uint64_t total_bytes_completed() const { return bytes_completed_; }
  [[nodiscard]] std::uint64_t inter_rack_bytes() const { return inter_rack_bytes_; }
  [[nodiscard]] std::uint64_t flows_aborted() const { return flows_aborted_; }
  [[nodiscard]] std::uint64_t bytes_aborted() const { return bytes_aborted_; }

  /// Attach (nullptr detaches) a metrics registry: flow start/complete
  /// counters, transferred bytes, an active-flow gauge and a flow-duration
  /// histogram. Ids resolve once here; detached costs one null test per
  /// flow event.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Snapshot support (src/snapshot/): link capacities (degradation
  /// episodes straddle snapshots), the flow-id sequence and the aggregate
  /// counters. Flows hold closures and must be drained first — save asserts
  /// active_flows() == 0, load requires a same-spec fabric.
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  // Link ids are indices into links_: per node disk / nic_out / nic_in, then
  // per rack uplink_out / uplink_in. `capacity` is the effective (possibly
  // degraded) value; `base` the spec value degradation factors scale.
  struct Link {
    double capacity;
    double base;
  };
  struct Flow {
    FlowId id;
    std::size_t src{0};
    std::size_t dst{0};
    std::vector<std::size_t> path;  // link indices
    double remaining;               // bytes
    double max_rate{0.0};           // 0 = uncapped
    double rate{0.0};               // bytes/s
    sim::SimTime started;
    sim::SimTime last_update;
    bool inter_rack{false};
    std::uint64_t total_bytes{0};
    CompletionFn on_done;
    AbortFn on_abort;
    sim::EventHandle deadline;
  };

  /// rebalance() scratch, indexed like links_. Between calls every entry
  /// has unfrozen_flows == 0; remaining_capacity is only meaningful while
  /// the link is in touched_links_.
  struct LinkState {
    double remaining_capacity{0.0};
    std::size_t unfrozen_flows{0};
  };

  [[nodiscard]] std::size_t disk_link(std::size_t node) const { return node * 3; }
  [[nodiscard]] std::size_t nic_out_link(std::size_t node) const { return node * 3 + 1; }
  [[nodiscard]] std::size_t nic_in_link(std::size_t node) const { return node * 3 + 2; }
  [[nodiscard]] std::size_t uplink_out_link(std::size_t rack) const {
    return spec_.nodes.size() * 3 + rack * 2;
  }
  [[nodiscard]] std::size_t uplink_in_link(std::size_t rack) const {
    return spec_.nodes.size() * 3 + rack * 2 + 1;
  }

  /// Charge progress to every flow for time elapsed since its last update.
  void advance_progress();

  /// Recompute all flow rates (progressive filling over the links active
  /// flows cross).
  void rebalance();

  /// Record a change to the flow set or to link capacities: reserve the seq
  /// the next completion event will carry and ask for a settle.
  void mark_dirty();

  /// If dirty: rebalance once, then move the fabric's completion event to
  /// the earliest due instant (FlowId breaks ties) at the reserved seq.
  void settle();

  void complete_flow(FlowId id);

  /// Remove one flow, charging partial bytes to the abort counters. Returns
  /// the aborted-flow record and its (moved-out) abort handler; the caller
  /// rebalances and invokes handlers once all victims are gone.
  std::pair<AbortedFlow, AbortFn> detach_aborted(FlowId id);

  sim::Simulation& sim_;
  FabricSpec spec_;
  std::vector<Link> links_;
  std::vector<LinkState> link_state_;
  std::vector<std::size_t> touched_links_;  // links unfrozen flows cross
  std::vector<Flow*> unfrozen_;             // rebalance() scratch, FlowId order
  std::vector<double> node_degradation_;
  /// Ordered by FlowId (= start order), not hashed: `rebalance()` subtracts
  /// link capacity and freezes flows *in iteration order*, so with float
  /// rounding the order is observable in the computed rates. A std::map
  /// makes that order part of the determinism contract on every platform
  /// instead of an accident of the hash table's bucket layout.
  std::map<FlowId, Flow> flows_;
  util::IdGenerator<FlowId> flow_ids_{1};
  std::uint64_t bytes_completed_{0};
  std::uint64_t inter_rack_bytes_{0};
  std::uint64_t flows_aborted_{0};
  std::uint64_t bytes_aborted_{0};

  struct ObsIds {
    obs::CounterId flows_started, flows_completed, flows_cancelled;
    obs::CounterId flows_aborted, bytes_aborted;
    obs::CounterId bytes_completed, inter_rack_bytes;
    obs::GaugeId active_flows;
    obs::HistogramId flow_seconds;
  };
  obs::MetricsRegistry* metrics_{nullptr};
  ObsIds obs_ids_;

  /// The fabric's one completion event, for flow `due_flow_`. It carries
  /// the seq reserved at the last change, so against same-time events it
  /// orders as if it had been scheduled at that change.
  sim::EventHandle completion_;
  FlowId due_flow_;
  std::uint64_t settle_seq_{0};
  bool dirty_{false};
  // Last: deregisters before the state it settles is destroyed.
  sim::Simulation::PreDispatch settle_hook_{sim_, [this] { settle(); }};
};

}  // namespace erms::net
