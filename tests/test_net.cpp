#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/network.h"
#include "sim/simulation.h"

namespace erms::net {
namespace {

/// 2 racks × 2 nodes. Disk 80 MB/s, NIC 125 MB/s, uplink 100 MB/s so the
/// inter-rack constraint is visible.
FabricSpec small_fabric() {
  FabricSpec spec;
  spec.rack_count = 2;
  spec.rack_uplink_bw = 100.0e6;
  for (int i = 0; i < 4; ++i) {
    FabricSpec::Node n;
    n.rack = i / 2;
    n.nic_bw = 125.0e6;
    n.disk_bw = 80.0e6;
    spec.nodes.push_back(n);
  }
  return spec;
}

TEST(Network, RejectsEmptySpec) {
  sim::Simulation sim;
  EXPECT_THROW(NetworkModel(sim, FabricSpec{}), std::invalid_argument);
}

TEST(Network, RejectsBadRack) {
  sim::Simulation sim;
  FabricSpec spec;
  spec.rack_count = 1;
  FabricSpec::Node n;
  n.rack = 3;
  spec.nodes.push_back(n);
  EXPECT_THROW(NetworkModel(sim, spec), std::invalid_argument);
}

TEST(Network, SingleFlowDiskBound) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  // 80 MB over a disk-bound path (disk 80 MB/s < NIC) within one rack.
  bool done = false;
  net.start_flow(0, 1, 80'000'000, {}, [&](FlowId) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(sim.now().seconds(), 1.0, 1e-5);
  EXPECT_EQ(net.total_bytes_completed(), 80'000'000u);
  EXPECT_EQ(net.inter_rack_bytes(), 0u);
}

TEST(Network, LocalReadUsesOnlyDisk) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  bool done = false;
  net.start_flow(2, 2, 40'000'000, {}, [&](FlowId) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(sim.now().seconds(), 0.5, 1e-5);  // 40 MB at 80 MB/s
}

TEST(Network, InterRackCountsUplinkTraffic) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  net.start_flow(0, 2, 10'000'000, {}, nullptr);
  sim.run();
  EXPECT_EQ(net.inter_rack_bytes(), 10'000'000u);
}

TEST(Network, TwoFlowsShareSourceDisk) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  int done = 0;
  // Both flows read from node 0's disk (80 MB/s): each gets 40 MB/s.
  net.start_flow(0, 1, 40'000'000, {}, [&](FlowId) { ++done; });
  net.start_flow(0, 1, 40'000'000, {}, [&](FlowId) { ++done; });
  sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_NEAR(sim.now().seconds(), 1.0, 1e-5);
}

TEST(Network, IndependentFlowsDoNotInterfere) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  double t1 = 0.0;
  double t2 = 0.0;
  net.start_flow(0, 1, 80'000'000, {}, [&](FlowId) { t1 = sim.now().seconds(); });
  net.start_flow(2, 3, 80'000'000, {}, [&](FlowId) { t2 = sim.now().seconds(); });
  sim.run();
  EXPECT_NEAR(t1, 1.0, 1e-5);
  EXPECT_NEAR(t2, 1.0, 1e-5);
}

TEST(Network, UplinkIsTheInterRackBottleneck) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  // Two flows from different rack-0 sources to different rack-1 sinks: each
  // alone could do 80 MB/s (disk), but the shared 100 MB/s uplink caps the
  // pair at 50 MB/s each.
  int done = 0;
  net.start_flow(0, 2, 50'000'000, {}, [&](FlowId) { ++done; });
  net.start_flow(1, 3, 50'000'000, {}, [&](FlowId) { ++done; });
  sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_NEAR(sim.now().seconds(), 1.0, 1e-5);
}

TEST(Network, RatesRebalanceWhenFlowFinishes) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  // Flow A: 40 MB from node 0. Flow B: 60 MB from node 0. Sharing the disk
  // at 40 MB/s each; A finishes at t=1s, then B runs at 80 MB/s:
  // B has 20 MB left → finishes at t=1.25s.
  double tb = 0.0;
  net.start_flow(0, 1, 40'000'000, {}, nullptr);
  net.start_flow(0, 1, 60'000'000, {}, [&](FlowId) { tb = sim.now().seconds(); });
  sim.run();
  EXPECT_NEAR(tb, 1.25, 1e-5);
}

TEST(Network, MaxMinFairnessConservation) {
  sim::Simulation sim;
  FabricSpec spec = small_fabric();
  NetworkModel net{sim, spec};
  // Saturate node 0's disk with 4 flows; the allocated rates must sum to no
  // more than the disk capacity and be equal (max-min).
  std::vector<FlowId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(net.start_flow(0, 1, 1'000'000'000, {}, nullptr));
  }
  double sum = 0.0;
  for (const FlowId id : ids) {
    const double r = net.flow_rate(id);
    EXPECT_NEAR(r, 20.0e6, 1e3);
    sum += r;
  }
  EXPECT_LE(sum, 80.0e6 * (1.0 + 1e-9));
  for (const FlowId id : ids) {
    net.cancel_flow(id);
  }
}

TEST(Network, CancelPreventsCompletion) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  bool fired = false;
  const FlowId id = net.start_flow(0, 1, 80'000'000, {}, [&](FlowId) { fired = true; });
  net.cancel_flow(id);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(Network, CancelFreesBandwidthForOthers) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  double t = 0.0;
  const FlowId victim = net.start_flow(0, 1, 1'000'000'000, {}, nullptr);
  net.start_flow(0, 1, 80'000'000, {}, [&](FlowId) { t = sim.now().seconds(); });
  sim.schedule_after(sim::seconds(0.5), [&] { net.cancel_flow(victim); });
  sim.run();
  // 0.5s at 40 MB/s (20 MB) + 60 MB at 80 MB/s (0.75s) = 1.25s.
  EXPECT_NEAR(t, 1.25, 1e-5);
}

TEST(Network, DstDiskConstrainsWrites) {
  sim::Simulation sim;
  FabricSpec spec = small_fabric();
  spec.nodes[1].disk_bw = 40.0e6;  // slow destination disk
  NetworkModel net{sim, spec};
  NetworkModel::FlowOptions opts;
  opts.src_disk = true;
  opts.dst_disk = true;
  net.start_flow(0, 1, 40'000'000, opts, nullptr);
  sim.run();
  EXPECT_NEAR(sim.now().seconds(), 1.0, 1e-5);  // bound by 40 MB/s write
}

TEST(Network, RateCapLimitsLoneFlow) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  NetworkModel::FlowOptions opts;
  opts.max_rate = 20.0e6;  // well below the 80 MB/s disk
  net.start_flow(0, 1, 20'000'000, opts, nullptr);
  sim.run();
  EXPECT_NEAR(sim.now().seconds(), 1.0, 1e-5);
}

TEST(Network, CappedFlowReleasesShareToOthers) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  NetworkModel::FlowOptions capped;
  capped.max_rate = 10.0e6;
  const FlowId slow = net.start_flow(0, 1, 1'000'000'000, capped, nullptr);
  const FlowId fast = net.start_flow(0, 1, 1'000'000'000, {}, nullptr);
  // Disk 80 MB/s: the capped flow takes 10, the other gets the remaining 70
  // (not the 40/40 plain fair split).
  EXPECT_NEAR(net.flow_rate(slow), 10.0e6, 1e3);
  EXPECT_NEAR(net.flow_rate(fast), 70.0e6, 1e3);
  net.cancel_flow(slow);
  net.cancel_flow(fast);
}

TEST(Network, CapAboveFairShareIsInert) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  NetworkModel::FlowOptions opts;
  opts.max_rate = 500.0e6;  // far above any link
  net.start_flow(0, 1, 80'000'000, opts, nullptr);
  sim.run();
  EXPECT_NEAR(sim.now().seconds(), 1.0, 1e-5);  // still disk-bound
}

TEST(Network, ManyCappedFlowsSumWithinLink) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  NetworkModel::FlowOptions opts;
  opts.max_rate = 15.0e6;
  std::vector<FlowId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(net.start_flow(0, 1, 1'000'000'000, opts, nullptr));
  }
  // 4 × 15 = 60 MB/s < 80 MB/s disk: every flow runs at its cap.
  for (const FlowId id : ids) {
    EXPECT_NEAR(net.flow_rate(id), 15.0e6, 1e3);
  }
  for (const FlowId id : ids) {
    net.cancel_flow(id);
  }
}

TEST(Network, ZeroByteFlowCompletes) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  bool done = false;
  net.start_flow(0, 1, 0, {}, [&](FlowId) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now().micros(), 0);
}

TEST(Network, ManyFlowsAllComplete) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  int done = 0;
  for (int i = 0; i < 64; ++i) {
    net.start_flow(static_cast<std::size_t>(i % 4),
                   static_cast<std::size_t>((i + 1) % 4), 1'000'000, {},
                   [&](FlowId) { ++done; });
  }
  sim.run();
  EXPECT_EQ(done, 64);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(NetworkFaults, AbortAccountsPartialBytes) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  // Disk-bound at 80 MB/s; abort at 0.5 s → exactly 40 MB made it across.
  bool completed = false;
  std::uint64_t partial = 0;
  NetworkModel::FlowOptions opts;
  opts.on_abort = [&](FlowId, std::uint64_t bytes) { partial = bytes; };
  const FlowId id =
      net.start_flow(0, 1, 80'000'000, opts, [&](FlowId) { completed = true; });
  sim.schedule_at(sim::SimTime{sim::seconds(0.5).micros()}, [&] { net.abort_flow(id); });
  sim.run();
  EXPECT_FALSE(completed);
  EXPECT_NEAR(static_cast<double>(partial), 40'000'000.0, 1e3);
  EXPECT_EQ(net.flows_aborted(), 1u);
  EXPECT_EQ(net.bytes_aborted(), partial);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(NetworkFaults, AbortFlowsTouchingNodeIsDeterministic) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  std::vector<std::uint64_t> aborted_order;
  NetworkModel::FlowOptions opts;
  opts.on_abort = [&](FlowId id, std::uint64_t) { aborted_order.push_back(id.value()); };
  net.start_flow(0, 1, 50'000'000, opts, [](FlowId) {});
  net.start_flow(2, 0, 50'000'000, opts, [](FlowId) {});
  net.start_flow(2, 3, 50'000'000, opts, [](FlowId) {});  // does not touch node 0
  sim.schedule_at(sim::SimTime{sim::seconds(0.1).micros()}, [&] {
    const auto victims = net.abort_flows_touching(0);
    EXPECT_EQ(victims.size(), 2u);
    // FlowId order, for replayable accounting.
    EXPECT_LT(victims[0].id.value(), victims[1].id.value());
  });
  sim.run();
  ASSERT_EQ(aborted_order.size(), 2u);
  EXPECT_LT(aborted_order[0], aborted_order[1]);
  EXPECT_EQ(net.flows_aborted(), 2u);
  EXPECT_EQ(net.active_flows(), 0u);  // third flow ran to completion
}

TEST(NetworkFaults, TimeoutAbortsSlowFlow) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  bool completed = false;
  bool aborted = false;
  NetworkModel::FlowOptions opts;
  opts.timeout = sim::seconds(0.25);
  opts.on_abort = [&](FlowId, std::uint64_t) { aborted = true; };
  net.start_flow(0, 1, 80'000'000, opts, [&](FlowId) { completed = true; });
  sim.run();
  EXPECT_FALSE(completed);
  EXPECT_TRUE(aborted);
  EXPECT_NEAR(sim.now().seconds(), 0.25, 1e-5);
}

TEST(NetworkFaults, TimeoutCancelledOnCompletion) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  bool completed = false;
  bool aborted = false;
  NetworkModel::FlowOptions opts;
  opts.timeout = sim::seconds(10.0);
  opts.on_abort = [&](FlowId, std::uint64_t) { aborted = true; };
  net.start_flow(0, 1, 8'000'000, opts, [&](FlowId) { completed = true; });
  sim.run();
  EXPECT_TRUE(completed);
  EXPECT_FALSE(aborted);
}

TEST(NetworkFaults, NodeDegradationSlowsFlows) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  // Halve node 0's link capacities: the disk-bound 80 MB/s path drops to
  // 40 MB/s, so 40 MB takes 1 s instead of 0.5 s.
  net.set_node_degradation(0, 0.5);
  bool done = false;
  net.start_flow(0, 1, 40'000'000, {}, [&](FlowId) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(sim.now().seconds(), 1.0, 1e-5);
  // Restoring mid-run speeds the next flow back up.
  net.set_node_degradation(0, 1.0);
  done = false;
  const sim::SimTime before = sim.now();
  net.start_flow(0, 1, 40'000'000, {}, [&](FlowId) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR((sim.now() - before).seconds(), 0.5, 1e-5);
}

// ----- tie-order pins ---------------------------------------------------------
//
// Completion instants and their order against same-time events are part of
// the determinism contract: every simulated outcome downstream depends on
// them. These pin the order a rebalance-per-change fabric produces.

TEST(NetworkTies, IdenticalFlowsCompleteInFlowIdOrder) {
  for (const bool shared : {true, false}) {
    sim::Simulation sim;
    NetworkModel net{sim, small_fabric()};
    std::vector<std::pair<std::uint64_t, std::int64_t>> done;
    auto record = [&](FlowId id) { done.emplace_back(id.value(), sim.now().micros()); };
    // Shared: two copies of one transfer split node 0's disk. Disjoint: the
    // later-started flow runs between lower node ids. Either way both drain
    // in the same microsecond.
    const FlowId first =
        net.start_flow(shared ? 0 : 2, shared ? 1 : 3, 40'000'000, {}, record);
    const FlowId second = net.start_flow(0, 1, 40'000'000, {}, record);
    sim.run();
    const std::int64_t at = shared ? 1'000'001 : 500'001;
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], std::make_pair(first.value(), at));
    EXPECT_EQ(done[1], std::make_pair(second.value(), at));
  }
}

TEST(NetworkTies, SameTimeEventsOrderAgainstTheLastFlowChange) {
  // Flow A (80 MB, disk-bound at 80 MB/s) is due at 1'000'001 µs; flow B
  // runs on disjoint links, so A's finish moves B's due instant only by
  // rounding. A dry run finds it.
  constexpr std::int64_t kADue = 1'000'001;
  std::int64_t b_due = 0;
  {
    sim::Simulation sim;
    NetworkModel net{sim, small_fabric()};
    net.start_flow(0, 1, 80'000'000, {}, nullptr);
    net.start_flow(2, 3, 120'000'000, {}, [&](FlowId) { b_due = sim.now().micros(); });
    sim.run();
  }
  ASSERT_GT(b_due, kADue);

  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  std::vector<std::string> log;
  auto probe = [&](std::int64_t at, std::string name) {
    sim.schedule_at(sim::SimTime{at}, [&log, name] { log.push_back(name); });
  };
  probe(kADue, "a:before-starts");
  net.start_flow(0, 1, 80'000'000, {}, [&](FlowId) {
    log.emplace_back("a:done");
    probe(b_due, "b:after-a-done");
  });
  // Scheduled after A's start but before B's: B's start is the last change
  // before A's due instant, so this still fires first.
  probe(kADue, "a:between-starts");
  probe(b_due, "b:before-a-done");
  net.start_flow(2, 3, 120'000'000, {}, [&](FlowId) { log.emplace_back("b:done"); });
  probe(kADue, "a:after-starts");
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a:before-starts", "a:between-starts", "a:done",
                                           "a:after-starts", "b:before-a-done", "b:done",
                                           "b:after-a-done"}));
}

TEST(NetworkTies, SameInstantBurstSettlesToPinnedRatesAndInstants) {
  sim::Simulation sim;
  NetworkModel net{sim, small_fabric()};
  std::vector<std::pair<std::uint64_t, std::int64_t>> done;
  auto record = [&](FlowId id) { done.emplace_back(id.value(), sim.now().micros()); };
  std::vector<std::uint64_t> aborted;
  NetworkModel::FlowOptions watched;
  watched.on_abort = [&](FlowId, std::uint64_t bytes) { aborted.push_back(bytes); };

  const FlowId e = net.start_flow(0, 2, 200'000'000, {}, record);
  sim.run_until(sim::SimTime{250'000});
  // One instant: starts, a rate read in the middle, a cancel and an abort.
  const FlowId a = net.start_flow(0, 1, 40'000'000, {}, record);
  NetworkModel::FlowOptions capped;
  capped.max_rate = 20.0e6;
  const FlowId b = net.start_flow(1, 2, 60'000'000, capped, record);
  EXPECT_EQ(net.flow_rate(a), 40.0e6);
  EXPECT_EQ(net.flow_rate(b), 20.0e6);
  const FlowId c = net.start_flow(3, 2, 50'000'000, {}, record);
  net.cancel_flow(b);
  const FlowId d = net.start_flow(0, 3, 30'000'000, watched, record);
  net.abort_flow(d);
  const FlowId f = net.start_flow(2, 0, 10'000'000, {}, record);

  // E and A split node 0's disk; C and F each own a disk.
  EXPECT_EQ(net.flow_rate(e), 40.0e6);
  EXPECT_EQ(net.flow_rate(a), 40.0e6);
  EXPECT_EQ(net.flow_rate(b), 0.0);
  EXPECT_EQ(net.flow_rate(c), 80.0e6);
  EXPECT_EQ(net.flow_rate(d), 0.0);
  EXPECT_EQ(net.flow_rate(f), 80.0e6);
  EXPECT_EQ(aborted, std::vector<std::uint64_t>{0});

  sim.run_until(sim::SimTime{sim::seconds(10.0).micros()});
  EXPECT_EQ(done, (std::vector<std::pair<std::uint64_t, std::int64_t>>{
                      {f.value(), 375'001},
                      {c.value(), 875'001},
                      {a.value(), 1'250'001},
                      // Alone from 1.250001 s: 139,999,960 bytes left at
                      // 80 MB/s is 1,749,999.5 µs, rounded up, plus one.
                      {e.value(), 3'000'002}}));
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST(NetworkTies, StopAndDeadlineJumpChargeSettledRates) {
  for (const bool stop : {true, false}) {
    sim::Simulation sim;
    NetworkModel net{sim, small_fabric()};
    std::uint64_t a_bytes = 0;
    std::uint64_t b_bytes = 0;
    NetworkModel::FlowOptions a_opts;
    a_opts.on_abort = [&](FlowId, std::uint64_t bytes) { a_bytes = bytes; };
    NetworkModel::FlowOptions b_opts;
    b_opts.on_abort = [&](FlowId, std::uint64_t bytes) { b_bytes = bytes; };
    const FlowId a = net.start_flow(0, 1, 80'000'000, a_opts, nullptr);
    FlowId b;
    // At 0.25 s B joins A on node 0's disk: 80 MB/s becomes 40 + 40. The
    // next event is A's completion, past the deadline, so run_until leaves
    // through stop() or through its jump to the deadline.
    sim.schedule_at(sim::SimTime{250'000}, [&] {
      b = net.start_flow(0, 1, 80'000'000, b_opts, nullptr);
      if (stop) {
        sim.stop();
      }
    });
    sim.run_until(sim::SimTime{500'000});
    EXPECT_EQ(sim.now().micros(), 500'000);
    net.abort_flow(a);
    net.abort_flow(b);
    EXPECT_EQ(a_bytes, 30'000'000u) << "stop " << stop;  // 0.25 s × 80 + 0.25 s × 40
    EXPECT_EQ(b_bytes, 10'000'000u) << "stop " << stop;  // 0.25 s × 40
  }
}

// ----- dense oracle ----------------------------------------------------------

/// The progressive-filling model as it was before rebalance() went sparse:
/// a LinkState per fabric link, rebuilt on every flow start/finish, and
/// every filling round scanning all links. It runs on its own clock and
/// mirrors NetworkModel's bookkeeping (paths, progress, completion
/// rounding), so rates and completion instants can be compared bit for bit.
class DenseOracle {
 public:
  DenseOracle(sim::Simulation& sim, const FabricSpec& spec) : sim_(sim), spec_(spec) {
    for (const auto& node : spec_.nodes) {
      links_.push_back({node.disk_bw, node.disk_bw});
      links_.push_back({node.nic_bw, node.nic_bw});
      links_.push_back({node.nic_bw, node.nic_bw});
    }
    for (std::size_t r = 0; r < spec_.rack_count; ++r) {
      links_.push_back({spec_.rack_uplink_bw, spec_.rack_uplink_bw});
      links_.push_back({spec_.rack_uplink_bw, spec_.rack_uplink_bw});
    }
  }

  std::uint64_t start(std::size_t src, std::size_t dst, std::uint64_t bytes, bool src_disk,
                      bool dst_disk, double max_rate) {
    const std::uint64_t id = next_id_++;
    Flow flow;
    flow.remaining = static_cast<double>(bytes);
    flow.max_rate = max_rate;
    flow.last_update = sim_.now();
    flow.src = src;
    flow.dst = dst;
    const std::size_t n = spec_.nodes.size();
    if (src_disk) flow.path.push_back(src * 3);
    if (src != dst) {
      flow.path.push_back(src * 3 + 1);
      const std::size_t sr = spec_.nodes[src].rack;
      const std::size_t dr = spec_.nodes[dst].rack;
      if (sr != dr) {
        flow.path.push_back(n * 3 + sr * 2);
        flow.path.push_back(n * 3 + dr * 2 + 1);
      }
      flow.path.push_back(dst * 3 + 2);
    }
    if (dst_disk && !(src == dst && src_disk)) flow.path.push_back(dst * 3);
    if (flow.path.empty()) flow.path.push_back(src * 3);
    advance();
    flows_.emplace(id, std::move(flow));
    rebalance();
    return id;
  }

  void remove(std::uint64_t id) {
    const auto it = flows_.find(id);
    if (it == flows_.end()) return;
    advance();
    it->second.completion.cancel();
    flows_.erase(it);
    rebalance();
  }

  void remove_touching(std::size_t node) {
    advance();
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (it->second.src == node || it->second.dst == node) {
        it->second.completion.cancel();
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    rebalance();
  }

  void degrade_node(std::size_t node, double factor) {
    advance();
    for (std::size_t l = node * 3; l < node * 3 + 3; ++l) {
      links_[l].capacity = links_[l].base * factor;
    }
    rebalance();
  }

  void degrade_rack(std::size_t rack, double factor) {
    advance();
    const std::size_t first = spec_.nodes.size() * 3 + rack * 2;
    for (std::size_t l = first; l < first + 2; ++l) {
      links_[l].capacity = links_[l].base * factor;
    }
    rebalance();
  }

  [[nodiscard]] bool active(std::uint64_t id) const { return flows_.contains(id); }
  [[nodiscard]] double rate(std::uint64_t id) const {
    const auto it = flows_.find(id);
    return it == flows_.end() ? 0.0 : it->second.rate;
  }
  [[nodiscard]] const std::vector<std::pair<std::uint64_t, std::int64_t>>& completions() const {
    return completions_;
  }

 private:
  struct Link {
    double capacity;
    double base;
  };
  struct Flow {
    std::size_t src{0};
    std::size_t dst{0};
    std::vector<std::size_t> path;
    double remaining{0.0};
    double max_rate{0.0};
    double rate{0.0};
    sim::SimTime last_update;
    sim::EventHandle completion;
  };

  void advance() {
    for (auto& [id, flow] : flows_) {
      const double elapsed = (sim_.now() - flow.last_update).seconds();
      if (elapsed > 0.0) flow.remaining = std::max(0.0, flow.remaining - flow.rate * elapsed);
      flow.last_update = sim_.now();
    }
  }

  void rebalance() {
    struct LinkState {
      double remaining_capacity;
      std::size_t unfrozen_flows{0};
    };
    std::vector<LinkState> state(links_.size());
    for (std::size_t i = 0; i < links_.size(); ++i) {
      state[i].remaining_capacity = links_[i].capacity;
    }
    for (auto& [id, flow] : flows_) {
      flow.rate = -1.0;
      for (const std::size_t link : flow.path) ++state[link].unfrozen_flows;
    }
    std::size_t unfrozen = flows_.size();
    while (unfrozen > 0) {
      double min_share = std::numeric_limits<double>::infinity();
      for (const auto& link : state) {
        if (link.unfrozen_flows > 0) {
          min_share = std::min(min_share, link.remaining_capacity /
                                              static_cast<double>(link.unfrozen_flows));
        }
      }
      min_share = std::max(min_share, 0.0);
      bool froze_capped = false;
      for (auto& [id, flow] : flows_) {
        if (flow.rate >= 0.0 || flow.max_rate <= 0.0 || flow.max_rate >= min_share) continue;
        flow.rate = flow.max_rate;
        froze_capped = true;
        --unfrozen;
        for (const std::size_t link : flow.path) {
          state[link].remaining_capacity =
              std::max(0.0, state[link].remaining_capacity - flow.max_rate);
          --state[link].unfrozen_flows;
        }
      }
      if (froze_capped) continue;
      bool froze_any = false;
      for (auto& [id, flow] : flows_) {
        if (flow.rate >= 0.0) continue;
        bool bottlenecked = false;
        for (const std::size_t link : flow.path) {
          const auto& ls = state[link];
          if (ls.unfrozen_flows > 0 &&
              ls.remaining_capacity / static_cast<double>(ls.unfrozen_flows) <=
                  min_share * (1.0 + 1e-12)) {
            bottlenecked = true;
            break;
          }
        }
        if (!bottlenecked) continue;
        flow.rate = flow.max_rate > 0.0 ? std::min(min_share, flow.max_rate) : min_share;
        froze_any = true;
        --unfrozen;
        for (const std::size_t link : flow.path) {
          state[link].remaining_capacity =
              std::max(0.0, state[link].remaining_capacity - flow.rate);
          --state[link].unfrozen_flows;
        }
      }
      if (!froze_any) break;
    }
    for (auto& [id, flow] : flows_) {
      flow.completion.cancel();
      const std::uint64_t fid = id;
      if (flow.remaining <= 1e-3) {
        flow.completion = sim_.schedule_after(sim::micros(0), [this, fid] { complete(fid); });
        continue;
      }
      if (flow.rate <= 0.0) continue;
      const double secs = flow.remaining / flow.rate;
      const auto micros = static_cast<std::int64_t>(std::ceil(secs * 1e6)) + 1;
      flow.completion = sim_.schedule_after(sim::micros(micros), [this, fid] { complete(fid); });
    }
  }

  void complete(std::uint64_t id) {
    const auto it = flows_.find(id);
    if (it == flows_.end()) return;
    advance();
    if (it->second.remaining > 1e-3) {
      rebalance();
      return;
    }
    flows_.erase(it);
    rebalance();
    completions_.emplace_back(id, sim_.now().micros());
  }

  sim::Simulation& sim_;
  FabricSpec spec_;
  std::vector<Link> links_;
  std::map<std::uint64_t, Flow> flows_;
  std::uint64_t next_id_{1};
  std::vector<std::pair<std::uint64_t, std::int64_t>> completions_;
};

/// `nodes` nodes in `racks` racks. Uneven bandwidths (not round numbers, and
/// different per node) make the fair shares inexact doubles, so the order
/// in which filling subtracts them shows up in the last bits.
FabricSpec rack_fabric(std::size_t nodes, std::size_t racks) {
  FabricSpec spec;
  spec.rack_count = racks;
  spec.rack_uplink_bw = 400.0e6 / 3.0;
  for (std::size_t i = 0; i < nodes; ++i) {
    FabricSpec::Node n;
    n.rack = i * racks / nodes;
    n.disk_bw = 70.0e6 + static_cast<double>(i * 7919 % 1000) * 1.0e4 / 7.0;
    n.nic_bw = 110.0e6 + static_cast<double>(i * 104729 % 1000) * 3.0e4 / 11.0;
    spec.nodes.push_back(n);
  }
  return spec;
}

/// Drive NetworkModel and the dense oracle through the same seeded sequence
/// of starts, cancels, aborts, crashes and degradations; after every step
/// each live flow's rate must be the same double, and every completion must
/// land on the same microsecond. With `hold_clock`, about a third of the
/// steps leave the clock where it is and read no rates, so several changes
/// at one instant are settled together.
void run_against_oracle(const FabricSpec& spec, std::uint64_t seed, int steps,
                        bool hold_clock = false) {
  sim::Simulation sim;
  sim::Simulation oracle_sim;
  NetworkModel net{sim, spec};
  DenseOracle oracle{oracle_sim, spec};
  std::mt19937_64 rng{seed};
  const std::size_t n = spec.nodes.size();
  // Half the endpoints come from a small hot set so flows contend even on
  // the wide fabric.
  auto node = [&] {
    return rng() % 2 == 0 ? static_cast<std::size_t>(rng() % std::min<std::size_t>(n, 12))
                          : static_cast<std::size_t>(rng() % n);
  };
  auto unit = [&] { return static_cast<double>(rng() % 1000) / 1000.0; };
  std::vector<FlowId> ids;
  std::vector<std::pair<std::uint64_t, std::int64_t>> completions;
  std::int64_t now = 0;
  std::size_t max_active = 0;
  std::set<double> rates_seen;
  for (int step = 0; step < steps; ++step) {
    const bool hold = hold_clock && rng() % 3 == 0;
    if (!hold) {
      now += static_cast<std::int64_t>(rng() % 50'000);
      sim.run_until(sim::SimTime{now});
      oracle_sim.run_until(sim::SimTime{now});
    }
    const auto op = rng() % 20;
    if (op < 10 || ids.empty()) {
      const std::size_t src = node();
      const std::size_t dst = rng() % 8 == 0 ? src : node();
      const std::uint64_t bytes = rng() % 8 == 0 ? 0 : (rng() % 256 + 1) << 20;
      NetworkModel::FlowOptions opts;
      opts.src_disk = rng() % 4 != 0;
      opts.dst_disk = rng() % 3 == 0;
      opts.max_rate = rng() % 4 == 0 ? 5.0e6 + unit() * 60.0e6 / 7.0 : 0.0;
      const FlowId id = net.start_flow(src, dst, bytes, opts, [&](FlowId done) {
        completions.emplace_back(done.value(), sim.now().micros());
      });
      ASSERT_EQ(id.value(),
                oracle.start(src, dst, bytes, opts.src_disk, opts.dst_disk, opts.max_rate));
      ids.push_back(id);
    } else if (op < 13) {
      const FlowId id = ids[rng() % ids.size()];
      net.cancel_flow(id);
      oracle.remove(id.value());
    } else if (op < 15) {
      const FlowId id = ids[rng() % ids.size()];
      net.abort_flow(id);
      oracle.remove(id.value());
    } else if (op < 16) {
      const std::size_t victim = node();
      net.abort_flows_touching(victim);
      oracle.remove_touching(victim);
    } else if (op < 18) {
      const std::size_t target = node();
      const double factor = std::array<double, 4>{0.0, 0.3, 0.5, 1.0}[rng() % 4];
      net.set_node_degradation(target, factor);
      oracle.degrade_node(target, factor);
    } else {
      const std::size_t rack = rng() % spec.rack_count;
      const double factor = std::array<double, 4>{0.0, 0.25, 0.6, 1.0}[rng() % 4];
      net.set_rack_degradation(rack, factor);
      oracle.degrade_rack(rack, factor);
    }
    max_active = std::max(max_active, net.active_flows());
    for (const FlowId id : hold ? std::vector<FlowId>{} : ids) {
      rates_seen.insert(net.flow_rate(id));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(net.flow_rate(id)),
                std::bit_cast<std::uint64_t>(oracle.rate(id.value())))
          << "seed " << seed << " step " << step << " flow " << id.value() << ": "
          << net.flow_rate(id) << " vs " << oracle.rate(id.value());
    }
    ASSERT_EQ(completions, oracle.completions()) << "seed " << seed << " step " << step;
    // Keep only flows the oracle still carries as targets for later steps.
    std::erase_if(ids, [&](FlowId id) { return !oracle.active(id.value()); });
  }
  // Restore every link and drain: the tails must agree too.
  for (std::size_t i = 0; i < n; ++i) {
    net.set_node_degradation(i, 1.0);
    oracle.degrade_node(i, 1.0);
  }
  for (std::size_t r = 0; r < spec.rack_count; ++r) {
    net.set_rack_degradation(r, 1.0);
    oracle.degrade_rack(r, 1.0);
  }
  sim.run();
  oracle_sim.run();
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_EQ(completions, oracle.completions());
  // The sequence must actually exercise contention and the tail.
  EXPECT_GE(max_active, 20u);
  EXPECT_GE(completions.size(), 50u);
  EXPECT_GE(net.flows_aborted(), 50u);
  EXPECT_GE(rates_seen.size(), 50u);
}

TEST(NetworkOracle, SparseFillingMatchesDenseOnTestbed) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    run_against_oracle(rack_fabric(18, 3), seed, 600);
  }
}

TEST(NetworkOracle, SparseFillingMatchesDenseOnWideFabric) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    run_against_oracle(rack_fabric(400, 20), seed, 600);
  }
}

TEST(NetworkOracle, SameInstantBurstsMatchDenseOnTestbed) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    run_against_oracle(rack_fabric(18, 3), seed, 600, /*hold_clock=*/true);
  }
}

TEST(NetworkOracle, SameInstantBurstsMatchDenseOnWideFabric) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    run_against_oracle(rack_fabric(400, 20), seed, 600, /*hold_clock=*/true);
  }
}

}  // namespace
}  // namespace erms::net
