#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "snapshot/codec.h"

namespace erms::net {

namespace {
// A flow is considered drained when this many bytes (or fewer) remain; the
// fluid model accumulates tiny floating-point residues.
constexpr double kEpsilonBytes = 1e-3;
}  // namespace

NetworkModel::NetworkModel(sim::Simulation& simulation, FabricSpec spec)
    : sim_(simulation), spec_(std::move(spec)) {
  if (spec_.nodes.empty()) {
    throw std::invalid_argument("NetworkModel: no nodes");
  }
  for (const auto& node : spec_.nodes) {
    if (node.rack >= spec_.rack_count) {
      throw std::invalid_argument("NetworkModel: node rack out of range");
    }
    links_.push_back(Link{node.disk_bw, node.disk_bw});
    links_.push_back(Link{node.nic_bw, node.nic_bw});
    links_.push_back(Link{node.nic_bw, node.nic_bw});
  }
  for (std::size_t r = 0; r < spec_.rack_count; ++r) {
    links_.push_back(Link{spec_.rack_uplink_bw, spec_.rack_uplink_bw});
    links_.push_back(Link{spec_.rack_uplink_bw, spec_.rack_uplink_bw});
  }
  node_degradation_.assign(spec_.nodes.size(), 1.0);
  link_state_.resize(links_.size());
}

FlowId NetworkModel::start_flow(std::size_t src, std::size_t dst, std::uint64_t bytes,
                                FlowOptions options, CompletionFn on_done) {
  assert(src < spec_.nodes.size() && dst < spec_.nodes.size());
  const FlowId id = flow_ids_.next();

  Flow flow;
  flow.id = id;
  flow.src = src;
  flow.dst = dst;
  flow.remaining = static_cast<double>(bytes);
  flow.total_bytes = bytes;
  flow.max_rate = options.max_rate;
  flow.started = sim_.now();
  flow.last_update = sim_.now();
  flow.on_done = std::move(on_done);
  flow.on_abort = std::move(options.on_abort);
  if (options.timeout.micros() > 0) {
    flow.deadline = sim_.schedule_after(options.timeout, [this, id] { abort_flow(id); });
  }
  if (metrics_ != nullptr) {
    metrics_->add(obs_ids_.flows_started);
  }

  if (options.src_disk) {
    flow.path.push_back(disk_link(src));
  }
  if (src != dst) {
    flow.path.push_back(nic_out_link(src));
    const std::size_t src_rack = spec_.nodes[src].rack;
    const std::size_t dst_rack = spec_.nodes[dst].rack;
    if (src_rack != dst_rack) {
      flow.inter_rack = true;
      flow.path.push_back(uplink_out_link(src_rack));
      flow.path.push_back(uplink_in_link(dst_rack));
    }
    flow.path.push_back(nic_in_link(dst));
  }
  if (options.dst_disk && !(src == dst && options.src_disk)) {
    // A same-node copy with both ends on disk shares one spindle; model it as
    // a single disk-link traversal (already added above).
    flow.path.push_back(disk_link(dst));
  }
  if (flow.path.empty()) {
    // Memory-to-memory on one node: effectively instantaneous; finish on the
    // next event so callers still see asynchronous completion.
    flow.path.push_back(disk_link(src));
  }

  advance_progress();
  flows_.emplace(id, std::move(flow));
  mark_dirty();
  if (metrics_ != nullptr) {
    metrics_->set(obs_ids_.active_flows, static_cast<double>(flows_.size()));
  }
  return id;
}

void NetworkModel::cancel_flow(FlowId id) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) {
    return;
  }
  advance_progress();
  it->second.deadline.cancel();
  flows_.erase(it);
  mark_dirty();
  if (metrics_ != nullptr) {
    metrics_->add(obs_ids_.flows_cancelled);
    metrics_->set(obs_ids_.active_flows, static_cast<double>(flows_.size()));
  }
}

std::pair<NetworkModel::AbortedFlow, NetworkModel::AbortFn> NetworkModel::detach_aborted(
    FlowId id) {
  const auto it = flows_.find(id);
  Flow& flow = it->second;
  flow.deadline.cancel();
  const double done = static_cast<double>(flow.total_bytes) - std::max(0.0, flow.remaining);
  AbortedFlow info;
  info.id = id;
  info.src = flow.src;
  info.dst = flow.dst;
  info.bytes_transferred = static_cast<std::uint64_t>(std::max(0.0, done));
  info.total_bytes = flow.total_bytes;
  AbortFn on_abort = std::move(flow.on_abort);
  flows_.erase(it);
  ++flows_aborted_;
  bytes_aborted_ += info.bytes_transferred;
  if (metrics_ != nullptr) {
    metrics_->add(obs_ids_.flows_aborted);
    metrics_->add(obs_ids_.bytes_aborted, info.bytes_transferred);
  }
  return {std::move(info), std::move(on_abort)};
}

void NetworkModel::abort_flow(FlowId id) {
  if (flows_.find(id) == flows_.end()) {
    return;
  }
  advance_progress();
  auto [info, on_abort] = detach_aborted(id);
  mark_dirty();
  if (metrics_ != nullptr) {
    metrics_->set(obs_ids_.active_flows, static_cast<double>(flows_.size()));
  }
  if (on_abort) {
    on_abort(info.id, info.bytes_transferred);
  }
}

std::vector<NetworkModel::AbortedFlow> NetworkModel::abort_flows_touching(std::size_t node) {
  advance_progress();
  std::vector<FlowId> victims;
  for (const auto& [id, flow] : flows_) {
    if (flow.src == node || flow.dst == node) {
      victims.push_back(id);
    }
  }
  // FlowId order, not hash order: abort handlers and trace events fire in
  // the order the flows were started, which keeps chaos runs replayable.
  std::sort(victims.begin(), victims.end());
  std::vector<AbortedFlow> aborted;
  std::vector<AbortFn> handlers;
  aborted.reserve(victims.size());
  handlers.reserve(victims.size());
  for (const FlowId id : victims) {
    auto [info, on_abort] = detach_aborted(id);
    aborted.push_back(info);
    handlers.push_back(std::move(on_abort));
  }
  mark_dirty();
  if (metrics_ != nullptr) {
    metrics_->set(obs_ids_.active_flows, static_cast<double>(flows_.size()));
  }
  for (std::size_t i = 0; i < aborted.size(); ++i) {
    if (handlers[i]) {
      handlers[i](aborted[i].id, aborted[i].bytes_transferred);
    }
  }
  return aborted;
}

void NetworkModel::set_node_degradation(std::size_t node, double factor) {
  assert(node < spec_.nodes.size());
  factor = std::clamp(factor, 0.0, 1.0);
  node_degradation_[node] = factor;
  advance_progress();
  links_[disk_link(node)].capacity = links_[disk_link(node)].base * factor;
  links_[nic_out_link(node)].capacity = links_[nic_out_link(node)].base * factor;
  links_[nic_in_link(node)].capacity = links_[nic_in_link(node)].base * factor;
  mark_dirty();
}

void NetworkModel::set_rack_degradation(std::size_t rack, double factor) {
  assert(rack < spec_.rack_count);
  factor = std::clamp(factor, 0.0, 1.0);
  advance_progress();
  links_[uplink_out_link(rack)].capacity = links_[uplink_out_link(rack)].base * factor;
  links_[uplink_in_link(rack)].capacity = links_[uplink_in_link(rack)].base * factor;
  mark_dirty();
}

double NetworkModel::node_degradation(std::size_t node) const {
  return node < node_degradation_.size() ? node_degradation_[node] : 1.0;
}

double NetworkModel::flow_rate(FlowId id) {
  settle();
  const auto it = flows_.find(id);
  return it == flows_.end() ? 0.0 : it->second.rate;
}

void NetworkModel::advance_progress() {
  const sim::SimTime now = sim_.now();
  for (auto& [id, flow] : flows_) {
    const double elapsed = (now - flow.last_update).seconds();
    if (elapsed > 0.0) {
      flow.remaining = std::max(0.0, flow.remaining - flow.rate * elapsed);
    }
    flow.last_update = now;
  }
}

void NetworkModel::rebalance() {
  // Progressive filling (max-min fairness): repeatedly find the most
  // constrained link, freeze its flows at the equal share, remove that
  // capacity, and continue until every flow is frozen. Only links some
  // active flow crosses take part; their scratch state is set up on first
  // touch and zeroed again at the end, so the cost follows the flows, not
  // the size of the fabric. Both lists drop their finished entries as the
  // rounds go; the flow list keeps FlowId order.
  touched_links_.clear();
  unfrozen_.clear();
  for (auto& [id, flow] : flows_) {
    flow.rate = -1.0;  // unfrozen marker
    unfrozen_.push_back(&flow);
    for (const std::size_t link : flow.path) {
      LinkState& ls = link_state_[link];
      if (ls.unfrozen_flows++ == 0) {
        ls.remaining_capacity = links_[link].capacity;
        touched_links_.push_back(link);
      }
    }
  }
  auto freeze = [this](Flow& flow, double rate) {
    flow.rate = rate;
    for (const std::size_t link : flow.path) {
      LinkState& ls = link_state_[link];
      ls.remaining_capacity = std::max(0.0, ls.remaining_capacity - rate);
      --ls.unfrozen_flows;
    }
  };
  auto drop_frozen = [this] {
    std::erase_if(unfrozen_, [](const Flow* f) { return f->rate >= 0.0; });
  };

  while (!unfrozen_.empty()) {
    // Bottleneck link: minimum per-flow share among links with unfrozen
    // flows. A min is order-independent, so scanning the touched set gives
    // the same double as scanning every link.
    double min_share = std::numeric_limits<double>::infinity();
    std::size_t kept = 0;
    for (const std::size_t link : touched_links_) {
      const LinkState& ls = link_state_[link];
      if (ls.unfrozen_flows > 0) {
        min_share =
            std::min(min_share, ls.remaining_capacity / static_cast<double>(ls.unfrozen_flows));
        touched_links_[kept++] = link;
      }
    }
    touched_links_.resize(kept);
    assert(min_share < std::numeric_limits<double>::infinity());
    min_share = std::max(min_share, 0.0);

    // Rate-capped flows whose ceiling is below the fair share freeze at the
    // cap first (weighted-fairness with per-flow ceilings); the loop then
    // recomputes shares with their capacity released to the others.
    bool froze_capped = false;
    for (Flow* flow : unfrozen_) {
      if (flow->max_rate > 0.0 && flow->max_rate < min_share) {
        freeze(*flow, flow->max_rate);
        froze_capped = true;
      }
    }
    if (froze_capped) {
      drop_frozen();
      continue;
    }

    // Freeze every unfrozen flow that crosses a link achieving that share.
    bool froze_any = false;
    for (Flow* flow : unfrozen_) {
      bool bottlenecked = false;
      for (const std::size_t link : flow->path) {
        const LinkState& ls = link_state_[link];
        if (ls.unfrozen_flows > 0 &&
            ls.remaining_capacity / static_cast<double>(ls.unfrozen_flows) <=
                min_share * (1.0 + 1e-12)) {
          bottlenecked = true;
          break;
        }
      }
      if (bottlenecked) {
        freeze(*flow, flow->max_rate > 0.0 ? std::min(min_share, flow->max_rate) : min_share);
        froze_any = true;
      }
    }
    assert(froze_any);
    if (!froze_any) {
      break;  // defensive: avoid an infinite loop under FP pathology
    }
    drop_frozen();
  }
  for (const std::size_t link : touched_links_) {
    link_state_[link].unfrozen_flows = 0;
  }
}

void NetworkModel::mark_dirty() {
  settle_seq_ = sim_.reserve_seq();
  dirty_ = true;
  settle_hook_.request();
}

void NetworkModel::settle() {
  if (!dirty_) {
    return;
  }
  dirty_ = false;
  rebalance();
  completion_.cancel();
  // Every flow's progress was charged at this instant, so its due instant
  // follows from its remaining bytes and new rate alone. A drained flow is
  // due now; a fully blocked one has no due instant until the next change.
  const sim::SimTime now = sim_.now();
  std::optional<sim::SimTime> first;
  for (const auto& [id, flow] : flows_) {
    sim::SimTime due = now;
    if (flow.remaining > kEpsilonBytes) {
      if (flow.rate <= 0.0) {
        continue;
      }
      // Round up to the next microsecond so the completion fires at or
      // after the fluid model's drain time, never a fraction early.
      const double secs = flow.remaining / flow.rate;
      due = now + sim::micros(static_cast<std::int64_t>(std::ceil(secs * 1e6)) + 1);
    }
    if (!first || due < *first) {  // strict: the lower FlowId wins a tie
      first = due;
      due_flow_ = id;
    }
  }
  if (first) {
    completion_ =
        sim_.schedule_reserved(*first, settle_seq_, [this] { complete_flow(due_flow_); });
  }
}

void NetworkModel::complete_flow(FlowId id) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) {
    return;
  }
  advance_progress();
  if (it->second.remaining > kEpsilonBytes) {
    // Spurious wake-up (rounding left bytes behind); settle again.
    mark_dirty();
    return;
  }
  it->second.deadline.cancel();
  bytes_completed_ += it->second.total_bytes;
  if (it->second.inter_rack) {
    inter_rack_bytes_ += it->second.total_bytes;
  }
  if (metrics_ != nullptr) {
    metrics_->add(obs_ids_.flows_completed);
    metrics_->add(obs_ids_.bytes_completed, it->second.total_bytes);
    if (it->second.inter_rack) {
      metrics_->add(obs_ids_.inter_rack_bytes, it->second.total_bytes);
    }
    metrics_->observe(obs_ids_.flow_seconds, (sim_.now() - it->second.started).seconds());
  }
  CompletionFn on_done = std::move(it->second.on_done);
  flows_.erase(it);
  mark_dirty();
  if (metrics_ != nullptr) {
    metrics_->set(obs_ids_.active_flows, static_cast<double>(flows_.size()));
  }
  if (on_done) {
    on_done(id);
  }
}

void NetworkModel::save_state(snapshot::Writer& w) const {
  // Flows hold completion closures; the snapshot layer only saves at
  // quiescence, when none are in flight.
  assert(flows_.empty());
  w.u64(links_.size());
  for (const Link& link : links_) {
    w.f64(link.capacity);
    w.f64(link.base);
  }
  w.u64(node_degradation_.size());
  for (const double d : node_degradation_) w.f64(d);
  w.u64(flow_ids_.peek());
  w.u64(bytes_completed_);
  w.u64(inter_rack_bytes_);
  w.u64(flows_aborted_);
  w.u64(bytes_aborted_);
}

void NetworkModel::load_state(snapshot::Reader& r) {
  const std::uint64_t nlinks = r.u64();
  if (!r.require(nlinks == links_.size(), "fabric link count")) return;
  for (Link& link : links_) {
    link.capacity = r.f64();
    link.base = r.f64();
  }
  const std::uint64_t ndeg = r.u64();
  if (!r.require(ndeg == node_degradation_.size(), "fabric node count")) return;
  for (double& d : node_degradation_) d = r.f64();
  flow_ids_.reset(r.u64());
  bytes_completed_ = r.u64();
  inter_rack_bytes_ = r.u64();
  flows_aborted_ = r.u64();
  bytes_aborted_ = r.u64();
}

void NetworkModel::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  obs_ids_ = {};
  if (metrics == nullptr) {
    return;
  }
  obs_ids_.flows_started = metrics->counter("net.flows.started");
  obs_ids_.flows_completed = metrics->counter("net.flows.completed");
  obs_ids_.flows_cancelled = metrics->counter("net.flows.cancelled");
  obs_ids_.flows_aborted = metrics->counter("net.flows.aborted");
  obs_ids_.bytes_aborted = metrics->counter("net.bytes.aborted");
  obs_ids_.bytes_completed = metrics->counter("net.bytes.completed");
  obs_ids_.inter_rack_bytes = metrics->counter("net.bytes.inter_rack");
  obs_ids_.active_flows = metrics->gauge("net.flows.active");
  obs_ids_.flow_seconds = metrics->histogram("net.flow.seconds", 0.0, 120.0, 60);
}

}  // namespace erms::net
