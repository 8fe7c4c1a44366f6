// Microbenchmark A7 — discrete-event engine and network-model rates. These
// bound how much simulated cluster activity a wall-clock second can cover,
// i.e. how big an experiment the harness can afford.
#include <benchmark/benchmark.h>

#include "net/network.h"
#include "obs/metrics_registry.h"
#include "sim/simulation.h"

namespace {

using erms::net::FabricSpec;
using erms::net::NetworkModel;
using erms::sim::Simulation;

void BM_ScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule_after(erms::sim::micros(i), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_ScheduleAndRun);

void BM_EventCancellation(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    std::vector<erms::sim::EventHandle> handles;
    handles.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      handles.push_back(sim.schedule_after(erms::sim::micros(i), [] {}));
    }
    for (auto& h : handles) {
      h.cancel();
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventCancellation);

// The network's pattern: every rebalance cancels each active flow's
// completion and schedules a new one. N events stay pending while each is
// cancelled and rescheduled k times, then the queue drains.
void BM_EventReschedule(benchmark::State& state) {
  const auto pending = static_cast<int>(state.range(0));
  const auto rounds = static_cast<int>(state.range(1));
  for (auto _ : state) {
    Simulation sim;
    std::vector<erms::sim::EventHandle> handles;
    handles.reserve(static_cast<std::size_t>(pending));
    for (int i = 0; i < pending; ++i) {
      handles.push_back(sim.schedule_after(erms::sim::micros(i), [] {}));
    }
    for (int r = 1; r <= rounds; ++r) {
      for (int i = 0; i < pending; ++i) {
        auto& h = handles[static_cast<std::size_t>(i)];
        h.cancel();
        h = sim.schedule_after(erms::sim::micros(i + r), [] {});
      }
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(1));
}
BENCHMARK(BM_EventReschedule)->Args({64, 16})->Args({1024, 16});

FabricSpec testbed_fabric() {
  FabricSpec spec;
  spec.rack_count = 3;
  for (int i = 0; i < 18; ++i) {
    FabricSpec::Node n;
    n.rack = static_cast<std::size_t>(i / 6);
    spec.nodes.push_back(n);
  }
  return spec;
}

void BM_NetworkFlows(benchmark::State& state) {
  const auto concurrency = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    NetworkModel net{sim, testbed_fabric()};
    std::size_t done = 0;
    for (std::size_t i = 0; i < concurrency; ++i) {
      net.start_flow(i % 18, (i + 7) % 18, 64 << 20, {},
                     [&done](erms::net::FlowId) { ++done; });
    }
    sim.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NetworkFlows)->Arg(16)->Arg(64)->Arg(256);

// The cold_archive fabric: 400 nodes in 20 racks. Flows spread over the
// whole fabric and mostly cross racks, so a dense rebalance would scan all
// 1,240 links per round while only a few dozen carry traffic.
void BM_NetworkFlowsWideFabric(benchmark::State& state) {
  const auto concurrency = static_cast<std::size_t>(state.range(0));
  FabricSpec spec;
  spec.rack_count = 20;
  for (int i = 0; i < 400; ++i) {
    FabricSpec::Node n;
    n.rack = static_cast<std::size_t>(i / 20);
    spec.nodes.push_back(n);
  }
  for (auto _ : state) {
    Simulation sim;
    NetworkModel net{sim, spec};
    std::size_t done = 0;
    for (std::size_t i = 0; i < concurrency; ++i) {
      net.start_flow((i * 37) % 400, (i * 37 + 131) % 400, 64 << 20, {},
                     [&done](erms::net::FlowId) { ++done; });
    }
    sim.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NetworkFlowsWideFabric)->Arg(16)->Arg(64);

// Same flow mix with a metrics registry attached: the delta against
// BM_NetworkFlows is the observability overhead on the hottest sim path
// (EXPERIMENTS.md A6 records the measured gap).
void BM_NetworkFlowsObserved(benchmark::State& state) {
  const auto concurrency = static_cast<std::size_t>(state.range(0));
  erms::obs::MetricsRegistry registry;
  for (auto _ : state) {
    Simulation sim;
    NetworkModel net{sim, testbed_fabric()};
    net.set_metrics(&registry);
    std::size_t done = 0;
    for (std::size_t i = 0; i < concurrency; ++i) {
      net.start_flow(i % 18, (i + 7) % 18, 64 << 20, {},
                     [&done](erms::net::FlowId) { ++done; });
    }
    sim.run();
    net.set_metrics(nullptr);
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NetworkFlowsObserved)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
