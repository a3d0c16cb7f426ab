// Experiment F7 — virtual-time fleet simulation at scale.
//
// A million simulated hosts on the discrete-event engine (src/sim) driving
// the REAL serve path — FleetCollector ingest and DeriveServer admission
// control — end to end. Rows report simulated hosts/sec and ingest docs/sec
// on the wall clock, plus the drop/shed rates at overload. `healers
// simulate --stats` prints the same run's deterministic summary.
//
// Every run checks the collector and server accounting identities, and the
// bench exits rather than report numbers from a run that lost a document or
// a request.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/toolkit.hpp"
#include "sim/fleet_sim.hpp"

using namespace healers;

namespace {

const core::Toolkit& toolkit() {
  static const core::Toolkit instance;
  return instance;
}

sim::SimConfig fleet_config(std::uint32_t hosts, unsigned jobs) {
  sim::SimConfig config;
  config.hosts = hosts;
  config.virtual_seconds = 60;
  config.seed = 2003;
  config.traffic = sim::TrafficModel::kMixed;
  config.shards = 16;
  config.jobs = jobs;
  return config;
}

// The accounting identities the whole experiment rests on; abort rather
// than publish numbers from a run that lost a document or a request.
void check_accounting(const sim::FleetSim& simulation, const sim::SimStats& stats) {
  const auto& collector = simulation.collector();
  const auto server_stats = simulation.server().stats();
  const bool collector_ok =
      collector.submitted() == collector.aggregated() + collector.malformed() +
                                   collector.dropped() + collector.pending() &&
      collector.malformed() == 0;
  const bool server_ok =
      server_stats.submitted ==
          server_stats.answered + server_stats.shed + server_stats.pending &&
      stats.responses_ok + stats.responses_error + stats.responses_shed ==
          stats.derive_requests;
  if (!collector_ok || !server_ok) {
    std::fprintf(stderr, "FATAL: accounting identity violated; refusing to emit numbers\n");
    std::exit(1);
  }
}

// End-to-end simulation: event engine -> traffic models -> wire encode ->
// collector ingest + derive admission -> flush/drain -> response retire.
void BM_SimFleet(benchmark::State& state) {
  const auto hosts = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t emissions = 0;
  std::uint64_t bytes = 0;
  std::uint64_t sheds = 0;
  for (auto _ : state) {
    sim::FleetSim simulation(toolkit(), fleet_config(hosts, 0));
    const sim::SimStats stats = simulation.run();
    check_accounting(simulation, stats);
    emissions += stats.emissions;
    bytes += stats.payload_bytes;
    sheds += stats.responses_shed;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(hosts));
  state.counters["hosts_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * hosts, benchmark::Counter::kIsRate);
  state.counters["ingest_docs_per_sec"] =
      benchmark::Counter(static_cast<double>(emissions), benchmark::Counter::kIsRate);
  state.counters["payload_bytes_per_sec"] =
      benchmark::Counter(static_cast<double>(bytes), benchmark::Counter::kIsRate);
  state.counters["sheds"] = static_cast<double>(sheds / std::max<std::uint64_t>(1, state.iterations()));
}

// Jobs scaling of the parallel advance phase (delivery stays serial — that
// is what keeps the run byte-reproducible).
void BM_SimJobsScaling(benchmark::State& state) {
  const auto jobs = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    sim::FleetSim simulation(toolkit(), fleet_config(250'000, jobs));
    const sim::SimStats stats = simulation.run();
    check_accounting(simulation, stats);
    benchmark::DoNotOptimize(stats.events);
  }
  state.SetItemsProcessed(state.iterations() * 250'000);
  state.counters["hosts_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()) * 250'000,
                         benchmark::Counter::kIsRate);
}

// Overload: tiny collector queues + a tiny derive server under burst and
// crash-loop traffic. The interesting numbers are the counted drop and shed
// rates — the admission-control story at fleet scale.
void BM_SimOverload(benchmark::State& state) {
  std::uint64_t dropped = 0;
  std::uint64_t submitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t requests = 0;
  for (auto _ : state) {
    sim::SimConfig config = fleet_config(100'000, 0);
    config.traffic = sim::TrafficModel::kCrashLoop;
    config.collector.shards = 2;
    config.collector.queue_capacity = 2048;
    config.server.queue_capacity = 64;
    sim::FleetSim simulation(toolkit(), config);
    const sim::SimStats stats = simulation.run();
    check_accounting(simulation, stats);
    dropped += simulation.collector().dropped();
    submitted += simulation.collector().submitted();
    shed += stats.responses_shed;
    requests += stats.derive_requests;
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
  state.counters["drop_rate"] =
      static_cast<double>(dropped) / static_cast<double>(std::max<std::uint64_t>(1, submitted));
  state.counters["shed_rate"] =
      static_cast<double>(shed) / static_cast<double>(std::max<std::uint64_t>(1, requests));
  state.counters["hosts_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 100'000, benchmark::Counter::kIsRate);
}

}  // namespace

BENCHMARK(BM_SimFleet)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Arg(250'000)
    ->Arg(1'000'000);
BENCHMARK(BM_SimJobsScaling)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Arg(1)
    ->Arg(0);  // 0 = all cores
BENCHMARK(BM_SimOverload)->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
