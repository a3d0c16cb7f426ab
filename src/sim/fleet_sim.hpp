// The virtual-time fleet simulator: a million hosts driving the REAL serve
// path (fleet::FleetCollector ingest + server::DeriveServer admission).
//
// Execution is the ssc group-scheduler shape — lookahead windows with
// parallel advance and serial merged delivery:
//
//   per window [w, w+1s):
//     advance   each sim shard's event heap in parallel (one task per
//               shard on a support::ThreadPool); hosts step their state
//               machines and append emissions to the shard's out-buffer
//     merge     all out-buffers, sorted by (virtual time, host, seq) —
//               a total order independent of shard partition and thread
//               count
//     deliver   serially into the real FleetCollector / DeriveServer,
//               then flush()/drain() and retire derive tickets
//
// Because every host's emissions are a pure function of (seed, host index)
// and delivery order is the sorted merge, the whole run — stats, collector
// summary, server summary — is byte-reproducible for a given seed at ANY
// --jobs and ANY sim shard count. Tests byte-compare exactly that.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/toolkit.hpp"
#include "fleet/collector.hpp"
#include "server/derive_server.hpp"
#include "sim/engine.hpp"
#include "sim/traffic.hpp"

namespace healers::sim {

struct SimConfig {
  std::uint32_t hosts = 100'000;
  std::uint64_t virtual_seconds = 60;
  std::uint64_t seed = 2003;
  TrafficModel traffic = TrafficModel::kMixed;
  // Hosts run demand-loaded and attach surface-profile documents to a slice
  // of their check-ins (the --debloat simulate flag; docs/debloat.md).
  bool debloat = false;
  unsigned shards = 8;  // sim shards (host partitions), NOT collector shards
  unsigned jobs = 1;    // real threads advancing shards; 0 = all cores
  // Downstream services. Defaults are sized for large fleets; tests shrink
  // the capacities to force drops and sheds on purpose.
  fleet::CollectorConfig collector{
      .shards = 4, .queue_capacity = 65536, .batch_size = 256, .workers = 0};
  server::ServerConfig server{.shards = 2, .queue_capacity = 256, .workers = 0};
};

// Global counters of one run. Every field is trace-determined: fixed
// (seed, hosts, virtual_seconds, traffic) => identical stats.
struct SimStats {
  std::uint64_t hosts = 0;
  std::uint64_t virtual_seconds = 0;
  TrafficModel traffic = TrafficModel::kMixed;
  unsigned sim_shards = 0;
  std::uint64_t events = 0;     // host wake-ups processed
  std::uint64_t emissions = 0;  // documents + requests delivered downstream
  std::uint64_t profile_docs = 0;
  std::uint64_t dossier_docs = 0;
  std::uint64_t surface_docs = 0;
  std::uint64_t derive_requests = 0;
  std::uint64_t payload_bytes = 0;  // wire bytes pushed into the services
  std::uint64_t responses_ok = 0;
  std::uint64_t responses_error = 0;
  std::uint64_t responses_shed = 0;
  std::uint64_t hosts_by_model[kConcreteModels] = {};
  std::uint64_t emissions_per_host_p50 = 0;
  std::uint64_t emissions_per_host_p95 = 0;
  std::uint64_t emissions_per_host_p99 = 0;

  // Deterministic rendering — part of the byte-compare surface.
  [[nodiscard]] std::string render() const;
};

class FleetSim {
 public:
  // The toolkit backs the DeriveServer (libraries + campaign engine); keep
  // it alive while the simulator runs.
  FleetSim(const core::Toolkit& toolkit, SimConfig config);

  // Runs the whole simulation to the virtual horizon and returns the global
  // stats (also retained for render_global_summary()). Call once.
  SimStats run();

  [[nodiscard]] const fleet::FleetCollector& collector() const noexcept { return *collector_; }
  [[nodiscard]] const server::DeriveServer& server() const noexcept { return *server_; }

  // Sim stats + collector summary + server summary, concatenated — the
  // hierarchical host -> shard -> global surface that must be byte-identical
  // across --jobs 1/4/16 and any sim shard count.
  [[nodiscard]] std::string render_global_summary() const;

 private:
  SimConfig config_;
  std::unique_ptr<fleet::FleetCollector> collector_;
  std::unique_ptr<server::DeriveServer> server_;
  SimStats stats_;
};

}  // namespace healers::sim
