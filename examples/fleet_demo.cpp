// Fleet telemetry demo: the §2.3 collection story at fleet scale.
//
// A simulated fleet of hosts runs wrapped apps through the linker; each app
// run emits a profile document (XML or the compact binary wire format). The
// sharded FleetCollector ingests them in batches on a thread pool, keeps
// per-function totals incrementally, and answers snapshot queries — with the
// rendered summary byte-identical for ANY shard or worker count.
//
// Build & run:  ./build/examples/fleet_demo
#include <cstdio>

#include "core/toolkit.hpp"
#include "fleet/collector.hpp"
#include "fleet/simulator.hpp"
#include "fleet/wire.hpp"

using namespace healers;

int main() {
  core::Toolkit toolkit;

  // Producers: 6 hosts x 20 app runs, half XML / half binary documents.
  fleet::SimulatorConfig sim_config;
  sim_config.hosts = 6;
  sim_config.docs_per_host = 20;
  sim_config.jobs = 0;  // all cores
  const fleet::FleetSimulator simulator(toolkit, sim_config);
  const auto documents = simulator.run();
  std::size_t binary = 0;
  std::size_t bytes = 0;
  for (const auto& doc : documents) {
    if (fleet::record::sniff(doc) == fleet::record::Kind::kProfile) ++binary;
    bytes += doc.size();
  }
  std::printf("fleet: %u hosts emitted %zu documents (%zu binary, %zu XML, %zu bytes)\n\n",
              sim_config.hosts, documents.size(), binary, documents.size() - binary, bytes);

  // Ingest: sharded queues, batched decode, incremental aggregation.
  fleet::CollectorConfig config;
  config.shards = 4;
  config.workers = 0;  // all cores
  fleet::FleetCollector collector(config);
  for (const auto& doc : documents) collector.submit(doc);
  collector.flush();
  std::printf("%s\n", collector.render_summary().c_str());

  // The determinism guarantee, demonstrated: a 1-shard, 1-worker collector
  // renders the byte-identical summary.
  fleet::FleetCollector sequential(fleet::CollectorConfig{.shards = 1, .workers = 1});
  for (const auto& doc : documents) sequential.submit(doc);
  sequential.flush();
  const bool identical = sequential.render_summary() == collector.render_summary();
  std::printf("1-shard/1-worker summary identical: %s\n", identical ? "yes" : "NO");
  return identical ? 0 : 1;
}
