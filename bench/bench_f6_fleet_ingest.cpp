// Experiment F6 — fleet telemetry ingest (ROADMAP: sharding, batching).
//
// A fleet of 8 simulated hosts emitting 10,240 profile documents (mixed XML
// / binary wire encoding), ingested by the sharded FleetCollector with
// several workers, plus the XML-vs-binary encode/decode cost. perfbench's
// fleet workload times the single-worker path (perfbench/NOTES.md); these
// rows cover the multi-worker one. `healers fleet report` prints the
// aggregated summary.
//
// Expected shape: binary encode/decode is several times cheaper than the
// XML round-trip (no parser), and the rendered summary is identical for
// every config (test_fleet).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/toolkit.hpp"
#include "fleet/collector.hpp"
#include "fleet/simulator.hpp"
#include "fleet/wire.hpp"
#include "profile/report.hpp"
#include "xml/xml.hpp"

using namespace healers;

namespace {

constexpr unsigned kHosts = 8;
constexpr unsigned kDocsPerHost = 1280;  // 8 x 1280 = 10240 documents

const core::Toolkit& toolkit() {
  static const core::Toolkit instance;
  return instance;
}

// The shared fleet corpus: generated once, reused by every benchmark.
const std::vector<std::string>& documents() {
  static const std::vector<std::string> docs = [] {
    fleet::SimulatorConfig config;
    config.hosts = kHosts;
    config.docs_per_host = kDocsPerHost;
    config.jobs = 0;
    return fleet::FleetSimulator(toolkit(), config).run();
  }();
  return docs;
}

// The corpus decoded, and re-encoded as all-XML / all-binary variants.
const std::vector<profile::ProfileReport>& reports() {
  static const std::vector<profile::ProfileReport> reps = [] {
    std::vector<profile::ProfileReport> out;
    out.reserve(documents().size());
    for (const auto& doc : documents()) out.push_back(fleet::decode_document(doc).value());
    return out;
  }();
  return reps;
}

const std::vector<std::string>& xml_documents() {
  static const std::vector<std::string> docs = [] {
    std::vector<std::string> out;
    out.reserve(reports().size());
    for (const auto& rep : reports()) out.push_back(xml::serialize(profile::to_xml(rep)));
    return out;
  }();
  return docs;
}

const std::vector<std::string>& binary_documents() {
  static const std::vector<std::string> docs = [] {
    std::vector<std::string> out;
    out.reserve(reports().size());
    for (const auto& rep : reports()) out.push_back(fleet::encode_binary(rep));
    return out;
  }();
  return docs;
}

std::size_t total_bytes(const std::vector<std::string>& docs) {
  std::size_t bytes = 0;
  for (const auto& doc : docs) bytes += doc.size();
  return bytes;
}

void BM_FleetIngest(benchmark::State& state) {
  const auto& docs = documents();
  fleet::CollectorConfig config;
  config.shards = static_cast<unsigned>(state.range(0));
  config.workers = static_cast<unsigned>(state.range(1));
  config.queue_capacity = docs.size();  // throughput run: no shedding
  for (auto _ : state) {
    fleet::FleetCollector collector(config);
    for (const auto& doc : docs) collector.submit(doc);
    collector.flush();
    benchmark::DoNotOptimize(collector.aggregated());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(docs.size()));
  state.counters["documents"] = static_cast<double>(docs.size());
  state.counters["hosts"] = kHosts;
}

void BM_EncodeXml(benchmark::State& state) {
  for (auto _ : state) {
    for (const auto& rep : reports()) {
      benchmark::DoNotOptimize(xml::serialize(profile::to_xml(rep)).size());
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(reports().size()));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(total_bytes(xml_documents())));
}

void BM_EncodeBinary(benchmark::State& state) {
  for (auto _ : state) {
    for (const auto& rep : reports()) {
      benchmark::DoNotOptimize(fleet::encode_binary(rep).size());
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(reports().size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(total_bytes(binary_documents())));
}

void BM_DecodeXml(benchmark::State& state) {
  for (auto _ : state) {
    for (const auto& doc : xml_documents()) {
      benchmark::DoNotOptimize(fleet::decode_document(doc).ok());
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(xml_documents().size()));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(total_bytes(xml_documents())));
}

void BM_DecodeBinary(benchmark::State& state) {
  for (auto _ : state) {
    for (const auto& doc : binary_documents()) {
      benchmark::DoNotOptimize(fleet::decode_document(doc).ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(binary_documents().size()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(total_bytes(binary_documents())));
}

}  // namespace

BENCHMARK(BM_FleetIngest)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->Args({4, 4})
    ->Args({8, 0});  // 0 = all cores
BENCHMARK(BM_EncodeXml)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EncodeBinary)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DecodeXml)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DecodeBinary)->UseRealTime()->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
