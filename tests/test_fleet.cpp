// Tests for the fleet telemetry subsystem: wire codec, quantile sketch,
// sharded collector (determinism + loss accounting), and simulator.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/toolkit.hpp"
#include "fleet/collector.hpp"
#include "fleet/simulator.hpp"
#include "fleet/sketch.hpp"
#include "fleet/wire.hpp"
#include "profile/report.hpp"
#include "xml/xml.hpp"

namespace healers::fleet {
namespace {

const core::Toolkit& toolkit() {
  static const core::Toolkit instance;
  return instance;
}

profile::ProfileReport sample_report() {
  profile::ProfileReport report;
  report.process = "host00/app000";
  report.wrapper = "profiling-wrapper";
  profile::FunctionProfile strlen_fn;
  strlen_fn.symbol = "strlen";
  strlen_fn.calls = 12;
  strlen_fn.cycles = 480;
  profile::FunctionProfile wctrans_fn;
  wctrans_fn.symbol = "wctrans";
  wctrans_fn.calls = 3;
  wctrans_fn.cycles = 90;
  wctrans_fn.contained = 1;
  wctrans_fn.errno_counts[22] = 3;  // EINVAL
  report.functions = {strlen_fn, wctrans_fn};
  report.global_errnos[22] = 3;
  return report;
}

std::string canonical(const profile::ProfileReport& report) {
  return xml::serialize(profile::to_xml(report));
}

// --- wire format ---------------------------------------------------------

TEST(FleetWire, BinaryRoundTripPreservesReport) {
  const profile::ProfileReport report = sample_report();
  const std::string payload = encode_binary(report);
  ASSERT_EQ(record::sniff(payload), record::Kind::kProfile);
  auto back = record::decode<profile::ProfileReport>(payload);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(canonical(back.value()), canonical(report));
}

TEST(FleetWire, BinaryAndXmlDecodeToTheSameReport) {
  const profile::ProfileReport report = sample_report();
  auto from_binary = decode_document(encode_binary(report));
  auto from_xml_doc = decode_document(canonical(report));
  ASSERT_TRUE(from_binary.ok());
  ASSERT_TRUE(from_xml_doc.ok());
  EXPECT_EQ(canonical(from_binary.value()), canonical(from_xml_doc.value()));
}

TEST(FleetWire, EmptyReportRoundTrips) {
  profile::ProfileReport report;
  report.process = "idle";
  report.wrapper = "w";
  auto back = record::decode<profile::ProfileReport>(encode_binary(report));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().functions.size(), 0u);
  EXPECT_EQ(back.value().process, "idle");
}

TEST(FleetWire, RejectsTruncatedAndTrailingAndBadMagic) {
  const std::string payload = encode_binary(sample_report());
  for (std::size_t cut : {payload.size() - 1, payload.size() / 2, std::size_t{5}}) {
    EXPECT_FALSE(record::decode<profile::ProfileReport>(payload.substr(0, cut)).ok())
        << "cut at " << cut;
  }
  EXPECT_FALSE(record::decode<profile::ProfileReport>(payload + "x").ok());
  EXPECT_FALSE(record::decode<profile::ProfileReport>("XXXX" + payload.substr(4)).ok());
  EXPECT_FALSE(decode_document("not xml, not binary").ok());
  EXPECT_FALSE(decode_document("<campaign/>").ok());
}

TEST(FleetWire, StreamFramingRoundTrips) {
  const std::vector<std::string> docs = {encode_binary(sample_report()),
                                         canonical(sample_report()), ""};
  auto back = unframe_stream(frame_stream(docs));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), docs);
  EXPECT_FALSE(unframe_stream("garbage").ok());
  const std::string stream = frame_stream(docs);
  EXPECT_FALSE(unframe_stream(stream.substr(0, stream.size() - 2)).ok());
  EXPECT_FALSE(unframe_stream(stream + "x").ok());
}

// --- quantile sketch -----------------------------------------------------

TEST(FleetSketch, ExactForSmallValues) {
  CycleSketch sketch;
  for (std::uint64_t v = 0; v < 32; ++v) sketch.add(v);
  EXPECT_EQ(sketch.total(), 32u);
  EXPECT_EQ(sketch.quantile(0.0), 0u);
  EXPECT_EQ(sketch.quantile(1.0), 31u);
  EXPECT_EQ(sketch.quantile(0.5), 15u);
}

TEST(FleetSketch, BucketRelativeErrorIsBounded) {
  for (std::uint64_t v : {100ull, 12345ull, 1ull << 20, 987654321ull, 1ull << 40}) {
    const int idx = CycleSketch::bucket_index(v);
    const std::uint64_t floor = CycleSketch::bucket_floor(idx);
    EXPECT_LE(floor, v);
    EXPECT_LT(CycleSketch::bucket_floor(idx), CycleSketch::bucket_floor(idx + 1));
    // <= 2^-kSubBits relative error from the bucket floor.
    EXPECT_LE(static_cast<double>(v - floor) / static_cast<double>(v),
              1.0 / CycleSketch::kSubBuckets + 1e-12);
  }
}

TEST(FleetSketch, MergeIsOrderIndependent) {
  std::vector<std::uint64_t> values;
  for (std::uint64_t i = 0; i < 1000; ++i) values.push_back(i * i % 100000);
  CycleSketch bulk;
  for (const auto v : values) bulk.add(v);
  // Partition into 3 shards round-robin, merge in reverse order.
  CycleSketch shards[3];
  for (std::size_t i = 0; i < values.size(); ++i) shards[i % 3].add(values[i]);
  CycleSketch merged;
  for (int s = 2; s >= 0; --s) merged.merge(shards[s]);
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(merged.quantile(q), bulk.quantile(q)) << "q=" << q;
  }
}

// --- collector -----------------------------------------------------------

std::vector<std::string> small_fleet() {
  SimulatorConfig config;
  config.hosts = 4;
  config.docs_per_host = 6;
  return FleetSimulator(toolkit(), config).run();
}

TEST(FleetCollectorTest, SummaryIsByteIdenticalAcrossShardAndWorkerCounts) {
  const auto docs = small_fleet();
  std::string reference;
  for (const unsigned shards : {1u, 3u, 8u}) {
    for (const unsigned workers : {1u, 4u}) {
      CollectorConfig config;
      config.shards = shards;
      config.workers = workers;
      config.batch_size = 5;
      FleetCollector collector(config);
      for (const auto& doc : docs) ASSERT_TRUE(collector.submit(doc));
      collector.flush();
      EXPECT_EQ(collector.aggregated(), docs.size());
      const std::string summary = collector.render_summary();
      if (reference.empty()) {
        reference = summary;
      } else {
        EXPECT_EQ(summary, reference) << "shards=" << shards << " workers=" << workers;
      }
    }
  }
  EXPECT_NE(reference.find("fleet summary"), std::string::npos);
  EXPECT_NE(reference.find("strlen"), std::string::npos);
}

TEST(FleetCollectorTest, TotalsMatchAPerDocumentRescan) {
  const auto docs = small_fleet();
  CollectorConfig config;
  config.shards = 5;
  config.workers = 2;
  FleetCollector collector(config);
  for (const auto& doc : docs) collector.submit(doc);
  collector.flush();
  const FleetSnapshot snap = collector.snapshot();

  // Reference: decode every document independently and fold sequentially.
  std::map<std::string, profile::FunctionProfile> expected;
  std::uint64_t expected_calls = 0;
  for (const auto& doc : docs) {
    auto report = decode_document(doc);
    ASSERT_TRUE(report.ok());
    for (const auto& fn : report.value().functions) {
      profile::FunctionProfile& agg = expected[fn.symbol];
      agg.calls += fn.calls;
      agg.cycles += fn.cycles;
      agg.contained += fn.contained;
      for (const auto& [err, count] : fn.errno_counts) agg.errno_counts[err] += count;
      expected_calls += fn.calls;
    }
  }
  ASSERT_EQ(snap.functions.size(), expected.size());
  std::uint64_t calls = 0;
  for (const auto& [symbol, fn] : snap.functions) {
    ASSERT_TRUE(expected.count(symbol)) << symbol;
    EXPECT_EQ(fn.calls, expected[symbol].calls) << symbol;
    EXPECT_EQ(fn.cycles, expected[symbol].cycles) << symbol;
    EXPECT_EQ(fn.errno_counts, expected[symbol].errno_counts) << symbol;
    calls += fn.calls;
  }
  EXPECT_EQ(calls, expected_calls);
}

TEST(FleetCollectorTest, EveryDocumentIsAggregatedOrCounted) {
  const auto docs = small_fleet();  // 24 documents
  CollectorConfig config;
  config.shards = 2;
  config.queue_capacity = 5;  // 2 shards x 5 = 10 queue slots
  FleetCollector collector(config);
  std::uint64_t accepted = 0;
  for (const auto& doc : docs) accepted += collector.submit(doc) ? 1 : 0;
  // Round-robin placement: exactly the queue capacity is admitted.
  EXPECT_EQ(accepted, 10u);
  EXPECT_EQ(collector.dropped(), docs.size() - 10);
  EXPECT_EQ(collector.pending(), 10u);
  EXPECT_EQ(collector.submitted(),
            collector.aggregated() + collector.malformed() + collector.dropped() +
                collector.pending());
  collector.flush();
  EXPECT_EQ(collector.aggregated(), 10u);
  EXPECT_EQ(collector.pending(), 0u);
  EXPECT_EQ(collector.submitted(),
            collector.aggregated() + collector.malformed() + collector.dropped());
}

// The shard-drain race (ISSUE 7 audit): flush() claims ingest shards one at
// a time, so a producer racing the claim loop can land a payload in an
// already-claimed shard. That payload must surface as pending(), never be
// lost — the accounting identity has to hold at the first quiescent point.
TEST(FleetCollectorTest, AccountingSurvivesSubmitDuringFlushRaces) {
  CollectorConfig config;
  config.shards = 3;
  config.queue_capacity = 7;  // small enough that the race also drops
  config.workers = 4;
  FleetCollector collector(config);
  const std::string doc = encode_binary(sample_report());

  constexpr int kProducers = 4;
  constexpr int kDocsPerProducer = 200;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&collector, &doc] {
      for (int i = 0; i < kDocsPerProducer; ++i) collector.submit(doc);
    });
  }
  // Flush continuously while the producers hammer the shards.
  for (int i = 0; i < 50; ++i) collector.flush();
  for (auto& producer : producers) producer.join();
  collector.flush();  // quiescent point: nothing can stay pending now

  EXPECT_EQ(collector.submitted(), static_cast<std::uint64_t>(kProducers * kDocsPerProducer));
  EXPECT_EQ(collector.submitted(), collector.aggregated() + collector.malformed() +
                                       collector.dropped() + collector.pending());
  EXPECT_EQ(collector.pending(), 0u);
  EXPECT_EQ(collector.malformed(), 0u);
}

TEST(FleetCollectorTest, EverySubmitFormEnqueuesTheSameBytes) {
  const std::string doc = canonical(sample_report());
  FleetCollector forms({.shards = 1});
  forms.submit(doc.c_str());
  forms.submit(std::string(doc));
  forms.submit(std::string_view(doc));
  EXPECT_EQ(forms.queued_bytes(), 3 * doc.size());
  FleetCollector reference({.shards = 1});
  for (int i = 0; i < 3; ++i) reference.submit(doc);
  forms.flush();
  reference.flush();
  EXPECT_EQ(forms.aggregated(), 3u);
  EXPECT_EQ(forms.render_summary(), reference.render_summary());
}

TEST(FleetCollectorTest, MalformedDocumentsAreCountedNotAggregated) {
  FleetCollector collector;
  collector.submit("<profile"); // truncated XML
  collector.submit(std::string(kBinaryMagic) + "\x01");  // truncated binary
  collector.submit("<campaign/>");  // well-formed XML, wrong document kind
  collector.submit(encode_binary(sample_report()));
  collector.flush();
  EXPECT_EQ(collector.malformed(), 3u);
  EXPECT_EQ(collector.aggregated(), 1u);
  EXPECT_FALSE(collector.first_error().empty());
  const FleetSnapshot snap = collector.snapshot();
  EXPECT_EQ(snap.functions.size(), 2u);  // only the good document's functions
  EXPECT_EQ(snap.submitted, snap.aggregated + snap.malformed + snap.dropped + snap.pending);
}

// A megabyte of nested elements is a positional error, not a stack
// overflow: the document is counted malformed and the accounting holds.
TEST(FleetCollectorTest, DeeplyNestedXmlIsCountedMalformed) {
  std::string deep = "<profile>";
  while (deep.size() < (1u << 20)) deep += "<a>";
  FleetCollector collector({.shards = 1, .workers = 1});
  collector.submit(deep);
  collector.submit(encode_binary(sample_report()));
  collector.flush();
  EXPECT_EQ(collector.malformed(), 1u);
  EXPECT_EQ(collector.aggregated(), 1u);
  // "<profile>" is columns 1-9; each <a> below it takes three.
  const std::size_t column = 10 + 3 * (xml::kMaxDepth - 1);
  EXPECT_EQ(collector.first_error(), "xml document: line 1:" + std::to_string(column) +
                                         ": elements nested deeper than 64");
  const FleetSnapshot snap = collector.snapshot();
  EXPECT_EQ(snap.submitted, snap.aggregated + snap.malformed + snap.dropped + snap.pending);
}

// first_error() is the error of the earliest malformed payload in the order
// flush() claims payloads: shard by shard, each shard's queue in submit
// order. Submits go round-robin, so payload i lands in shard i % 4 and the
// first claimed malformed payload is 40, the first one in shard 0.
TEST(FleetCollectorTest, FirstErrorIsTheSameForEveryWorkerCountAndRerun) {
  std::vector<std::string> stream(64, encode_binary(sample_report()));
  stream[3] = "<profile";
  stream[9] = "<campaign/>";
  stream[17] = std::string(kBinaryMagic) + "\x01";
  stream[22] = R"(<profile><function name="f" calls="-5" cycles="1"/></profile>)";
  stream[40] = R"(<profile><function name="g" calls="x" cycles="1"/></profile>)";
  stream[51] = R"(<profile><function name="h" calls="1"/></profile>)";
  stream[60] = "<dossier/>";
  for (const unsigned workers : {1u, 4u}) {
    for (int run = 0; run < 5; ++run) {
      FleetCollector collector({.shards = 4, .batch_size = 2, .workers = workers});
      for (const std::string& payload : stream) collector.submit(payload);
      collector.flush();
      EXPECT_EQ(collector.malformed(), 7u);
      EXPECT_EQ(collector.first_error(), "<function> malformed attribute calls=\"x\"")
          << workers << " workers, run " << run;
    }
  }
}

TEST(FleetCollectorTest, EmptyCollectorRendersCleanly) {
  FleetCollector collector;
  collector.flush();  // no-op
  const std::string summary = collector.render_summary();
  EXPECT_NE(summary.find("0 aggregated"), std::string::npos);
  EXPECT_NE(summary.find("p50=0"), std::string::npos);
}

TEST(FleetCollectorTest, SketchQuantilesAreMonotone) {
  const auto docs = small_fleet();
  FleetCollector collector;
  for (const auto& doc : docs) collector.submit(doc);
  collector.flush();
  const FleetSnapshot snap = collector.snapshot();
  EXPECT_GT(snap.cycles_p50, 0u);
  EXPECT_LE(snap.cycles_p50, snap.cycles_p95);
  EXPECT_LE(snap.cycles_p95, snap.cycles_p99);
}

// --- simulator -----------------------------------------------------------

TEST(FleetSimulatorTest, DeterministicAcrossRunsAndJobCounts) {
  SimulatorConfig config;
  config.hosts = 3;
  config.docs_per_host = 4;
  const auto once = FleetSimulator(toolkit(), config).run();
  const auto twice = FleetSimulator(toolkit(), config).run();
  EXPECT_EQ(once, twice);
  config.jobs = 4;
  const auto parallel = FleetSimulator(toolkit(), config).run();
  EXPECT_EQ(once, parallel);
  EXPECT_EQ(once.size(), 12u);
}

TEST(FleetSimulatorTest, MixedEncodingEmitsBothFormats) {
  SimulatorConfig config;
  config.hosts = 2;
  config.docs_per_host = 4;
  const auto docs = FleetSimulator(toolkit(), config).run();
  std::size_t binary = 0;
  for (const auto& doc : docs) binary += record::sniff(doc) == record::Kind::kProfile ? 1 : 0;
  EXPECT_GT(binary, 0u);
  EXPECT_LT(binary, docs.size());
  for (const auto& doc : docs) EXPECT_TRUE(decode_document(doc).ok());
}

TEST(FleetSimulatorTest, DocumentsCarryPerRunProfiles) {
  SimulatorConfig config;
  config.hosts = 1;
  config.docs_per_host = 3;
  config.encoding = SimulatorConfig::Encoding::kBinary;
  const auto docs = FleetSimulator(toolkit(), config).run();
  ASSERT_EQ(docs.size(), 3u);
  for (unsigned d = 0; d < docs.size(); ++d) {
    auto report = decode_document(docs[d]);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().process, FleetSimulator::process_name(0, d));
    EXPECT_GT(report.value().total_calls(), 0u);  // a delta, not a cumulative dump
    EXPECT_LT(report.value().functions.size(), 10u);
  }
}

TEST(FleetSimulatorTest, SeedChangesTheFleet) {
  SimulatorConfig config;
  config.hosts = 2;
  config.docs_per_host = 3;
  const auto a = FleetSimulator(toolkit(), config).run();
  config.seed = 99;
  const auto b = FleetSimulator(toolkit(), config).run();
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace healers::fleet
