// Tests for the incident flight recorder (ISSUE 4 tentpole): ring-buffer
// wraparound, dossier emission for every detector class (argcheck, heap
// canary, stack canary, access fault, error injection), byte-identical
// XML/binary serialization across runs, zero simulated overhead (golden
// ticks unchanged with a recorder attached), and deterministic fleet
// ingestion of dossier documents across shard/worker counts.
#include <gtest/gtest.h>

#include <cstring>

#include "attacks/attacks.hpp"
#include "core/toolkit.hpp"
#include "fleet/collector.hpp"
#include "fleet/wire.hpp"
#include "incident/recorder.hpp"
#include "testbed.hpp"
#include "wrappers/wrappers.hpp"
#include "xml/xml.hpp"

namespace healers::incident {
namespace {

using simlib::DetectionKind;
using testbed::I;
using testbed::P;

// One toolkit per suite: the catalog and wrappers are immutable and the
// robustness campaign (variants=1) is the expensive part.
core::Toolkit& toolkit() {
  static core::Toolkit instance;
  return instance;
}

// Runs the §3.4 heap attack under the security wrapper with a recorder
// attached and returns the captured dossier.
Dossier capture_heap_dossier() {
  FlightRecorder recorder;
  recorder.set_process_name("netd");
  const auto result = attacks::run_heap_smash_attack(
      toolkit().catalog(), {toolkit().security_wrapper("libsimc.so.1").value()}, false,
      &recorder);
  EXPECT_TRUE(result.blocked_by_wrapper);
  EXPECT_FALSE(recorder.dossiers().empty());
  return recorder.dossiers().front();
}

// --- ring buffer -----------------------------------------------------------

TEST(FlightRecorderRing, WraparoundKeepsLastNOldestFirst) {
  auto proc = testbed::make_process();
  FlightRecorder recorder(4);
  proc->set_observer(&recorder);

  const mem::Addr text = proc->alloc_cstring("hello");
  for (int i = 0; i < 10; ++i) proc->call("strlen", {P(text)});

  EXPECT_EQ(recorder.capacity(), 4u);
  // alloc_cstring writes the heap directly (no wrapped call), so the ring
  // saw exactly the ten strlen dispatches.
  EXPECT_EQ(recorder.calls_seen(), 10u);
  const std::vector<TraceEntry> trace = recorder.trace();
  ASSERT_EQ(trace.size(), 4u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].seq, 6 + i);  // seqs 6..9, oldest first
    EXPECT_EQ(trace[i].symbol, "strlen");
    EXPECT_EQ(trace[i].argc, 1u);
  }
  EXPECT_EQ(recorder.last_symbol(), "strlen");
}

TEST(FlightRecorderRing, IdenticalCallSequencesDigestEqually) {
  auto run_once = [](FlightRecorder& recorder) {
    auto proc = testbed::make_process();
    proc->set_observer(&recorder);
    proc->call("malloc", {I(32)});
    proc->call("strlen", {P(proc->alloc_cstring("abc"))});
  };
  FlightRecorder a;
  FlightRecorder b;
  run_once(a);
  run_once(b);
  const auto ta = a.trace();
  const auto tb = b.trace();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) EXPECT_TRUE(ta[i] == tb[i]) << i;
}

TEST(FlightRecorderRing, ClearForgetsCallsButNotIdentity) {
  FlightRecorder recorder(4);
  recorder.set_process_name("netd");
  auto proc = testbed::make_process();
  proc->set_observer(&recorder);
  proc->call("malloc", {I(8)});
  recorder.clear();
  EXPECT_EQ(recorder.calls_seen(), 0u);
  EXPECT_TRUE(recorder.trace().empty());
  EXPECT_EQ(recorder.last_symbol(), "?");
  EXPECT_EQ(recorder.process_name(), "netd");
  EXPECT_EQ(recorder.capacity(), 4u);
}

// --- zero overhead ---------------------------------------------------------

TEST(FlightRecorderOverhead, GoldenTicksUnchangedWithRecorderAttached) {
  auto workload = [](linker::Process& proc) {
    const mem::Addr text = proc.alloc_cstring("the quick brown fox");
    proc.call("strlen", {P(text)});
    const mem::Addr copy = proc.call("malloc", {I(64)}).as_ptr();
    proc.call("strcpy", {P(copy), P(text)});
    proc.call("free", {P(copy)});
  };

  auto plain = testbed::make_process();
  workload(*plain);

  auto observed = testbed::make_process();
  FlightRecorder recorder;
  observed->set_observer(&recorder);
  workload(*observed);

  EXPECT_GT(recorder.calls_seen(), 0u);
  EXPECT_EQ(plain->machine().steps(), observed->machine().steps());
  EXPECT_EQ(plain->machine().rdtsc(), observed->machine().rdtsc());
}

// --- dossier emission, one test per detector class -------------------------

TEST(DossierEmission, HeapCanarySmash) {
  const Dossier dossier = capture_heap_dossier();
  EXPECT_EQ(dossier.detector, DetectionKind::kHeapSmash);
  EXPECT_EQ(dossier.process, "netd");
  EXPECT_EQ(dossier.symbol, "memcpy");
  EXPECT_NE(dossier.detail.find("canary"), std::string::npos);
  EXPECT_NE(dossier.fault_addr, 0u);
  EXPECT_FALSE(dossier.trace.empty());
  EXPECT_EQ(dossier.trace.back().symbol, "memcpy");  // offending call last
  // The corrupted allocation is in the neighborhood and marked suspect.
  bool suspect_seen = false;
  for (const ChunkState& chunk : dossier.heap) suspect_seen |= chunk.suspect;
  EXPECT_TRUE(suspect_seen);
}

TEST(DossierEmission, StackCanarySmash) {
  FlightRecorder recorder;
  recorder.set_process_name("reqhandler");
  const auto result = attacks::run_stack_smash_attack(
      toolkit().catalog(), {toolkit().security_wrapper("libsimc.so.1").value()}, &recorder);
  EXPECT_TRUE(result.blocked_by_wrapper);
  ASSERT_FALSE(recorder.dossiers().empty());
  const Dossier& dossier = recorder.dossiers().front();
  EXPECT_EQ(dossier.detector, DetectionKind::kStackSmash);
  EXPECT_EQ(dossier.symbol, "strcpy");
  EXPECT_NE(dossier.fault_addr, 0u);
  // The implicated address lives in the stack region.
  bool stack_suspect = false;
  for (const RegionState& region : dossier.regions) {
    if (region.suspect) stack_suspect = region.kind == "stack";
  }
  EXPECT_TRUE(stack_suspect);
}

TEST(DossierEmission, AccessFaultNamesLastDispatchedCall) {
  auto proc = testbed::make_process();
  FlightRecorder recorder;
  recorder.set_process_name("test");
  proc->set_observer(&recorder);

  const auto outcome =
      proc->supervised_call("strlen", {P(mem::AddressSpace::wild_pointer())});
  EXPECT_EQ(outcome.kind, linker::CallOutcome::Kind::kCrash);
  ASSERT_EQ(recorder.dossiers().size(), 1u);
  const Dossier& dossier = recorder.dossiers().front();
  EXPECT_EQ(dossier.detector, DetectionKind::kAccessFault);
  EXPECT_EQ(dossier.symbol, "strlen");  // attributed via the ring, not the fault
  EXPECT_EQ(dossier.fault_addr, mem::AddressSpace::wild_pointer());
  EXPECT_NE(dossier.detail.find("SIGSEGV"), std::string::npos);
}

TEST(DossierEmission, ArgCheckRejection) {
  injector::InjectorConfig config;
  config.variants = 1;
  const auto campaign = toolkit().derive_robust_api("libsimc.so.1", config).value();
  auto proc = testbed::make_process();
  proc->preload(toolkit().robustness_wrapper("libsimc.so.1", campaign).value());
  FlightRecorder recorder;
  proc->set_observer(&recorder);

  const auto outcome = proc->supervised_call("strlen", {P(0)});
  EXPECT_FALSE(outcome.robustness_failure());  // contained, not aborted
  ASSERT_EQ(recorder.dossiers().size(), 1u);
  const Dossier& dossier = recorder.dossiers().front();
  EXPECT_EQ(dossier.detector, DetectionKind::kArgCheck);
  EXPECT_EQ(dossier.symbol, "strlen");
  EXPECT_NE(dossier.detail.find("rejected"), std::string::npos);
  ASSERT_EQ(dossier.args.size(), 1u);  // the offending call's decoded arguments
}

TEST(DossierEmission, ErrorInjectionTrip) {
  auto proc = testbed::make_process();
  proc->preload(wrappers::make_testing_wrapper(testbed::libsimc(), 1.0, 1).value());
  FlightRecorder recorder;
  proc->set_observer(&recorder);

  EXPECT_EQ(proc->call("malloc", {I(16)}).as_ptr(), 0u);  // injected ENOMEM
  ASSERT_EQ(recorder.dossiers().size(), 1u);
  const Dossier& dossier = recorder.dossiers().front();
  EXPECT_EQ(dossier.detector, DetectionKind::kErrorInject);
  EXPECT_EQ(dossier.symbol, "malloc");
  EXPECT_NE(dossier.detail.find("ENOMEM"), std::string::npos);
}

TEST(DossierEmission, StorageCapCountsAllDetections) {
  auto proc = testbed::make_process();
  proc->preload(wrappers::make_testing_wrapper(testbed::libsimc(), 1.0, 1).value());
  FlightRecorder recorder;
  proc->set_observer(&recorder);

  for (int i = 0; i < 20; ++i) proc->call("malloc", {I(16)});
  EXPECT_EQ(recorder.detections(), 20u);
  EXPECT_EQ(recorder.dossiers().size(), FlightRecorder::kMaxDossiers);
}

// --- serialization determinism ---------------------------------------------

TEST(DossierSerialization, ByteIdenticalAcrossRuns) {
  const Dossier first = capture_heap_dossier();
  const Dossier second = capture_heap_dossier();
  EXPECT_TRUE(first == second);
  EXPECT_EQ(xml::serialize(first.to_xml()), xml::serialize(second.to_xml()));
  EXPECT_EQ(fleet::encode_dossier_binary(first), fleet::encode_dossier_binary(second));
}

TEST(DossierSerialization, XmlRoundTrip) {
  const Dossier dossier = capture_heap_dossier();
  const std::string doc = xml::serialize(dossier.to_xml());
  const auto round = from_xml(doc);
  ASSERT_TRUE(round.ok()) << round.error().message;
  EXPECT_TRUE(round.value() == dossier);
}

TEST(DossierSerialization, BinaryRoundTrip) {
  const Dossier dossier = capture_heap_dossier();
  const std::string wire = fleet::encode_dossier_binary(dossier);
  ASSERT_EQ(fleet::record::sniff(wire), fleet::record::Kind::kDossier);
  const auto round = fleet::record::decode<incident::Dossier>(wire);
  ASSERT_TRUE(round.ok()) << round.error().message;
  EXPECT_TRUE(round.value() == dossier);
}

// Counters are strict decimals, addresses strict "0x" hex. A lenient decoder
// wrapped seq="-5", read seq="010" as octal 8, and took a decimal fault_addr.
TEST(DossierSerialization, XmlNumbersAreStrict) {
  const std::string doc = xml::serialize(capture_heap_dossier().to_xml());
  // The document with the first key="..." (the root's, or the first row's)
  // set to value.
  const auto with_value = [&doc](const char* key, const char* value) {
    const std::size_t begin = doc.find(" " + std::string(key) + "=\"") + std::strlen(key) + 3;
    return doc.substr(0, begin) + value + doc.substr(doc.find('"', begin));
  };
  const auto decode_with = [&](const char* key, const char* value) {
    return from_xml(with_value(key, value));
  };
  for (const char* bad : {"-5", "+5", "0x10", " 5", ""}) {
    EXPECT_FALSE(decode_with("seq", bad).ok()) << "seq=\"" << bad << "\"";
  }
  for (const char* bad : {"12", "-0x1", "0x", "0xg"}) {
    EXPECT_FALSE(decode_with("fault_addr", bad).ok()) << "fault_addr=\"" << bad << "\"";
  }
  const auto decimal = decode_with("seq", "010");
  ASSERT_TRUE(decimal.ok()) << decimal.error().message;
  EXPECT_EQ(decimal.value().seq, 10u);
  // Chunk and region flags are 0 or 1; a lenient decoder read "2" as set and
  // "x" as clear.
  for (const char* bad : {"2", "x"}) {
    EXPECT_FALSE(decode_with("in_use", bad).ok()) << "in_use=\"" << bad << "\"";
  }
}

TEST(DossierSerialization, TruncatedBinaryIsRejected) {
  const std::string wire = fleet::encode_dossier_binary(capture_heap_dossier());
  EXPECT_FALSE(fleet::record::decode<incident::Dossier>(wire.substr(0, wire.size() / 2)).ok());
  EXPECT_FALSE(fleet::record::decode<incident::Dossier>(wire + "x").ok());
}

// --- fleet ingestion -------------------------------------------------------

TEST(DossierFleet, IngestAggregatesBothEncodings) {
  const Dossier dossier = capture_heap_dossier();
  fleet::FleetCollector collector;
  collector.submit(fleet::encode_dossier_binary(dossier));
  collector.submit(xml::serialize(dossier.to_xml()));
  collector.flush();
  EXPECT_EQ(collector.aggregated(), 2u);
  EXPECT_EQ(collector.malformed(), 0u) << collector.first_error();
  const fleet::FleetSnapshot snap = collector.snapshot();
  ASSERT_EQ(snap.dossiers.count("heap-smash memcpy"), 1u);
  EXPECT_EQ(snap.dossiers.at("heap-smash memcpy"), 2u);
  EXPECT_NE(snap.render().find("incident dossiers"), std::string::npos);
}

TEST(DossierFleet, SummaryByteIdenticalAcrossShardAndWorkerCounts) {
  const Dossier dossier = capture_heap_dossier();
  const std::string wire = fleet::encode_dossier_binary(dossier);
  const std::string doc = xml::serialize(dossier.to_xml());

  auto run_config = [&](unsigned shards, unsigned workers) {
    fleet::CollectorConfig config;
    config.shards = shards;
    config.workers = workers;
    fleet::FleetCollector collector(config);
    for (int i = 0; i < 3; ++i) collector.submit(wire);
    for (int i = 0; i < 2; ++i) collector.submit(doc);
    collector.flush();
    EXPECT_EQ(collector.aggregated(), 5u) << collector.first_error();
    return collector.render_summary();
  };

  const std::string baseline = run_config(1, 1);
  EXPECT_EQ(run_config(4, 1), baseline);
  EXPECT_EQ(run_config(4, 4), baseline);
  EXPECT_EQ(run_config(2, 3), baseline);
}

}  // namespace
}  // namespace healers::incident
