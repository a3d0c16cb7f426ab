// Demand-driven surface debloating tests (docs/debloat.md): the static
// reachability closure, the demand-loading load barrier (fault-in, the
// surface-violation trap, and its incident dossier), the SurfaceProfile
// XML/HSP1 codecs, fleet aggregation determinism across shard counts, and
// campaign scoping through InjectorConfig::only_functions and the toolkit's
// installed surface scopes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "attacks/attacks.hpp"
#include "core/toolkit.hpp"
#include "debloat/reachability.hpp"
#include "debloat/surface.hpp"
#include "fleet/collector.hpp"
#include "fleet/wire.hpp"
#include "incident/dossier.hpp"
#include "incident/recorder.hpp"
#include "testbed.hpp"
#include "xml/xml.hpp"

namespace healers::debloat {
namespace {

// One toolkit per suite: the catalog is immutable and shared.
core::Toolkit& toolkit() {
  static core::Toolkit instance;
  return instance;
}

// --- static reachability ---------------------------------------------------

TEST(Reachability, NetdClosureFollowsCallsEdgesToFixpoint) {
  const linker::Executable exe = attacks::heap_victim_executable();
  const ReachabilityReport report = compute_reachability(exe, toolkit().catalog());
  EXPECT_EQ(report.executable, "netd");
  // Roots {free, malloc, memcpy, puts, strcpy} plus strlen via the CALLS
  // edges of puts and strcpy.
  const std::vector<std::string> expected = {"free",  "malloc", "memcpy",
                                             "puts",  "strcpy", "strlen"};
  EXPECT_EQ(report.reachable, expected);
  EXPECT_TRUE(report.unresolved.empty());
  EXPECT_TRUE(std::is_sorted(report.reachable.begin(), report.reachable.end()));
  // The debloating claim itself: most of the exported surface is unreachable.
  EXPECT_GT(report.exported, report.reachable.size());
  EXPECT_GE(report.unmapped_ratio(), 0.30);
}

TEST(Reachability, StaleImportStaysOutsideTheClosure) {
  const linker::Executable exe = attacks::drift_victim_executable();
  const ReachabilityReport report = compute_reachability(exe, toolkit().catalog());
  const std::vector<std::string> expected = {"puts", "strlen"};
  EXPECT_EQ(report.reachable, expected);  // rand() is not in the declared imports
}

TEST(Reachability, TraceRefinementUnionsObservedSymbols) {
  const linker::Executable exe = attacks::drift_victim_executable();
  ReachabilityReport report = compute_reachability(exe, toolkit().catalog());
  refine_with_trace(report, {"rand", "puts"});
  const std::vector<std::string> expected = {"puts", "rand", "strlen"};
  EXPECT_EQ(report.reachable, expected);
  refine_with_trace(report, {"rand"});  // idempotent
  EXPECT_EQ(report.reachable, expected);
}

// --- demand loading --------------------------------------------------------

TEST(DemandLoading, FaultsInOnlyWhatTheRunTouches) {
  const linker::Executable exe = attacks::heap_victim_executable();
  const ReachabilityReport report = compute_reachability(exe, toolkit().catalog());
  auto proc = spawn_debloated(exe, toolkit().catalog(), report);
  EXPECT_TRUE(proc->demand_loading());
  EXPECT_EQ(proc->surface().mapped, 0u);
  (void)proc->run(exe.entry);
  const auto& touched = proc->touched_symbols();
  EXPECT_GT(touched.size(), 0u);
  EXPECT_EQ(proc->surface().mapped, touched.size());
  EXPECT_LT(touched.size(), proc->surface().exported);
  for (const std::string& symbol : touched) {
    EXPECT_TRUE(std::binary_search(report.reachable.begin(), report.reachable.end(), symbol))
        << symbol << " faulted in but is outside the closure";
  }
}

// docs/debloat.md: each demo run leaves over 90% of the catalog's text
// pages unmapped.
TEST(DemandLoading, DemoRunsLeaveOverNinetyPercentOfPagesUnmapped) {
  struct Row {
    linker::Executable exe;
    std::uint64_t resident_pages;
  };
  for (const Row& row : {Row{attacks::heap_victim_executable(), 5},
                         Row{attacks::drift_victim_executable(), 2}}) {
    const ReachabilityReport report = compute_reachability(row.exe, toolkit().catalog());
    auto proc = spawn_debloated(row.exe, toolkit().catalog(), report);
    (void)proc->run(row.exe.entry);
    const SurfaceProfile profile = capture_surface_profile(*proc, report, "test");
    EXPECT_EQ(profile.total_pages, 80u) << row.exe.name;
    EXPECT_EQ(profile.resident_pages, row.resident_pages) << row.exe.name;
    EXPECT_GT(profile.unmapped_ratio(), 0.90) << row.exe.name;
  }
}

TEST(DemandLoading, OutOfProfileCallTrapsAsSurfaceViolation) {
  const linker::Executable exe = attacks::drift_victim_executable();
  const ReachabilityReport report = compute_reachability(exe, toolkit().catalog());
  auto proc = spawn_debloated(exe, toolkit().catalog(), report);
  incident::FlightRecorder recorder;
  recorder.set_process_name(exe.name);
  proc->set_observer(&recorder);
  const linker::CallOutcome outcome = proc->run(exe.entry);
  EXPECT_NE(outcome.to_string().find("surface violation"), std::string::npos);
  EXPECT_EQ(proc->surface().violations, 1u);
  ASSERT_EQ(recorder.dossiers().size(), 1u);
  const incident::Dossier& dossier = recorder.dossiers().front();
  EXPECT_EQ(dossier.detector, simlib::DetectionKind::kSurfaceViolation);
  EXPECT_EQ(dossier.process, "statsd");
}

TEST(DemandLoading, SurfaceViolationDossierRoundTripsXmlAndBinary) {
  const linker::Executable exe = attacks::drift_victim_executable();
  const ReachabilityReport report = compute_reachability(exe, toolkit().catalog());
  auto proc = spawn_debloated(exe, toolkit().catalog(), report);
  incident::FlightRecorder recorder;
  recorder.set_process_name(exe.name);
  proc->set_observer(&recorder);
  (void)proc->run(exe.entry);
  ASSERT_FALSE(recorder.dossiers().empty());
  const incident::Dossier& dossier = recorder.dossiers().front();

  const std::string xml_doc = xml::serialize(dossier.to_xml());
  const auto decoded = incident::from_xml(xml_doc);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(xml::serialize(decoded.value().to_xml()), xml_doc);

  const std::string binary = fleet::encode_dossier_binary(dossier);
  const auto from_binary = fleet::record::decode<incident::Dossier>(binary);
  ASSERT_TRUE(from_binary.ok());
  EXPECT_EQ(fleet::encode_dossier_binary(from_binary.value()), binary);
  EXPECT_EQ(from_binary.value().detector, simlib::DetectionKind::kSurfaceViolation);
}

// --- surface profiles ------------------------------------------------------

SurfaceProfile captured_profile() {
  const linker::Executable exe = attacks::drift_victim_executable();
  const ReachabilityReport report = compute_reachability(exe, toolkit().catalog());
  auto proc = spawn_debloated(exe, toolkit().catalog(), report);
  (void)proc->run(exe.entry);
  return capture_surface_profile(*proc, report, "host-a");
}

TEST(SurfaceProfile, CaptureReflectsTheRun) {
  const SurfaceProfile profile = captured_profile();
  EXPECT_EQ(profile.host, "host-a");
  EXPECT_EQ(profile.executable, "statsd");
  EXPECT_EQ(profile.reachable, 2u);
  EXPECT_EQ(profile.touched, 2u);
  EXPECT_EQ(profile.trapped, 1u);
  EXPECT_EQ(profile.trapped_symbols, std::vector<std::string>{"rand"});
  EXPECT_EQ(profile.resident_pages, profile.touched);  // one text page per symbol
  EXPECT_GT(profile.total_pages, profile.resident_pages);
}

TEST(SurfaceProfile, XmlRoundTripIsExactAndDeterministic) {
  const SurfaceProfile profile = captured_profile();
  const std::string doc = profile.to_xml();
  EXPECT_EQ(captured_profile().to_xml(), doc);  // capture is deterministic
  const auto decoded = surface_from_xml(doc);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), profile);
  EXPECT_EQ(decoded.value().to_xml(), doc);
}

// Counts are strict unsigned decimals: a lenient decoder read
// exported="-1" as 2^64-1.
TEST(SurfaceProfile, XmlCountsAreStrictDecimals) {
  const std::string doc = captured_profile().to_xml();
  const std::size_t begin = doc.find(" exported=\"") + 11;
  const std::size_t end = doc.find('"', begin);
  for (const char* bad : {"-1", "+1", " 1", "0x10", "18446744073709551616", ""}) {
    const std::string garbled = doc.substr(0, begin) + bad + doc.substr(end);
    EXPECT_FALSE(surface_from_xml(garbled).ok()) << "exported=\"" << bad << "\"";
  }
}

TEST(SurfaceProfile, BinaryRoundTripIsExactAndStrict) {
  const SurfaceProfile profile = captured_profile();
  const std::string binary = fleet::encode_surface_binary(profile);
  ASSERT_EQ(fleet::record::sniff(binary), fleet::record::Kind::kSurface);
  const auto decoded = fleet::record::decode<debloat::SurfaceProfile>(binary);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), profile);
  EXPECT_FALSE(
      fleet::record::decode<debloat::SurfaceProfile>(binary.substr(0, binary.size() - 2)).ok());
  EXPECT_FALSE(fleet::record::decode<debloat::SurfaceProfile>(binary + "x").ok());
  EXPECT_FALSE(fleet::record::decode<debloat::SurfaceProfile>("HSP1").ok());
}

// --- fleet aggregation -----------------------------------------------------

TEST(FleetSurface, AggregationIsByteIdenticalAcrossShardsAndEncodings) {
  const SurfaceProfile a = captured_profile();
  SurfaceProfile b = a;
  b.host = "host-b";
  b.trapped = 2;
  b.trapped_symbols = {"atoi", "rand"};

  std::string reference;
  for (const unsigned shards : {1u, 2u, 5u}) {
    fleet::CollectorConfig config;
    config.shards = shards;
    config.workers = shards;  // vary worker count along with sharding
    fleet::FleetCollector collector(config);
    collector.submit(fleet::encode_surface_binary(a));
    collector.submit(b.to_xml());  // XML and binary fold identically
    collector.submit(fleet::encode_surface_binary(b));
    collector.flush();
    EXPECT_EQ(collector.aggregated(), 3u);
    EXPECT_EQ(collector.malformed(), 0u);
    const std::string summary = collector.render_summary();
    EXPECT_NE(summary.find("surface profiles: 3"), std::string::npos);
    EXPECT_NE(summary.find("trapped rand"), std::string::npos);
    if (reference.empty()) {
      reference = summary;
    } else {
      EXPECT_EQ(summary, reference) << "shards=" << shards;
    }
  }
}

// --- campaign scoping ------------------------------------------------------

TEST(SurfaceScope, ScopedCampaignProbesOnlyTheScope) {
  core::Toolkit kit;
  injector::InjectorConfig config;
  config.seed = 21;
  config.only_functions = {"sqrt", "fabs"};
  const auto scoped = kit.derive_robust_api("libsimm.so.1", config);
  ASSERT_TRUE(scoped.ok());
  EXPECT_EQ(scoped.value().specs.size(), 2u);
  // Scoped campaigns are partial documents: never exported to the cache.
  EXPECT_TRUE(kit.export_campaigns().empty());

  injector::InjectorConfig unscoped;
  unscoped.seed = 21;
  const auto full = kit.derive_robust_api("libsimm.so.1", unscoped);
  ASSERT_TRUE(full.ok());
  EXPECT_GT(full.value().specs.size(), scoped.value().specs.size());
  EXPECT_EQ(kit.export_campaigns().size(), 1u);
}

// docs/debloat.md: a seed-2003 libsimc campaign scoped to netd's closure
// against the whole-library campaign.
TEST(SurfaceScope, ScopedCampaignProbesAFractionOfTheLibrary) {
  const ReachabilityReport report =
      compute_reachability(attacks::heap_victim_executable(), toolkit().catalog());
  injector::InjectorConfig config;
  config.seed = 2003;
  for (const std::string& symbol : report.reachable) {
    if (testbed::libsimc().defines(symbol)) config.only_functions.push_back(symbol);
  }
  core::Toolkit kit;
  const auto scoped = kit.derive_robust_api("libsimc.so.1", config);
  config.only_functions.clear();
  const auto full = kit.derive_robust_api("libsimc.so.1", config);
  ASSERT_TRUE(scoped.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(scoped.value().specs.size(), 5u);
  EXPECT_EQ(scoped.value().total_probes(), 124u);
  EXPECT_EQ(full.value().total_probes(), 1676u);
}

TEST(SurfaceScope, InstallAndUnionPerLibrary) {
  core::Toolkit kit;
  core::SurfaceScope heap_scope;
  heap_scope.executable = "netd";
  heap_scope.soname = "libsimc.so.1";
  heap_scope.symbols = {"strlen", "strcpy", "strlen"};  // unsorted, with a dup
  EXPECT_TRUE(kit.install_surface_scope(heap_scope));
  core::SurfaceScope drift_scope;
  drift_scope.executable = "statsd";
  drift_scope.soname = "libsimc.so.1";
  drift_scope.symbols = {"atoi"};
  EXPECT_TRUE(kit.install_surface_scope(drift_scope));

  const std::vector<std::string> expected = {"atoi", "strcpy", "strlen"};
  EXPECT_EQ(kit.surface_scope_for("libsimc.so.1"), expected);
  EXPECT_TRUE(kit.surface_scope_for("libsimm.so.1").empty());

  // Unknown library or stale fingerprint: rejected.
  core::SurfaceScope unknown = heap_scope;
  unknown.soname = "libnope.so";
  EXPECT_FALSE(kit.install_surface_scope(unknown));
  core::SurfaceScope stale = heap_scope;
  stale.fingerprint = 0xdead;
  EXPECT_FALSE(kit.install_surface_scope(stale));

  // Export is sorted by (executable, soname) and round-trips via import.
  const auto exported = kit.export_surface_scopes();
  ASSERT_EQ(exported.size(), 2u);
  EXPECT_EQ(exported[0].executable, "netd");
  EXPECT_EQ(exported[1].executable, "statsd");
  core::Toolkit fresh;
  EXPECT_EQ(fresh.import_surface_scopes(exported), 2u);
  EXPECT_EQ(fresh.surface_scope_for("libsimc.so.1"), expected);
}

}  // namespace
}  // namespace healers::debloat
