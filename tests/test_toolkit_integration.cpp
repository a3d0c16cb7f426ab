// Integration tests through the Toolkit facade: the paper's demos end to
// end — library listing and declaration files (§3.1), application
// inspection (§3.2), campaign -> wrapper -> protected process (§2.2/2.3),
// wrapper source emission, and cross-module flows (profile XML through the
// collector from a wrapped executable).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "attacks/attacks.hpp"
#include "core/toolkit.hpp"
#include "fleet/collector.hpp"
#include "profile/report.hpp"
#include "testbed.hpp"

namespace healers::core {
namespace {

using testbed::I;
using testbed::P;

struct ToolkitFixture : ::testing::Test {
  Toolkit toolkit;
  injector::InjectorConfig config;

  ToolkitFixture() {
    config.seed = 21;
    config.variants = 1;
  }
};

TEST_F(ToolkitFixture, ListsStockLibraries) {
  const auto sonames = toolkit.list_libraries();
  ASSERT_EQ(sonames.size(), 3u);
  EXPECT_EQ(sonames[0], "libsimc.so.1");
  EXPECT_NE(toolkit.library("libsimio.so.1"), nullptr);
}

TEST_F(ToolkitFixture, ListFunctionsMatchesLibrary) {
  const auto functions = toolkit.list_functions("libsimc.so.1");
  ASSERT_TRUE(functions.ok());
  EXPECT_EQ(functions.value().size(), testbed::libsimc().size());
  EXPECT_FALSE(toolkit.list_functions("libnope.so").ok());
}

TEST_F(ToolkitFixture, DeclarationXmlDescribesEveryPrototype) {
  const auto doc = toolkit.declaration_xml("libsimio.so.1");
  ASSERT_TRUE(doc.ok());
  const std::string text = xml::serialize(doc.value());
  xml::Reader in(text);
  std::size_t functions = 0;
  // Every prototype in the document matches the library's declaration.
  in.children([&](std::string_view name) {
    if (name != "function") return;
    ++functions;
    const simlib::Symbol* symbol = testbed::libsimio().find(std::string(*in.attr("name")));
    ASSERT_NE(symbol, nullptr);
    std::string prototype;
    in.children([&](std::string_view child) {
      if (child == "prototype") in.text(prototype);
    });
    EXPECT_EQ(prototype, symbol->declaration);
  });
  EXPECT_EQ(functions, testbed::libsimio().size());
  // And it reads back as XML.
  EXPECT_TRUE(in.finish(Status::success()).ok());
}

TEST_F(ToolkitFixture, InstallCustomLibraryAndWrapIt) {
  simlib::SharedLibrary custom("libcustom.so.9", "0.1");
  simlib::Symbol symbol;
  symbol.name = "triple";
  symbol.declaration = "int triple(int x);";
  symbol.manpage = "NAME\n  triple - x*3\nSYNOPSIS\n  int triple(int x);\nNOTES\n";
  symbol.fn = [](simlib::CallContext& ctx) {
    return simlib::SimValue::integer(ctx.arg_int(0) * 3);
  };
  custom.add(std::move(symbol));
  toolkit.install_library(std::move(custom));

  EXPECT_EQ(toolkit.list_libraries().size(), 4u);
  auto wrapper = toolkit.profiling_wrapper("libcustom.so.9");
  ASSERT_TRUE(wrapper.ok());

  linker::Executable exe;
  exe.name = "custom-user";
  exe.needed = {"libcustom.so.9"};
  exe.undefined = {"triple"};
  auto proc = toolkit.spawn(exe, {wrapper.value()});
  EXPECT_EQ(proc->call("triple", {I(7)}).as_int(), 21);
  EXPECT_EQ(wrapper.value()->stats()->total_calls(), 1u);
}

TEST_F(ToolkitFixture, FullPipelineCampaignWrapperProtection) {
  const auto campaign = toolkit.derive_robust_api("libsimc.so.1", config);
  ASSERT_TRUE(campaign.ok());
  EXPECT_GT(campaign.value().total_failures(), 0u);

  auto wrapper = toolkit.robustness_wrapper("libsimc.so.1", campaign.value());
  ASSERT_TRUE(wrapper.ok());

  linker::Executable buggy;
  buggy.name = "buggy";
  buggy.needed = {"libsimc.so.1"};
  buggy.undefined = {"strlen"};
  buggy.entry = [](linker::Process& p) {
    return static_cast<int>(p.call("strlen", {P(0)}).as_int());
  };

  const auto unprotected = toolkit.spawn(buggy)->run(buggy.entry);
  EXPECT_TRUE(unprotected.robustness_failure());

  const auto protected_run = toolkit.spawn(buggy, {wrapper.value()})->run(buggy.entry);
  EXPECT_FALSE(protected_run.robustness_failure());
  EXPECT_EQ(protected_run.exit_code, -1);  // contained error return
}

TEST_F(ToolkitFixture, MathLibraryNeedsNoContainment) {
  const auto campaign = toolkit.derive_robust_api("libsimm.so.1", config);
  ASSERT_TRUE(campaign.ok());
  EXPECT_EQ(campaign.value().total_failures(), 0u);
  EXPECT_EQ(campaign.value().functions_with_failures(), 0u);
}

TEST_F(ToolkitFixture, WrapperSourceForCustomFeatureSet) {
  gen::WrapperBuilder builder("custom-mix");
  builder.add(gen::prototype_gen()).add(gen::call_counter_gen()).add(gen::caller_gen());
  const auto source = toolkit.wrapper_source("libsimm.so.1", builder);
  ASSERT_TRUE(source.ok());
  EXPECT_NE(source.value().find("custom-mix"), std::string::npos);
  EXPECT_NE(source.value().find("double sin(double a1)"), std::string::npos);
  EXPECT_NE(source.value().find("++call_counter_num_calls["), std::string::npos);
}

TEST_F(ToolkitFixture, WrappedExecutableProfileReachesCollector) {
  auto wrapper = toolkit.profiling_wrapper("libsimc.so.1").value();
  linker::Executable app;
  app.name = "pipeline-app";
  app.needed = {"libsimc.so.1"};
  app.undefined = {"strlen", "wctrans"};
  app.entry = [](linker::Process& p) {
    p.call("strlen", {P(p.rodata_cstring("abcdef"))});
    p.call("wctrans", {P(p.rodata_cstring("nope"))});  // EINVAL
    return 0;
  };
  toolkit.spawn(app, {wrapper})->run(app.entry);

  const auto report = profile::build_report(app.name, wrapper->name(), *wrapper->stats());
  fleet::FleetCollector server({.shards = 1, .workers = 1});
  server.submit(xml::serialize(profile::to_xml(report)));
  server.flush();
  ASSERT_EQ(server.aggregated(), 1u);
  const auto agg = server.snapshot().functions;
  EXPECT_EQ(agg.at("strlen").calls, 1u);
  EXPECT_EQ(agg.at("wctrans").errno_counts.at(simlib::kEINVAL), 1u);
}

TEST_F(ToolkitFixture, RobustnessAndSecurityStackForOneProcess) {
  const auto campaign = toolkit.derive_robust_api("libsimc.so.1", config).value();
  auto robustness = toolkit.robustness_wrapper("libsimc.so.1", campaign).value();
  auto security = toolkit.security_wrapper("libsimc.so.1").value();

  linker::Executable app;
  app.name = "belt-and-braces";
  app.needed = {"libsimc.so.1"};
  app.undefined = {"malloc", "free", "strlen", "strcpy"};
  app.entry = [](linker::Process& p) {
    // A contained API failure...
    p.call("strlen", {P(0)});
    // ...and a normal heap round trip under canaries.
    const mem::Addr q = p.call("malloc", {I(32)}).as_ptr();
    p.call("strcpy", {P(q), P(p.rodata_cstring("fits"))});
    p.call("free", {P(q)});
    return 0;
  };
  const auto outcome = toolkit.spawn(app, {robustness, security})->run(app.entry);
  EXPECT_EQ(outcome.kind, linker::CallOutcome::Kind::kExit);
  EXPECT_EQ(outcome.exit_code, 0);
  EXPECT_EQ(robustness->stats()->total_contained(), 1u);
}

// C1 (EXPERIMENTS.md): the simulated cycles each wrapper adds to a strlen
// call, alone and stacked, on a 9-byte and a 256-byte string, and to a call
// of a symbol the wrapper does not wrap.
TEST_F(ToolkitFixture, WrapperOverheadIsAConstantPerCall) {
  config.seed = 1;
  const auto campaign = toolkit.derive_robust_api("libsimc.so.1", config);
  ASSERT_TRUE(campaign.ok());
  const auto profiling = toolkit.profiling_wrapper("libsimc.so.1").value();
  const auto robustness = toolkit.robustness_wrapper("libsimc.so.1", campaign.value()).value();
  const auto security = toolkit.security_wrapper("libsimc.so.1").value();
  linker::Executable exe;
  exe.name = "overhead";
  exe.needed = {"libsimc.so.1", "libsimm.so.1"};
  exe.undefined = {"strlen", "sqrt"};
  const auto strlen_cycles = [&](std::vector<linker::InterpositionPtr> preloads,
                                 std::size_t length) {
    auto proc = toolkit.spawn(exe, std::move(preloads));
    const mem::Addr s = proc->rodata_cstring(std::string(length, 'x'));
    const std::uint64_t before = proc->machine().rdtsc();
    proc->call("strlen", {P(s)});
    return proc->machine().rdtsc() - before;
  };
  for (const auto& [length, bare] : {std::pair<std::size_t, std::uint64_t>{9, 11}, {256, 258}}) {
    EXPECT_EQ(strlen_cycles({}, length), bare) << length;
    EXPECT_EQ(strlen_cycles({profiling}, length), bare + 24) << length;
    EXPECT_EQ(strlen_cycles({robustness}, length), bare + 24) << length;
    EXPECT_EQ(strlen_cycles({security}, length), bare + 12) << length;
    EXPECT_EQ(strlen_cycles({profiling, robustness, security}, length), bare + 60) << length;
  }
  const auto sqrt_cycles = [&](std::vector<linker::InterpositionPtr> preloads) {
    auto proc = toolkit.spawn(exe, std::move(preloads));
    const std::uint64_t before = proc->machine().rdtsc();
    proc->call("sqrt", {simlib::SimValue::fp(1764.0)});
    return proc->machine().rdtsc() - before;
  };
  EXPECT_EQ(sqrt_cycles({profiling}), sqrt_cycles({}));
}

TEST_F(ToolkitFixture, SpawnKeepsLibrariesBorrowedFromToolkit) {
  linker::Executable app;
  app.name = "borrower";
  app.needed = {"libsimm.so.1"};
  app.undefined = {"sqrt"};
  auto proc = toolkit.spawn(app);
  EXPECT_DOUBLE_EQ(proc->call("sqrt", {testbed::F(16.0)}).as_double(), 4.0);
}

TEST_F(ToolkitFixture, CampaignFromStoredXmlDrivesWrapperGeneration) {
  // The offline story: run the campaign, ship the XML, regenerate the
  // wrapper later from the parsed document.
  const auto campaign = toolkit.derive_robust_api("libsimc.so.1", config).value();
  const std::string doc = xml::serialize(campaign.to_xml());
  const auto reloaded = injector::CampaignResult::from_xml(doc);
  ASSERT_TRUE(reloaded.ok());
  auto wrapper = toolkit.robustness_wrapper("libsimc.so.1", reloaded.value());
  ASSERT_TRUE(wrapper.ok());

  auto proc = testbed::make_process();
  proc->preload(wrapper.value());
  EXPECT_FALSE(proc->supervised_call("strlen", {P(0)}).robustness_failure());
}

TEST_F(ToolkitFixture, RepeatedDeriveHitsMemoAndExecutesNoProbes) {
  const auto first = toolkit.derive_robust_api("libsimio.so.1", config);
  ASSERT_TRUE(first.ok());
  const std::uint64_t after_first = toolkit.probes_executed();
  EXPECT_GT(after_first, 0u);

  const auto second = toolkit.derive_robust_api("libsimio.so.1", config);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(toolkit.probes_executed(), after_first);
  EXPECT_EQ(xml::serialize(second.value().to_xml()), xml::serialize(first.value().to_xml()));

  // jobs is not part of the cache key: the engine is jobs-invariant, so a
  // different worker count must still hit the same memo slot.
  auto reconfigured = config;
  reconfigured.jobs = 4;
  ASSERT_TRUE(toolkit.derive_robust_api("libsimio.so.1", reconfigured).ok());
  EXPECT_EQ(toolkit.probes_executed(), after_first);
}

// Every campaign parameter feeds the memo key: after a warm derive, changing
// any one of them runs a campaign, and changing it back runs no probe.
TEST_F(ToolkitFixture, EachCampaignParamHasItsOwnMemoSlot) {
  ASSERT_TRUE(toolkit.derive_robust_api("libsimm.so.1", config).ok());
  struct Change {
    const char* param;
    void (*apply)(injector::InjectorConfig&);
  };
  const Change changes[] = {
      {"seed", [](injector::InjectorConfig& c) { c.seed += 1; }},
      {"variants", [](injector::InjectorConfig& c) { c.variants += 1; }},
      {"probe_step_budget", [](injector::InjectorConfig& c) { c.probe_step_budget *= 2; }},
      {"testbed_heap", [](injector::InjectorConfig& c) { c.testbed_heap *= 2; }},
      {"testbed_stack", [](injector::InjectorConfig& c) { c.testbed_stack *= 2; }},
  };
  for (const Change& change : changes) {
    injector::InjectorConfig changed = config;
    change.apply(changed);
    const std::uint64_t warm = toolkit.probes_executed();
    ASSERT_TRUE(toolkit.derive_robust_api("libsimm.so.1", changed).ok()) << change.param;
    EXPECT_GT(toolkit.probes_executed(), warm) << change.param << " must miss the memo";
    const std::uint64_t missed = toolkit.probes_executed();
    ASSERT_TRUE(toolkit.derive_robust_api("libsimm.so.1", config).ok()) << change.param;
    EXPECT_EQ(toolkit.probes_executed(), missed) << change.param << " back must hit";
  }
}

// The satellite stress test: cache_mutex_ alone would serialize campaigns but
// still run M of them back to back. Single-flight means M threads racing on
// one cold key charge the toolkit exactly ONE campaign's probes.
TEST_F(ToolkitFixture, ConcurrentDeriveIsSingleFlight) {
  // Baseline: one campaign's probe count, measured on a separate toolkit.
  Toolkit baseline_toolkit;
  const auto baseline = baseline_toolkit.derive_robust_api("libsimio.so.1", config);
  ASSERT_TRUE(baseline.ok());
  const std::uint64_t one_campaign = baseline_toolkit.probes_executed();
  ASSERT_GT(one_campaign, 0u);
  const std::string golden = xml::serialize(baseline.value().to_xml());

  constexpr int kThreads = 8;
  std::vector<std::string> serialized(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &serialized] {
      const auto campaign = toolkit.derive_robust_api("libsimio.so.1", config);
      ASSERT_TRUE(campaign.ok());
      serialized[t] = xml::serialize(campaign.value().to_xml());
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(toolkit.probes_executed(), one_campaign);
  for (const auto& doc : serialized) EXPECT_EQ(doc, golden);
}

TEST_F(ToolkitFixture, ExportImportCampaignsMovesMemoBetweenToolkits) {
  ASSERT_TRUE(toolkit.derive_robust_api("libsimm.so.1", config).ok());
  ASSERT_TRUE(toolkit.derive_robust_api("libsimio.so.1", config).ok());
  auto exported = toolkit.export_campaigns();
  ASSERT_EQ(exported.size(), 2u);

  Toolkit fresh;
  EXPECT_EQ(fresh.import_campaigns(exported), 2u);
  ASSERT_TRUE(fresh.derive_robust_api("libsimm.so.1", config).ok());
  ASSERT_TRUE(fresh.derive_robust_api("libsimio.so.1", config).ok());
  EXPECT_EQ(fresh.probes_executed(), 0u);

  // A corrupted fingerprint can never hit, so import refuses it.
  exported[0].key.fingerprint ^= 1;
  Toolkit skeptical;
  EXPECT_EQ(skeptical.import_campaigns(exported), 1u);
}

}  // namespace
}  // namespace healers::core
