// Tests for the profiling pipeline: stats -> report -> XML -> collector ->
// aggregation -> Fig 5 rendering.
#include <gtest/gtest.h>

#include "fleet/collector.hpp"
#include "profile/report.hpp"
#include "testbed.hpp"
#include "wrappers/wrappers.hpp"

namespace healers::profile {
namespace {

using testbed::I;
using testbed::P;

// Runs a small workload under a profiling wrapper and returns the report.
struct ProfileFixture : ::testing::Test {
  std::unique_ptr<linker::Process> proc = testbed::make_process();
  std::shared_ptr<gen::ComposedWrapper> wrapper =
      wrappers::make_profiling_wrapper(testbed::libsimc(), /*include_trace=*/true).value();

  void SetUp() override {
    proc->preload(wrapper);
    const mem::Addr s = proc->alloc_cstring("workload");
    for (int i = 0; i < 10; ++i) proc->call("strlen", {P(s)});
    for (int i = 0; i < 5; ++i) proc->call("atoi", {P(proc->alloc_cstring("42"))});
    // Two errno-setting calls. Fig 3's histograms record errno *changes*
    // (`if (err != errno)`), so reset errno between the two failures, as an
    // application inspecting errno would.
    proc->call("wctrans", {P(proc->alloc_cstring("bogus"))});
    proc->machine().set_err(0);
    proc->call("wctrans", {P(proc->alloc_cstring("bogus2"))});
  }

  ProfileReport report() { return build_report("workload-app", wrapper->name(), *wrapper->stats()); }
};

TEST_F(ProfileFixture, ReportCountsCallsPerFunction) {
  const ProfileReport rep = report();
  ASSERT_NE(rep.function("strlen"), nullptr);
  EXPECT_EQ(rep.function("strlen")->calls, 10u);
  EXPECT_EQ(rep.function("atoi")->calls, 5u);
  EXPECT_EQ(rep.total_calls(), 17u);
}

TEST_F(ProfileFixture, UncalledFunctionsAreOmitted) {
  EXPECT_EQ(report().function("strcat"), nullptr);
}

TEST_F(ProfileFixture, CyclesAttributedToFunctions) {
  const ProfileReport rep = report();
  EXPECT_GT(rep.function("strlen")->cycles, 0u);
  EXPECT_GT(rep.total_cycles(), 0u);
}

TEST_F(ProfileFixture, ErrnoDistributionRecorded) {
  const ProfileReport rep = report();
  ASSERT_NE(rep.function("wctrans"), nullptr);
  EXPECT_EQ(rep.function("wctrans")->errors(), 2u);
  EXPECT_EQ(rep.function("wctrans")->errno_counts.at(simlib::kEINVAL), 2u);
  EXPECT_EQ(rep.global_errnos.at(simlib::kEINVAL), 2u);
  EXPECT_EQ(rep.total_errors(), 2u);
}

TEST_F(ProfileFixture, XmlDocumentIsSelfDescribing) {
  const std::string doc = xml::serialize(to_xml(report()));
  xml::Reader in(doc);
  EXPECT_EQ(in.name(), "profile");
  EXPECT_EQ(*in.attr("process"), "workload-app");
  EXPECT_EQ(*in.attr("wrapper"), "profiling-wrapper");
  bool found_strlen = false;
  in.children([&](std::string_view name) {
    if (name == "function" && *in.attr("name") == "strlen") {
      found_strlen = true;
      std::uint64_t calls = 0;
      xml::AttrReader attrs(in);
      attrs.num("calls", calls);
      EXPECT_TRUE(attrs.ok());
      EXPECT_EQ(calls, 10u);
    }
  });
  EXPECT_TRUE(in.finish(Status::success()).ok());
  EXPECT_TRUE(found_strlen);
}

TEST_F(ProfileFixture, XmlRoundTripPreservesReport) {
  const ProfileReport rep = report();
  auto back = from_xml(xml::serialize(to_xml(rep)));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().total_calls(), rep.total_calls());
  EXPECT_EQ(back.value().total_cycles(), rep.total_cycles());
  EXPECT_EQ(back.value().total_errors(), rep.total_errors());
  EXPECT_EQ(back.value().function("strlen")->calls, 10u);
  EXPECT_EQ(back.value().global_errnos.at(simlib::kEINVAL), 2u);
}

TEST_F(ProfileFixture, RenderShowsFrequenciesTimeSharesAndErrnos) {
  const std::string text = render(report());
  EXPECT_NE(text.find("workload-app"), std::string::npos);
  EXPECT_NE(text.find("strlen"), std::string::npos);
  EXPECT_NE(text.find("%"), std::string::npos);
  EXPECT_NE(text.find("EINVAL"), std::string::npos);
  EXPECT_NE(text.find("Invalid argument"), std::string::npos);
}

TEST_F(ProfileFixture, TraceRecordsWorkload) {
  EXPECT_EQ(wrapper->stats()->trace().size(), 17u);
  EXPECT_EQ(wrapper->stats()->trace()[0].symbol, "strlen");
}

// The paper's single-process collector server: a fleet collector with one
// shard and one (inline) flush worker.
struct PaperCollector : fleet::FleetCollector {
  PaperCollector() : fleet::FleetCollector({.shards = 1, .workers = 1}) {}

  // Ships one document and folds it, as the paper's server does on receipt.
  void ingest(const std::string& document) {
    submit(document);
    flush();
  }
  [[nodiscard]] std::map<std::string, FunctionProfile> aggregate() const {
    return snapshot().functions;
  }
  // The summary minus its document counters: what a rejected document must
  // leave unchanged.
  [[nodiscard]] std::string totals() const {
    fleet::FleetSnapshot snap = snapshot();
    snap.submitted = snap.aggregated = snap.malformed = snap.dropped = snap.pending = 0;
    return snap.render();
  }
};

TEST_F(ProfileFixture, CollectorIngestsAndAggregates) {
  PaperCollector server;
  server.ingest(xml::serialize(to_xml(report())));
  // A second process's document.
  auto proc2 = testbed::make_process("p2");
  auto wrapper2 = wrappers::make_profiling_wrapper(testbed::libsimc()).value();
  proc2->preload(wrapper2);
  proc2->call("strlen", {P(proc2->alloc_cstring("abc"))});
  server.ingest(
      xml::serialize(to_xml(build_report("p2", "profiling-wrapper", *wrapper2->stats()))));
  EXPECT_EQ(server.aggregated(), 2u);
  EXPECT_EQ(server.malformed(), 0u);
  const auto agg = server.aggregate();
  EXPECT_EQ(agg.at("strlen").calls, 11u);  // 10 + 1 across processes
  const std::string summary = server.render_summary();
  EXPECT_NE(summary.find("documents: 2 aggregated"), std::string::npos);
  EXPECT_NE(summary.find("strlen              11 calls"), std::string::npos);
}

TEST(Collector, RejectsGarbageAndWrongDocuments) {
  PaperCollector server;
  server.ingest("not xml at all");
  server.ingest("<campaign/>");
  EXPECT_EQ(server.malformed(), 2u);
  EXPECT_EQ(server.aggregated(), 0u);
}

TEST_F(ProfileFixture, RepeatedDocumentsAccumulate) {
  PaperCollector server;
  server.ingest(xml::serialize(to_xml(report())));
  // A second document from the same stats: totals double.
  server.ingest(xml::serialize(to_xml(report())));
  const auto agg = server.aggregate();
  EXPECT_EQ(agg.at("strlen").calls, 20u);
  EXPECT_EQ(agg.at("wctrans").errno_counts.at(simlib::kEINVAL), 4u);
}

TEST_F(ProfileFixture, FailedIngestDoesNotMutateServerState) {
  PaperCollector server;
  server.ingest(xml::serialize(to_xml(report())));
  const std::string before = server.totals();
  server.ingest("<profile><function/></profile>");  // missing name
  server.ingest("not xml");
  server.ingest("<campaign/>");
  EXPECT_EQ(server.aggregated(), 1u);
  EXPECT_EQ(server.malformed(), 3u);
  EXPECT_EQ(server.totals(), before);
}

TEST_F(ProfileFixture, DuplicateProcessNamesAggregateAdditively) {
  PaperCollector server;
  // The same process name submits three runs (a process may submit several).
  for (int run = 0; run < 3; ++run) server.ingest(xml::serialize(to_xml(report())));
  server.ingest(
      xml::serialize(to_xml(build_report("other-app", wrapper->name(), *wrapper->stats()))));
  EXPECT_EQ(server.aggregated(), 4u);
  // Duplicates aggregate additively, not last-writer-wins.
  EXPECT_EQ(server.aggregate().at("strlen").calls, 40u);
}

TEST(Collector, EmptyServerAggregatesAndRendersCleanly) {
  const PaperCollector server;
  EXPECT_EQ(server.aggregated(), 0u);
  EXPECT_TRUE(server.aggregate().empty());
  const std::string summary = server.render_summary();
  EXPECT_NE(summary.find("documents: 0 aggregated"), std::string::npos);
  EXPECT_NE(summary.find("functions: 0 distinct, 0 calls, 0 errors"), std::string::npos);
}

// Counts are strict unsigned decimals and each errno appears once. A lenient
// decoder read calls="-5" as 2^64-5, calls="x" as 0, and summed duplicate
// errno rows — each a report that re-encodes differently.
TEST(ProfileXml, RejectsSignedGarbledAndDuplicateCounts) {
  for (const char* doc : {
           R"(<profile><function name="f" calls="-5" cycles="1"/></profile>)",
           R"(<profile><function name="f" calls="x" cycles="1"/></profile>)",
           R"(<profile><function name="f" calls="1" cycles="+1"/></profile>)",
           R"(<profile><function name="f" calls="1" cycles="1" contained="-1"/></profile>)",
           R"(<profile><function name="f" calls="1" cycles="1"><error errno="22" count="1"/>)"
           R"(<error errno="22" count="2"/></function></profile>)",
           R"(<profile><errors><error errno="22" count="1"/><error errno="22" count="1"/>)"
           R"(</errors></profile>)",
       }) {
    xml::Reader in(doc);
    ProfileReport decoded;
    const Status verdict = from_xml(in, decoded);
    ASSERT_TRUE(in.finish(Status::success()).ok()) << doc;
    EXPECT_FALSE(verdict.ok()) << doc;
  }
  // The collector counts such a document malformed and folds nothing.
  fleet::FleetCollector collector({.shards = 1, .workers = 1});
  collector.submit(R"(<profile><function name="f" calls="-5" cycles="1"/></profile>)");
  collector.flush();
  EXPECT_EQ(collector.malformed(), 1u);
  EXPECT_TRUE(collector.snapshot().functions.empty());
}

// An errno is a signed int, as in the HFB1 twin: a negative one round-trips.
TEST(ProfileXml, NegativeErrnoRoundTrips) {
  const auto report =
      from_xml(R"(<profile><errors><error errno="-22" count="1"/></errors></profile>)");
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report.value().global_errnos, (std::map<int, std::uint64_t>{{-22, 1}}));
  const auto again = from_xml(xml::serialize(to_xml(report.value())));
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_EQ(again.value().global_errnos, report.value().global_errnos);
}

TEST(ProfileReportEmpty, RendersWithoutErrors) {
  gen::WrapperStats stats;
  const ProfileReport rep = build_report("idle", "w", stats);
  EXPECT_EQ(rep.total_calls(), 0u);
  const std::string text = render(rep);
  EXPECT_NE(text.find("no errors recorded"), std::string::npos);
}

TEST_F(ProfileFixture, ChartRendersProportionalBars) {
  const std::string chart = render_chart(report(), ChartMetric::kCalls, 20);
  EXPECT_NE(chart.find("strlen"), std::string::npos);
  EXPECT_NE(chart.find("atoi"), std::string::npos);
  // strlen (10 calls) gets the full-width bar; atoi (5) roughly half.
  const std::string full_bar(20, '#');
  EXPECT_NE(chart.find(full_bar + " 10"), std::string::npos);
  EXPECT_NE(chart.find(std::string(10, '#') + " 5"), std::string::npos);
}

TEST_F(ProfileFixture, ChartByErrorsShowsOnlyFailingFunctions) {
  const std::string chart = render_chart(report(), ChartMetric::kErrors, 20);
  EXPECT_NE(chart.find("wctrans"), std::string::npos);
  EXPECT_EQ(chart.find("strlen"), std::string::npos);  // zero errors: omitted
}

TEST(ProfileChart, EmptyReportChartsNothing) {
  gen::WrapperStats stats;
  const std::string chart = render_chart(build_report("idle", "w", stats),
                                         ChartMetric::kCycles);
  EXPECT_NE(chart.find("nothing to chart"), std::string::npos);
}

TEST(ProfileContained, ContainedCountSurvivesRoundTrip) {
  gen::WrapperStats stats;
  stats.register_function(1, "strcpy");
  stats.function(1).calls = 4;
  stats.function(1).contained = 2;
  const ProfileReport rep = build_report("p", "w", stats);
  auto back = from_xml(xml::serialize(to_xml(rep)));
  EXPECT_EQ(back.value().function("strcpy")->contained, 2u);
}

}  // namespace
}  // namespace healers::profile
