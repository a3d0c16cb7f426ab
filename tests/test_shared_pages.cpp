// The parsed man pages a SharedLibrary owns (SharedLibrary::parsed_manpage):
// each symbol's page is parsed once, on first request, and the campaign
// engine, the wrapper builder, the repair policy and the reachability
// closure all read that one object. A page that does not parse keeps its
// error, and each consumer reports it in its own words.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "core/toolkit.hpp"
#include "debloat/reachability.hpp"
#include "gen/repair_policy.hpp"
#include "testbed.hpp"
#include "wrappers/wrappers.hpp"
#include "xml/xml.hpp"

namespace healers {
namespace {

// `broken` would call `twice` if its page parsed; BOGUS makes it fail.
constexpr const char* kBrokenPage =
    "NAME\n  broken - x\nSYNOPSIS\n  int broken(int x);\nNOTES\n  CALLS twice\n  BOGUS 1\n";

simlib::Symbol make_symbol(const std::string& name, std::string manpage) {
  simlib::Symbol symbol;
  symbol.name = name;
  symbol.declaration = "int " + name + "(int x);";
  symbol.manpage = std::move(manpage);
  symbol.fn = [](simlib::CallContext& ctx) { return simlib::SimValue::integer(ctx.arg_int(0)); };
  return symbol;
}

simlib::SharedLibrary make_library() {
  simlib::SharedLibrary lib("libpages.so.1", "1.0");
  lib.add(make_symbol("broken", kBrokenPage));
  lib.add(make_symbol("caller", "NAME\n  caller - y\nSYNOPSIS\n  int caller(int x);\n"
                                "NOTES\n  CALLS broken\n"));
  lib.add(make_symbol("twice", "NAME\n  twice - z\nSYNOPSIS\n  int twice(int x);\nNOTES\n"));
  return lib;
}

// The parse error every consumer wraps.
std::string broken_error() { return parser::parse_manpage(kBrokenPage).error().message; }

// Records the page each wrapped function's context carries.
class PageRecorder : public gen::MicroGenerator {
 public:
  explicit PageRecorder(std::vector<const parser::ManPage*>& seen) : seen_(seen) {}
  std::string name() const override { return "page recorder"; }
  std::string prefix_code(const gen::GenContext&) const override { return {}; }
  std::string postfix_code(const gen::GenContext&) const override { return {}; }
  gen::RuntimeHookPtr make_hook(const gen::GenContext& ctx, gen::WrapperStats&) const override {
    seen_.push_back(ctx.page);
    return nullptr;
  }

 private:
  std::vector<const parser::ManPage*>& seen_;
};

TEST(SharedPages, RepeatedLookupsReturnTheSameObject) {
  const simlib::SharedLibrary lib = make_library();
  const Result<parser::ManPage>& first = lib.parsed_manpage("twice");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(&lib.parsed_manpage("twice"), &first);
  EXPECT_EQ(first.value().name, "twice");
  EXPECT_EQ(&lib.parsed_manpage("broken"), &lib.parsed_manpage("broken"));
  EXPECT_EQ(lib.parsed_manpage("broken").error().message, broken_error());
  EXPECT_THROW((void)lib.parsed_manpage("nope"), std::out_of_range);
}

TEST(SharedPages, PagesSurviveMovingTheLibrary) {
  simlib::SharedLibrary lib = make_library();
  const parser::ManPage* page = &lib.parsed_manpage("twice").value();
  const simlib::SharedLibrary moved = std::move(lib);
  EXPECT_EQ(&moved.parsed_manpage("twice").value(), page);
}

TEST(SharedPages, TwoWrapperBuildsSeeTheLibrarysPages) {
  const simlib::SharedLibrary& lib = testbed::libsimc();
  std::vector<const parser::ManPage*> first;
  std::vector<const parser::ManPage*> second;
  gen::WrapperBuilder a("a");
  a.add(std::make_shared<PageRecorder>(first));
  gen::WrapperBuilder b("b");
  b.add(std::make_shared<PageRecorder>(second));
  ASSERT_TRUE(a.build(lib).ok());
  ASSERT_TRUE(b.build(lib).ok());

  const std::vector<std::string> names = lib.names();
  ASSERT_EQ(first.size(), names.size());
  EXPECT_EQ(first, second);
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(first[i], &lib.parsed_manpage(names[i]).value()) << names[i];
  }
}

TEST(SharedPages, CampaignEngineKeepsItsErrorText) {
  core::Toolkit toolkit;
  toolkit.install_library(make_library());
  const auto derived = toolkit.derive_robust_api("libpages.so.1");
  ASSERT_FALSE(derived.ok());
  EXPECT_EQ(derived.error().message, "probe_function: man page of broken: " + broken_error());

  injector::FaultInjector injector(toolkit.catalog());
  const auto probed = injector.probe_function(*toolkit.library("libpages.so.1"), "broken");
  ASSERT_FALSE(probed.ok());
  EXPECT_EQ(probed.error().message, "probe_function: man page of broken: " + broken_error());
}

TEST(SharedPages, WrapperBuilderKeepsItsErrorText) {
  const simlib::SharedLibrary lib = make_library();
  const auto wrapper = wrappers::make_security_wrapper(lib);
  ASSERT_FALSE(wrapper.ok());
  EXPECT_EQ(wrapper.error().message, "wrapping broken: " + broken_error());
}

TEST(SharedPages, RepairPolicyKeepsItsErrorText) {
  const simlib::SharedLibrary lib = make_library();
  const auto policy = gen::derive_repair_policy(injector::CampaignResult{}, lib);
  ASSERT_FALSE(policy.ok());
  EXPECT_EQ(policy.error().message, "repair-policy for broken: " + broken_error());
}

TEST(SharedPages, ReachabilityGivesAnUnparseablePageNoEdges) {
  const simlib::SharedLibrary lib = make_library();
  linker::LibraryCatalog catalog;
  catalog.install(&lib);
  linker::Executable exe;
  exe.name = "pages-user";
  exe.needed = {"libpages.so.1"};
  exe.undefined = {"caller"};
  const debloat::ReachabilityReport report = debloat::compute_reachability(exe, catalog);
  EXPECT_EQ(report.reachable, (std::vector<std::string>{"broken", "caller"}));
  EXPECT_EQ(report.edges, (std::vector<std::pair<std::string, std::string>>{{"caller", "broken"}}));
}

// Two campaigns over one library race on its first parses; each document
// must equal the one a sequential derive produces. Runs under the tsan preset.
TEST(SharedPages, ConcurrentDerivesShareOneLibrary) {
  injector::InjectorConfig a;
  a.seed = 5;
  a.variants = 1;
  injector::InjectorConfig b = a;
  b.seed = 6;

  core::Toolkit sequential;
  const std::string want_a =
      xml::serialize(sequential.derive_robust_api("libsimm.so.1", a).value().to_xml());
  const std::string want_b =
      xml::serialize(sequential.derive_robust_api("libsimm.so.1", b).value().to_xml());

  const core::Toolkit toolkit;
  std::string got_a;
  std::string got_b;
  std::thread first([&] {
    got_a = xml::serialize(toolkit.derive_robust_api("libsimm.so.1", a).value().to_xml());
  });
  std::thread second([&] {
    got_b = xml::serialize(toolkit.derive_robust_api("libsimm.so.1", b).value().to_xml());
  });
  first.join();
  second.join();
  EXPECT_EQ(got_a, want_a);
  EXPECT_EQ(got_b, want_b);
}

}  // namespace
}  // namespace healers
