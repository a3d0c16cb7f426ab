// Cross-module property tests — the invariants the paper's claims rest on:
//
//  P1 (hardening): re-running the ENTIRE fault-injection campaign with the
//     robustness wrapper preloaded produces ZERO robustness failures, for
//     every function of every stock library ("fix a large percentage of
//     such problems" — here: all of the probed class).
//  P2 (transparency): for valid arguments, every wrapper preserves the base
//     library's return value ("transparent protection").
//  P3 (determinism): identical seeds produce byte-identical campaign XML.
//  P4 (XML): randomized documents round-trip through serialize/parse.
//  P5 (security liveness): the security wrapper never fires on overflow-free
//     random heap workloads (no false positives).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "injector/injector.hpp"
#include "testbed.hpp"
#include "wrappers/wrappers.hpp"

namespace healers {
namespace {

using testbed::I;
using testbed::P;

linker::LibraryCatalog& stock_catalog() {
  static linker::LibraryCatalog catalog = [] {
    linker::LibraryCatalog c;
    c.install(&testbed::libsimc());
    c.install(&testbed::libsimio());
    c.install(&testbed::libsimm());
    return c;
  }();
  return catalog;
}

const injector::CampaignResult& campaign_for(const simlib::SharedLibrary& lib) {
  static std::map<std::string, injector::CampaignResult> cache;
  auto it = cache.find(lib.soname());
  if (it == cache.end()) {
    injector::InjectorConfig config;
    config.seed = 33;
    config.variants = 1;
    injector::FaultInjector injector(stock_catalog(), config);
    it = cache.emplace(lib.soname(), injector.run_campaign(lib).value()).first;
  }
  return it->second;
}

// --- P1: full-lattice hardening sweep ---------------------------------------

struct HardeningCase {
  const simlib::SharedLibrary* lib;
  std::string function;
};

void PrintTo(const HardeningCase& c, std::ostream* os) { *os << c.function; }

class FullHardeningSweep : public ::testing::TestWithParam<HardeningCase> {};

TEST_P(FullHardeningSweep, WrappedFunctionNeverFailsAnyProbe) {
  const auto& [lib, name] = GetParam();
  const parser::ManPage& page = lib->parsed_manpage(name).value();
  if (page.noreturn) GTEST_SKIP() << "noreturn";
  const auto probes = testbed::replay_probes(
      *lib, name, 7, {wrappers::make_robustness_wrapper(*lib, campaign_for(*lib)).value()});
  for (const testbed::ReplayedProbe& probe : probes) {
    ASSERT_FALSE(probe.outcome.robustness_failure())
        << name << " arg" << (probe.arg + 1) << " " << lattice::to_string(probe.type)
        << " case " << probe.case_index << ": " << probe.outcome.to_string();
  }
  if (!page.proto.params.empty()) {
    EXPECT_GT(probes.size(), 0u);
  }
}

std::vector<HardeningCase> all_cases() {
  std::vector<HardeningCase> cases;
  for (const simlib::SharedLibrary* lib :
       {&testbed::libsimc(), &testbed::libsimio(), &testbed::libsimm()}) {
    for (const std::string& name : lib->names()) {
      cases.push_back(HardeningCase{lib, name});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllStockFunctions, FullHardeningSweep,
                         ::testing::ValuesIn(all_cases()),
                         [](const auto& info) { return info.param.function; });

// C2 (EXPERIMENTS.md): the same probes, run once against each bare library
// and once with the robustness wrapper derived from the seed-4242 campaign.
TEST(HardeningEffect, WrapperRemovesEveryFailureOfTheSameProbes) {
  std::size_t probes = 0;
  std::size_t failures_bare = 0;
  std::size_t failures_wrapped = 0;
  for (const simlib::SharedLibrary* lib :
       {&testbed::libsimc(), &testbed::libsimio(), &testbed::libsimm()}) {
    injector::InjectorConfig config;
    config.seed = 4242;
    config.variants = 1;
    const auto campaign = injector::FaultInjector(stock_catalog(), config).run_campaign(*lib);
    ASSERT_TRUE(campaign.ok()) << lib->soname();
    const auto wrapper = wrappers::make_robustness_wrapper(*lib, campaign.value()).value();
    for (const std::string& name : lib->names()) {
      if (lib->parsed_manpage(name).value().noreturn) continue;
      const auto bare = testbed::replay_probes(*lib, name, config.seed, {});
      const auto wrapped = testbed::replay_probes(*lib, name, config.seed, {wrapper});
      ASSERT_EQ(bare.size(), wrapped.size()) << name;
      probes += bare.size();
      for (std::size_t i = 0; i < bare.size(); ++i) {
        failures_bare += bare[i].outcome.robustness_failure() ? 1 : 0;
        failures_wrapped += wrapped[i].outcome.robustness_failure() ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(probes, 2138u);
  EXPECT_EQ(failures_bare, 884u);
  EXPECT_EQ(failures_wrapped, 0u);
}

// --- P2: transparency for valid calls ----------------------------------------

class TransparencySweep : public ::testing::TestWithParam<HardeningCase> {};

TEST_P(TransparencySweep, WrappersPreserveValidCallResults) {
  const auto& [lib, name] = GetParam();
  const simlib::Symbol* symbol = lib->find(name);
  const auto page = parser::parse_manpage(symbol->manpage).value();
  if (page.noreturn || page.stateful) GTEST_SKIP() << "noreturn/stateful";

  // Build identical valid calls in two identical fresh processes — one
  // bare, one with robustness+security+profiling stacked.
  auto build_args = [&page](linker::Process& proc) {
    Rng rng(123);
    lattice::ValueFactory factory(proc, rng);
    std::vector<simlib::SimValue> args;
    for (std::size_t j = 0; j < page.proto.params.size(); ++j) {
      args.push_back(factory.safe_value(page, static_cast<int>(j) + 1));
    }
    return args;
  };

  auto bare = testbed::make_process("bare");
  const auto bare_args = build_args(*bare);
  const auto bare_outcome = bare->supervised_call(name, bare_args);

  auto wrapped = testbed::make_process("wrapped");
  wrapped->preload(wrappers::make_profiling_wrapper(*lib).value());
  wrapped->preload(wrappers::make_robustness_wrapper(*lib, campaign_for(*lib)).value());
  const auto wrapped_args = build_args(*wrapped);
  const auto wrapped_outcome = wrapped->supervised_call(name, wrapped_args);

  ASSERT_EQ(bare_outcome.kind, wrapped_outcome.kind) << wrapped_outcome.to_string();
  // Pointer returns may differ by address (identical layout here, but keep
  // the comparison meaningful): compare kind-specific content.
  if (page.proto.return_type.is_pointer()) {
    EXPECT_EQ(bare_outcome.ret.as_ptr() == 0, wrapped_outcome.ret.as_ptr() == 0);
  } else if (page.proto.return_type.classify() == parser::TypeClass::kFloating) {
    const double a = bare_outcome.ret.as_double();
    const double b = wrapped_outcome.ret.as_double();
    EXPECT_TRUE((std::isnan(a) && std::isnan(b)) || a == b);
  } else {
    EXPECT_EQ(bare_outcome.ret.as_int(), wrapped_outcome.ret.as_int());
  }
}

INSTANTIATE_TEST_SUITE_P(AllStockFunctions, TransparencySweep,
                         ::testing::ValuesIn(all_cases()),
                         [](const auto& info) { return info.param.function; });

// --- P3: campaign determinism ---------------------------------------------------

TEST(CampaignDeterminism, IdenticalSeedsProduceIdenticalXml) {
  injector::InjectorConfig config;
  config.seed = 77;
  config.variants = 2;
  injector::FaultInjector a(stock_catalog(), config);
  injector::FaultInjector b(stock_catalog(), config);
  const std::string xa = xml::serialize(a.run_campaign(testbed::libsimm()).value().to_xml());
  const std::string xb = xml::serialize(b.run_campaign(testbed::libsimm()).value().to_xml());
  EXPECT_EQ(xa, xb);
}

TEST(CampaignDeterminism, DifferentSeedsStillDeriveSameChecksForLibsimm) {
  // The derived API is a property of the library, not of the seed — at
  // least for the math library where no probe is randomized enough to
  // change any verdict.
  injector::InjectorConfig c1;
  c1.seed = 1;
  injector::InjectorConfig c2;
  c2.seed = 999;
  injector::FaultInjector a(stock_catalog(), c1);
  injector::FaultInjector b(stock_catalog(), c2);
  const auto ra = a.run_campaign(testbed::libsimm()).value();
  const auto rb = b.run_campaign(testbed::libsimm()).value();
  for (std::size_t i = 0; i < ra.specs.size(); ++i) {
    EXPECT_EQ(ra.specs[i].total_failures, rb.specs[i].total_failures)
        << ra.specs[i].function;
  }
}

// --- P4: randomized XML round trips ----------------------------------------------

TEST(XmlFuzzRoundTrip, RandomTreesSurviveSerializeParse) {
  Rng rng(4242);
  const std::string charset = "abc<>&\"' xyz0123456789_-";
  auto random_text = [&rng, &charset](std::size_t max_len) {
    std::string out;
    const std::size_t len = rng.below(max_len + 1);
    for (std::size_t i = 0; i < len; ++i) out += charset[rng.below(charset.size())];
    return out;
  };
  // Element text is whitespace-trimmed by the reader (by design — HEALERS
  // documents carry no significant edge whitespace), so trimmed text is the
  // round-trippable domain.
  auto random_element_text = [&random_text](std::size_t max_len) {
    std::string out = random_text(max_len);
    while (!out.empty() && out.front() == ' ') out.erase(out.begin());
    while (!out.empty() && out.back() == ' ') out.pop_back();
    return out;
  };
  std::function<void(xml::Node&, int)> grow = [&](xml::Node& node, int depth) {
    const std::uint64_t attrs = rng.below(4);
    for (std::uint64_t i = 0; i < attrs; ++i) {
      node.set_attr("k" + std::to_string(i), random_text(12));
    }
    if (depth >= 4) {
      node.set_text(random_element_text(16));
      return;
    }
    const std::uint64_t kids = rng.below(4);
    if (kids == 0) {
      node.set_text(random_element_text(16));
      return;
    }
    for (std::uint64_t i = 0; i < kids; ++i) {
      grow(node.add_child("n" + std::to_string(depth) + "_" + std::to_string(i)), depth + 1);
    }
  };

  // The document reads back as the tree that wrote it: names, attributes,
  // children in order, and text.
  std::function<void(xml::Reader&, const xml::Node&)> expect_reads_as = [&](xml::Reader& in,
                                                                            const xml::Node& node) {
    EXPECT_EQ(in.name(), node.name());
    for (const auto& [key, value] : node.attrs()) {
      const std::string_view* read = in.attr(key);
      ASSERT_NE(read, nullptr) << key;
      EXPECT_EQ(*read, value) << key;
    }
    if (node.children().empty()) {
      std::string text;
      in.text(text);
      EXPECT_EQ(text, node.text()) << node.name();
      return;
    }
    std::size_t i = 0;
    in.children([&](std::string_view) {
      ASSERT_LT(i, node.children().size()) << node.name();
      expect_reads_as(in, *node.children()[i++]);
    });
    EXPECT_EQ(i, node.children().size()) << node.name();
  };

  for (int round = 0; round < 50; ++round) {
    xml::Node root("doc");
    grow(root, 0);
    const std::string doc = xml::serialize(root);
    xml::Reader in(doc);
    expect_reads_as(in, root);
    const Status read = in.finish(Status::success());
    ASSERT_TRUE(read.ok()) << "round " << round << ": " << read.error().message << "\n" << doc;
  }
}

// --- P6: whole-workload transparency ----------------------------------------------
// A realistic random workload (string building, heap churn, file I/O) run
// bare and under stacked profiling+security wrappers must leave IDENTICAL
// observable state: same return values, same filesystem contents, same
// stdout. This is "transparent protection" at application granularity.

void run_random_workload(linker::Process& proc, std::uint64_t seed,
                         std::vector<std::int64_t>& observed) {
  using testbed::I;
  using testbed::P;
  Rng rng(seed);
  proc.state().fs.put("/w/in", "alpha\nbeta\ngamma\n");
  std::vector<mem::Addr> live;
  for (int op = 0; op < 300; ++op) {
    switch (rng.below(6)) {
      case 0: {
        const mem::Addr p =
            proc.call("malloc", {I(16 + static_cast<std::int64_t>(rng.below(64)))}).as_ptr();
        if (p != 0) {
          proc.call("strcpy", {P(p), P(proc.rodata_cstring("content"))});
          live.push_back(p);
        }
        break;
      }
      case 1:
        if (!live.empty()) {
          proc.call("free", {P(live.back())});
          live.pop_back();
        }
        break;
      case 2:
        observed.push_back(
            proc.call("strlen", {P(proc.rodata_cstring("measure me"))}).as_int());
        break;
      case 3:
        observed.push_back(proc.call("atoi", {P(proc.rodata_cstring("271828"))}).as_int());
        break;
      case 4: {
        const auto file = proc.call("fopen", {P(proc.rodata_cstring("/w/out")),
                                              P(proc.rodata_cstring("a"))});
        if (file.as_ptr() != 0) {
          proc.call("fputs", {P(proc.rodata_cstring("line\n")), file});
          proc.call("fclose", {file});
        }
        break;
      }
      case 5:
        proc.call("printf", {P(proc.rodata_cstring("%d-")),
                             I(static_cast<std::int64_t>(rng.below(100)))});
        break;
    }
  }
  for (const mem::Addr p : live) proc.call("free", {P(p)});
}

TEST(WorkloadTransparency, StackedWrappersPreserveObservableState) {
  std::vector<std::int64_t> bare_values;
  auto bare = testbed::make_process("bare");
  run_random_workload(*bare, 99, bare_values);

  std::vector<std::int64_t> wrapped_values;
  auto wrapped = testbed::make_process("wrapped");
  wrapped->preload(wrappers::make_profiling_wrapper(testbed::libsimc()).value());
  wrapped->preload(wrappers::make_profiling_wrapper(testbed::libsimio()).value());
  wrapped->preload(wrappers::make_security_wrapper(testbed::libsimc()).value());
  run_random_workload(*wrapped, 99, wrapped_values);

  EXPECT_EQ(bare_values, wrapped_values);
  EXPECT_EQ(bare->state().stdout_capture, wrapped->state().stdout_capture);
  ASSERT_NE(bare->state().fs.contents("/w/out"), nullptr);
  ASSERT_NE(wrapped->state().fs.contents("/w/out"), nullptr);
  EXPECT_EQ(*bare->state().fs.contents("/w/out"), *wrapped->state().fs.contents("/w/out"));
}

// --- P5: no false positives from the security wrapper ----------------------------

TEST(SecurityLiveness, RandomOverflowFreeWorkloadNeverAborts) {
  auto proc = testbed::make_process();
  proc->preload(wrappers::make_security_wrapper(testbed::libsimc()).value());
  Rng rng(2718);
  std::vector<std::pair<mem::Addr, std::uint64_t>> live;  // (ptr, size)
  for (int op = 0; op < 1500; ++op) {
    const std::uint64_t kind = rng.below(4);
    if (kind == 0 || live.empty()) {
      const std::uint64_t size = 8 + rng.below(120);
      const mem::Addr p = proc->call("malloc", {I(static_cast<std::int64_t>(size))}).as_ptr();
      if (p != 0) live.emplace_back(p, size);
    } else if (kind == 1) {
      const auto& [p, size] = live[rng.below(live.size())];
      // In-bounds strcpy (payload shorter than the allocation).
      const std::string payload(rng.below(size), 'x');
      const mem::Addr src = proc->alloc_cstring(payload);
      ASSERT_NO_THROW(proc->call("strcpy", {P(p), P(src)})) << "op " << op;
    } else if (kind == 2) {
      const auto& [p, size] = live[rng.below(live.size())];
      ASSERT_NO_THROW(
          proc->call("memset", {P(p), I(7), I(static_cast<std::int64_t>(size))}))
          << "op " << op;
    } else {
      const std::size_t victim = rng.below(live.size());
      ASSERT_NO_THROW(proc->call("free", {P(live[victim].first)})) << "op " << op;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }
}

}  // namespace
}  // namespace healers
