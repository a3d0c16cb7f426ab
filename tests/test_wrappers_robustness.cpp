// Tests for the robustness wrapper: every class of derived/annotated check
// (NULL, wild pointers, unterminated strings, undersized buffers, integer
// domains, opaque handles), the errno/error-value containment contract, and
// the preservation of correct behaviour for valid calls.
#include <gtest/gtest.h>

#include <cmath>

#include "injector/injector.hpp"
#include "testbed.hpp"
#include "wrappers/wrappers.hpp"

namespace healers::wrappers {
namespace {

using linker::CallOutcome;
using testbed::F;
using testbed::I;
using testbed::P;

// One campaign shared by the whole suite (expensive-ish, deterministic).
const injector::CampaignResult& campaign_c() {
  static const injector::CampaignResult result = [] {
    linker::LibraryCatalog catalog;
    catalog.install(&testbed::libsimc());
    catalog.install(&testbed::libsimio());
    catalog.install(&testbed::libsimm());
    injector::InjectorConfig config;
    config.seed = 5;
    config.variants = 1;
    injector::FaultInjector injector(catalog, config);
    return injector.run_campaign(testbed::libsimc()).value();
  }();
  return result;
}

const injector::CampaignResult& campaign_io() {
  static const injector::CampaignResult result = [] {
    linker::LibraryCatalog catalog;
    catalog.install(&testbed::libsimc());
    catalog.install(&testbed::libsimio());
    catalog.install(&testbed::libsimm());
    injector::InjectorConfig config;
    config.seed = 5;
    config.variants = 1;
    injector::FaultInjector injector(catalog, config);
    return injector.run_campaign(testbed::libsimio()).value();
  }();
  return result;
}

struct RobustnessFixture : ::testing::Test {
  std::unique_ptr<linker::Process> proc = testbed::make_process();
  std::shared_ptr<gen::ComposedWrapper> wrapper =
      make_robustness_wrapper(testbed::libsimc(), campaign_c()).value();

  void SetUp() override { proc->preload(wrapper); }

  mem::Addr str(const std::string& text) { return proc->alloc_cstring(text); }
};

TEST_F(RobustnessFixture, NullStrlenContainedWithEinval) {
  proc->machine().set_err(0);
  const auto outcome = proc->supervised_call("strlen", {P(0)});
  EXPECT_EQ(outcome.kind, CallOutcome::Kind::kReturned);
  EXPECT_EQ(outcome.ret.as_int(), -1);
  EXPECT_EQ(proc->machine().err(), simlib::kEINVAL);
  EXPECT_EQ(wrapper->stats()->total_contained(), 1u);
}

TEST_F(RobustnessFixture, ValidCallsPassThroughUnchanged) {
  EXPECT_EQ(proc->call("strlen", {P(str("hello"))}).as_int(), 5);
  EXPECT_EQ(proc->call("atoi", {P(str("42"))}).as_int(), 42);
  const mem::Addr dst = proc->scratch(64);
  proc->call("strcpy", {P(dst), P(str("ok"))});
  EXPECT_EQ(proc->machine().mem().read_cstring(dst), "ok");
  EXPECT_EQ(wrapper->stats()->total_contained(), 0u);
}

TEST_F(RobustnessFixture, PointerReturningFunctionContainsWithNull) {
  const auto outcome = proc->supervised_call("strdup", {P(0)});
  EXPECT_EQ(outcome.kind, CallOutcome::Kind::kReturned);
  EXPECT_EQ(outcome.ret.as_ptr(), 0u);
}

TEST_F(RobustnessFixture, WildPointerContained) {
  const auto outcome =
      proc->supervised_call("strlen", {P(mem::AddressSpace::wild_pointer())});
  EXPECT_FALSE(outcome.robustness_failure());
  EXPECT_EQ(outcome.ret.as_int(), -1);
}

TEST_F(RobustnessFixture, UnterminatedSourceContained) {
  const mem::Addr unterm = proc->scratch(32);
  for (int i = 0; i < 32; ++i) proc->machine().mem().store8(unterm + i, 'A');
  const auto outcome = proc->supervised_call("strlen", {P(unterm)});
  EXPECT_FALSE(outcome.robustness_failure());
}

TEST_F(RobustnessFixture, UndersizedStrcpyDestContained) {
  const mem::Addr tiny = proc->scratch(4);
  const auto outcome = proc->supervised_call("strcpy", {P(tiny), P(str("much too long"))});
  EXPECT_FALSE(outcome.robustness_failure());
  EXPECT_EQ(outcome.ret.as_ptr(), 0u);
  // And the exact fit still works:
  const mem::Addr exact = proc->scratch(14);
  EXPECT_EQ(proc->call("strcpy", {P(exact), P(str("much too long"))}).as_ptr(), exact);
}

TEST_F(RobustnessFixture, ReadOnlyDestinationContained) {
  const mem::Addr ro = proc->rodata_cstring("read only");
  const auto outcome = proc->supervised_call("strcpy", {P(ro), P(str("x"))});
  EXPECT_FALSE(outcome.robustness_failure());
}

TEST_F(RobustnessFixture, StrcatSizeExpressionAccountsForBothStrings) {
  const mem::Addr buf = proc->scratch(10);
  proc->machine().mem().write_cstring(buf, "12345");
  // 5 + 4 + 1 = 10 fits exactly:
  EXPECT_EQ(proc->call("strcat", {P(buf), P(str("6789"))}).as_ptr(), buf);
  EXPECT_EQ(proc->machine().mem().read_cstring(buf), "123456789");
  // One more byte would not fit:
  const auto outcome = proc->supervised_call("strcat", {P(buf), P(str("X"))});
  EXPECT_FALSE(outcome.robustness_failure());
  EXPECT_EQ(outcome.ret.as_ptr(), 0u);
}

TEST_F(RobustnessFixture, MemcpyLengthCheckedAgainstBothBuffers) {
  const mem::Addr dst = proc->scratch(8);
  const mem::Addr src = proc->scratch(8);
  EXPECT_FALSE(proc->supervised_call("memcpy", {P(dst), P(src), I(64)}).robustness_failure());
  EXPECT_EQ(proc->call("memcpy", {P(dst), P(src), I(8)}).as_ptr(), dst);
}

TEST_F(RobustnessFixture, MemsetHugeLengthContained) {
  const mem::Addr dst = proc->scratch(64);
  const auto outcome = proc->supervised_call("memset", {P(dst), I(0), I(1LL << 40)});
  EXPECT_FALSE(outcome.robustness_failure());
}

TEST_F(RobustnessFixture, CtypeOutOfRangeContained) {
  const auto outcome = proc->supervised_call("isalpha", {I(1 << 30)});
  EXPECT_FALSE(outcome.robustness_failure());
  EXPECT_EQ(outcome.ret.as_int(), -1);
  // In-range still classifies correctly.
  EXPECT_EQ(proc->call("isalpha", {I('x')}).as_int(), 1);
  EXPECT_EQ(proc->call("isalpha", {I(-1)}).as_int(), 0);  // EOF within range
}

TEST_F(RobustnessFixture, FreeOfGarbageContainedFreeOfHeapWorks) {
  const auto outcome = proc->supervised_call("free", {P(proc->scratch(32))});
  EXPECT_FALSE(outcome.robustness_failure());  // no abort: contained
  const mem::Addr p = proc->call("malloc", {I(32)}).as_ptr();
  EXPECT_NO_THROW(proc->call("free", {P(p)}));
  EXPECT_FALSE(proc->machine().heap().is_live(p));
}

TEST_F(RobustnessFixture, DoubleFreeContained) {
  const mem::Addr p = proc->call("malloc", {I(32)}).as_ptr();
  proc->call("free", {P(p)});
  const auto outcome = proc->supervised_call("free", {P(p)});
  EXPECT_FALSE(outcome.robustness_failure());
}

TEST_F(RobustnessFixture, FreeNullStillAllowed) {
  EXPECT_NO_THROW(proc->call("free", {P(0)}));
}

TEST_F(RobustnessFixture, StrtokNullFirstCallContained) {
  const auto outcome = proc->supervised_call("strtok", {P(0), P(str(","))});
  EXPECT_FALSE(outcome.robustness_failure());
  // And normal tokenization still works afterwards.
  const auto tok = proc->call("strtok", {P(str("a,b")), P(str(","))});
  EXPECT_EQ(proc->machine().mem().read_cstring(tok.as_ptr()), "a");
}

TEST_F(RobustnessFixture, ContainedCallsCountPerFunction) {
  proc->supervised_call("strlen", {P(0)});
  proc->supervised_call("strlen", {P(0)});
  proc->supervised_call("atoi", {P(0)});
  std::uint64_t strlen_contained = 0;
  for (const auto& [_, fn] : wrapper->stats()->functions()) {
    if (fn.symbol == "strlen") strlen_contained = fn.contained;
  }
  EXPECT_EQ(strlen_contained, 2u);
  EXPECT_EQ(wrapper->stats()->total_contained(), 3u);
}

struct IoRobustnessFixture : ::testing::Test {
  std::unique_ptr<linker::Process> proc = testbed::make_process();
  std::shared_ptr<gen::ComposedWrapper> wrapper =
      make_robustness_wrapper(testbed::libsimio(), campaign_io()).value();

  void SetUp() override { proc->preload(wrapper); }
  mem::Addr str(const std::string& text) { return proc->alloc_cstring(text); }
};

TEST_F(IoRobustnessFixture, GarbageFilePointerContained) {
  const auto outcome = proc->supervised_call("fclose", {P(proc->scratch(32))});
  EXPECT_FALSE(outcome.robustness_failure());
  EXPECT_EQ(outcome.ret.as_int(), -1);
}

TEST_F(IoRobustnessFixture, StaleFilePointerContained) {
  const auto file = proc->call("fopen", {P(str("/f")), P(str("w"))});
  proc->call("fclose", {file});
  const auto outcome = proc->supervised_call("fputc", {I('x'), file});
  EXPECT_FALSE(outcome.robustness_failure());
}

TEST_F(IoRobustnessFixture, ValidStreamLifecycleUnaffected) {
  const auto file = proc->call("fopen", {P(str("/ok")), P(str("w"))});
  ASSERT_NE(file.as_ptr(), 0u);
  EXPECT_EQ(proc->call("fputs", {P(str("hi")), file}).as_int(), 1);
  EXPECT_EQ(proc->call("fclose", {file}).as_int(), 0);
  EXPECT_EQ(*proc->state().fs.contents("/ok"), "hi");
}

TEST_F(IoRobustnessFixture, FgetsNullBufferContained) {
  proc->state().fs.put("/in", "line\n");
  const auto file = proc->call("fopen", {P(str("/in")), P(str("r"))});
  const auto outcome = proc->supervised_call("fgets", {P(0), I(64), file});
  EXPECT_FALSE(outcome.robustness_failure());
}

TEST_F(IoRobustnessFixture, SprintfFormattedSizeDegradesToOneByteCheck) {
  // formatted(2) is unevaluable; the wrapper demands only writability, so a
  // valid buffer passes and an unmapped destination is contained.
  const mem::Addr dst = proc->scratch(64);
  EXPECT_GT(proc->call("sprintf", {P(dst), P(str("%d")), I(7)}).as_int(), 0);
  const auto outcome = proc->supervised_call(
      "sprintf", {P(mem::AddressSpace::wild_pointer()), P(str("%d")), I(7)});
  EXPECT_FALSE(outcome.robustness_failure());
}

TEST_F(IoRobustnessFixture, SprintfWidthOverflowReachesTheLibrary) {
  // The pre-pass sees the overflow the library fails on before writing a
  // byte, so it lets the call through rather than demanding a 2 GB buffer.
  const mem::Addr dst = proc->scratch(4);
  const auto outcome =
      proc->supervised_call("sprintf", {P(dst), P(str("[%2147483648d]")), I(7)});
  EXPECT_FALSE(outcome.robustness_failure());
  EXPECT_EQ(outcome.ret.as_int(), -1);
  EXPECT_EQ(proc->machine().err(), simlib::kEOVERFLOW);
  EXPECT_EQ(proc->machine().mem().load8(dst), 0u);
}

// The C2-style hardening sweep: for every libsimc function, re-run the
// hostile probes under the wrapper; no probe may produce a robustness
// failure for argument classes the wrapper checks.
class HardeningSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(HardeningSweep, WrappedFunctionSurvivesWholeLattice) {
  const std::string name = GetParam();
  ASSERT_NE(testbed::libsimc().find(name), nullptr);
  for (const testbed::ReplayedProbe& probe : testbed::replay_probes(
           testbed::libsimc(), name, 99,
           {make_robustness_wrapper(testbed::libsimc(), campaign_c()).value()})) {
    EXPECT_FALSE(probe.outcome.robustness_failure())
        << name << " arg" << (probe.arg + 1) << " " << lattice::to_string(probe.type) << ": "
        << probe.outcome.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(LibsimcCore, HardeningSweep,
                         ::testing::Values("strlen", "strcpy", "strncpy", "strcat", "strcmp",
                                           "strchr", "strstr", "strdup", "atoi", "atol",
                                           "strtol", "memcpy", "memset", "memcmp", "free",
                                           "isalpha", "toupper", "wctrans"),
                         [](const auto& info) { return info.param; });

// A2 (EXPERIMENTS.md): the seed-99 libsimc probes replayed bare and under
// wrappers built from each knowledge source. Each source alone leaves
// failures only the other names; together they leave none.
TEST(CheckSourceAblation, EachSourceAloneLeavesFailuresTheUnionRemoves) {
  linker::LibraryCatalog catalog;
  catalog.install(&testbed::libsimc());
  catalog.install(&testbed::libsimio());
  catalog.install(&testbed::libsimm());
  injector::InjectorConfig config;
  config.seed = 99;
  config.variants = 1;
  const auto campaign = injector::FaultInjector(catalog, config).run_campaign(testbed::libsimc());
  ASSERT_TRUE(campaign.ok());
  const auto failures = [&](std::vector<linker::InterpositionPtr> preloads) {
    std::size_t failed = 0;
    for (const std::string& name : testbed::libsimc().names()) {
      if (testbed::libsimc().parsed_manpage(name).value().noreturn) continue;
      for (const auto& probe : testbed::replay_probes(testbed::libsimc(), name, config.seed,
                                                      preloads)) {
        failed += probe.outcome.robustness_failure() ? 1 : 0;
      }
    }
    return failed;
  };
  const auto wrapped = [&](CheckSource source) {
    return failures(
        {make_robustness_wrapper(testbed::libsimc(), campaign.value(), source).value()});
  };
  EXPECT_EQ(failures({}), 604u);
  EXPECT_EQ(wrapped(CheckSource::kAnnotationsOnly), 29u);
  EXPECT_EQ(wrapped(CheckSource::kDerivedOnly), 9u);
  EXPECT_EQ(wrapped(CheckSource::kDerivedAndAnnotations), 0u);
}

}  // namespace
}  // namespace healers::wrappers
