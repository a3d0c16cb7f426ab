// Tests for the repair wrapper family (ISSUE 9): policy derivation from a
// synthetic campaign document, the runtime semantics of each repair strategy
// (truncate / substitute / synthesize / safe-return), the no-repair-no-delta
// contract, campaign-document byte-identity with repair off, RepairEvent
// dossier round-trips (XML and HDB1), and end-to-end survival of the §3.4
// heap-smash attack under the repair wrapper.
#include <gtest/gtest.h>

#include "attacks/attacks.hpp"
#include "core/toolkit.hpp"
#include "fleet/wire.hpp"
#include "gen/repair_policy.hpp"
#include "incident/recorder.hpp"
#include "injector/injector.hpp"
#include "testbed.hpp"
#include "wrappers/wrappers.hpp"
#include "xml/xml.hpp"

namespace healers::wrappers {
namespace {

using linker::CallOutcome;
using simlib::RepairAction;
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

// sprintf lives in libsimio, so the synthesize branch needs its own campaign.
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

// A hand-built campaign document with exactly the crash boundaries each
// derivation branch needs — derivation must read the document, not the
// function name.
injector::CampaignResult synthetic_campaign() {
  injector::CampaignResult campaign;
  campaign.library = "libsimc.so.1";
  campaign.seed = 7;

  const auto pointer_arg = [](int index, injector::DerivedChecks checks) {
    injector::ArgSpec arg;
    arg.index = index;
    arg.ctype = "char *";
    arg.cls = parser::TypeClass::kPointer;
    arg.checks = checks;
    return arg;
  };
  injector::DerivedChecks size_checked;
  size_checked.require_nonnull = true;
  size_checked.require_writable = true;
  size_checked.require_size_check = true;
  injector::DerivedChecks writable_only;
  writable_only.require_nonnull = true;
  writable_only.require_writable = true;
  injector::DerivedChecks input_string;
  input_string.require_nonnull = true;
  input_string.require_mapped = true;
  input_string.require_terminated = true;

  injector::RobustSpec strcpy_spec;
  strcpy_spec.function = "strcpy";
  strcpy_spec.args = {pointer_arg(1, size_checked), pointer_arg(2, input_string)};
  campaign.specs.push_back(strcpy_spec);

  // memcpy's destination was never caught by a tiny-writable probe (the
  // campaign's valid lengths were all small) but still proved crash-prone.
  injector::RobustSpec memcpy_spec;
  memcpy_spec.function = "memcpy";
  memcpy_spec.args = {pointer_arg(1, writable_only)};
  campaign.specs.push_back(memcpy_spec);

  injector::RobustSpec strcat_spec;
  strcat_spec.function = "strcat";
  strcat_spec.args = {pointer_arg(1, size_checked)};
  campaign.specs.push_back(strcat_spec);

  injector::RobustSpec strlen_spec;
  strlen_spec.function = "strlen";
  strlen_spec.args = {pointer_arg(1, input_string)};
  campaign.specs.push_back(strlen_spec);

  // An argument with no derived checks at all must yield no rule.
  injector::RobustSpec abs_spec;
  abs_spec.function = "abs";
  injector::ArgSpec plain;
  plain.index = 1;
  plain.ctype = "int";
  plain.cls = parser::TypeClass::kIntegral;
  abs_spec.args = {plain};
  campaign.specs.push_back(abs_spec);

  return campaign;
}

// --- policy derivation -----------------------------------------------------

TEST(RepairPolicyDerivation, SyntheticCampaignCoversEveryStrategy) {
  const auto policy = gen::derive_repair_policy(synthetic_campaign(), testbed::libsimc());
  ASSERT_TRUE(policy.ok()) << policy.error().message;

  // strcpy dest: computed write size (cstrlen(2)+1) -> bounded substitution
  // whose copy source is arg 2; its input string gets a safe-return rule.
  const gen::FunctionRepairPolicy* strcpy_policy = policy.value().policy("strcpy");
  ASSERT_NE(strcpy_policy, nullptr);
  const gen::RepairRule* dest = strcpy_policy->rule_for_arg(1);
  ASSERT_NE(dest, nullptr);
  EXPECT_EQ(dest->action, RepairAction::kSubstituteBounded);
  EXPECT_EQ(dest->src_arg, 2);
  EXPECT_FALSE(dest->append);
  ASSERT_TRUE(dest->write_size.has_value());
  EXPECT_EQ(dest->write_size->to_string(), "cstrlen(2)+1");
  const gen::RepairRule* src = strcpy_policy->rule_for_arg(2);
  ASSERT_NE(src, nullptr);
  EXPECT_EQ(src->action, RepairAction::kSafeReturn);

  // memcpy dest: write size is arg(3) -> failure-oblivious truncation
  // clamping that argument, even without a tiny-writable verdict.
  const gen::FunctionRepairPolicy* memcpy_policy = policy.value().policy("memcpy");
  ASSERT_NE(memcpy_policy, nullptr);
  const gen::RepairRule* memcpy_dest = memcpy_policy->rule_for_arg(1);
  ASSERT_NE(memcpy_dest, nullptr);
  EXPECT_EQ(memcpy_dest->action, RepairAction::kTruncateWrite);
  EXPECT_EQ(memcpy_dest->clamp_arg, 3);

  // strcat dest: the write size counts cstrlen(1) (the destination itself)
  // -> append-mode substitution sourcing arg 2.
  const gen::FunctionRepairPolicy* strcat_policy = policy.value().policy("strcat");
  ASSERT_NE(strcat_policy, nullptr);
  const gen::RepairRule* strcat_dest = strcat_policy->rule_for_arg(1);
  ASSERT_NE(strcat_dest, nullptr);
  EXPECT_EQ(strcat_dest->action, RepairAction::kSubstituteBounded);
  EXPECT_TRUE(strcat_dest->append);
  EXPECT_EQ(strcat_dest->src_arg, 2);

  // strlen: pure input string -> safe return; abs: nothing to repair.
  const gen::FunctionRepairPolicy* strlen_policy = policy.value().policy("strlen");
  ASSERT_NE(strlen_policy, nullptr);
  ASSERT_NE(strlen_policy->rule_for_arg(1), nullptr);
  EXPECT_EQ(strlen_policy->rule_for_arg(1)->action, RepairAction::kSafeReturn);
  EXPECT_EQ(policy.value().policy("abs"), nullptr);

  // Provenance must name the campaign evidence and the man-page annotation.
  EXPECT_NE(dest->provenance.find("tiny-writable"), std::string::npos);
  EXPECT_NE(memcpy_dest->provenance.find("BUF WRITE SIZE arg(3)"), std::string::npos);
}

TEST(RepairPolicyDerivation, PolicyXmlRoundTrips) {
  const auto policy = gen::derive_repair_policy(synthetic_campaign(), testbed::libsimc());
  ASSERT_TRUE(policy.ok());
  const std::string text = xml::serialize(policy.value().to_xml());
  const auto back = gen::RepairPolicy::from_xml(text);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_TRUE(policy.value() == back.value());
  EXPECT_EQ(text, xml::serialize(back.value().to_xml()));
}

TEST(RepairPolicyDerivation, DerivationLeavesCampaignDocumentUntouched) {
  const injector::CampaignResult& campaign = campaign_c();
  const std::string before = xml::serialize(campaign.to_xml());
  const auto policy = gen::derive_repair_policy(campaign, testbed::libsimc());
  ASSERT_TRUE(policy.ok());
  EXPECT_GT(policy.value().rule_count(), 0u);
  EXPECT_EQ(before, xml::serialize(campaign.to_xml()));
}

// --- runtime semantics -----------------------------------------------------

struct RepairFixture : ::testing::Test {
  std::unique_ptr<linker::Process> proc = testbed::make_process();
  std::shared_ptr<gen::ComposedWrapper> wrapper =
      make_repair_wrapper(testbed::libsimc(), campaign_c()).value();
  incident::FlightRecorder recorder;

  void SetUp() override {
    proc->preload(wrapper);
    proc->set_observer(&recorder);
  }

  std::string read_cstring(mem::Addr addr) {
    std::string out;
    for (;;) {
      const std::uint8_t byte = proc->machine().mem().load8(addr + out.size());
      if (byte == 0) break;
      out += static_cast<char>(byte);
    }
    return out;
  }
};

TEST_F(RepairFixture, TruncateWriteClampsMemcpyToAllocationExtent) {
  const mem::Addr dest = proc->call("malloc", {I(16)}).as_ptr();
  const mem::Addr guard = proc->call("malloc", {I(16)}).as_ptr();
  proc->call("strcpy", {P(guard), P(proc->alloc_cstring("sentinel"))});
  const mem::Addr src = proc->alloc_cstring("0123456789abcdefGHIJKLMNOPQRSTU");

  const auto outcome = proc->supervised_call("memcpy", {P(dest), P(src), I(32)});
  ASSERT_EQ(outcome.kind, CallOutcome::Kind::kReturned);
  EXPECT_EQ(outcome.ret.as_ptr(), dest);

  // Exactly the 16 in-bounds bytes were copied; the neighbour is intact.
  EXPECT_EQ(proc->machine().mem().load8(dest + 15), static_cast<std::uint8_t>('f'));
  EXPECT_EQ(read_cstring(guard), "sentinel");
  ASSERT_EQ(recorder.repairs_applied(), 1u);
  const incident::RepairEvent& event = recorder.repair_log().front();
  EXPECT_EQ(event.symbol, "memcpy");
  EXPECT_EQ(event.action, RepairAction::kTruncateWrite);
  EXPECT_EQ(event.requested, 32u);
  EXPECT_EQ(event.granted, 16u);
}

TEST_F(RepairFixture, SubstituteBoundedCopiesPrefixAndTerminates) {
  const mem::Addr dest = proc->call("malloc", {I(8)}).as_ptr();
  const mem::Addr src = proc->alloc_cstring("0123456789ABCDEF");

  const auto outcome = proc->supervised_call("strcpy", {P(dest), P(src)});
  ASSERT_EQ(outcome.kind, CallOutcome::Kind::kReturned);
  EXPECT_EQ(outcome.ret.as_ptr(), dest);
  EXPECT_EQ(read_cstring(dest), "0123456");  // 7 bytes + NUL fill the extent

  ASSERT_EQ(recorder.repairs_applied(), 1u);
  const incident::RepairEvent& event = recorder.repair_log().front();
  EXPECT_EQ(event.action, RepairAction::kSubstituteBounded);
  EXPECT_EQ(event.requested, 17u);  // cstrlen(src)+1
  EXPECT_EQ(event.granted, 8u);     // what fit, NUL included
}

TEST_F(RepairFixture, SynthesizeInputWhenNoCopyableSource) {
  // sprintf is a libsimio symbol: wrap that library too so its formatted(2)+1
  // write-size rule is live alongside the libsimc fixture wrapper.
  proc->preload(make_repair_wrapper(testbed::libsimio(), campaign_io()).value());
  const mem::Addr dest = proc->call("malloc", {I(8)}).as_ptr();
  const mem::Addr fmt = proc->alloc_cstring(std::string(100, 'A'));

  const auto outcome = proc->supervised_call("sprintf", {P(dest), P(fmt)});
  ASSERT_EQ(outcome.kind, CallOutcome::Kind::kReturned);
  // No NUL-terminated source to bound-copy: the repair degrades to an empty
  // synthesized output and the call reports zero characters written.
  EXPECT_EQ(outcome.ret.as_int(), 0);
  EXPECT_EQ(read_cstring(dest), "");
  ASSERT_EQ(recorder.repairs_applied(), 1u);
  EXPECT_EQ(recorder.repair_log().front().action, RepairAction::kSynthesizeInput);
}

TEST_F(RepairFixture, SafeReturnManufacturesErrorForInvalidInput) {
  proc->machine().set_err(0);
  const auto outcome = proc->supervised_call("strlen", {P(0)});
  ASSERT_EQ(outcome.kind, CallOutcome::Kind::kReturned);
  EXPECT_EQ(outcome.ret.as_int(), -1);
  EXPECT_EQ(proc->machine().err(), simlib::kEINVAL);
  ASSERT_EQ(recorder.repairs_applied(), 1u);
  EXPECT_EQ(recorder.repair_log().front().action, RepairAction::kSafeReturn);
}

TEST_F(RepairFixture, ValidCallsPassThroughWithZeroRepairs) {
  const mem::Addr dest = proc->call("malloc", {I(64)}).as_ptr();
  const mem::Addr src = proc->alloc_cstring("well within bounds");
  EXPECT_EQ(proc->call("strcpy", {P(dest), P(src)}).as_ptr(), dest);
  EXPECT_EQ(read_cstring(dest), "well within bounds");
  EXPECT_EQ(proc->call("strlen", {P(dest)}).as_int(), 18);
  const mem::Addr copy = proc->call("malloc", {I(64)}).as_ptr();
  EXPECT_EQ(proc->call("memcpy", {P(copy), P(dest), I(19)}).as_ptr(), copy);
  EXPECT_EQ(read_cstring(copy), "well within bounds");
  proc->call("free", {P(dest)});
  proc->call("free", {P(copy)});
  EXPECT_EQ(recorder.repairs_applied(), 0u);
  EXPECT_TRUE(recorder.repair_log().empty());
}

// --- dossier round-trips ---------------------------------------------------

incident::Dossier capture_repair_dossier(core::Toolkit& toolkit,
                                         attacks::AttackResult* result_out = nullptr) {
  auto wrapper =
      toolkit.repair_wrapper("libsimc.so.1", toolkit.derive_robust_api("libsimc.so.1").value());
  incident::FlightRecorder recorder;
  recorder.set_process_name("netd");
  const auto result =
      attacks::run_heap_smash_attack(toolkit.catalog(), {wrapper.value()}, false, &recorder);
  if (result_out != nullptr) *result_out = result;
  EXPECT_FALSE(recorder.dossiers().empty());
  return recorder.dossiers().front();
}

core::Toolkit& toolkit() {
  static core::Toolkit instance;
  return instance;
}

TEST(RepairDossier, XmlRoundTripKeepsRepairEvents) {
  const incident::Dossier dossier = capture_repair_dossier(toolkit());
  ASSERT_EQ(dossier.repairs.size(), 1u);
  EXPECT_EQ(dossier.detector, simlib::DetectionKind::kRepair);
  const std::string text = xml::serialize(dossier.to_xml());
  const auto back = incident::from_xml(text);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_TRUE(dossier == back.value());
  EXPECT_EQ(back.value().repairs.size(), 1u);
  EXPECT_EQ(back.value().repairs.front().symbol, "memcpy");
}

TEST(RepairDossier, BinaryRoundTripKeepsRepairEvents) {
  const incident::Dossier dossier = capture_repair_dossier(toolkit());
  const std::string blob = fleet::encode_dossier_binary(dossier);
  const auto back = fleet::record::decode<incident::Dossier>(blob);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_TRUE(dossier == back.value());
  ASSERT_EQ(back.value().repairs.size(), 1u);
  EXPECT_EQ(back.value().repairs.front().action, RepairAction::kTruncateWrite);
  EXPECT_EQ(back.value().repairs.front().requested, 96u);
  EXPECT_EQ(back.value().repairs.front().granted, 64u);
}

TEST(RepairDossier, DossierWithoutRepairsSerializesAsBefore) {
  // A security-wrapper dossier has no repair events: its XML must not grow a
  // <repairs> child, so pre-repair consumers decode it unchanged.
  auto wrapper = toolkit().security_wrapper("libsimc.so.1");
  incident::FlightRecorder recorder;
  recorder.set_process_name("netd");
  (void)attacks::run_heap_smash_attack(toolkit().catalog(), {wrapper.value()}, false, &recorder);
  ASSERT_FALSE(recorder.dossiers().empty());
  const incident::Dossier& dossier = recorder.dossiers().front();
  EXPECT_TRUE(dossier.repairs.empty());
  EXPECT_EQ(xml::serialize(dossier.to_xml()).find("<repairs>"), std::string::npos);
}

// --- end-to-end survival ---------------------------------------------------

TEST(RepairSurvival, HeapSmashCompletesWithCorrectOutputUnderRepair) {
  attacks::AttackResult result;
  const incident::Dossier dossier = capture_repair_dossier(toolkit(), &result);

  EXPECT_TRUE(result.survived) << result.outcome.to_string();
  EXPECT_FALSE(result.hijack_succeeded);
  EXPECT_FALSE(result.blocked_by_wrapper);
  EXPECT_NE(result.stdout_text.find("request handled"), std::string::npos);

  // Exactly one repair: the memcpy truncation that kept the fake chunk
  // header from ever being written.
  ASSERT_EQ(dossier.repairs.size(), 1u);
  const incident::RepairEvent& event = dossier.repairs.front();
  EXPECT_EQ(event.symbol, "memcpy");
  EXPECT_EQ(event.action, RepairAction::kTruncateWrite);
  EXPECT_EQ(event.requested, 96u);
  EXPECT_EQ(event.granted, 64u);
}

TEST(RepairSurvival, StackSmashCompletesWithOneBoundedCopyUnderRepair) {
  const auto wrapper =
      toolkit().repair_wrapper("libsimc.so.1", toolkit().derive_robust_api("libsimc.so.1").value());
  ASSERT_TRUE(wrapper.ok());
  incident::FlightRecorder recorder;
  const auto result =
      attacks::run_stack_smash_attack(toolkit().catalog(), {wrapper.value()}, &recorder);
  EXPECT_TRUE(result.survived) << result.outcome.to_string();
  EXPECT_FALSE(result.hijack_succeeded);
  EXPECT_FALSE(result.blocked_by_wrapper);
  ASSERT_EQ(recorder.dossiers().size(), 1u);
  const incident::Dossier& dossier = recorder.dossiers().front();
  ASSERT_EQ(dossier.repairs.size(), 1u);
  EXPECT_EQ(dossier.repairs.front().symbol, "strcpy");
  EXPECT_EQ(dossier.repairs.front().action, RepairAction::kSubstituteBounded);
}

TEST(RepairSurvival, UnprotectedBaselineStillHijacked) {
  const auto plain = attacks::run_heap_smash_attack(toolkit().catalog(), {});
  EXPECT_TRUE(plain.hijack_succeeded);
  EXPECT_FALSE(plain.survived);
}

}  // namespace
}  // namespace healers::wrappers
