// Repair policy derivation (ISSUE 9): turning a robust-API campaign's
// per-argument crash boundaries into a per-(function, argument) repair plan.
//
// The campaign engine already knows which arguments crash when the
// destination is too small (DerivedChecks::require_size_check, learned from
// the tiny-writable probes) and which input pointers crash when invalid.
// Instead of hand-writing "strcpy is dangerous" rules, derive_repair_policy
// reads those campaign documents next to the man-page size annotations and
// emits one RepairRule per repairable argument:
//
//   * write_size is a plain `arg(k)` (memcpy-class): the call carries its own
//     length argument, so the repair is failure-oblivious TRUNCATION — clamp
//     arg k to the destination's known extent (Rigger et al., 1806.09026).
//   * write_size is computed (`cstrlen(2)+1`, `formatted(2)+1`, ...): no
//     caller-visible length to clamp, so the repair is SAFE SUBSTITUTION —
//     rewrite the call into a bounded variant whose length derives from the
//     destination extent (S3Library, 2004.09062), NUL-terminating the result.
//   * a pure input pointer the campaign proved crash-prone: SAFE RETURN —
//     skip the call and manufacture the documented error value.
//
// Everything else falls through to the existing reject/detect wrappers; a
// policy never fires on a call that was already within bounds.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "injector/robust_spec.hpp"
#include "parser/manpage.hpp"
#include "simlib/library.hpp"
#include "simlib/observer.hpp"
#include "support/result.hpp"
#include "xml/xml.hpp"

namespace healers::gen {

// One repairable argument of one function.
struct RepairRule {
  int arg_index = 0;  // 1-based: the pointer argument being repaired
  simlib::RepairAction action = simlib::RepairAction::kTruncateWrite;
  // kTruncateWrite only: 1-based index of the length argument to clamp.
  int clamp_arg = 0;
  // kSubstituteBounded only: 1-based index of the NUL-terminated copy source
  // (the cstrlen(k) operand of write_size with k != arg_index); 0 when the
  // write is computed (formatted/stdin) and has no copyable source.
  int src_arg = 0;
  // kSubstituteBounded only: true when write_size also counts the existing
  // string at the destination (strcat-style append).
  bool append = false;
  // Bytes the call will write through arg_index (man-page annotation);
  // absent for kSafeReturn rules.
  std::optional<parser::SizeExpr> write_size;
  // Why this rule exists: the campaign check and man-page annotation that
  // produced it. Carried into RepairEvent::detail when the rule fires.
  std::string provenance;
};

struct FunctionRepairPolicy {
  std::string function;
  std::vector<RepairRule> rules;

  [[nodiscard]] const RepairRule* rule_for_arg(int index_1based) const noexcept;
};

// A whole library's repair plan — pure data, derived once per campaign and
// cacheable/shippable exactly like the campaign document itself.
struct RepairPolicy {
  std::string library;
  std::uint64_t seed = 0;  // campaign seed the policy was derived from
  std::vector<FunctionRepairPolicy> functions;

  [[nodiscard]] const FunctionRepairPolicy* policy(const std::string& function) const noexcept;
  [[nodiscard]] std::size_t rule_count() const noexcept;
  [[nodiscard]] bool operator==(const RepairPolicy& other) const;

  // Deterministic <repair-policy> document; round-trips through from_xml
  // (see profile::from_xml for the two overloads).
  [[nodiscard]] xml::Node to_xml() const;
  [[nodiscard]] static Status from_xml(xml::Reader& in, RepairPolicy& out);
  [[nodiscard]] static Result<RepairPolicy> from_xml(std::string_view document);
};

[[nodiscard]] bool operator==(const RepairRule& a, const RepairRule& b);
[[nodiscard]] bool operator==(const FunctionRepairPolicy& a, const FunctionRepairPolicy& b);

// Derives the repair policy for `lib` from its campaign result. Pure: same
// campaign document + same library => byte-identical policy XML. Functions
// whose campaign spec shows no repairable argument get no entry.
[[nodiscard]] Result<RepairPolicy> derive_repair_policy(
    const injector::CampaignResult& campaign, const simlib::SharedLibrary& lib);

}  // namespace healers::gen
