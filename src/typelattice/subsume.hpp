// Subsumption over the Ballista test-type lattice (paper §2.2, Fig 2).
//
// The campaign enumerator emits every (function, argument, test type) probe,
// but the lattice already implies many outcomes: a probe with a *more
// hostile* value exercises a superset of the failure modes of a safer one,
// so pass(hostile) ⇒ pass(safe) for every dominance edge encoded here. The
// ImplicationIndex turns that relation into a pruning oracle: once a
// dominating type passes, the dominated types' verdicts are synthesized
// without touching a testbed (injector/injector.cpp). The contrapositive —
// fail(safe) ⇒ fail(hostile) — is also exposed, but only for *ordering*:
// a failing verdict embeds fault addresses and per-case failure kinds that
// cannot be synthesized, so failures always execute.
//
// Every edge is a semantic claim about the simulated libc and memory model
// (one heap arena with silent in-arena overflow, dedicated scratch regions
// that fault past their size, free-list pointers whose high bytes terminate
// strings). The full-catalog differential test (tests/test_subsume.cpp)
// byte-compares pruned vs unpruned campaign XML, so an unsound edge cannot
// land silently.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "parser/ctypes.hpp"
#include "parser/manpage.hpp"
#include "typelattice/testtype.hpp"

namespace healers::lattice {

inline constexpr std::size_t kTestTypeCount = kTestTypeNames.size();

// The number of probe cases a test type expands to, as a pure function of
// the type and the --variants knob. Must equal ValueFactory::cases_of(id,
// variants).size() for every id (asserted by the injector before it trusts
// a synthesized verdict, and cross-checked against the live factory in
// tests). kFreedPtr assumes the testbed malloc succeeds, which holds for
// any heap large enough to load the catalog.
[[nodiscard]] std::size_t case_count(TestTypeId id, int variants) noexcept;

// The integral/floating probe cases as pure data. ValueFactory::cases_of
// delegates to this for both classes — scalar fabrication never touches the
// testbed process — so an implied integral verdict can replay the exact
// values (including kHugeSize's rng draws) that execution would have
// recorded. Returns empty for pointer types, which do fabricate state.
[[nodiscard]] std::vector<TestCase> scalar_cases(TestTypeId id, int variants, Rng& rng);
[[nodiscard]] bool is_scalar_type(TestTypeId id) noexcept;

// Dominance over test types of one class, closed under transitivity.
class ImplicationIndex {
 public:
  static const ImplicationIndex& instance();

  // True when `hostile` strictly dominates `safe`: pass(hostile) ⇒
  // pass(safe). Irreflexive; false across classes.
  [[nodiscard]] bool subsumes(TestTypeId hostile, TestTypeId safe) const noexcept;

  // Transitive closure of types whose pass is implied by `id` passing, in
  // canonical test_types_for order (excludes `id` itself).
  [[nodiscard]] const std::vector<TestTypeId>& implied_pass(TestTypeId id) const noexcept;

  // Contrapositive closure: types whose *type verdict* must also fail when
  // `id` fails. Ordering-only — see the header comment.
  [[nodiscard]] const std::vector<TestTypeId>& implied_fail(TestTypeId id) const noexcept;

  // |implied_pass(id)| — how much a pass of `id` resolves.
  [[nodiscard]] std::size_t reach(TestTypeId id) const noexcept;

  // Position of `id` in its class's hostile→safe order (0 = most hostile).
  // Distinct from canonical enumeration order: integral/floating classes
  // enumerate safest-first.
  [[nodiscard]] std::size_t hostility_rank(TestTypeId id) const noexcept;

  // Index of `id` within test_types_for(its class).
  [[nodiscard]] std::size_t canonical_rank(TestTypeId id) const noexcept;

  // Consistency check over the whole table: every id is ordered (appears in
  // exactly one class with a hostility rank), the relation is antisymmetric
  // (no id subsumes itself, directly or through a cycle) and transitively
  // closed, and no edge crosses classes. Returns "" when consistent, else a
  // description of the first violation. Run by tests and by validate-time
  // asserts; never fails for the built-in table.
  [[nodiscard]] static std::string validate();

 private:
  ImplicationIndex();

  std::array<std::array<bool, kTestTypeCount>, kTestTypeCount> closure_{};
  std::array<std::vector<TestTypeId>, kTestTypeCount> pass_;
  std::array<std::vector<TestTypeId>, kTestTypeCount> fail_;
  std::array<std::size_t, kTestTypeCount> hostility_{};
  std::array<std::size_t, kTestTypeCount> canonical_{};
};

// One learned pass/fail tally per test type for one argument signature.
struct SignatureProfile {
  std::string signature;
  std::array<std::uint32_t, kTestTypeCount> passes{};
  std::array<std::uint32_t, kTestTypeCount> fails{};

  // Majority vote; unknown types count as fail (conservative: a predicted
  // fail is merely executed, never synthesized).
  [[nodiscard]] bool predicts_pass(TestTypeId id) const noexcept {
    const auto i = static_cast<std::size_t>(id);
    return passes[i] > fails[i];
  }
  [[nodiscard]] bool seen(TestTypeId id) const noexcept {
    const auto i = static_cast<std::size_t>(id);
    return passes[i] + fails[i] > 0;
  }
};

// Cross-campaign implication learning: verdict tallies keyed by argument
// *signature* (type class + annotation shape), not by function, so a warm
// store orders probes for novel-but-related signatures. The Toolkit owns
// one store and threads it through every campaign; the server persists it
// in the HSCE1 spec-cache file (HSIP1 entries). Thread-safe.
class ImplicationProfileStore {
 public:
  // Canonical signature text, e.g. "pointer", "pointer|cstring,nonnull",
  // "integral|range". Annotation flags are sorted and stable across runs.
  [[nodiscard]] static std::string signature(parser::TypeClass cls,
                                             const parser::ArgAnnotation* note);

  // Snapshot of one signature's tallies; nullopt when never seen.
  [[nodiscard]] std::optional<SignatureProfile> lookup(const std::string& signature) const;

  void learn(const std::string& signature, TestTypeId id, bool passed,
             std::uint32_t weight = 1);

  // Sorted by signature, so persistence and telemetry are deterministic.
  [[nodiscard]] std::vector<SignatureProfile> export_profiles() const;
  // Merge-adds tallies (import twice ⇒ double weight, like any tally).
  void import_profiles(const std::vector<SignatureProfile>& entries);

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, SignatureProfile> profiles_;
};

}  // namespace healers::lattice
