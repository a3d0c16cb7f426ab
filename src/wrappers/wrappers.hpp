// The stock HEALERS wrapper families (paper Fig 1):
//
//   * robustness wrapper — enforces the robust API derived by fault
//     injection (plus man-page size expressions): invalid arguments are
//     contained (errno = EINVAL, error return) instead of crashing.
//   * security wrapper — heap-smashing protection via wrapper-planted
//     canaries [3] and libsafe-style stack bounds checks [1]: detected
//     attacks terminate the process before control flow can be hijacked.
//   * profiling wrapper — the Fig 3 feature set (call counts, errno
//     histograms, exec time) plus an optional call trace; its stats feed
//     the XML documents of demo §3.3 / Fig 5.
//   * repair wrapper — rewrites unsafe calls instead of rejecting or merely
//     detecting them: failure-oblivious truncation of out-of-bounds writes
//     and bounded substitution of strcpy-class calls, per a policy derived
//     from the robust-API campaign (docs/repair.md).
//
// Each factory returns a freshly built ComposedWrapper. Security wrappers
// hold per-process allocation state: build ONE wrapper per process and do
// not share it (the returned guard state maps simulated addresses).
#pragma once

#include <memory>
#include <optional>

#include "gen/composer.hpp"
#include "gen/repair_policy.hpp"
#include "injector/robust_spec.hpp"
#include "simlib/library.hpp"
#include "support/result.hpp"

namespace healers::wrappers {

// --- robustness ---
// Which knowledge source the arg-check micro-generator compiles its checks
// from. The A2 ablation bench compares the three: the paper's position is
// that automation (derived specs) carries most of the weight, with the
// man-page size expressions adding the precise buffer-length checks.
enum class CheckSource : std::uint8_t {
  kDerivedAndAnnotations,  // the shipped robustness wrapper (default)
  kDerivedOnly,            // fault-injection results alone
  kAnnotationsOnly,        // man-page annotations alone
};

// arg-check micro-generator: the fault-containment checks. Needs the
// campaign's robust specs (GenContext.spec) and/or man-page annotations,
// per `source`.
[[nodiscard]] gen::MicroGeneratorPtr arg_check_gen(
    CheckSource source = CheckSource::kDerivedAndAnnotations);

[[nodiscard]] Result<std::shared_ptr<gen::ComposedWrapper>> make_robustness_wrapper(
    const simlib::SharedLibrary& lib, const injector::CampaignResult& campaign,
    CheckSource source = CheckSource::kDerivedAndAnnotations);

// --- security ---
struct HeapGuardState;  // wrapper-private allocation table

// Heap-canary micro-generator. All hooks made from one instance share one
// HeapGuardState (one wrapper = one protected process).
[[nodiscard]] gen::MicroGeneratorPtr heap_canary_gen();

// Libsafe-style stack guard: bounds string writes into stack frames and
// verifies every live return address after each wrapped call.
[[nodiscard]] gen::MicroGeneratorPtr stack_guard_gen();

[[nodiscard]] Result<std::shared_ptr<gen::ComposedWrapper>> make_security_wrapper(
    const simlib::SharedLibrary& lib);

// --- testing (error injection, the wrapper family of [5]) ---
// With probability `rate`, a call to a function whose man page documents
// failure errnos returns that error instead of executing — exercising the
// application's error-handling paths. Deterministic per seed.
[[nodiscard]] gen::MicroGeneratorPtr error_injection_gen(double rate, std::uint64_t seed = 1);

[[nodiscard]] Result<std::shared_ptr<gen::ComposedWrapper>> make_testing_wrapper(
    const simlib::SharedLibrary& lib, double rate, std::uint64_t seed = 1);

// --- profiling ---
// include_trace adds the log-call micro-generator (per-call records).
[[nodiscard]] Result<std::shared_ptr<gen::ComposedWrapper>> make_profiling_wrapper(
    const simlib::SharedLibrary& lib, bool include_trace = false);

// The Fig 3 generator list (prototype, function exectime, collect errors,
// func error, call counter, caller) — exposed so tests and benches can
// reproduce the figure exactly.
[[nodiscard]] std::vector<gen::MicroGeneratorPtr> fig3_generators();

// --- repair (ISSUE 9: failure-oblivious execution + safe substitution) ---
// Repair micro-generator: applies a campaign-derived RepairPolicy
// (gen/repair_policy.hpp) at call time — truncating out-of-bounds writes to
// the destination's known extent, substituting bounded copies for
// strcpy-class calls, and manufacturing safe returns for invalid input
// strings. Keeps its own allocation-extent table (no canaries, no argument
// resizing): with nothing to repair the wrapped process behaves
// bit-identically to an unwrapped one. One instance per protected process.
[[nodiscard]] gen::MicroGeneratorPtr repair_gen(std::shared_ptr<const gen::RepairPolicy> policy);

// Derives the repair policy from `campaign` and composes prototype + repair
// + call counter + caller.
[[nodiscard]] Result<std::shared_ptr<gen::ComposedWrapper>> make_repair_wrapper(
    const simlib::SharedLibrary& lib, const injector::CampaignResult& campaign);

namespace detail {
// Safe printf-length pre-pass shared by the arg-check and repair wrappers
// (defined in argcheck.cpp).
[[nodiscard]] std::optional<std::uint64_t> safe_formatted_length(simlib::CallContext& ctx,
                                                                 int fmt_index_1based);
}  // namespace detail

}  // namespace healers::wrappers
