// The automated fault-injection campaign engine (paper §2.2, Fig 2).
//
// For each function in a library the driver reads its man page (prototype
// + semantic hints; SharedLibrary::parsed_manpage parses each once per
// library), then probes every argument with every test type of its class:
// each probe runs in a FRESH simulated process (the analogue of the paper's
// one-child-per-probe driver) with the remaining arguments held at their
// safest values, under a reduced step budget (the watchdog timeout).
// Outcomes are reaped into TypeVerdicts and folded into DerivedChecks — the
// robust API the wrapper generator consumes.
//
// The paper notes every probe is an independent child process, i.e. the
// campaign is embarrassingly parallel. This engine exploits that:
//
//   1. all probe coordinates (function, argument, test type) are enumerated
//      up front in canonical order,
//   2. they fan out over a small work-stealing thread pool (config.jobs),
//   3. the expensive setup (construct + load the whole catalog + seal) runs
//      ONCE per campaign into a shared pristine linker::TestbedState; every
//      worker forks an O(metadata) shell from it, and each probe resets by
//      dropping the pages it privatized — no per-worker deep snapshot, no
//      byte copy-back (config.snapshot_reset; see linker/testbed.hpp),
//   4. the fan-out unit is one ARGUMENT, not one probe: the worker walks the
//      argument's test types guided by the subsumption lattice
//      (typelattice/subsume.hpp) — endpoints first, then the widest
//      unresolved implication gap — and once a dominating type passes, every
//      dominated type's verdict is synthesized instead of executed
//      (config.prune). Safe values for the non-injected arguments are
//      fabricated once per (function, worker) into a base snapshot that
//      every probe of the function restores, instead of once per probe.
//
// Determinism guarantee: results are bit-identical for every jobs value,
// either reset mode, and pruning on or off. Each (arg, type) fabrication
// seeds its own Rng from mix(seed, hash(function), arg, test type) — no
// shared mutable RNG — every probe call starts from the same restored base
// snapshot, and verdicts are reduced in canonical probe-coordinate order
// after the fan-out, so neither scheduling nor the walk order can influence
// a single byte of the output. The executed/implied *split* (engine
// telemetry only) is deterministic per jobs value: sequential campaigns
// learn signature profiles live, parallel campaigns walk against a profile
// snapshot frozen before the fan-out and merge what they learned in
// canonical order afterwards.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "injector/robust_spec.hpp"
#include "linker/executable.hpp"
#include "linker/testbed.hpp"
#include "parser/manpage.hpp"
#include "support/result.hpp"
#include "typelattice/subsume.hpp"

namespace healers::support {
class ThreadPool;
}

namespace healers::injector {

// Everything a campaign's output is a function of besides the library
// itself. The derive memo and spec-cache key, and a derive request, carry
// exactly these; their one wire field list is in server/codec.hpp.
struct CampaignParams {
  std::uint64_t seed = 42;
  int variants = 2;                             // random instances of fuzzy test types
  std::uint64_t probe_step_budget = 2'000'000;  // watchdog per probe
  std::uint64_t testbed_heap = 256 << 10;
  std::uint64_t testbed_stack = 64 << 10;

  auto operator<=>(const CampaignParams&) const = default;

  // The machine every probe testbed (and the shared pristine state) runs on.
  [[nodiscard]] mem::MachineConfig machine() const noexcept {
    return {.heap_size = testbed_heap, .stack_size = testbed_stack,
            .step_budget = probe_step_budget};
  }
};

struct InjectorConfig : CampaignParams {
  // Restricts the campaign to these functions (the demand-driven surface
  // scope, docs/debloat.md: probe only what an executable can reach). Empty
  // probes the whole library. UNLIKE the engine knobs below, this changes
  // the campaign document — scoped campaigns are cached under a separate
  // key and never exported to the portable spec cache.
  std::vector<std::string> only_functions;
  // Campaign-engine knobs. None affects results (see the determinism
  // guarantee above) — only how fast the campaign runs.
  int jobs = 1;                // worker threads; 0 = hardware concurrency
  bool snapshot_reset = true;  // restore a per-worker snapshot between probes
                               // (false: rebuild a fresh process per probe)
  bool prune = true;           // subsumption pruning: synthesize implied
                               // verdicts, skip the probes (--no-prune off)
};

class FaultInjector {
 public:
  // The catalog supplies the testbed environment: every probe process loads
  // all catalog libraries so safe values (e.g. a live FILE*) can be built.
  FaultInjector(const linker::LibraryCatalog& catalog, InjectorConfig config = {});
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Probes one function of `lib`. Fails when the man page cannot be parsed
  // or the symbol does not exist.
  [[nodiscard]] Result<RobustSpec> probe_function(const simlib::SharedLibrary& lib,
                                                  const std::string& name);

  // Probes every function in the library (Fig 2's full pipeline). Functions
  // marked NORETURN are recorded but not probed. `progress`, when set, is
  // called with each function name (in order) as the campaign is enumerated.
  [[nodiscard]] Result<CampaignResult> run_campaign(
      const simlib::SharedLibrary& lib,
      const std::function<void(const std::string&)>& progress = {});

  // Probes actually executed so far (across calls) — for throughput benches.
  // Relaxed atomic: workers bump it concurrently during a campaign.
  [[nodiscard]] std::uint64_t probes_executed() const noexcept {
    return probes_executed_.load(std::memory_order_relaxed);
  }
  // Probe cases whose outcome was synthesized from the implication lattice
  // (or the integral value memo) instead of executed.
  [[nodiscard]] std::uint64_t probes_implied() const noexcept {
    return probes_implied_.load(std::memory_order_relaxed);
  }

  // Adopts a shared cross-campaign implication-profile store (the Toolkit's,
  // so every campaign it runs warms the next). Without one, the injector
  // learns into a private store — intra-injector warm starts still work.
  // Call before the first probe runs.
  void set_profile_store(std::shared_ptr<lattice::ImplicationProfileStore> store) noexcept;

  // --- shared pristine testbed state ---------------------------------------
  // Adopts a prebuilt pristine state (e.g. the Toolkit's cached one) so this
  // campaign skips setup entirely and forks straight from the shared image.
  // Ignored unless the state was built for config.machine(). Call before the
  // first probe runs.
  void set_testbed_state(std::shared_ptr<const linker::TestbedState> state) noexcept;
  // The pristine state this injector forks from (built lazily on the first
  // snapshot-reset probe when none was adopted); null until then. The
  // Toolkit caches this across campaigns so every derive — including every
  // in-flight request in the derivation server — forks from one image.
  [[nodiscard]] std::shared_ptr<const linker::TestbedState> testbed_state() const noexcept {
    return state_;
  }

  // The console input every probe testbed starts with.
  [[nodiscard]] static const std::string& probe_stdin();

  // Cumulative engine telemetry (fork/privatize/drop counters) across every
  // probe this injector has run; run_campaign stores the per-campaign delta
  // in CampaignResult::engine.
  [[nodiscard]] CampaignEngineStats engine_stats() const noexcept;

 private:
  // One probe coordinate at (function, argument) granularity: the worker
  // walks the argument's whole test-type lattice so implications resolve
  // inside one task (the per-(function, arg, type) implication cache is the
  // walk's `resolved` set, consulted before any probe runs).
  struct ProbeTask {
    const parser::ManPage* page = nullptr;
    std::uint64_t fn_hash = 0;
    std::size_t spec_index = 0;
    std::size_t arg_index = 0;  // 0-based
    parser::TypeClass cls = parser::TypeClass::kIntegral;
    std::string signature;  // implication-profile key (class + annotation shape)
  };
  struct TypeOutput {
    TypeVerdict verdict;
    // Injected values of integral probes, in case order — the raw material
    // for range derivation when every case of the type passed.
    std::vector<std::int64_t> int_values;
  };
  struct TaskOutput {
    std::vector<TypeOutput> typed;  // canonical test_types_for order
  };
  // A worker's testbed plus the per-function base: safe values for every
  // argument are fabricated once per (function, worker) and snapshotted, so
  // each probe restores the base instead of re-fabricating (fresh mode
  // rebuilds the same base from scratch per probe — the deep oracle).
  struct WorkerBed {
    std::unique_ptr<linker::Process> bed;
    const parser::ManPage* base_page = nullptr;
    linker::Process::Snapshot base;
    std::vector<simlib::SimValue> safe_args;
  };

  // Builds (or adopts) the shared pristine state; no-op when already set.
  void ensure_state();
  // Forks one probe shell from the pristine state (snapshot-reset mode) or
  // constructs a fresh full process (fresh mode).
  [[nodiscard]] std::unique_ptr<linker::Process> make_bed();
  // Folds a retiring bed's COW and crash counters into the engine totals.
  // Every bed must be harvested exactly once, just before it is destroyed or
  // rebuilt.
  void harvest(const linker::Process& bed) noexcept;

  // Rebuilds `wb` to the per-function base: every argument at its safe value
  // on a pristine testbed. Fork mode restores the base snapshot (taken on
  // the first probe of the function per worker); fresh mode constructs a new
  // process and re-fabricates every safe value from scratch.
  void bed_to_base(WorkerBed& wb, const simlib::SharedLibrary& lib, const ProbeTask& task);
  // Fabricates safe values for every argument of task's function into
  // wb.safe_args (deterministic order, left to right).
  void fabricate_safe_args(WorkerBed& wb, const ProbeTask& task);
  // Executes every case of one test type against the argument: reset to
  // base, fabricate the case, supervised call, fold. `int_memo`, when set,
  // answers integral cases whose injected value was already called for this
  // argument (prune mode only).
  [[nodiscard]] TypeOutput run_type(WorkerBed& wb, const simlib::SharedLibrary& lib,
                                    const ProbeTask& task, lattice::TestTypeId id,
                                    std::map<std::int64_t, linker::CallOutcome>* int_memo);
  // Synthesizes an implied-pass verdict for `id` from dominator `from` —
  // byte-identical to the executed verdict, zero testbed work.
  [[nodiscard]] TypeOutput synthesize_pass(const ProbeTask& task, lattice::TestTypeId id,
                                           lattice::TestTypeId from);
  // Walks one argument's test-type lattice: ordering by `profile` (may be
  // null = cold), executing unresolved types, synthesizing implied passes.
  // Output is re-sorted into canonical test_types_for order.
  [[nodiscard]] TaskOutput run_task(WorkerBed& wb, const simlib::SharedLibrary& lib,
                                    const ProbeTask& task,
                                    const lattice::SignatureProfile* profile);
  // Records what a finished walk learned into the shared profile store.
  void learn_task(const ProbeTask& task, const TaskOutput& out);
  // Fans the tasks out over the pool (inline when jobs == 1) and returns
  // outputs indexed like `tasks` — the canonical reduction order.
  [[nodiscard]] std::vector<TaskOutput> execute(const simlib::SharedLibrary& lib,
                                                const std::vector<ProbeTask>& tasks);
  // Builds the specs for `pages` (one per function, campaign order) by
  // enumerating coordinates, executing, and reducing canonically.
  [[nodiscard]] std::vector<RobustSpec> build_specs(
      const simlib::SharedLibrary& lib,
      const std::vector<std::pair<const simlib::Symbol*, const parser::ManPage*>>& functions);

  const linker::LibraryCatalog& catalog_;
  InjectorConfig config_;
  std::atomic<std::uint64_t> probes_executed_{0};
  std::atomic<std::uint64_t> probes_implied_{0};
  std::atomic<std::uint64_t> verdicts_implied_{0};
  std::atomic<std::uint64_t> memo_hits_{0};
  std::atomic<std::uint64_t> args_probed_{0};
  std::atomic<std::uint64_t> args_warm_{0};

  // Cross-campaign implication profiles (shared via set_profile_store, or a
  // private store created by the constructor).
  std::shared_ptr<lattice::ImplicationProfileStore> profiles_;

  // Shared pristine state (snapshot-reset mode). Immutable once built;
  // workers fork from it concurrently (atomic refcounts only).
  std::shared_ptr<const linker::TestbedState> state_;

  // Engine telemetry, bumped by workers (relaxed — read only after joins).
  std::atomic<std::uint64_t> states_forked_{0};
  std::atomic<std::uint64_t> testbeds_built_{0};
  std::atomic<std::uint64_t> pages_sealed_{0};
  std::atomic<std::uint64_t> pages_faulted_{0};
  std::atomic<std::uint64_t> pages_privatized_{0};
  std::atomic<std::uint64_t> pages_dropped_{0};
  std::atomic<std::uint64_t> crashes_unwound_{0};

  std::unique_ptr<support::ThreadPool> pool_;  // created on first parallel run
};

// Derives the wrapper-enforceable checks from an argument's verdicts (and
// the annotation, which supplies ranges/roles the probes confirm).
// Exposed for targeted unit tests.
[[nodiscard]] DerivedChecks derive_checks(const ArgSpec& arg, const parser::ArgAnnotation* note);

}  // namespace healers::injector
