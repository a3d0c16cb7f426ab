// Experiment F2 — Fig 2: the fault-injection pipeline deriving the robust
// API of a shared library.
//
// Times what perfbench's derive workload does not: the campaign engine's
// modes side by side (a fresh process per probe against COW-forked shells,
// one worker against eight, pruning on against off), the per-probe reset
// primitive against a fresh testbed build, the memory cost of coexisting
// probe states, and one probe of each kind. Every row runs on the wall
// clock; bench/run_benches.sh repeats each one and stamps the artifact.
//
// The Fig 2 counts themselves (failure rates, non-robust functions) are
// deterministic and pinned in test_injector; `healers derive <lib> --seed
// 2003 --variants 2` followed by `healers report` prints the table.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <cstdio>
#include <vector>

#include "core/toolkit.hpp"
#include "linker/testbed.hpp"
#include "memmodel/addr_space.hpp"

using namespace healers;

namespace {

const core::Toolkit& toolkit() {
  static const core::Toolkit instance;
  return instance;
}

// Resident-set size from /proc/self/statm (Linux); 0 when unavailable.
std::uint64_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long total = 0;
  unsigned long long resident = 0;
  const int fields = std::fscanf(f, "%llu %llu", &total, &resident);
  std::fclose(f);
  return fields == 2 ? resident * 4096ULL : 0;
}

// Campaign wall time, measured on the FaultInjector itself: the toolkit's
// derive cache would otherwise serve every iteration after the first from
// memory. One configuration per engine mode:
//   fresh/jobs:1 — the deep baseline (rebuild a full process per probe),
//   fork/jobs:1  — COW fork from one shared pristine state, per-probe reset
//                  drops only the pages the probe privatized,
//   fork/jobs:8  — the same, fanned out over 8 worker threads,
//   pruned rows  — the subsumption-pruned lattice walk on top of fork mode:
//                  implied verdicts are synthesized, not executed
//                  (DESIGN.md, "Subsumption pruning").
// All configurations produce byte-identical campaign XML (enforced by
// test_injector_parallel and test_subsume). The engine counters expose the
// mechanism: fresh rows build one testbed per probe, fork rows build one per
// worker and fork the rest, and pruned rows split the probe count into
// executed vs implied. The unpruned rows pin prune off so their numbers stay
// comparable across revisions.
void BM_CampaignEngine(benchmark::State& state, const std::string& soname, int jobs,
                       bool snapshot_reset, bool prune) {
  injector::InjectorConfig cfg;
  cfg.seed = 2003;
  cfg.variants = 2;
  cfg.jobs = jobs;
  cfg.snapshot_reset = snapshot_reset;
  cfg.prune = prune;
  const simlib::SharedLibrary* lib = toolkit().library(soname);
  injector::FaultInjector injector(toolkit().catalog(), cfg);
  const std::uint64_t probes_before = injector.probes_executed();
  const injector::CampaignEngineStats engine_before = injector.engine_stats();
  for (auto _ : state) {
    const auto campaign = injector.run_campaign(*lib).value();
    benchmark::DoNotOptimize(campaign.total_failures());
  }
  const injector::CampaignEngineStats engine = injector.engine_stats();
  const double probes = static_cast<double>(injector.probes_executed() - probes_before);
  state.counters["probes/s"] = benchmark::Counter(probes, benchmark::Counter::kIsRate);
  state.counters["testbeds_built"] = benchmark::Counter(
      static_cast<double>(engine.testbeds_built - engine_before.testbeds_built),
      benchmark::Counter::kAvgIterations);
  state.counters["pages_dropped/probe"] =
      probes == 0 ? 0
                  : static_cast<double>(engine.pages_dropped - engine_before.pages_dropped) /
                        probes;
  if (prune) {
    // The injector's profile store stays warm across iterations, so later
    // campaigns prune a bit more than the first (averaged here).
    const double implied =
        static_cast<double>(engine.probes_implied - engine_before.probes_implied);
    state.counters["probes_executed"] =
        benchmark::Counter(probes, benchmark::Counter::kAvgIterations);
    state.counters["probes_implied"] =
        benchmark::Counter(implied, benchmark::Counter::kAvgIterations);
    state.counters["probe_reduction"] = probes + implied == 0 ? 0 : implied / (probes + implied);
  }
}

// The per-probe reset primitive in isolation: dirty a couple of pages (one
// heap allocation), then rewind the shell onto the shared pristine state.
// This is the cost fork mode pays per probe where fresh mode pays
// BM_FreshTestbedBuild.
void BM_StateForkReset(benchmark::State& state) {
  const auto pristine = linker::TestbedState::build(
      toolkit().catalog(), injector::CampaignParams{}.machine(), "bench stdin\n");
  auto shell = pristine->fork("bench-shell");
  for (auto _ : state) {
    benchmark::DoNotOptimize(shell->alloc_cstring("dirty a heap page"));
    pristine->reset(*shell);
  }
  const mem::CowStats stats = shell->machine().mem().cow_stats();
  state.counters["pages_dropped/reset"] = benchmark::Counter(
      static_cast<double>(stats.pages_dropped), benchmark::Counter::kAvgIterations);
}

// One probe of each kind in isolation: a supervised call on a forked
// libsimc shell, rewound onto its base snapshot before every call exactly
// as the campaign engine rewinds a worker's bed. The pass row is the cheap
// probe pruning removes; the crash rows are the failing probes every
// campaign executes, so crash/pass is what a failing probe costs against a
// passing one. crashes_unwound is 0 when each crash was latched and
// returned.
using ProbeArgs = std::vector<simlib::SimValue> (*)(linker::Process&);

std::vector<simlib::SimValue> valid_string_arg(linker::Process& p) {
  return {simlib::SimValue::ptr(p.rodata_cstring("a probe string"))};
}
std::vector<simlib::SimValue> null_arg(linker::Process&) { return {simlib::SimValue::null()}; }
std::vector<simlib::SimValue> wild_arg(linker::Process&) {
  return {simlib::SimValue::ptr(0x1234)};
}
std::vector<simlib::SimValue> non_file_args(linker::Process& p) {
  return {simlib::SimValue::ptr(p.rodata_cstring("a probe string")),
          simlib::SimValue::ptr(p.alloc_cstring("not a FILE object"))};
}

void BM_ProbeKind(benchmark::State& state, const char* symbol, ProbeArgs make_args,
                  bool crashes) {
  const auto pristine = linker::TestbedState::build(
      toolkit().catalog(), injector::CampaignParams{}.machine(),
      injector::FaultInjector::probe_stdin());
  auto shell = pristine->fork("bench-probe");
  const std::vector<simlib::SimValue> args = make_args(*shell);
  const linker::Process::Snapshot base = shell->snapshot();
  const linker::CallOutcome first = shell->supervised_call(symbol, args);
  if (first.robustness_failure() != crashes) {
    state.SkipWithError(("unexpected outcome: " + first.to_string()).c_str());
    return;
  }
  const std::uint64_t unwound_before = shell->crashes_unwound();
  for (auto _ : state) {
    shell->restore(base);
    benchmark::DoNotOptimize(shell->supervised_call(symbol, args).kind);
  }
  state.counters["crashes_unwound"] = static_cast<double>(shell->crashes_unwound() - unwound_before);
}

// The fresh-mode per-probe cost: construct a process and load the whole
// catalog from scratch — what every probe paid before testbed states forked.
void BM_FreshTestbedBuild(benchmark::State& state) {
  const linker::LibraryCatalog& catalog = toolkit().catalog();
  for (auto _ : state) {
    linker::Process process("bench-fresh", injector::CampaignParams{}.machine());
    process.state().stdin_content = "bench stdin\n";
    for (const std::string& soname : catalog.sonames()) {
      process.load_library(catalog.find(soname));
    }
    benchmark::DoNotOptimize(process.resolve("strlen"));
  }
}

// Memory footprint of coexisting probe states: take one snapshot per
// iteration (each with a freshly dirtied heap page, like a probe that ran),
// keep them all alive, and report resident bytes per state against the
// analytic deep-copy cost (total mapped bytes a byte-copying snapshot would
// duplicate). states/GB is how many probe states fit in a gigabyte.
// malloc_trim returns the heap's free pages to the kernel before the
// baseline is read, so the states fault in new pages instead of reusing
// what an earlier row or repetition freed.
void BM_CoexistingStates(benchmark::State& state) {
  const auto pristine = linker::TestbedState::build(
      toolkit().catalog(), injector::CampaignParams{}.machine(), "bench stdin\n");
  auto shell = pristine->fork("bench-shell");
  std::vector<linker::Process::Snapshot> states;
  states.reserve(4096);
  malloc_trim(0);
  const std::uint64_t rss_before = rss_bytes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(shell->alloc_cstring("one page of probe dirt"));
    states.push_back(shell->snapshot());
  }
  const std::uint64_t rss_after = rss_bytes();
  std::uint64_t mapped = 0;  // what a deep copy would duplicate per state
  for (const mem::RegionImage& ri : states.back().machine.space.regions()) {
    mapped += ri.size;
  }
  const double count = static_cast<double>(states.size());
  const double per_state =
      rss_after > rss_before ? static_cast<double>(rss_after - rss_before) / count : 0.0;
  state.counters["rss_bytes/state"] = per_state;
  state.counters["deepcopy_bytes/state"] = static_cast<double>(mapped);
  state.counters["states/GB"] = per_state > 0 ? (1024.0 * 1024.0 * 1024.0) / per_state : 0.0;
}

}  // namespace

BENCHMARK_CAPTURE(BM_CampaignEngine, libsimc_fresh_jobs1, "libsimc.so.1", 1, false, false)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CampaignEngine, libsimc_fork_jobs1, "libsimc.so.1", 1, true, false)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CampaignEngine, libsimc_fork_jobs8, "libsimc.so.1", 8, true, false)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CampaignEngine, libsimio_fresh_jobs1, "libsimio.so.1", 1, false, false)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CampaignEngine, libsimio_fork_jobs1, "libsimio.so.1", 1, true, false)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CampaignEngine, libsimio_fork_jobs8, "libsimio.so.1", 8, true, false)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CampaignEngine, libsimm_fresh_jobs1, "libsimm.so.1", 1, false, false)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CampaignEngine, libsimm_fork_jobs8, "libsimm.so.1", 8, true, false)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
// Pruned twins of the fork_jobs1 rows: the wall-time ratio against the
// matching unpruned row is the campaign speedup the lattice walk buys.
BENCHMARK_CAPTURE(BM_CampaignEngine, libsimc_pruned_fork_jobs1, "libsimc.so.1", 1, true, true)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CampaignEngine, libsimio_pruned_fork_jobs1, "libsimio.so.1", 1, true, true)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ProbeKind, pass_strlen, "strlen", valid_string_arg, false)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ProbeKind, crash_strlen_null, "strlen", null_arg, true)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ProbeKind, crash_strlen_wild, "strlen", wild_arg, true)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ProbeKind, crash_atoi_null, "atoi", null_arg, true)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ProbeKind, crash_fputs_non_file, "fputs", non_file_args, true)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_StateForkReset)->UseRealTime()->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FreshTestbedBuild)->UseRealTime()->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CoexistingStates)->Iterations(2048)->UseRealTime()->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
