// Experiment D5 — repair-mode wrappers: the steady-state cost of the repair
// wrapper on a benign workload, against the bare library and the
// detect-only security wrapper (EXPERIMENTS.md, D5 cost table).
//
// The detect-vs-repair outcomes of the §3.4 attacks are deterministic and
// pinned in test_attacks and test_repair; examples/repair_demo walks the
// heap attack through all three postures.
//
// Expected shape: the benign-path overhead is a small constant per call, on
// par with the canary wrapper's plant/verify cost.
#include <benchmark/benchmark.h>

#include "core/toolkit.hpp"
#include "linker/testbed.hpp"

using namespace healers;
using simlib::SimValue;

namespace {

const core::Toolkit& toolkit() {
  static const core::Toolkit instance;
  return instance;
}

std::shared_ptr<gen::ComposedWrapper> repair_wrapper() {
  static const std::shared_ptr<gen::ComposedWrapper> wrapper = [] {
    const auto campaign = toolkit().derive_robust_api("libsimc.so.1").value();
    return toolkit().repair_wrapper("libsimc.so.1", campaign).value();
  }();
  return wrapper;
}

// Benign steady-state cost: malloc/free churn (the repair wrapper's extent
// table insert/erase per call) and bounded string traffic (rule lookup plus
// an in-bounds write-size measurement that concludes "no repair needed").
void BM_BenignWorkload(benchmark::State& state, int posture) {
  auto process = std::make_unique<linker::Process>("bench-benign");
  for (const std::string& soname : toolkit().catalog().sonames()) {
    process->load_library(toolkit().catalog().find(soname));
  }
  if (posture == 1) process->preload(toolkit().security_wrapper("libsimc.so.1").value());
  if (posture == 2) process->preload(repair_wrapper());
  const mem::Addr src = process->alloc_cstring("forty-two bytes of benign string traffic");
  for (auto _ : state) {
    process->machine().reset_steps();  // keep the hang oracle out of steady-state timing
    const mem::Addr p = process->call("malloc", {SimValue::integer(64)}).as_ptr();
    process->call("strcpy", {SimValue::ptr(p), SimValue::ptr(src)});
    benchmark::DoNotOptimize(process->call("strlen", {SimValue::ptr(p)}).as_int());
    process->call("free", {SimValue::ptr(p)});
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_BenignWorkload, unwrapped, 0)->UseRealTime()->Unit(benchmark::kNanosecond);
BENCHMARK_CAPTURE(BM_BenignWorkload, security, 1)->UseRealTime()->Unit(benchmark::kNanosecond);
BENCHMARK_CAPTURE(BM_BenignWorkload, repair, 2)->UseRealTime()->Unit(benchmark::kNanosecond);

BENCHMARK_MAIN();
