// Experiment F5 — Fig 5 / demo §3.3: the profiling wrapper.
//
// Regenerates: the Fig 5 report (call frequencies, execution-time
// percentages, error distribution classified by errno) for a realistic
// text-processing workload, the XML document it ships, and the collector's
// cross-process aggregate — then benchmarks the per-call profiling cost and
// the report/collection pipeline.
//
// Expected shape: profiling adds a small constant per call (the paper's
// "low overhead during normal operations"), report generation is linear in
// the number of wrapped functions, and collection is linear in documents.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/toolkit.hpp"
#include "fleet/collector.hpp"
#include "profile/report.hpp"

using namespace healers;
using simlib::SimValue;

namespace {

const core::Toolkit& toolkit() {
  static const core::Toolkit instance;
  return instance;
}

// The demo workload: read lines, measure, convert, classify, log errors.
void run_workload(linker::Process& p, int rounds) {
  p.state().fs.put("/w/input.txt", "alpha 10\nbeta 20\ngamma 30\n");
  for (int r = 0; r < rounds; ++r) {
    const auto file = p.call("fopen", {SimValue::ptr(p.rodata_cstring("/w/input.txt")),
                                       SimValue::ptr(p.rodata_cstring("r"))});
    const mem::Addr line = p.scratch(128);
    while (p.call("fgets", {SimValue::ptr(line), SimValue::integer(128), file}).as_ptr() != 0) {
      p.call("strlen", {SimValue::ptr(line)});
      p.call("atoi", {SimValue::ptr(line)});
      p.call("toupper", {SimValue::integer('a')});
    }
    p.call("fclose", {file});
    p.machine().set_err(0);
    p.call("fopen", {SimValue::ptr(p.rodata_cstring("/missing")),
                     SimValue::ptr(p.rodata_cstring("r"))});  // ENOENT
  }
}

linker::Executable workload_exe() {
  linker::Executable exe;
  exe.name = "texttool";
  exe.needed = {"libsimc.so.1", "libsimio.so.1"};
  exe.undefined = {"fopen", "fgets", "fclose", "strlen", "atoi", "toupper"};
  return exe;
}

void print_report() {
  std::printf("==== Fig 5: profiling wrapper report ====\n\n");
  auto wrap_c = toolkit().profiling_wrapper("libsimc.so.1").value();
  auto wrap_io = toolkit().profiling_wrapper("libsimio.so.1").value();
  auto proc = toolkit().spawn(workload_exe(), {wrap_c, wrap_io});
  run_workload(*proc, 10);

  const auto report_io =
      profile::build_report("texttool", wrap_io->name(), *wrap_io->stats());
  const auto report_c = profile::build_report("texttool", wrap_c->name(), *wrap_c->stats());
  std::printf("%s\n%s\n", profile::render(report_io).c_str(), profile::render(report_c).c_str());

  // The paper's collector server: one shard, one (inline) flush worker.
  fleet::FleetCollector server({.shards = 1, .workers = 1});
  server.submit(xml::serialize(profile::to_xml(report_io)));
  server.submit(xml::serialize(profile::to_xml(report_c)));
  server.flush();
  std::printf("%s\n", server.render_summary().c_str());
}

void BM_WorkloadUnwrapped(benchmark::State& state) {
  for (auto _ : state) {
    auto proc = toolkit().spawn(workload_exe());
    run_workload(*proc, 1);
    benchmark::DoNotOptimize(proc->calls_dispatched());
  }
}

void BM_WorkloadProfiled(benchmark::State& state) {
  for (auto _ : state) {
    auto proc = toolkit().spawn(workload_exe(),
                                {toolkit().profiling_wrapper("libsimc.so.1").value(),
                                 toolkit().profiling_wrapper("libsimio.so.1").value()});
    run_workload(*proc, 1);
    benchmark::DoNotOptimize(proc->calls_dispatched());
  }
}

void BM_BuildReport(benchmark::State& state) {
  auto wrapper = toolkit().profiling_wrapper("libsimc.so.1").value();
  auto proc = toolkit().spawn(workload_exe(), {wrapper});
  run_workload(*proc, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        profile::build_report("texttool", wrapper->name(), *wrapper->stats()).total_calls());
  }
}

void BM_XmlShipAndIngest(benchmark::State& state) {
  auto wrapper = toolkit().profiling_wrapper("libsimc.so.1").value();
  auto proc = toolkit().spawn(workload_exe(), {wrapper});
  run_workload(*proc, 5);
  const auto report = profile::build_report("texttool", wrapper->name(), *wrapper->stats());
  for (auto _ : state) {
    fleet::FleetCollector server({.shards = 1, .workers = 1});
    server.submit(xml::serialize(profile::to_xml(report)));
    server.flush();
    benchmark::DoNotOptimize(server.aggregated());
  }
}

}  // namespace

BENCHMARK(BM_WorkloadUnwrapped)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WorkloadProfiled)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BuildReport)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_XmlShipAndIngest)->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  print_report();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
