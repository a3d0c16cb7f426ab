// Demo §3.3 / Fig 5: the profiling wrapper end to end.
//
// A user program runs with the profiling wrapper preloaded; at termination
// the wrapper's statistics become a self-describing XML document that is
// shipped to the central collector server; the server extracts which
// functions were wrapped and what was collected, stores the document, and
// renders the Fig 5 report (call frequencies, execution-time percentages,
// error distribution classified by errno).
//
// Build & run:  ./build/examples/profiling_demo
#include <cstdio>

#include "core/toolkit.hpp"
#include "fleet/collector.hpp"
#include "profile/report.hpp"

using namespace healers;
using simlib::SimValue;

namespace {

linker::Executable text_tool() {
  linker::Executable exe;
  exe.name = "texttool";
  exe.needed = {"libsimc.so.1", "libsimio.so.1"};
  exe.undefined = {"fopen", "fgets", "fclose", "strlen", "strchr", "atoi", "toupper", "strcpy"};
  exe.entry = [](linker::Process& p) {
    // Seed the simulated filesystem with an input file.
    p.state().fs.put("/data/lines.txt", "alpha 1\nbeta 22\ngamma 333\n");
    const auto file = p.call("fopen", {SimValue::ptr(p.rodata_cstring("/data/lines.txt")),
                                       SimValue::ptr(p.rodata_cstring("r"))});
    const mem::Addr line = p.scratch(128, mem::Perm::kReadWrite, "line");
    int total = 0;
    while (p.call("fgets", {SimValue::ptr(line), SimValue::integer(128), file}).as_ptr() != 0) {
      p.call("strlen", {SimValue::ptr(line)});
      const auto digits = p.call("strchr", {SimValue::ptr(line), SimValue::integer(' ')});
      if (digits.as_ptr() != 0) {
        total += static_cast<int>(p.call("atoi", {SimValue::ptr(digits.as_ptr() + 1)}).as_int());
      }
      p.call("toupper", {SimValue::integer('x')});
    }
    p.call("fclose", {file});
    // A couple of failing calls so the errno histogram is non-trivial.
    p.call("fopen", {SimValue::ptr(p.rodata_cstring("/missing-1")),
                     SimValue::ptr(p.rodata_cstring("r"))});
    p.call("fopen", {SimValue::ptr(p.rodata_cstring("/missing-2")),
                     SimValue::ptr(p.rodata_cstring("r"))});
    return total;
  };
  return exe;
}

}  // namespace

int main() {
  core::Toolkit toolkit;

  // Profile BOTH libraries the app uses: two wrappers, stacked preloads.
  auto wrap_c = toolkit.profiling_wrapper("libsimc.so.1", /*include_trace=*/true).value();
  auto wrap_io = toolkit.profiling_wrapper("libsimio.so.1", /*include_trace=*/true).value();

  auto process = toolkit.spawn(text_tool(), {wrap_c, wrap_io});
  const auto outcome = process->run(text_tool().entry);
  std::printf("texttool run: %s\n\n", outcome.to_string().c_str());

  // "Upon termination, the wrapper generates a XML-style log file ..."
  const auto report_c = profile::build_report("texttool", wrap_c->name(), *wrap_c->stats());
  const auto report_io = profile::build_report("texttool", wrap_io->name(), *wrap_io->stats());
  const std::string doc_c = xml::serialize(profile::to_xml(report_c));
  const std::string doc_io = xml::serialize(profile::to_xml(report_io));
  std::printf("XML document shipped to the collector (libsimio wrapper):\n%s\n", doc_io.c_str());

  // "... sent to a central server ... stored for later processing." The
  // paper's single server is a fleet collector with one shard and one worker.
  fleet::FleetCollector server({.shards = 1, .workers = 1});
  server.submit(doc_c);
  server.submit(doc_io);
  server.flush();
  std::printf("%s\n", server.render_summary().c_str());

  // The Fig 5 view, table and chart ("automatically generate graphics").
  std::printf("%s\n", profile::render(report_io).c_str());
  std::printf("%s\n", profile::render_chart(report_c, profile::ChartMetric::kCalls).c_str());

  // The call trace collected by the log-call micro-generator.
  std::printf("first trace records (libsimio wrapper):\n");
  std::size_t shown = 0;
  for (const gen::TraceRecord& rec : wrap_io->stats()->trace()) {
    std::printf("  %s(", rec.symbol.c_str());
    for (std::size_t i = 0; i < rec.args.size(); ++i) {
      std::printf("%s%s", i != 0 ? ", " : "", rec.args[i].c_str());
    }
    std::printf(") -> %s\n", rec.outcome.c_str());
    if (++shown == 6) break;
  }
  return 0;
}
