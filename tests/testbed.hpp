// Shared test scaffolding: a process pre-loaded with the stock libraries
// plus terse call helpers, so library-behaviour tests read like the C they
// model. Shared static library instances keep per-test cost down (libraries
// are immutable; processes are per-test).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "injector/injector.hpp"
#include "linker/process.hpp"
#include "simlib/cerrno.hpp"
#include "simlib/library.hpp"
#include "support/rng.hpp"
#include "typelattice/testtype.hpp"

namespace healers::testbed {

inline const simlib::SharedLibrary& libsimc() {
  static const simlib::SharedLibrary lib = simlib::build_libsimc();
  return lib;
}
inline const simlib::SharedLibrary& libsimio() {
  static const simlib::SharedLibrary lib = simlib::build_libsimio();
  return lib;
}
inline const simlib::SharedLibrary& libsimm() {
  static const simlib::SharedLibrary lib = simlib::build_libsimm();
  return lib;
}

// A process with all three stock libraries loaded.
inline std::unique_ptr<linker::Process> make_process(const std::string& name = "test") {
  auto process = std::make_unique<linker::Process>(name);
  process->load_library(&libsimc());
  process->load_library(&libsimio());
  process->load_library(&libsimm());
  return process;
}

// One replayed probe: the case of test type `type` that went into argument
// `arg` (0-based), and what the call did.
struct ReplayedProbe {
  std::size_t arg = 0;
  lattice::TestTypeId type{};
  std::size_t case_index = 0;
  linker::CallOutcome outcome;
};

// Replays the probes a campaign runs on `function`, one fresh process per
// probe with `preloads` preloaded and the campaign's console input pending:
// every case of every test type of each argument's class goes into that
// argument, drawn from Rng(seed + case_index), with safe values in the
// other arguments.
inline std::vector<ReplayedProbe> replay_probes(
    const simlib::SharedLibrary& lib, const std::string& function, std::uint64_t seed,
    const std::vector<linker::InterpositionPtr>& preloads) {
  const parser::ManPage& page = lib.parsed_manpage(function).value();
  std::vector<ReplayedProbe> probes;
  for (std::size_t i = 0; i < page.proto.params.size(); ++i) {
    for (const lattice::TestTypeId id :
         lattice::test_types_for(page.proto.params[i].type.classify())) {
      for (std::size_t case_index = 0;; ++case_index) {
        auto proc = make_process();
        proc->state().stdin_content = injector::FaultInjector::probe_stdin();
        for (const linker::InterpositionPtr& preload : preloads) proc->preload(preload);
        Rng rng(seed + case_index);
        lattice::ValueFactory factory(*proc, rng);
        const auto cases = factory.cases_of(id, 1);
        if (case_index >= cases.size()) break;
        std::vector<simlib::SimValue> args;
        for (std::size_t j = 0; j < page.proto.params.size(); ++j) {
          args.push_back(j == i ? cases[case_index].value
                                : factory.safe_value(page, static_cast<int>(j) + 1));
        }
        probes.push_back({i, id, case_index, proc->supervised_call(function, std::move(args))});
      }
    }
  }
  return probes;
}

// Terse call helpers.
inline simlib::SimValue I(std::int64_t v) { return simlib::SimValue::integer(v); }
inline simlib::SimValue P(mem::Addr v) { return simlib::SimValue::ptr(v); }
inline simlib::SimValue F(double v) { return simlib::SimValue::fp(v); }

}  // namespace healers::testbed
