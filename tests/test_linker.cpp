// Unit tests for the simulated dynamic linker: symbol resolution order,
// LD_PRELOAD interposition semantics, supervised outcomes, the GOT hop, and
// executable inspection (Fig 4).
#include <gtest/gtest.h>

#include "linker/executable.hpp"
#include "testbed.hpp"

namespace healers::linker {
namespace {

using testbed::F;
using testbed::I;
using testbed::P;

// A tiny scripted wrapper for interposition-order tests.
class TraceWrapper : public Interposition {
 public:
  TraceWrapper(std::string name, std::vector<std::string>& log, std::string only = "")
      : name_(std::move(name)), log_(log), only_(std::move(only)) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] const void* symbol_handle(const std::string& symbol) const override {
    return (only_.empty() || symbol == only_) ? this : nullptr;
  }
  simlib::SimValue call_with_handle(const void*, const std::string& symbol,
                                    simlib::CallContext& ctx, const NextFn& next) override {
    log_.push_back(name_ + ":pre:" + symbol);
    simlib::SimValue ret = next(ctx);
    log_.push_back(name_ + ":post:" + symbol);
    return ret;
  }

 private:
  std::string name_;
  std::vector<std::string>& log_;
  std::string only_;
};

// A wrapper that vetoes calls (containment-style).
class VetoWrapper : public Interposition {
 public:
  [[nodiscard]] std::string name() const override { return "veto"; }
  [[nodiscard]] const void* symbol_handle(const std::string& symbol) const override {
    return symbol == "strlen" ? this : nullptr;
  }
  simlib::SimValue call_with_handle(const void*, const std::string&, simlib::CallContext&,
                                    const NextFn&) override {
    return simlib::SimValue::integer(-99);
  }
};

TEST(Process, ResolvesSymbolsInLoadOrder) {
  auto proc = testbed::make_process();
  const simlib::Symbol* symbol = proc->resolve("strcpy");
  ASSERT_NE(symbol, nullptr);
  EXPECT_EQ(symbol->name, "strcpy");
  EXPECT_EQ(proc->resolve("no_such_fn"), nullptr);
}

TEST(Process, CallToUnresolvedSymbolCrashes) {
  auto proc = testbed::make_process();
  const auto outcome = proc->supervised_call("gethostbyname", {P(0)});
  EXPECT_EQ(outcome.kind, CallOutcome::Kind::kCrash);
  EXPECT_NE(outcome.detail.find("unresolved symbol"), std::string::npos);
}

TEST(Process, FirstLibraryWins) {
  // Two libraries defining the same symbol: the earlier-loaded one resolves.
  simlib::SharedLibrary a("liba.so", "1");
  simlib::SharedLibrary b("libb.so", "1");
  auto make = [](int value) {
    simlib::Symbol symbol;
    symbol.name = "whoami";
    symbol.declaration = "int whoami(void);";
    symbol.manpage = "NAME\n  whoami - id\nSYNOPSIS\n  int whoami(void);\nNOTES\n";
    symbol.fn = [value](simlib::CallContext&) { return simlib::SimValue::integer(value); };
    return symbol;
  };
  a.add(make(1));
  b.add(make(2));
  Process proc("t");
  proc.load_library(&a);
  proc.load_library(&b);
  EXPECT_EQ(proc.call("whoami", {}).as_int(), 1);
}

TEST(Process, PreloadOrderIsOutermostFirst) {
  auto proc = testbed::make_process();
  std::vector<std::string> log;
  proc->preload(std::make_shared<TraceWrapper>("w1", log));
  proc->preload(std::make_shared<TraceWrapper>("w2", log));
  proc->call("strlen", {P(proc->alloc_cstring("abc"))});
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], "w1:pre:strlen");
  EXPECT_EQ(log[1], "w2:pre:strlen");
  EXPECT_EQ(log[2], "w2:post:strlen");
  EXPECT_EQ(log[3], "w1:post:strlen");
}

TEST(Process, NonWrappedSymbolsBypassWrapper) {
  auto proc = testbed::make_process();
  std::vector<std::string> log;
  proc->preload(std::make_shared<TraceWrapper>("w", log, "strcpy"));
  proc->call("strlen", {P(proc->alloc_cstring("abc"))});
  EXPECT_TRUE(log.empty());
  const mem::Addr dst = proc->scratch(16);
  proc->call("strcpy", {P(dst), P(proc->alloc_cstring("x"))});
  EXPECT_EQ(log.size(), 2u);
}

TEST(Process, WrapperCanVetoCall) {
  auto proc = testbed::make_process();
  proc->preload(std::make_shared<VetoWrapper>());
  // NULL would crash strlen; the veto wrapper returns -99 instead.
  EXPECT_EQ(proc->call("strlen", {P(0)}).as_int(), -99);
}

TEST(Process, SupervisedCallClassifiesOutcomes) {
  auto proc = testbed::make_process();
  const auto ok = proc->supervised_call("strlen", {P(proc->alloc_cstring("four"))});
  EXPECT_EQ(ok.kind, CallOutcome::Kind::kReturned);
  EXPECT_EQ(ok.ret.as_int(), 4);
  EXPECT_FALSE(ok.robustness_failure());

  const auto crash = proc->supervised_call("strlen", {P(0)});
  EXPECT_EQ(crash.kind, CallOutcome::Kind::kCrash);
  EXPECT_TRUE(crash.robustness_failure());

  const auto abort_ = proc->supervised_call("abort", {});
  EXPECT_EQ(abort_.kind, CallOutcome::Kind::kAbort);
  EXPECT_TRUE(abort_.robustness_failure());
}

TEST(Process, SupervisedHangDetection) {
  mem::MachineConfig config;
  config.step_budget = 1000;
  Process proc("hang", config);
  proc.load_library(&testbed::libsimc());
  // memset over a large still-mapped buffer exceeds the budget.
  const mem::Addr big = proc.scratch(1 << 16);
  const auto outcome = proc.supervised_call("memset", {P(big), I(0), I(1 << 16)});
  EXPECT_EQ(outcome.kind, CallOutcome::Kind::kHang);
  EXPECT_TRUE(outcome.robustness_failure());
}

TEST(Process, RunReapsProgramOutcomes) {
  auto proc = testbed::make_process();
  const auto ok = proc->run([](Process&) { return 5; });
  EXPECT_EQ(ok.kind, CallOutcome::Kind::kExit);
  EXPECT_EQ(ok.exit_code, 5);

  auto proc2 = testbed::make_process();
  const auto crash = proc2->run([](Process& p) {
    p.call("strlen", {P(0)});
    return 0;
  });
  EXPECT_EQ(crash.kind, CallOutcome::Kind::kCrash);

  auto proc3 = testbed::make_process();
  const auto exited = proc3->run([](Process& p) {
    p.call("exit", {I(9)});
    return 0;  // unreachable
  });
  EXPECT_EQ(exited.kind, CallOutcome::Kind::kExit);
  EXPECT_EQ(exited.exit_code, 9);
}

TEST(Process, CallsDispatchedCounts) {
  auto proc = testbed::make_process();
  const mem::Addr s = proc->alloc_cstring("x");
  proc->call("strlen", {P(s)});
  proc->call("strlen", {P(s)});
  EXPECT_EQ(proc->calls_dispatched(), 2u);
}

TEST(Process, GotHopFlagsOverwrittenSlot) {
  auto proc = testbed::make_process();
  const mem::Addr slot = proc->machine().got_slot("strlen");
  proc->machine().mem().store64(slot, 0x1234);
  const auto outcome = proc->supervised_call("strlen", {P(proc->alloc_cstring("x"))});
  EXPECT_EQ(outcome.kind, CallOutcome::Kind::kHijack);
}

// What one call through strlen's slot, rewritten to `value`, observed: its
// outcome and the steps and dispatches it added. With `cache_first` the
// process calls strlen once beforehand, so its dispatch plan is cached when
// the slot is rewritten.
struct RewrittenCall {
  CallOutcome::Kind kind;
  std::string result;
  std::uint64_t steps;
  std::uint64_t dispatched;
  bool operator==(const RewrittenCall&) const = default;
};

RewrittenCall call_rewritten_strlen(bool cache_first, mem::Addr value) {
  auto proc = testbed::make_process();
  const mem::Addr s = proc->alloc_cstring("42");
  if (cache_first) {
    EXPECT_EQ(proc->call("strlen", {P(s)}).as_int(), 2);
  }
  mem::Machine& machine = proc->machine();
  machine.mem().store64(machine.got_slot("strlen"), value);
  const std::uint64_t steps = machine.steps();
  const std::uint64_t dispatched = proc->calls_dispatched();
  const CallOutcome outcome = proc->supervised_call("strlen", {P(s)});
  return {outcome.kind, outcome.kind == CallOutcome::Kind::kHijack ? outcome.detail
                                                                   : outcome.ret.to_string(),
          machine.steps() - steps, proc->calls_dispatched() - dispatched};
}

// atoi's code address, the same in every process testbed::make_process builds.
mem::Addr atoi_code() {
  auto proc = testbed::make_process();
  return proc->machine().mem().load64(proc->machine().got_slot("atoi"));
}

TEST(Process, GotHopFlagsSlotOverwrittenAfterItsPlanWasCached) {
  const RewrittenCall cached = call_rewritten_strlen(/*cache_first=*/true, 0x1234);
  EXPECT_EQ(cached.kind, CallOutcome::Kind::kHijack);
  EXPECT_EQ(cached.result,
            "indirect call through GOT slot 'strlen' jumped to 0x1234 (not program code)");
  EXPECT_EQ(cached.steps, 1u);  // the slot's load, and nothing after it
  EXPECT_EQ(cached.dispatched, 0u);
  EXPECT_EQ(cached, call_rewritten_strlen(/*cache_first=*/false, 0x1234));
}

TEST(Process, GotSlotRewrittenToOtherCodeDispatchesThere) {
  // A redirect to real code is followed, whether or not strlen's plan was
  // cached: the call lands in atoi.
  const RewrittenCall cached = call_rewritten_strlen(/*cache_first=*/true, atoi_code());
  EXPECT_EQ(cached.kind, CallOutcome::Kind::kReturned);
  EXPECT_EQ(cached.result, "42");
  EXPECT_EQ(cached.dispatched, 1u);
  EXPECT_EQ(cached, call_rewritten_strlen(/*cache_first=*/false, atoi_code()));
}

TEST(Process, CallsDispatchedCountsOnlyCallsThatReachCode) {
  auto proc = testbed::make_process();
  mem::Machine& machine = proc->machine();
  const mem::Addr s = proc->alloc_cstring("42");
  const mem::Addr slot = machine.got_slot("strlen");
  const mem::Addr code = machine.mem().load64(slot);
  proc->call("strlen", {P(s)});  // builds the plan
  proc->call("strlen", {P(s)});  // through the cached plan
  EXPECT_EQ(proc->calls_dispatched(), 2u);
  machine.mem().store64(slot, 0x1234);
  EXPECT_EQ(proc->supervised_call("strlen", {P(s)}).kind, CallOutcome::Kind::kHijack);
  EXPECT_EQ(proc->calls_dispatched(), 2u);
  machine.mem().store64(slot, atoi_code());
  EXPECT_EQ(proc->call("strlen", {P(s)}).as_int(), 42);
  machine.mem().store64(slot, code);
  EXPECT_EQ(proc->call("strlen", {P(s)}).as_int(), 2);
  EXPECT_EQ(proc->calls_dispatched(), 4u);
}

TEST(Process, OutcomeToStringIsReadable) {
  CallOutcome outcome;
  outcome.kind = CallOutcome::Kind::kExit;
  outcome.exit_code = 3;
  EXPECT_EQ(outcome.to_string(), "exit 3");
  outcome.kind = CallOutcome::Kind::kReturned;
  outcome.ret = simlib::SimValue::integer(7);
  EXPECT_EQ(outcome.to_string(), "returned 7");
}

// --- catalog & executables (Fig 4) -----------------------------------------

TEST(LibraryCatalog, InstallFindList) {
  LibraryCatalog catalog;
  catalog.install(&testbed::libsimc());
  catalog.install(&testbed::libsimm());
  EXPECT_NE(catalog.find("libsimc.so.1"), nullptr);
  EXPECT_EQ(catalog.find("libzzz.so"), nullptr);
  EXPECT_EQ(catalog.sonames().size(), 2u);
}

TEST(InspectExecutable, ResolvesSymbolsToProviders) {
  LibraryCatalog catalog;
  catalog.install(&testbed::libsimc());
  catalog.install(&testbed::libsimm());
  Executable exe;
  exe.name = "app";
  exe.needed = {"libsimc.so.1", "libsimm.so.1"};
  exe.undefined = {"strcpy", "sqrt", "gethostbyname"};
  const LinkMap map = inspect_executable(exe, catalog);
  ASSERT_EQ(map.resolutions.size(), 3u);
  EXPECT_EQ(map.resolutions[0].provider, "libsimc.so.1");
  EXPECT_EQ(map.resolutions[1].provider, "libsimm.so.1");
  EXPECT_EQ(map.resolutions[2].provider, "");
  ASSERT_EQ(map.unresolved.size(), 1u);
  EXPECT_EQ(map.unresolved[0], "gethostbyname");
  EXPECT_NE(map.to_text().find("gethostbyname -> <unresolved>"), std::string::npos);
}

TEST(InspectExecutable, ResolutionRespectsNeededOrder) {
  LibraryCatalog catalog;
  catalog.install(&testbed::libsimc());
  Executable exe;
  exe.name = "app";
  exe.needed = {"libsimc.so.1"};
  exe.undefined = {"malloc"};
  EXPECT_EQ(inspect_executable(exe, catalog).resolutions[0].provider, "libsimc.so.1");
}

TEST(Spawn, LoadsNeededLibrariesAndPreloads) {
  LibraryCatalog catalog;
  catalog.install(&testbed::libsimc());
  std::vector<std::string> log;
  Executable exe;
  exe.name = "app";
  exe.needed = {"libsimc.so.1"};
  exe.undefined = {"strlen"};
  exe.entry = [](Process& p) {
    return static_cast<int>(p.call("strlen", {P(p.rodata_cstring("abc"))}).as_int());
  };
  auto proc = spawn(exe, catalog, {std::make_shared<TraceWrapper>("w", log)});
  const auto outcome = proc->run(exe.entry);
  EXPECT_EQ(outcome.exit_code, 3);
  EXPECT_EQ(log.size(), 2u);
}

TEST(ValidateExecutable, ReportsUndeclaredImports) {
  LibraryCatalog catalog;
  catalog.install(&testbed::libsimc());
  Executable exe;
  exe.name = "sloppy";
  exe.needed = {"libsimc.so.1"};
  exe.undefined = {"strlen"};  // calls atoi too, but does not declare it
  exe.entry = [](Process& p) {
    p.call("strlen", {P(p.rodata_cstring("ab"))});
    p.call("atoi", {P(p.rodata_cstring("1"))});
    return 0;
  };
  CallOutcome outcome;
  const auto missing = validate_executable(exe, catalog, &outcome);
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], "atoi");
  EXPECT_EQ(outcome.kind, CallOutcome::Kind::kExit);
}

TEST(ValidateExecutable, CleanImportListReportsNothing) {
  LibraryCatalog catalog;
  catalog.install(&testbed::libsimc());
  Executable exe;
  exe.name = "tidy";
  exe.needed = {"libsimc.so.1"};
  exe.undefined = {"strlen"};
  exe.entry = [](Process& p) {
    p.call("strlen", {P(p.rodata_cstring("ab"))});
    return 0;
  };
  EXPECT_TRUE(validate_executable(exe, catalog).empty());
}

TEST(Spawn, MissingLibraryThrows) {
  LibraryCatalog catalog;
  Executable exe;
  exe.name = "app";
  exe.needed = {"libmissing.so"};
  EXPECT_THROW((void)spawn(exe, catalog), std::runtime_error);
}

TEST(Spawn, MissingLibraryNamesTheCulprit) {
  LibraryCatalog catalog;
  catalog.install(&testbed::libsimc());
  Executable exe;
  exe.name = "app";
  exe.needed = {"libsimc.so.1", "libmissing.so"};
  try {
    (void)spawn(exe, catalog);
    FAIL() << "spawn with a missing library must throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("libmissing.so"), std::string::npos);
  }
}

TEST(Process, DuplicatePreloadIsRejected) {
  auto proc = testbed::make_process();
  std::vector<std::string> log;
  proc->preload(std::make_shared<TraceWrapper>("tracer", log));
  // The same *instance* twice (and null) are rejected; a distinct instance
  // sharing the family name is a legitimate stack. The preload list and its
  // dispatch behaviour must be unchanged by the failed attempts.
  EXPECT_THROW(proc->preload(proc->preloads().front()), std::invalid_argument);
  EXPECT_THROW(proc->preload(nullptr), std::invalid_argument);
  EXPECT_EQ(proc->preloads().size(), 1u);
  const mem::Addr s = proc->alloc_cstring("abc");
  EXPECT_EQ(proc->call("strlen", {P(s)}).as_int(), 3);
  EXPECT_EQ(log.size(), 2u);  // one pre + one post: the tracer is not doubled
}

TEST(Process, DispatchPlansInvalidateWhenTheLoadSetGrows) {
  auto proc = std::make_unique<Process>("app");
  proc->load_library(&testbed::libsimc());
  const mem::Addr s = proc->alloc_cstring("abc");
  // Build (and cache) a dispatch plan, and verify the load set's limits.
  EXPECT_EQ(proc->call("strlen", {P(s)}).as_int(), 3);
  EXPECT_EQ(proc->resolve("sqrt"), nullptr);
  // Installing another library must invalidate the cached plans: the new
  // exports resolve and dispatch, and existing plans still work.
  proc->load_library(&testbed::libsimm());
  ASSERT_NE(proc->resolve("sqrt"), nullptr);
  EXPECT_EQ(proc->call("sqrt", {F(9.0)}).as_double(), 3.0);
  EXPECT_EQ(proc->call("strlen", {P(s)}).as_int(), 3);
}

}  // namespace
}  // namespace healers::linker
