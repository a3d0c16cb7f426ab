// Fault delivery (support/faults.hpp): inside simulated library code an
// access fault is latched in the address space and returned, not thrown.
// These tests pin the three promises that make that invisible outside the
// supervisor: a latched fault is the same fault the throwing path raised; a
// crash still ends a program, and still unwinds through wrappers; and the
// latch is a tripwire that no later tick or access can slip past.
#include <gtest/gtest.h>

#include <stdexcept>

#include "injector/injector.hpp"
#include "simlib/observer.hpp"
#include "testbed.hpp"

namespace healers {
namespace {

using linker::CallOutcome;
using testbed::I;
using testbed::P;

// Records what runs before and after the layers below it.
class TracingWrapper : public linker::Interposition {
 public:
  [[nodiscard]] std::string name() const override { return "tracing-wrapper"; }
  [[nodiscard]] const void* symbol_handle(const std::string&) const override { return this; }
  simlib::SimValue call_with_handle(const void*, const std::string& symbol,
                                    simlib::CallContext& ctx,
                                    const linker::NextFn& next) override {
    log.push_back("pre:" + symbol);
    simlib::SimValue ret = next(ctx);
    log.push_back("post:" + symbol);
    return ret;
  }

  std::vector<std::string> log;
};

// The fault a throwing accessor raises for `access`.
template <typename Access>
FaultRecord thrown_fault(Access&& access) {
  try {
    access();
  } catch (const AccessFault& fault) {
    return fault.record();
  }
  ADD_FAILURE() << "the access did not fault";
  return {};
}

void expect_same_fault(const FaultRecord& a, const FaultRecord& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.address, b.address);
  EXPECT_EQ(a.detail, b.detail);
}

TEST(FaultLatch, TryAccessorsLatchTheFaultTheirTwinsThrow) {
  mem::AddressSpace space;
  const mem::Region& ro =
      space.map(16, mem::Perm::kRead, mem::RegionKind::kRodata, "ro");
  const mem::Addr base = ro.base;
  std::uint8_t byte = 0;
  std::uint64_t word = 0;
  std::string text;

  const FaultRecord unmapped = thrown_fault([&] { (void)space.load8(0); });
  EXPECT_FALSE(space.try_load8(0, byte));
  ASSERT_TRUE(space.faulted());
  expect_same_fault(space.take_fault(), unmapped);
  EXPECT_FALSE(space.faulted());

  const FaultRecord readonly = thrown_fault([&] { space.store8(base, 1); });
  EXPECT_FALSE(space.try_store8(base, 1));
  expect_same_fault(space.take_fault(), readonly);
  EXPECT_EQ(space.load8(base), 0u);  // nothing was stored

  const FaultRecord straddle = thrown_fault([&] { (void)space.load64(base + 12); });
  EXPECT_FALSE(space.try_load64(base + 12, word));
  expect_same_fault(space.take_fault(), straddle);

  const FaultRecord checked = thrown_fault([&] { space.check(base, 17, mem::Perm::kRead); });
  EXPECT_FALSE(space.try_check(base, 17, mem::Perm::kRead));
  expect_same_fault(space.take_fault(), checked);

  // Sixteen zero-free bytes run into the guard gap after the region.
  space.loader_fill(base, "0123456789abcdef", 16);
  const FaultRecord unterminated = thrown_fault([&] { (void)space.read_cstring(base); });
  EXPECT_FALSE(space.try_read_cstring(base, text));
  expect_same_fault(space.take_fault(), unterminated);

  EXPECT_TRUE(space.try_load64(base, word));
  EXPECT_FALSE(space.faulted());
}

TEST(FaultLatch, TickAfterALatchedFaultThrowsIt) {
  mem::Machine machine;
  std::uint8_t byte = 0;
  ASSERT_FALSE(machine.mem().try_load8(0x1234, byte));
  const std::uint64_t steps = machine.steps();
  try {
    machine.tick();
    FAIL() << "tick() must throw the latched fault";
  } catch (const AccessFault& fault) {
    EXPECT_EQ(fault.address(), 0x1234u);
    EXPECT_STREQ(fault.what(), "SIGSEGV at 0x1234: unmapped address");
  }
  EXPECT_EQ(machine.steps(), steps);  // the tripwire takes no step
  EXPECT_FALSE(machine.faulted());    // raising the latch clears it
}

TEST(FaultLatch, CheckedAccessesAfterALatchedFaultThrowIt) {
  mem::Machine machine;
  const mem::Addr p = machine.heap().malloc(16);
  std::uint8_t byte = 0;
  ASSERT_FALSE(machine.mem().try_load8(0, byte));
  EXPECT_THROW((void)machine.mem().load8(p), AccessFault);
  ASSERT_FALSE(machine.mem().try_load8(0, byte));
  EXPECT_THROW((void)machine.mem().try_load8(p, byte), AccessFault);
  EXPECT_EQ(machine.mem().load8(p), 0u);
}

TEST(FaultLatch, RestoreClearsALatch) {
  mem::Machine machine;
  const mem::Machine::Snapshot snap = machine.snapshot();
  std::uint8_t byte = 0;
  ASSERT_FALSE(machine.mem().try_load8(0, byte));
  ASSERT_TRUE(machine.faulted());
  machine.restore(snap);
  EXPECT_FALSE(machine.faulted());
  EXPECT_NO_THROW(machine.tick());
}

struct DeliveryFixture : ::testing::Test {
  std::unique_ptr<linker::Process> proc = testbed::make_process();

  CallOutcome strlen_null_program() {
    return proc->run([](linker::Process& p) {
      p.call("strlen", {P(0)});
      p.call("puts", {P(p.rodata_cstring("unreachable"))});
      return 0;
    });
  }
};

TEST_F(DeliveryFixture, SupervisedCrashIsReturnedNotUnwound) {
  const CallOutcome outcome = proc->supervised_call("strlen", {P(0)});
  EXPECT_EQ(outcome.kind, CallOutcome::Kind::kCrash);
  EXPECT_EQ(outcome.signal, FaultKind::kSegv);
  EXPECT_EQ(outcome.detail, "SIGSEGV at 0x0: unmapped address");
  EXPECT_EQ(outcome.ret, simlib::SimValue::integer(0));
  EXPECT_EQ(proc->crashes_unwound(), 0u);
  EXPECT_FALSE(proc->machine().faulted());
  // The process stays usable after the reaped crash.
  EXPECT_EQ(proc->call("strlen", {P(proc->rodata_cstring("four"))}).as_int(), 4);
}

TEST_F(DeliveryFixture, CallRethrowsAtTheApplicationBoundary) {
  EXPECT_THROW(proc->call("strlen", {P(0)}), AccessFault);
  EXPECT_FALSE(proc->machine().faulted());
  EXPECT_EQ(proc->call("strlen", {P(proc->rodata_cstring("ok"))}).as_int(), 2);
}

TEST_F(DeliveryFixture, ProgramCrashUnderATracingWrapperIsUnchanged) {
  const CallOutcome bare = strlen_null_program();
  EXPECT_EQ(bare.kind, CallOutcome::Kind::kCrash);
  EXPECT_EQ(bare.detail, "SIGSEGV at 0x0: unmapped address");

  auto wrapped = testbed::make_process();
  auto tracer = std::make_shared<TracingWrapper>();
  wrapped->preload(tracer);
  proc = std::move(wrapped);
  const CallOutcome traced = strlen_null_program();
  EXPECT_EQ(traced.kind, bare.kind);
  EXPECT_EQ(traced.signal, bare.signal);
  EXPECT_EQ(traced.detail, bare.detail);
  EXPECT_EQ(traced.exit_code, bare.exit_code);
  // The fault unwound through the wrapper: its post-call code never ran,
  // and neither did the rest of the program.
  EXPECT_EQ(tracer->log, std::vector<std::string>{"pre:strlen"});
}

TEST_F(DeliveryFixture, WrappersSeeTheFaultUnwindUnderSupervisionToo) {
  auto tracer = std::make_shared<TracingWrapper>();
  proc->preload(tracer);
  const CallOutcome outcome = proc->supervised_call("strlen", {P(0)});
  EXPECT_EQ(outcome.kind, CallOutcome::Kind::kCrash);
  EXPECT_EQ(outcome.detail, "SIGSEGV at 0x0: unmapped address");
  EXPECT_EQ(tracer->log, std::vector<std::string>{"pre:strlen"});
  EXPECT_EQ(proc->crashes_unwound(), 1u);
}

TEST_F(DeliveryFixture, ALatchedFaultWinsOverAnExceptionThatEscapesAfterIt) {
  // A comparator that latches a fault and then throws: the supervisor
  // reports the latched crash, as if the fault had thrown where it happened.
  const mem::Addr compar =
      proc->register_callback("latch_then_throw", [](simlib::CallContext& cb) -> simlib::SimValue {
        cb.machine.mem().latch_fault(FaultKind::kSegv, 0x42, "latched first");
        throw std::logic_error("escaped after the latch");
      });
  const mem::Addr base = proc->alloc_cstring("ba");
  const CallOutcome outcome =
      proc->supervised_call("qsort", {P(base), I(2), I(1), P(compar)});
  EXPECT_EQ(outcome.kind, CallOutcome::Kind::kCrash);
  EXPECT_EQ(outcome.detail, "SIGSEGV at 0x42: latched first");
  EXPECT_FALSE(proc->machine().faulted());
}

// Counts reaped crashes; reads simulated memory in on_fault, as a dossier
// does.
class FaultCounter : public simlib::CallObserver {
 public:
  explicit FaultCounter(mem::Addr probe) : probe_(probe) {}
  void on_call(const std::string&, const std::vector<simlib::SimValue>&,
               const mem::Machine&) override {}
  void on_detection(simlib::CallContext&, simlib::DetectionKind, const std::string&,
                    const std::string&, mem::Addr) override {}
  void on_fault(const mem::Machine& machine, FaultKind, mem::Addr,
                const std::string& detail) override {
    (void)machine.mem().load8(probe_);
    details.push_back(detail);
  }

  std::vector<std::string> details;

 private:
  mem::Addr probe_;
};

TEST_F(DeliveryFixture, ALatchedFaultWinsOverAnAccessFaultThrownAfterIt) {
  FaultCounter counter(proc->alloc_cstring("x"));
  proc->set_observer(&counter);
  const mem::Addr compar =
      proc->register_callback("latch_then_fault", [](simlib::CallContext& cb) -> simlib::SimValue {
        cb.machine.mem().latch_fault(FaultKind::kSegv, 0x42, "latched first");
        throw AccessFault(FaultKind::kSegv, 0x99, "thrown second");
      });
  const mem::Addr base = proc->alloc_cstring("ba");
  const CallOutcome outcome =
      proc->supervised_call("qsort", {P(base), I(2), I(1), P(compar)});
  EXPECT_EQ(outcome.kind, CallOutcome::Kind::kCrash);
  EXPECT_EQ(outcome.detail, "SIGSEGV at 0x42: latched first");
  // The observer hears of the crash once, after the latch was taken.
  EXPECT_EQ(counter.details, std::vector<std::string>{"latched first"});
  EXPECT_EQ(proc->crashes_unwound(), 0u);
  proc->set_observer(nullptr);
}

TEST(CampaignFaults, NoCrashingProbeUnwinds) {
  // Every crash of the stock campaigns is latched and returned; a fault site
  // that still throws would show up here.
  linker::LibraryCatalog catalog;
  catalog.install(&testbed::libsimc());
  catalog.install(&testbed::libsimio());
  catalog.install(&testbed::libsimm());
  injector::InjectorConfig config;
  config.seed = 2003;
  for (const simlib::SharedLibrary* lib :
       {&testbed::libsimc(), &testbed::libsimio(), &testbed::libsimm()}) {
    injector::FaultInjector injector(catalog, config);
    const auto campaign = injector.run_campaign(*lib);
    ASSERT_TRUE(campaign.ok()) << lib->soname();
    EXPECT_EQ(campaign.value().engine.crashes_unwound, 0u) << lib->soname();
  }
}

}  // namespace
}  // namespace healers
