// Unit tests for the Machine: the hang oracle (step budget), the virtual
// cycle clock, errno, rodata interning, and the GOT-based hijack oracle.
#include <gtest/gtest.h>

#include "memmodel/machine.hpp"

namespace healers::mem {
namespace {

TEST(Machine, TickAccumulatesStepsAndCycles) {
  Machine machine;
  machine.tick(10);
  machine.tick();
  EXPECT_EQ(machine.steps(), 11u);
  EXPECT_EQ(machine.rdtsc(), 11u);
}

TEST(Machine, StepBudgetExhaustionRaisesHang) {
  MachineConfig config;
  config.step_budget = 100;
  Machine machine(config);
  machine.tick(100);
  EXPECT_THROW(machine.tick(), SimHang);
}

TEST(Machine, ResetStepsAllowsFreshBudget) {
  MachineConfig config;
  config.step_budget = 10;
  Machine machine(config);
  machine.tick(10);
  machine.reset_steps();
  EXPECT_NO_THROW(machine.tick(5));
}

TEST(Machine, AddCyclesDoesNotConsumeBudget) {
  MachineConfig config;
  config.step_budget = 10;
  Machine machine(config);
  machine.add_cycles(1000);
  EXPECT_EQ(machine.rdtsc(), 1000u);
  EXPECT_NO_THROW(machine.tick(10));
}

TEST(Machine, ErrnoCell) {
  Machine machine;
  EXPECT_EQ(machine.err(), 0);
  machine.set_err(22);
  EXPECT_EQ(machine.err(), 22);
}

TEST(Machine, InternedStringsAreReadOnlyAndDeduplicated) {
  Machine machine;
  const Addr a = machine.intern_string("hello");
  const Addr b = machine.intern_string("hello");
  const Addr c = machine.intern_string("world");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(machine.mem().read_cstring(a), "hello");
  EXPECT_THROW(machine.mem().store8(a, 'X'), AccessFault);
}

TEST(Machine, RegisterCodeIsIdempotentAndResolvable) {
  Machine machine;
  const Addr a = machine.register_code("fn");
  EXPECT_EQ(machine.register_code("fn"), a);
  ASSERT_TRUE(machine.resolve_code(a).has_value());
  EXPECT_EQ(*machine.resolve_code(a), "fn");
  EXPECT_FALSE(machine.resolve_code(a + 1).has_value());
}

TEST(Machine, GotSlotHoldsCodeAddressAndIsWritableData) {
  Machine machine;
  const Addr slot = machine.define_got_slot("puts");
  EXPECT_TRUE(machine.has_got_slot("puts"));
  EXPECT_EQ(machine.got_slot("puts"), slot);
  const Addr code = machine.mem().load64(slot);
  EXPECT_EQ(*machine.resolve_code(code), "puts");
  // GOT slots are ordinary writable data — that is the attack surface.
  EXPECT_NO_THROW(machine.mem().store64(slot, 0x12345));
}

TEST(Machine, CallThroughIntactGotResolvesCallee) {
  Machine machine;
  machine.define_got_slot("strcpy");
  EXPECT_EQ(machine.call_through_got("strcpy"), "strcpy");
}

TEST(Machine, CallThroughOverwrittenGotHijacks) {
  Machine machine;
  const Addr slot = machine.define_got_slot("puts");
  const Addr shellcode = machine.heap().malloc(64);
  machine.mem().store64(slot, shellcode);
  EXPECT_THROW(machine.call_through_got("puts"), ControlFlowHijack);
}

TEST(Machine, GotRetargetingToOtherCodeIsFollowedNotFlagged) {
  // An IAT-style redirect to REAL code is not a hijack — the oracle only
  // fires for non-code targets.
  Machine machine;
  machine.define_got_slot("puts");
  const Addr other = machine.register_code("evil_but_real");
  machine.mem().store64(machine.got_slot("puts"), other);
  EXPECT_EQ(machine.call_through_got("puts"), "evil_but_real");
}

TEST(Machine, UnknownGotSlotThrowsInvalidArgument) {
  Machine machine;
  EXPECT_FALSE(machine.has_got_slot("nope"));
  EXPECT_THROW((void)machine.got_slot("nope"), std::invalid_argument);
}

TEST(Machine, HeapAndStackAreUsable) {
  Machine machine;
  const Addr p = machine.heap().malloc(64);
  ASSERT_NE(p, 0u);
  machine.mem().write_cstring(p, "x");
  machine.stack().push("main", 32, 0);
  EXPECT_EQ(machine.stack().depth(), 1u);
}

TEST(Machine, RestoreRewindsLoaderTablesAcrossDivergedBranches) {
  // Both branches grow every loader table by one entry: equal sizes, other
  // contents. restore() must bring back the snapshot's own entries.
  Machine machine;
  const Machine::Snapshot a = machine.snapshot();
  const Addr x = machine.intern_string("x-string");
  const Addr fn_x = machine.register_code("fn_x");
  const Addr got_x = machine.define_got_slot("got_x");
  const Machine::Snapshot b = machine.snapshot();
  machine.restore(a);
  (void)machine.intern_string("y-string");
  (void)machine.register_code("fn_y");
  (void)machine.define_got_slot("got_y");
  machine.restore(b);
  EXPECT_EQ(machine.intern_string("x-string"), x);
  EXPECT_EQ(machine.resolve_code(fn_x), "fn_x");
  EXPECT_EQ(machine.find_got_slot("got_x"), got_x);
  EXPECT_FALSE(machine.has_got_slot("got_y"));
}

TEST(Machine, SnapshotsShareUnchangedLoaderTables) {
  Machine machine;
  (void)machine.intern_string("shared");
  const Machine::Snapshot first = machine.snapshot();
  const Machine::Snapshot second = machine.snapshot();
  EXPECT_EQ(first.interned, second.interned);
  EXPECT_EQ(first.code, second.code);
  // A change refreezes only the table it touched.
  (void)machine.register_code("fresh");
  const Machine::Snapshot third = machine.snapshot();
  EXPECT_EQ(third.interned, second.interned);
  EXPECT_NE(third.code, second.code);
  EXPECT_EQ(third.got_slots, second.got_slots);
}

TEST(Machine, ConfigSizesRespected) {
  MachineConfig config;
  config.heap_size = 128 << 10;
  config.stack_size = 8 << 10;
  Machine machine(config);
  EXPECT_EQ(machine.heap().arena_size(), 128u << 10);
  EXPECT_EQ(machine.stack().region_size(), 8u << 10);
}

}  // namespace
}  // namespace healers::mem
