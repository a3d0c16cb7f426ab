#include "attacks/attacks.hpp"

#include <sstream>

#include "memmodel/heap.hpp"
#include "simlib/value.hpp"

namespace healers::attacks {

namespace {

using linker::CallOutcome;
using linker::Process;
using mem::Addr;
using simlib::SimValue;

// Writes a 64-bit little-endian value into attacker-controlled input bytes.
void put64(std::vector<std::byte>& bytes, std::size_t offset, std::uint64_t value) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[offset + i] = std::byte{static_cast<std::uint8_t>(value >> (8 * i))};
  }
}

// The heap victim: a "network daemon" that copies an attacker-controlled
// message into a fixed 64-byte heap buffer with no bounds check, then frees
// the buffer and logs. The attacker crafts the message for the classic
// unsafe-unlink exploit (layout knowledge of the chunked heap is assumed,
// as real attackers assumed dlmalloc's).
int heap_victim_main(Process& p, std::string& log) {
  mem::Machine& m = p.machine();
  // Narrates incrementally: when the exploit fires mid-run, the log still
  // shows every step up to the hijack.
  const auto note = [&log](std::ostringstream& line) {
    log += line.str();
    log += '\n';
    line.str("");
  };
  std::ostringstream out;

  // Startup banner. Also binds puts' GOT slot before the attacker reads its
  // address below — under demand loading the slot does not exist until the
  // first call faults it in.
  p.call("puts", {SimValue::ptr(p.rodata_cstring("netd: ready"))});

  const Addr msg = p.call("malloc", {SimValue::integer(64)}).as_ptr();
  const Addr session = p.call("malloc", {SimValue::integer(64)}).as_ptr();
  p.call("strcpy", {SimValue::ptr(session), SimValue::ptr(p.rodata_cstring("session:admin"))});
  out << "victim: message buffer at 0x" << std::hex << msg << ", session object at 0x" << session
      << std::dec;
  note(out);

  // --- the attacker crafts the message -----------------------------------
  // Assumed unprotected layout: malloc(64) -> 80-byte chunk, so the
  // neighbour's header sits exactly 64 bytes past the message buffer.
  //   [64B pad][fake size|flags][fake prev_size][fake fd][fake bk]
  // fd = GOT(puts) - 24 and bk = msg, so free(msg)'s forward-coalesce
  // unlink writes: *(fd+24) = bk  =>  GOT(puts) = msg  (shellcode), and
  //                *(bk+16) = fd  =>  harmless write into the message body.
  const Addr got_puts = m.got_slot("puts");
  std::vector<std::byte> payload(96, std::byte{'A'});
  put64(payload, 64, 80);             // fake chunk size, in-use bit CLEAR
  put64(payload, 72, 80);             // fake prev_size
  put64(payload, 80, got_puts - 24);  // fd
  put64(payload, 88, msg);            // bk -> "shellcode" = the message itself
  out << "attacker: crafted " << payload.size() << "-byte unlink payload (fd=GOT(puts)-24, "
      << "bk=msg)";
  note(out);

  const Addr input = p.scratch(256, mem::Perm::kReadWrite, "net_input");
  m.mem().write_bytes(input, payload.data(), payload.size());

  // --- the vulnerable copy ------------------------------------------------
  p.call("memcpy", {SimValue::ptr(msg), SimValue::ptr(input),
                    SimValue::integer(static_cast<std::int64_t>(payload.size()))});
  out << "victim: copied attacker message into the 64-byte buffer (overflow)";
  note(out);

  // --- victim's own cleanup executes the exploit --------------------------
  p.call("free", {SimValue::ptr(msg)});
  out << "victim: freed the message buffer (unsafe unlink ran)";
  note(out);

  // --- next library call jumps through the rewritten GOT slot -------------
  p.call("puts", {SimValue::ptr(p.rodata_cstring("request handled"))});
  out << "victim: logged and exited normally";
  note(out);
  return 0;
}

// The stack victim: handle_request() copies attacker input into a 64-byte
// stack buffer with strcpy; the input is long enough to overrun the frame's
// saved return address.
int stack_victim_main(Process& p, std::string& log) {
  mem::Machine& m = p.machine();
  const auto note = [&log](std::ostringstream& line) {
    log += line.str();
    log += '\n';
    line.str("");
  };
  std::ostringstream out;

  const Addr ret_target = m.register_code("main+0x42");
  const mem::Frame& frame = m.stack().push("handle_request", 64, ret_target);
  const Addr buf = m.stack().alloc_local(64);
  const std::uint64_t room = frame.ret_slot - buf;
  out << "victim: handle_request frame, 64-byte buffer at 0x" << std::hex << buf
      << ", return address slot at 0x" << frame.ret_slot << std::dec << " (" << room
      << " bytes of room)";
  note(out);

  // Attacker input: padding up to the return slot, then a fake return
  // address (printable, NUL-free — strcpy carries it through; its
  // terminating NUL becomes the address's top byte, landing exactly on the
  // last byte of the slot).
  std::string payload(room, 'A');
  for (int i = 0; i < 7; ++i) payload += 'B';  // ret becomes 0x00424242424242
  const Addr input = p.scratch(payload.size() + 16, mem::Perm::kReadWrite, "net_input");
  m.mem().write_cstring(input, payload);
  out << "attacker: " << payload.size() << "-byte string overruns the saved return address";
  note(out);

  p.call("strcpy", {SimValue::ptr(buf), SimValue::ptr(input)});
  out << "victim: strcpy into the stack buffer completed (overflow)";
  note(out);

  const mem::Stack::PopResult popped = m.stack().pop();
  if (popped.corrupted()) {
    // The simulated `ret`: control transfers to the attacker's value.
    throw ControlFlowHijack("return to 0x" + to_hex(popped.stored_ret) +
                            " (attacker-controlled)");
  }
  out << "victim: returned normally";
  note(out);
  return 0;
}

AttackResult run_attack(const linker::Executable& exe, const linker::LibraryCatalog& catalog,
                        std::vector<linker::InterpositionPtr> preloads,
                        int (*main_fn)(Process&, std::string&),
                        bool hardened_allocator = false,
                        simlib::CallObserver* observer = nullptr) {
  AttackResult result;
  auto process = linker::spawn(exe, catalog, std::move(preloads));
  process->machine().heap().set_safe_unlink(hardened_allocator);
  process->set_observer(observer);
  result.outcome = process->run(
      [&result, main_fn](Process& p) { return main_fn(p, result.narrative); });
  result.hijack_succeeded = result.outcome.kind == CallOutcome::Kind::kHijack;
  result.blocked_by_wrapper = result.outcome.kind == CallOutcome::Kind::kAbort &&
                              result.outcome.detail.find("security wrapper") != std::string::npos;
  // Repair-mode acceptance surface: the victim ran to completion AND its
  // stdout shows the post-attack work actually happened (docs/repair.md).
  // Main-driven victims come back as kReturned; exe.entry runs finish as an
  // orderly kExit 0.
  result.survived = result.outcome.kind == CallOutcome::Kind::kReturned ||
                    (result.outcome.kind == CallOutcome::Kind::kExit &&
                     result.outcome.exit_code == 0);
  result.stdout_text = process->state().stdout_capture;
  result.narrative += "outcome: " + result.outcome.to_string() + "\n";
  return result;
}

}  // namespace

linker::Executable heap_victim_executable() {
  linker::Executable exe;
  exe.name = "netd";  // the "root privileged program" of demo 3.4
  exe.needed = {"libsimc.so.1", "libsimio.so.1"};
  exe.undefined = {"malloc", "free", "memcpy", "strcpy", "puts"};
  exe.entry = [](Process& p) {
    std::string ignored;
    return heap_victim_main(p, ignored);
  };
  return exe;
}

linker::Executable stack_victim_executable() {
  linker::Executable exe;
  exe.name = "reqhandler";
  exe.needed = {"libsimc.so.1"};
  exe.undefined = {"strcpy"};
  exe.entry = [](Process& p) {
    std::string ignored;
    return stack_victim_main(p, ignored);
  };
  return exe;
}

linker::Executable drift_victim_executable() {
  linker::Executable exe;
  exe.name = "statsd";
  exe.needed = {"libsimc.so.1", "libsimio.so.1"};
  // Stale on purpose: the v2 sampling path below also calls rand(), but the
  // import list still describes v1.
  exe.undefined = {"strlen", "puts"};
  exe.entry = [](Process& p) {
    p.call("puts", {SimValue::ptr(p.rodata_cstring("statsd: sampling"))});
    p.call("strlen", {SimValue::ptr(p.rodata_cstring("metric=42"))});
    p.call("rand", {});  // the drifted call
    p.call("puts", {SimValue::ptr(p.rodata_cstring("statsd: done"))});
    return 0;
  };
  return exe;
}

AttackResult run_heap_smash_attack(const linker::LibraryCatalog& catalog,
                                   std::vector<linker::InterpositionPtr> preloads,
                                   bool hardened_allocator, simlib::CallObserver* observer) {
  return run_attack(heap_victim_executable(), catalog, std::move(preloads), heap_victim_main,
                    hardened_allocator, observer);
}

AttackResult run_stack_smash_attack(const linker::LibraryCatalog& catalog,
                                    std::vector<linker::InterpositionPtr> preloads,
                                    simlib::CallObserver* observer) {
  return run_attack(stack_victim_executable(), catalog, std::move(preloads), stack_victim_main,
                    false, observer);
}

}  // namespace healers::attacks
