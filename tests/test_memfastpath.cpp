// Golden-tick determinism suite for the memory fast path.
//
// The simulated substrate is an oracle: tick counts decide the hang outcome,
// cycle counts feed the profiling wrapper, and fault addresses decide probe
// verdicts, so the span-based fast path must be *bit-identical* to the
// byte-at-a-time reference semantics. This suite pins that equivalence three
// ways:
//
//   1. a golden matrix — step/cycle deltas and results for a representative
//      call mix (string/memory/stdio, normal + faulting + hanging), captured
//      from the pre-fast-path implementation and asserted exactly;
//   2. a campaign fingerprint — a fault-injection probe run whose derived
//      robust-API XML must serialize to the exact same bytes;
//   3. cache configuration independence — every scenario repeated with the
//      region cache disabled must produce identical observables, and
//      randomized map/unmap/protect/restore/snapshot sequences must never
//      leave the cache able to answer differently from the uncached map walk.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/toolkit.hpp"
#include "injector/injector.hpp"
#include "linker/executable.hpp"
#include "simlib/library.hpp"
#include "testbed.hpp"
#include "wrappers/wrappers.hpp"

namespace healers {
namespace {

using mem::Addr;
using mem::AddressSpace;
using mem::Perm;
using mem::RegionKind;
using testbed::I;
using testbed::P;

// Shared across scenarios so the (deterministic, memoized) robust-API derive
// runs once instead of once per wrapped scenario.
core::Toolkit& shared_toolkit() {
  static core::Toolkit toolkit;
  return toolkit;
}

// Spawns a process with libsimc wrapped the requested way ("profiling",
// "robustness", "security", or "all"). The wrapper layers route argument
// checks and canary scans through the same substrate, so the golden matrix
// covers them too.
std::unique_ptr<linker::Process> spawn_wrapped(const std::string& kind) {
  core::Toolkit& toolkit = shared_toolkit();
  linker::Executable exe;
  exe.name = "golden-wrapped";
  exe.needed = {"libsimc.so.1", "libsimio.so.1"};
  exe.undefined = {"strlen", "strcpy", "memcmp", "sprintf", "malloc", "free"};
  const auto campaign = [&] {
    injector::InjectorConfig config;
    config.seed = 1;
    config.variants = 1;
    return toolkit.derive_robust_api("libsimc.so.1", config).value();
  };
  std::vector<linker::InterpositionPtr> preloads;
  if (kind == "profiling" || kind == "all") {
    preloads.push_back(toolkit.profiling_wrapper("libsimc.so.1").value());
  }
  if (kind == "robustness" || kind == "all") {
    preloads.push_back(toolkit.robustness_wrapper("libsimc.so.1", campaign()).value());
  }
  if (kind == "security" || kind == "all") {
    preloads.push_back(toolkit.security_wrapper("libsimc.so.1").value());
  }
  return toolkit.spawn(exe, std::move(preloads));
}

// What one scenario observed. Everything that downstream layers can see.
struct Observation {
  std::string name;
  std::uint64_t steps = 0;
  std::uint64_t cycles = 0;
  std::string result;  // return value / outcome kind / fault detail
};

// What `body` observed on `proc`: its result and the steps and cycles it took.
template <class Body>
Observation observe_on(const std::string& name, linker::Process& proc, Body&& body) {
  const std::uint64_t steps0 = proc.machine().steps();
  const std::uint64_t cycles0 = proc.machine().rdtsc();
  std::string result = body(proc);
  return {name, proc.machine().steps() - steps0, proc.machine().rdtsc() - cycles0,
          std::move(result)};
}

std::string outcome_string(const linker::CallOutcome& outcome) {
  switch (outcome.kind) {
    case linker::CallOutcome::Kind::kReturned:
      return "ret=" + std::to_string(outcome.ret.as_int());
    case linker::CallOutcome::Kind::kCrash:
      return "crash: " + outcome.detail;
    case linker::CallOutcome::Kind::kHang:
      return "hang: " + outcome.detail;
    case linker::CallOutcome::Kind::kAbort:
      return "abort: " + outcome.detail;
    case linker::CallOutcome::Kind::kHijack:
      return "hijack: " + outcome.detail;
    case linker::CallOutcome::Kind::kExit:
      return "exit=" + std::to_string(outcome.exit_code);
    case linker::CallOutcome::Kind::kNotRun:
      return "not-run";
  }
  return "?";
}

// Runs every scenario on a fresh process and reports the observations in a
// fixed order. The matrix covers: terminator scans, bounded and unbounded
// copies, compares, fills, the stdio format loop, faulting variants of each
// (source fault, destination fault, permission fault), and hangs that
// preempt a bulk operation mid-way.
std::vector<Observation> run_matrix(bool cache_enabled) {
  std::vector<Observation> out;

  const auto observe = [&](const std::string& name, auto&& body) {
    auto proc = testbed::make_process("golden");
    proc->machine().mem().set_region_cache_enabled(cache_enabled);
    out.push_back(observe_on(name, *proc, body));
  };

  const auto call = [](linker::Process& proc, const std::string& sym,
                       std::vector<simlib::SimValue> args) {
    return outcome_string(proc.supervised_call(sym, std::move(args)));
  };

  // --- normal operation -----------------------------------------------------
  observe("strlen/short", [&](linker::Process& proc) {
    return call(proc, "strlen", {P(proc.rodata_cstring("golden ticks!"))});
  });
  observe("strlen/long", [&](linker::Process& proc) {
    return call(proc, "strlen", {P(proc.rodata_cstring(std::string(256, 'x')))});
  });
  observe("strcpy/ok", [&](linker::Process& proc) {
    const Addr dest = proc.scratch(64, Perm::kReadWrite, "dest");
    const std::string r =
        call(proc, "strcpy", {P(dest), P(proc.rodata_cstring("the quick brown fox"))});
    return r + " -> " + proc.machine().mem().read_cstring(dest);
  });
  observe("strncpy/zero-fill", [&](linker::Process& proc) {
    const Addr dest = proc.scratch(64, Perm::kReadWrite, "dest");
    return call(proc, "strncpy", {P(dest), P(proc.rodata_cstring("abc")), I(16)});
  });
  observe("strcat/ok", [&](linker::Process& proc) {
    const Addr dest = proc.scratch(64, Perm::kReadWrite, "dest");
    proc.machine().mem().write_cstring(dest, "head+");
    const std::string r = call(proc, "strcat", {P(dest), P(proc.rodata_cstring("tail"))});
    return r + " -> " + proc.machine().mem().read_cstring(dest);
  });
  observe("strcmp/differ", [&](linker::Process& proc) {
    return call(proc, "strcmp",
                {P(proc.rodata_cstring("alpha")), P(proc.rodata_cstring("alphb"))});
  });
  observe("strcmp/equal", [&](linker::Process& proc) {
    return call(proc, "strcmp",
                {P(proc.rodata_cstring("equal")), P(proc.rodata_cstring("equal"))});
  });
  observe("strncmp/bounded", [&](linker::Process& proc) {
    return call(proc, "strncmp",
                {P(proc.rodata_cstring("alphaX")), P(proc.rodata_cstring("alphaY")), I(5)});
  });
  observe("strchr/hit+miss", [&](linker::Process& proc) {
    const Addr s = proc.rodata_cstring("finding needle");
    const std::string hit = call(proc, "strchr", {P(s), I('n')});
    const std::string miss = call(proc, "strchr", {P(s), I('z')});
    return hit + " / " + miss;
  });
  observe("strnlen/capped", [&](linker::Process& proc) {
    return call(proc, "strnlen", {P(proc.rodata_cstring("bounded scan")), I(4)});
  });
  observe("strdup/ok", [&](linker::Process& proc) {
    const std::string r = call(proc, "strdup", {P(proc.rodata_cstring("dup me"))});
    return r;
  });
  observe("strcasecmp", [&](linker::Process& proc) {
    return call(proc, "strcasecmp",
                {P(proc.rodata_cstring("MiXeD")), P(proc.rodata_cstring("mixed"))});
  });
  observe("memcpy/48", [&](linker::Process& proc) {
    AddressSpace& as = proc.machine().mem();
    const Addr src = proc.scratch(64, Perm::kReadWrite, "src");
    const Addr dest = proc.scratch(64, Perm::kReadWrite, "dest");
    for (std::uint64_t i = 0; i < 64; ++i) as.store8(src + i, static_cast<std::uint8_t>(i));
    const std::string r = call(proc, "memcpy", {P(dest), P(src), I(48)});
    return r + " tail=" + std::to_string(as.load8(dest + 47));
  });
  observe("memmove/overlap-both", [&](linker::Process& proc) {
    AddressSpace& as = proc.machine().mem();
    const Addr buf = proc.scratch(64, Perm::kReadWrite, "buf");
    for (std::uint64_t i = 0; i < 64; ++i) as.store8(buf + i, static_cast<std::uint8_t>(i));
    const std::string fwd = call(proc, "memmove", {P(buf + 8), P(buf), I(32)});
    const std::string bwd = call(proc, "memmove", {P(buf), P(buf + 4), I(32)});
    return fwd + " / " + bwd + " probe=" + std::to_string(as.load8(buf + 20));
  });
  observe("memset/64", [&](linker::Process& proc) {
    const Addr dest = proc.scratch(64, Perm::kReadWrite, "dest");
    const std::string r = call(proc, "memset", {P(dest), I(0xAB), I(64)});
    return r + " probe=" + std::to_string(proc.machine().mem().load8(dest + 63));
  });
  observe("memcmp/equal+differ", [&](linker::Process& proc) {
    AddressSpace& as = proc.machine().mem();
    const Addr a = proc.scratch(32, Perm::kReadWrite, "a");
    const Addr b = proc.scratch(32, Perm::kReadWrite, "b");
    const std::string eq = call(proc, "memcmp", {P(a), P(b), I(32)});
    as.store8(b + 17, 1);
    const std::string ne = call(proc, "memcmp", {P(a), P(b), I(32)});
    return eq + " / " + ne;
  });
  observe("memchr/hit+miss", [&](linker::Process& proc) {
    AddressSpace& as = proc.machine().mem();
    const Addr s = proc.scratch(32, Perm::kReadWrite, "s");
    as.store8(s + 21, 7);
    const std::string hit = call(proc, "memchr", {P(s), I(7), I(32)});
    const std::string miss = call(proc, "memchr", {P(s), I(9), I(32)});
    return hit + " / " + miss;
  });
  observe("calloc/zeroed", [&](linker::Process& proc) {
    return call(proc, "calloc", {I(8), I(16)});
  });
  observe("sprintf/mixed", [&](linker::Process& proc) {
    const Addr dest = proc.scratch(128, Perm::kReadWrite, "dest");
    const std::string r =
        call(proc, "sprintf", {P(dest), P(proc.rodata_cstring("x=%d hex=%x s=%s!")), I(42),
                               I(0xbeef), P(proc.rodata_cstring("str"))});
    return r + " -> " + proc.machine().mem().read_cstring(dest);
  });
  observe("snprintf/truncated", [&](linker::Process& proc) {
    const Addr dest = proc.scratch(32, Perm::kReadWrite, "dest");
    const std::string r = call(proc, "snprintf", {P(dest), I(10), P(proc.rodata_cstring("%s")),
                                                  P(proc.rodata_cstring("longer than cap"))});
    return r + " -> " + proc.machine().mem().read_cstring(dest);
  });
  observe("printf/width", [&](linker::Process& proc) {
    return call(proc, "printf",
                {P(proc.rodata_cstring("%05d|%3s|%c")), I(7), P(proc.rodata_cstring("ab")),
                 I('!')});
  });
  observe("puts+fputs", [&](linker::Process& proc) {
    const std::string a = call(proc, "puts", {P(proc.rodata_cstring("to stdout"))});
    const auto file = proc.supervised_call(
        "fopen", {P(proc.rodata_cstring("/tmp/golden")), P(proc.rodata_cstring("w"))});
    const std::string b =
        call(proc, "fputs", {P(proc.rodata_cstring("to a file")), file.ret});
    const std::string c = call(proc, "fclose", {file.ret});
    return a + " / " + b + " / " + c;
  });
  observe("fwrite+fread", [&](linker::Process& proc) {
    AddressSpace& as = proc.machine().mem();
    const Addr buf = proc.scratch(64, Perm::kReadWrite, "buf");
    for (std::uint64_t i = 0; i < 64; ++i) as.store8(buf + i, static_cast<std::uint8_t>('a' + i % 26));
    const auto w = proc.supervised_call(
        "fopen", {P(proc.rodata_cstring("/tmp/rw")), P(proc.rodata_cstring("w+"))});
    const std::string ws = call(proc, "fwrite", {P(buf), I(8), I(6), w.ret});
    call(proc, "rewind", {w.ret});
    const Addr back = proc.scratch(64, Perm::kReadWrite, "back");
    const std::string rs = call(proc, "fread", {P(back), I(8), I(6), w.ret});
    return ws + " / " + rs + " probe=" + std::to_string(as.load8(back + 40));
  });

  // --- faulting operation ---------------------------------------------------
  observe("fault/strlen-unterminated", [&](linker::Process& proc) {
    AddressSpace& as = proc.machine().mem();
    const Addr s = proc.scratch(16, Perm::kReadWrite, "unterm");
    for (std::uint64_t i = 0; i < 16; ++i) as.store8(s + i, 'A');
    return call(proc, "strlen", {P(s)});
  });
  observe("fault/strcpy-dest-short", [&](linker::Process& proc) {
    const Addr dest = proc.scratch(8, Perm::kReadWrite, "short");
    return call(proc, "strcpy", {P(dest), P(proc.rodata_cstring("0123456789abcdef"))});
  });
  observe("fault/strcpy-src-runs-out", [&](linker::Process& proc) {
    AddressSpace& as = proc.machine().mem();
    const Addr src = proc.scratch(8, Perm::kReadWrite, "unterm-src");
    for (std::uint64_t i = 0; i < 8; ++i) as.store8(src + i, 'B');
    const Addr dest = proc.scratch(64, Perm::kReadWrite, "dest");
    return call(proc, "strcpy", {P(dest), P(src)});
  });
  observe("fault/strcpy-dest-readonly", [&](linker::Process& proc) {
    const Addr dest = proc.scratch(64, Perm::kRead, "ro-dest");
    return call(proc, "strcpy", {P(dest), P(proc.rodata_cstring("nope"))});
  });
  observe("fault/strncpy-fill-overruns", [&](linker::Process& proc) {
    const Addr dest = proc.scratch(8, Perm::kReadWrite, "short");
    return call(proc, "strncpy", {P(dest), P(proc.rodata_cstring("ab")), I(32)});
  });
  observe("fault/strcat-dest-unterminated", [&](linker::Process& proc) {
    AddressSpace& as = proc.machine().mem();
    const Addr dest = proc.scratch(8, Perm::kReadWrite, "unterm");
    for (std::uint64_t i = 0; i < 8; ++i) as.store8(dest + i, 'C');
    return call(proc, "strcat", {P(dest), P(proc.rodata_cstring("x"))});
  });
  observe("fault/strcmp-a-runs-out", [&](linker::Process& proc) {
    AddressSpace& as = proc.machine().mem();
    const Addr a = proc.scratch(8, Perm::kReadWrite, "a");
    for (std::uint64_t i = 0; i < 8; ++i) as.store8(a + i, 'z');
    const Addr b = proc.alloc_cstring("zzzzzzzzzzzzzzzz");
    return call(proc, "strcmp", {P(a), P(b)});
  });
  observe("fault/memcpy-src-short", [&](linker::Process& proc) {
    const Addr src = proc.scratch(16, Perm::kReadWrite, "src16");
    const Addr dest = proc.scratch(64, Perm::kReadWrite, "dest");
    return call(proc, "memcpy", {P(dest), P(src), I(32)});
  });
  observe("fault/memset-readonly", [&](linker::Process& proc) {
    const Addr dest = proc.scratch(16, Perm::kRead, "ro");
    return call(proc, "memset", {P(dest), I(1), I(4)});
  });
  observe("fault/memchr-past-end", [&](linker::Process& proc) {
    const Addr s = proc.scratch(16, Perm::kReadWrite, "s16");
    return call(proc, "memchr", {P(s), I(42), I(64)});
  });
  observe("fault/sprintf-wild-%s", [&](linker::Process& proc) {
    const Addr dest = proc.scratch(64, Perm::kReadWrite, "dest");
    return call(proc, "sprintf", {P(dest), P(proc.rodata_cstring("val=%s")),
                                  P(AddressSpace::wild_pointer())});
  });
  observe("fault/strlen-null", [&](linker::Process& proc) {
    return call(proc, "strlen", {P(0)});
  });

  // --- hangs: the budget preempts bulk work mid-flight ----------------------
  observe("hang/strlen-budget-100", [&](linker::Process& proc) {
    const Addr s = proc.rodata_cstring(std::string(300, 'h'));
    proc.machine().set_step_budget(proc.machine().steps() + 100);
    const std::string r = call(proc, "strlen", {P(s)});
    return r + " steps-after=" + std::to_string(proc.machine().steps());
  });
  observe("hang/memset-partial-write", [&](linker::Process& proc) {
    AddressSpace& as = proc.machine().mem();
    const Addr dest = proc.scratch(1024, Perm::kReadWrite, "dest");
    proc.machine().set_step_budget(proc.machine().steps() + 100);
    const std::string r = call(proc, "memset", {P(dest), I(0x55), I(1024)});
    // Exactly the bytes ticked before the hang must have been written.
    std::uint64_t written = 0;
    while (written < 1024 && as.load8(dest + written) == 0x55) ++written;
    return r + " written=" + std::to_string(written);
  });
  observe("hang/strcpy-partial-write", [&](linker::Process& proc) {
    AddressSpace& as = proc.machine().mem();
    const Addr dest = proc.scratch(512, Perm::kReadWrite, "dest");
    const Addr src = proc.rodata_cstring(std::string(400, 's'));
    proc.machine().set_step_budget(proc.machine().steps() + 64);
    const std::string r = call(proc, "strcpy", {P(dest), P(src)});
    std::uint64_t written = 0;
    while (written < 512 && as.load8(dest + written) == 's') ++written;
    return r + " written=" + std::to_string(written);
  });

  // --- wrapped calls: the oracle must hold through the wrapper layers too ---
  const auto observe_wrapped = [&](const std::string& name, const std::string& kind,
                                   auto&& body) {
    auto proc = spawn_wrapped(kind);
    proc->machine().mem().set_region_cache_enabled(cache_enabled);
    out.push_back(observe_on(name, *proc, body));
  };

  observe_wrapped("wrapped/profiling-strlen", "profiling", [&](linker::Process& proc) {
    return call(proc, "strlen", {P(proc.rodata_cstring("wrapped golden"))});
  });
  observe_wrapped("wrapped/robustness-strlen", "robustness", [&](linker::Process& proc) {
    const std::string ok = call(proc, "strlen", {P(proc.rodata_cstring("wrapped golden"))});
    const std::string bad = call(proc, "strlen", {P(AddressSpace::wild_pointer())});
    return ok + " / " + bad;
  });
  observe_wrapped("wrapped/robustness-strcpy", "robustness", [&](linker::Process& proc) {
    const Addr dest = proc.scratch(64, Perm::kReadWrite, "dest");
    const std::string r =
        call(proc, "strcpy", {P(dest), P(proc.rodata_cstring("guarded copy"))});
    return r + " -> " + proc.machine().mem().read_cstring(dest);
  });
  observe_wrapped("wrapped/security-malloc-memcmp", "security", [&](linker::Process& proc) {
    const auto a = proc.supervised_call("malloc", {I(32)});
    const auto b = proc.supervised_call("malloc", {I(32)});
    const std::string r = call(proc, "memcmp", {a.ret, b.ret, I(32)});
    const std::string fa = call(proc, "free", {a.ret});
    const std::string fb = call(proc, "free", {b.ret});
    return r + " / " + fa + " / " + fb;
  });
  observe_wrapped("wrapped/all-three-strcpy", "all", [&](linker::Process& proc) {
    const Addr dest = proc.scratch(64, Perm::kReadWrite, "dest");
    return call(proc, "strcpy", {P(dest), P(proc.rodata_cstring("stacked"))});
  });
  observe_wrapped("wrapped/bypass-sprintf", "profiling", [&](linker::Process& proc) {
    const Addr dest = proc.scratch(64, Perm::kReadWrite, "dest");
    const std::string r = call(
        proc, "sprintf", {P(dest), P(proc.rodata_cstring("n=%d")), I(9)});
    return r + " -> " + proc.machine().mem().read_cstring(dest);
  });

  return out;
}

// Scans for a byte inside a C string, and compares of equal strings, on a
// short string at the start of a large region (the heap arena or rodata)
// with the byte a scan looks for placed right after the terminator. A scan
// must stop at the terminator: the results and ticks are the per-byte
// loop's.
std::vector<Observation> run_terminator_rows() {
  std::vector<Observation> out;
  const auto observe = [&](const std::string& name, auto&& body) {
    auto proc = testbed::make_process("golden");
    out.push_back(observe_on(name, *proc, body));
  };
  // `text`, then `after` right behind its terminator.
  const auto on_heap = [](linker::Process& proc, const std::string& text, const char* after) {
    return proc.alloc_cstring(text + '\0' + after);
  };
  const auto in_rodata = [](linker::Process& proc, const std::string& text, const char* after) {
    return proc.rodata_cstring(text + '\0' + after);
  };
  // A strchr result as an offset into `s`, or "null".
  const auto strchr_at = [](linker::Process& proc, Addr s, int c) {
    const linker::CallOutcome outcome = proc.supervised_call("strchr", {P(s), I(c)});
    if (outcome.kind != linker::CallOutcome::Kind::kReturned) return outcome_string(outcome);
    const Addr hit = outcome.ret.as_ptr();
    return hit == 0 ? std::string("null") : "+" + std::to_string(hit - s);
  };
  const auto call = [](linker::Process& proc, const std::string& sym,
                       std::vector<simlib::SimValue> args) {
    return outcome_string(proc.supervised_call(sym, std::move(args)));
  };

  observe("strchr/heap-target-after-nul", [&](linker::Process& proc) {
    const Addr s = on_heap(proc, "needle", "zebra");
    return strchr_at(proc, s, 'z') + " / " + strchr_at(proc, s, 'e');
  });
  observe("strchr/rodata-target-after-nul", [&](linker::Process& proc) {
    const Addr s = in_rodata(proc, "needle", "zebra");
    return strchr_at(proc, s, 'z') + " / " + strchr_at(proc, s, 'l');
  });
  observe("strchr/nul-target", [&](linker::Process& proc) {
    return strchr_at(proc, on_heap(proc, "needle", "zebra"), 0) + " / " +
           strchr_at(proc, in_rodata(proc, "needle", "zebra"), 0);
  });
  observe("strcmp/self", [&](linker::Process& proc) {
    const Addr h = on_heap(proc, "same string", "tail");
    const Addr r = in_rodata(proc, "same string", "tail");
    return call(proc, "strcmp", {P(h), P(h)}) + " / " + call(proc, "strcmp", {P(r), P(r)});
  });
  observe("strcmp/equal-strings", [&](linker::Process& proc) {
    return call(proc, "strcmp", {P(on_heap(proc, "same string", "heap tail")),
                                 P(in_rodata(proc, "same string", "rodata tail"))});
  });
  observe("strcasecmp/self", [&](linker::Process& proc) {
    const Addr h = on_heap(proc, "MiXeD", "tail");
    const Addr r = in_rodata(proc, "MiXeD", "tail");
    return call(proc, "strcasecmp", {P(h), P(h)}) + " / " +
           call(proc, "strcasecmp", {P(r), P(r)});
  });
  observe("strcasecmp/equal-strings", [&](linker::Process& proc) {
    return call(proc, "strcasecmp", {P(on_heap(proc, "MiXeD", "HEAP")),
                                     P(in_rodata(proc, "mixed", "rodata"))});
  });
  observe("sprintf/percent-after-nul", [&](linker::Process& proc) {
    const Addr dest = proc.scratch(64, Perm::kReadWrite, "dest");
    const std::string heap =
        call(proc, "sprintf", {P(dest), P(on_heap(proc, "plain text", "%s%d")), I(1)});
    const std::string rodata =
        call(proc, "sprintf", {P(dest), P(in_rodata(proc, "n=%d", "%x%%")), I(7)});
    return heap + " / " + rodata + " -> " + proc.machine().mem().read_cstring(dest);
  });
  observe("snprintf/percent-after-nul", [&](linker::Process& proc) {
    const Addr dest = proc.scratch(64, Perm::kReadWrite, "dest");
    const std::string r = call(
        proc, "snprintf", {P(dest), I(6), P(in_rodata(proc, "id=%d!", "%s%s")), I(12345)});
    return r + " -> " + proc.machine().mem().read_cstring(dest);
  });
  observe("fmtlen/percent-after-nul", [&](linker::Process& proc) {
    // The wrapper's printf pre-pass is untimed: its row pins lengths only.
    const auto length = [&proc](Addr fmt) {
      simlib::CallContext ctx{proc.machine(), proc.state(), {P(fmt), I(12345)}};
      const auto bytes = wrappers::detail::safe_formatted_length(ctx, 1);
      return bytes.has_value() ? std::to_string(*bytes) : std::string("unmeasured");
    };
    return length(on_heap(proc, "literal", "%s")) + " / " +
           length(in_rodata(proc, "len=%d", "%s%s"));
  });
  return out;
}

// Fingerprint of a small fault-injection campaign: the serialized robust-API
// XML captures probe outcomes, fault kinds, and derived checks, so a single
// drifted tick or fault address changes the bytes.
std::string campaign_fingerprint() {
  linker::LibraryCatalog catalog;
  catalog.install(&testbed::libsimc());
  catalog.install(&testbed::libsimio());
  catalog.install(&testbed::libsimm());
  injector::InjectorConfig config;
  config.seed = 7;
  config.variants = 2;
  config.jobs = 2;
  injector::FaultInjector injector(catalog, config);
  std::string blob;
  for (const char* fn : {"strlen", "strcpy", "memcpy", "strtok"}) {
    auto spec = injector.probe_function(testbed::libsimc(), fn);
    blob += xml::serialize(spec.value().to_xml());
  }
  // The stdio functions take fuzzed size/count pairs (including huge values
  // whose products wrap uint64), which caught a flattened-loop overflow the
  // string probes cannot see — keep them covered.
  for (const char* fn : {"sprintf", "snprintf", "fwrite", "fread", "fgets"}) {
    auto spec = injector.probe_function(testbed::libsimio(), fn);
    blob += xml::serialize(spec.value().to_xml());
  }
  return blob;
}

// FNV-1a, stable across platforms for ASCII blobs.
std::uint64_t fnv1a(const std::string& blob) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : blob) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

struct GoldenRow {
  const char* name;
  std::uint64_t steps;
  std::uint64_t cycles;
};

// Captured from the pre-fast-path (byte-at-a-time) implementation; the span
// fast path must reproduce every row bit-for-bit. Regenerate by running this
// binary with HEALERS_GOLDEN_PRINT=1 — but a diff here means the oracle
// moved, which invalidates every recorded experiment.
constexpr GoldenRow kGoldenMatrix[] = {
    {"strlen/short", 15, 15},                    // ret=13
    {"strlen/long", 258, 258},                   // ret=256
    {"strcpy/ok", 21, 21},                       // -> the quick brown fox
    {"strncpy/zero-fill", 17, 17},
    {"strcat/ok", 12, 12},                       // -> head+tail
    {"strcmp/differ", 6, 6},                     // ret=-1
    {"strcmp/equal", 7, 7},                      // ret=0
    {"strncmp/bounded", 6, 6},                   // ret=0
    {"strchr/hit+miss", 20, 20},
    {"strnlen/capped", 5, 5},                    // ret=4
    {"strdup/ok", 15, 15},
    {"strcasecmp", 7, 7},                        // ret=0
    {"memcpy/48", 49, 49},                       // tail=47
    {"memmove/overlap-both", 66, 66},            // probe=16
    {"memset/64", 65, 65},                       // probe=171
    {"memcmp/equal+differ", 52, 52},             // ret=0 / ret=-1
    {"memchr/hit+miss", 56, 56},
    {"calloc/zeroed", 137, 137},
    {"sprintf/mixed", 43, 43},                   // -> x=42 hex=beef s=str!
    {"snprintf/truncated", 29, 29},              // ret=15 -> longer th
    {"printf/width", 15, 15},                    // ret=11
    {"puts+fputs", 44, 44},
    {"fwrite+fread", 119, 119},                  // probe=111
    {"fault/strlen-unterminated", 18, 18},       // SIGSEGV at 0x177010: unmapped
    {"fault/strcpy-dest-short", 10, 10},         // SIGSEGV at 0x177008: unmapped
    {"fault/strcpy-src-runs-out", 10, 10},       // SIGSEGV at 0x177008: unmapped
    {"fault/strcpy-dest-readonly", 2, 2},        // permission violation 'ro-dest'
    {"fault/strncpy-fill-overruns", 10, 10},     // SIGSEGV at 0x177008: unmapped
    {"fault/strcat-dest-unterminated", 10, 10},  // SIGSEGV at 0x177008: unmapped
    {"fault/strcmp-a-runs-out", 10, 10},         // SIGSEGV at 0x177008: unmapped
    {"fault/memcpy-src-short", 18, 18},          // SIGSEGV at 0x177010: unmapped
    {"fault/memset-readonly", 2, 2},             // permission violation 'ro'
    {"fault/memchr-past-end", 18, 18},           // SIGSEGV at 0x177010: unmapped
    {"fault/sprintf-wild-%s", 8, 8},             // SIGSEGV at 0xdeadbeef000
    {"fault/strlen-null", 2, 2},                 // SIGSEGV at 0x0
    {"hang/strlen-budget-100", 101, 101},        // steps-after=101
    {"hang/memset-partial-write", 101, 101},     // written=99
    {"hang/strcpy-partial-write", 65, 65},       // written=63
    {"wrapped/profiling-strlen", 16, 40},        // ret=14
    {"wrapped/robustness-strlen", 17, 56},       // ret=14 / ret=-1
    {"wrapped/robustness-strcpy", 14, 50},       // -> guarded copy
    {"wrapped/security-malloc-memcmp", 69, 129},
    {"wrapped/all-three-strcpy", 9, 81},
    {"wrapped/bypass-sprintf", 9, 9},            // ret=3 -> n=9
};

constexpr std::uint64_t kGoldenCampaignHash = 9311990976367916448ULL;

struct GoldenResultRow {
  const char* name;
  std::uint64_t steps;
  std::uint64_t cycles;
  const char* result;
};

// Captured from the scans that searched the whole readable extent.
constexpr GoldenResultRow kGoldenTerminatorRows[] = {
    {"strchr/heap-target-after-nul", 11, 11, "null / +1"},
    {"strchr/rodata-target-after-nul", 14, 14, "null / +4"},
    {"strchr/nul-target", 16, 16, "+6 / +6"},
    {"strcmp/self", 26, 26, "ret=0 / ret=0"},
    {"strcmp/equal-strings", 13, 13, "ret=0"},
    {"strcasecmp/self", 14, 14, "ret=0 / ret=0"},
    {"strcasecmp/equal-strings", 7, 7, "ret=0"},
    {"sprintf/percent-after-nul", 31, 31, "ret=10 / ret=3 -> n=7"},
    {"snprintf/percent-after-nul", 13, 13, "ret=9 -> id=12"},
    {"fmtlen/percent-after-nul", 0, 0, "7 / 9"},
};

TEST(GoldenTicks, MatrixMatchesPreFastPathBaseline) {
  const std::vector<Observation> observed = run_matrix(/*cache_enabled=*/true);
  if (std::getenv("HEALERS_GOLDEN_PRINT") != nullptr) {
    for (const Observation& row : observed) {
      std::printf("    {\"%s\", %llu, %llu},  // %s\n", row.name.c_str(),
                  static_cast<unsigned long long>(row.steps),
                  static_cast<unsigned long long>(row.cycles), row.result.c_str());
    }
    std::printf("campaign hash: %lluULL\n",
                static_cast<unsigned long long>(fnv1a(campaign_fingerprint())));
    return;
  }
  ASSERT_EQ(observed.size(), std::size(kGoldenMatrix));
  for (std::size_t i = 0; i < observed.size(); ++i) {
    EXPECT_EQ(observed[i].name, kGoldenMatrix[i].name);
    EXPECT_EQ(observed[i].steps, kGoldenMatrix[i].steps) << observed[i].name << ": "
                                                         << observed[i].result;
    EXPECT_EQ(observed[i].cycles, kGoldenMatrix[i].cycles) << observed[i].name << ": "
                                                           << observed[i].result;
  }
}

TEST(GoldenTicks, ScansStopAtTheTerminator) {
  const std::vector<Observation> observed = run_terminator_rows();
  if (std::getenv("HEALERS_GOLDEN_PRINT") != nullptr) {
    for (const Observation& row : observed) {
      std::printf("    {\"%s\", %llu, %llu, \"%s\"},\n", row.name.c_str(),
                  static_cast<unsigned long long>(row.steps),
                  static_cast<unsigned long long>(row.cycles), row.result.c_str());
    }
    return;
  }
  ASSERT_EQ(observed.size(), std::size(kGoldenTerminatorRows));
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const GoldenResultRow& want = kGoldenTerminatorRows[i];
    EXPECT_EQ(observed[i].name, want.name);
    EXPECT_EQ(observed[i].steps, want.steps) << want.name;
    EXPECT_EQ(observed[i].cycles, want.cycles) << want.name;
    EXPECT_EQ(observed[i].result, want.result) << want.name;
  }
}

TEST(GoldenTicks, CampaignFingerprintIsBitIdentical) {
  if (std::getenv("HEALERS_GOLDEN_PRINT") != nullptr) GTEST_SKIP();
  EXPECT_EQ(fnv1a(campaign_fingerprint()), kGoldenCampaignHash);
}

TEST(GoldenTicks, CacheDisabledIsObservablyIdentical) {
  const std::vector<Observation> with_cache = run_matrix(/*cache_enabled=*/true);
  const std::vector<Observation> without_cache = run_matrix(/*cache_enabled=*/false);
  ASSERT_EQ(with_cache.size(), without_cache.size());
  for (std::size_t i = 0; i < with_cache.size(); ++i) {
    EXPECT_EQ(with_cache[i].steps, without_cache[i].steps) << with_cache[i].name;
    EXPECT_EQ(with_cache[i].cycles, without_cache[i].cycles) << with_cache[i].name;
    EXPECT_EQ(with_cache[i].result, without_cache[i].result) << with_cache[i].name;
  }
}

// Property test: no map/unmap/protect/restore/snapshot sequence may leave
// the region cache able to answer differently from the uncached map walk.
TEST(RegionCacheProperty, RandomizedLifecycleNeverGoesStale) {
  std::mt19937_64 rng(0xC0FFEE);
  for (int round = 0; round < 20; ++round) {
    AddressSpace cached;
    AddressSpace uncached;
    uncached.set_region_cache_enabled(false);
    std::vector<Addr> bases;
    // COW snapshots are refcounted handles: any number may coexist and be
    // restored in any order, so the lifecycle keeps a whole stack of them.
    std::vector<AddressSpace::Snapshot> snaps_cached;
    std::vector<AddressSpace::Snapshot> snaps_uncached;

    const auto probe_everywhere = [&]() {
      // Probe region starts, interiors, ends, and guard gaps, in a mixed
      // order that exercises cache reuse across regions.
      std::vector<Addr> probes = {0, 0xfff, AddressSpace::wild_pointer()};
      for (const Addr base : bases) {
        for (const Addr p : {base, base + 1, base + 37, base + 4095, base + 4096}) {
          probes.push_back(p);
        }
      }
      for (int repeat = 0; repeat < 2; ++repeat) {
        for (const Addr p : probes) {
          const mem::Region* a = cached.find(p);
          const mem::Region* b = uncached.find(p);
          ASSERT_EQ(a == nullptr, b == nullptr) << "addr 0x" << std::hex << p;
          if (a != nullptr) {
            ASSERT_EQ(a->base, b->base);
            ASSERT_EQ(a->size, b->size);
            ASSERT_EQ(a->perm, b->perm);
          }
          for (const Perm perm : {Perm::kRead, Perm::kWrite}) {
            ASSERT_EQ(cached.accessible(p, 8, perm), uncached.accessible(p, 8, perm));
          }
        }
      }
    };

    for (int op = 0; op < 120; ++op) {
      switch (rng() % 6) {
        case 0:
        case 1: {  // map (biased: layouts should grow)
          const std::uint64_t size = 1 + rng() % 0x3000;
          const Perm perm = static_cast<Perm>(1 + rng() % 3);
          cached.map(size, perm, RegionKind::kScratch, "r");
          bases.push_back(uncached.map(size, perm, RegionKind::kScratch, "r").base);
          break;
        }
        case 2: {  // unmap a random live region
          if (bases.empty()) break;
          const std::size_t idx = rng() % bases.size();
          cached.unmap(bases[idx]);
          uncached.unmap(bases[idx]);
          bases.erase(bases.begin() + static_cast<std::ptrdiff_t>(idx));
          break;
        }
        case 3: {  // protect a random live region
          if (bases.empty()) break;
          const Addr base = bases[rng() % bases.size()];
          const Perm perm = static_cast<Perm>(1 + rng() % 3);
          cached.protect(base, perm);
          uncached.protect(base, perm);
          break;
        }
        case 4: {  // fork: seal another coexisting snapshot
          snaps_cached.push_back(cached.snapshot());
          snaps_uncached.push_back(uncached.snapshot());
          break;
        }
        case 5: {  // restore ANY earlier snapshot, not just the latest
          if (snaps_cached.empty()) break;
          const std::size_t idx = rng() % snaps_cached.size();
          cached.restore(snaps_cached[idx]);
          uncached.restore(snaps_uncached[idx]);
          bases.clear();
          for (const mem::RegionImage& region : snaps_cached[idx].regions()) {
            bases.push_back(region.base);
          }
          break;
        }
      }
      probe_everywhere();
    }
  }
}

}  // namespace
}  // namespace healers
