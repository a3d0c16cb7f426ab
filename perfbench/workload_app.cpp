// The hardened-app workload: applications run one after another on a
// protected host (the paper's "low overhead during normal operations").
//
// Each op is one application run:
//   1. build the per-process wrapper stack for libsimc and libsimio —
//      profiling, robustness (from the campaigns derived at set-up) and
//      security; the security wrapper keeps per-process guard state, so
//      every run builds its own stack;
//   2. Toolkit::spawn;
//   3. run the entry point: a seeded mix of string, memory, conversion,
//      ctype and formatting calls, a fixed share of them invalid (NULL or
//      unterminated strings) for the robustness wrapper to contain;
//   4. build and encode the run's profile reports (HFB1).
//
// Programs come from a pool drawn from the workload seed; op i runs
// program i % pool size. No campaign work runs in the loop.
//
// The call mix is chosen, not measured: each step draws one of the 22 valid
// call kinds with equal weight, so every category and both libraries are
// exercised, and 2% of the steps make one of 5 invalid calls. No profile in
// the repository spans these categories: the fleet simulator's app runs
// (fleet/simulator.cpp) call six libsimc functions, all valid, and the demo
// executables make a handful of calls each. perfbench/NOTES.md has the
// reasoning.
#include <algorithm>
#include <array>
#include <string>

#include "bench.hpp"
#include "core/toolkit.hpp"
#include "fleet/wire.hpp"
#include "profile/report.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using healers::core::Toolkit;
using healers::gen::ComposedWrapper;
using healers::linker::CallOutcome;
using healers::linker::Process;
using healers::simlib::SimValue;

constexpr std::size_t kProgramPool = 4;
constexpr std::size_t kStepsPerProgram = 2400;
// Share of steps that make an invalid call (NULL or unterminated string).
constexpr double kInvalidShare = 0.02;
constexpr std::array<const char*, 2> kLibraries = {"libsimc.so.1", "libsimio.so.1"};

// String inputs the programs index into (all shorter than 32 bytes, so any
// two fit the 64-byte buffers together).
constexpr std::array<const char*, 10> kStrings = {
    "hello world", "12345",    "-42",      "3.14159", "The quick brown fox",
    "HEALERS",     "a,b;c d",  "0x1f",     "  77 trailing", "robust API"};
constexpr std::array<const char*, 3> kFormats = {"%s=%d", "[%5d]", "%x:%c"};

enum class Call : std::uint8_t {
  // string
  kStrlen, kStrcpy, kStrcpyCat, kStrcmp, kStrncmp, kStrchr, kStrstr, kStrnlen,
  // memory
  kMemcpy, kMemset, kMemcmp, kMemchr, kMallocFree,
  // conversion
  kAtoi, kStrtol, kAtof,
  // ctype
  kIsalpha, kIsdigit, kToupper, kTolower,
  // formatting (libsimio)
  kSnprintf, kSprintf,
  // invalid calls the robustness wrapper must contain
  kBadStrlenNull, kBadAtoiNull, kBadStrlenUnterminated, kBadStrcpyNull, kBadStrchrUnterminated,
};
constexpr int kValidKinds = 22;
constexpr int kInvalidKinds = 5;
static_assert(static_cast<int>(Call::kBadStrlenNull) == kValidKinds &&
              static_cast<int>(Call::kBadStrchrUnterminated) == kValidKinds + kInvalidKinds - 1);

const char* category(Call call) {
  const auto c = static_cast<int>(call);
  if (c <= static_cast<int>(Call::kStrnlen)) return "string";
  if (c <= static_cast<int>(Call::kMallocFree)) return "memory";
  if (c <= static_cast<int>(Call::kAtof)) return "conversion";
  if (c <= static_cast<int>(Call::kTolower)) return "ctype";
  if (c <= static_cast<int>(Call::kSprintf)) return "formatting";
  return "invalid";
}

struct Step {
  Call call = Call::kStrlen;
  std::uint8_t a = 0;   // string index
  std::uint8_t b = 0;   // second string index / format index
  std::int64_t n = 0;   // size, character or integer operand
};

struct Program {
  std::vector<Step> steps;
  std::size_t invalid = 0;
};

Program make_program(healers::Rng& rng) {
  Program program;
  for (std::size_t i = 0; i < kStepsPerProgram; ++i) {
    Step step;
    if (rng.chance(kInvalidShare)) {
      step.call = static_cast<Call>(kValidKinds + static_cast<int>(rng.below(kInvalidKinds)));
      ++program.invalid;
    } else {
      step.call = static_cast<Call>(rng.below(kValidKinds));
    }
    step.a = static_cast<std::uint8_t>(rng.below(kStrings.size()));
    step.b = static_cast<std::uint8_t>(rng.below(kStrings.size()));
    step.n = static_cast<std::int64_t>(rng.below(256));
    program.steps.push_back(step);
  }
  return program;
}

Program valid_only(const Program& program) {
  Program out;
  for (const Step& step : program.steps) {
    if (static_cast<int>(step.call) < kValidKinds) out.steps.push_back(step);
  }
  return out;
}

SimValue I(std::int64_t v) { return SimValue::integer(v); }
SimValue P(healers::mem::Addr v) { return SimValue::ptr(v); }

// The application's main(): runs the program's steps and folds every
// result into a checksum that becomes the exit status.
int run_program(Process& proc, const Program& program) {
  std::array<healers::mem::Addr, kStrings.size()> strings{};
  for (std::size_t i = 0; i < kStrings.size(); ++i) strings[i] = proc.rodata_cstring(kStrings[i]);
  std::array<healers::mem::Addr, kFormats.size()> formats{};
  for (std::size_t i = 0; i < kFormats.size(); ++i) formats[i] = proc.rodata_cstring(kFormats[i]);
  const healers::mem::Addr unterminated = proc.scratch(32);
  for (int i = 0; i < 32; ++i) proc.machine().mem().store8(unterminated + i, 'A');
  const healers::mem::Addr buf_a = proc.call("malloc", {I(64)}).as_ptr();
  const healers::mem::Addr buf_b = proc.call("malloc", {I(64)}).as_ptr();
  const healers::mem::Addr buf_c = proc.call("malloc", {I(128)}).as_ptr();

  std::uint64_t sum = 0;
  auto fold_int = [&sum](const SimValue& v) { sum = sum * 31 + static_cast<std::uint64_t>(v.as_int()); };
  auto fold_ptr = [&sum](const SimValue& v, healers::mem::Addr base) {
    sum = sum * 31 + (v.as_ptr() == 0 ? 0 : v.as_ptr() - base + 1);
  };
  for (const Step& step : program.steps) {
    const healers::mem::Addr s = strings[step.a];
    const healers::mem::Addr t = strings[step.b];
    const auto slen = static_cast<std::int64_t>(std::char_traits<char>::length(kStrings[step.a]));
    const auto tlen = static_cast<std::int64_t>(std::char_traits<char>::length(kStrings[step.b]));
    const std::int64_t ch = 'a' + step.n % 26;
    switch (step.call) {
      case Call::kStrlen: fold_int(proc.call("strlen", {P(s)})); break;
      case Call::kStrcpy: fold_ptr(proc.call("strcpy", {P(buf_a), P(s)}), buf_a); break;
      case Call::kStrcpyCat:
        proc.call("strcpy", {P(buf_b), P(s)});
        fold_ptr(proc.call("strcat", {P(buf_b), P(t)}), buf_b);
        break;
      case Call::kStrcmp: fold_int(proc.call("strcmp", {P(s), P(t)})); break;
      case Call::kStrncmp:
        fold_int(proc.call("strncmp", {P(s), P(t), I(1 + step.n % 8)}));
        break;
      case Call::kStrchr: fold_ptr(proc.call("strchr", {P(s), I(ch)}), s); break;
      case Call::kStrstr: fold_ptr(proc.call("strstr", {P(s), P(t)}), s); break;
      case Call::kStrnlen: fold_int(proc.call("strnlen", {P(s), I(step.n % 16)})); break;
      case Call::kMemcpy:
        fold_ptr(proc.call("memcpy", {P(buf_c), P(s), I(1 + step.n % slen)}), buf_c);
        break;
      case Call::kMemset:
        fold_ptr(proc.call("memset", {P(buf_c), I(ch), I(1 + step.n % 128)}), buf_c);
        break;
      case Call::kMemcmp:
        fold_int(proc.call("memcmp", {P(s), P(t), I(1 + step.n % std::min(slen, tlen))}));
        break;
      case Call::kMemchr: fold_ptr(proc.call("memchr", {P(s), I(ch), I(slen)}), s); break;
      case Call::kMallocFree: {
        const SimValue p = proc.call("malloc", {I(1 + step.n)});
        sum = sum * 31 + (p.as_ptr() != 0);
        proc.call("free", {p});
        break;
      }
      case Call::kAtoi: fold_int(proc.call("atoi", {P(s)})); break;
      case Call::kStrtol:
        fold_int(proc.call("strtol", {P(s), P(0), I(step.n % 2 == 0 ? 10 : 16)}));
        break;
      case Call::kAtof:
        sum = sum * 31 + static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(proc.call("atof", {P(s)}).as_double() * 1000));
        break;
      case Call::kIsalpha: fold_int(proc.call("isalpha", {I(step.n - 128)})); break;
      case Call::kIsdigit: fold_int(proc.call("isdigit", {I(step.n - 128)})); break;
      case Call::kToupper: fold_int(proc.call("toupper", {I(step.n - 128)})); break;
      case Call::kTolower: fold_int(proc.call("tolower", {I(step.n - 128)})); break;
      case Call::kSnprintf:
        fold_int(proc.call("snprintf",
                           {P(buf_c), I(128), P(formats[0]), P(s), I(step.n)}));
        break;
      case Call::kSprintf:
        fold_int(proc.call("sprintf", {P(buf_c), P(formats[1 + step.b % 2]), I(step.n), I(ch)}));
        break;
      case Call::kBadStrlenNull: fold_int(proc.call("strlen", {P(0)})); break;
      case Call::kBadAtoiNull: fold_int(proc.call("atoi", {P(0)})); break;
      case Call::kBadStrlenUnterminated: fold_int(proc.call("strlen", {P(unterminated)})); break;
      case Call::kBadStrcpyNull:
        fold_ptr(proc.call("strcpy", {P(buf_a), P(0)}), buf_a);
        break;
      case Call::kBadStrchrUnterminated:
        fold_ptr(proc.call("strchr", {P(unterminated), I('x')}), unterminated);
        break;
    }
  }
  proc.call("free", {P(buf_c)});
  proc.call("free", {P(buf_b)});
  proc.call("free", {P(buf_a)});
  return static_cast<int>(sum % 251);
}

// Everything one run produced that the checks compare.
struct RunFacts {
  CallOutcome::Kind kind = CallOutcome::Kind::kNotRun;
  int status = -1;
  std::string detail;
  std::uint64_t dispatched = 0;
  std::uint64_t contained = 0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t heap_allocations = 0;
  std::string reports;  // encoded HFB1 profile documents, concatenated

  [[nodiscard]] bool same_as(const RunFacts& o) const {
    return kind == o.kind && status == o.status && dispatched == o.dispatched &&
           contained == o.contained && sim_cycles == o.sim_cycles &&
           heap_allocations == o.heap_allocations && reports == o.reports;
  }
};

class AppWorkload final : public Workload {
 public:
  explicit AppWorkload(std::uint64_t seed) {
    healers::Rng rng(seed ^ 0x6170700000000000ULL);
    campaign_seed_ = 1 + rng.below(1'000'000);
    for (std::size_t i = 0; i < kProgramPool; ++i) programs_.push_back(make_program(rng));
    exe_.name = "hardened-app";
    exe_.needed = {kLibraries.begin(), kLibraries.end()};
    exe_.undefined = {"strlen", "strcpy", "strcat", "strcmp", "strncmp", "strchr", "strstr",
                      "strnlen", "memcpy", "memset", "memcmp", "memchr", "malloc", "free",
                      "atoi", "strtol", "atof", "isalpha", "isdigit", "toupper", "tolower",
                      "snprintf", "sprintf"};
  }

  void setup() override {
    toolkit_ = std::make_unique<Toolkit>();
    healers::injector::InjectorConfig config;
    config.seed = campaign_seed_;
    config.variants = 1;
    for (std::size_t i = 0; i < kLibraries.size(); ++i) {
      auto derived = toolkit_->derive_robust_api(kLibraries[i], config);
      if (!derived.ok()) throw std::runtime_error("set-up campaign: " + derived.error().message);
      campaigns_[i] = std::move(derived).take();
    }
  }

  void prepare(Checks& checks) override {
    Tracer off;
    for (std::size_t i = 0; i < programs_.size(); ++i) {
      references_.push_back(run(programs_[i], off));
      const RunFacts& ref = references_.back();
      checks.expect("reference run exits", ref.kind == CallOutcome::Kind::kExit, ref.detail);
      checks.expect("reference run contains every invalid call",
                    ref.contained >= programs_[i].invalid,
                    std::to_string(ref.contained) + " contained, " +
                        std::to_string(programs_[i].invalid) + " invalid");
    }
  }

  OpResult op(std::uint64_t index, Tracer& tracer) override {
    last_ = run(programs_[index % programs_.size()], tracer);
    return OpResult{static_cast<double>(last_.dispatched),
                    last_.kind != CallOutcome::Kind::kExit};
  }

  void check(std::uint64_t index, Checks& checks) override {
    const RunFacts& ref = references_[index % references_.size()];
    checks.expect("every run ends in kExit", last_.kind == CallOutcome::Kind::kExit,
                  last_.detail);
    checks.expect("run matches its reference (status, dispatched, contained, report bytes)",
                  last_.same_as(ref),
                  "status " + std::to_string(last_.status) + " vs " + std::to_string(ref.status) +
                      ", dispatched " + std::to_string(last_.dispatched) + " vs " +
                      std::to_string(ref.dispatched) + ", contained " +
                      std::to_string(last_.contained) + " vs " + std::to_string(ref.contained));
  }

  void finish(Checks&) override {}

  [[nodiscard]] std::uint64_t min_ops() const override { return programs_.size(); }
  [[nodiscard]] std::string work_unit() const override { return "library calls dispatched"; }
  [[nodiscard]] unsigned threads() const override { return 1; }

  [[nodiscard]] std::string params() const override {
    std::map<std::string, std::size_t> mix;
    std::size_t steps = 0;
    for (const Program& program : programs_) {
      for (const Step& step : program.steps) ++mix[category(step.call)];
      steps += program.steps.size();
    }
    JsonObject shares;
    for (const auto& [name, count] : mix) {
      shares.num(name, static_cast<double>(count) / static_cast<double>(steps));
    }
    double calls = 0;
    for (const RunFacts& ref : references_) calls += static_cast<double>(ref.dispatched);
    JsonObject out;
    out.integer("campaign_seed", static_cast<std::int64_t>(campaign_seed_))
        .str("wrappers", "profiling, robustness, security over libsimc.so.1 and libsimio.so.1")
        .integer("programs", static_cast<std::int64_t>(programs_.size()))
        .integer("steps_per_program", static_cast<std::int64_t>(kStepsPerProgram))
        .num("calls_per_run", references_.empty() ? 0.0 : calls / static_cast<double>(references_.size()))
        .num("invalid_share", kInvalidShare)
        .raw("call_mix", shares.render());
    return out.render();
  }

  [[nodiscard]] Counts counts() const override {
    Counts out;
    const double n = static_cast<double>(references_.size());
    for (const RunFacts& ref : references_) {
      out["wrappers.contained"] += static_cast<double>(ref.contained) / n;
      out["linker.calls_dispatched"] += static_cast<double>(ref.dispatched) / n;
      out["memmodel.heap_allocations"] += static_cast<double>(ref.heap_allocations) / n;
      out["profile.report_bytes"] += static_cast<double>(ref.reports.size()) / n;
      out["simlib.sim_cycles"] += static_cast<double>(ref.sim_cycles) / n;
    }
    out["simlib.sim_cycles_per_call"] =
        out["linker.calls_dispatched"] > 0 ? out["simlib.sim_cycles"] / out["linker.calls_dispatched"]
                                           : 0.0;
    out.erase("simlib.sim_cycles");
    return out;
  }

  // Wrapper overhead per call: the entry point of each program's valid
  // calls, bare versus under the full wrapper stack (bare runs would die on
  // the invalid calls). Alternates the two so host phases hit both alike.
  void traced_extras(Counts& out) override {
    constexpr int kRepeats = 15;
    std::vector<double> per_call_ns;
    for (const Program& program : programs_) {
      const Program valid = valid_only(program);
      std::vector<double> bare_ms;
      std::vector<double> wrapped_ms;
      std::uint64_t calls = 0;
      for (int r = 0; r < kRepeats; ++r) {
        for (const bool wrapped : {false, true}) {
          auto proc = toolkit_->spawn(
              exe_, wrapped ? preloads_of(build_stack())
                            : std::vector<healers::linker::InterpositionPtr>{});
          const std::int64_t start = now_ns();
          proc->run([&valid](Process& p) { return run_program(p, valid); });
          const double ms = static_cast<double>(now_ns() - start) / 1e6;
          (wrapped ? wrapped_ms : bare_ms).push_back(ms);
          if (!wrapped) calls = proc->calls_dispatched();
        }
      }
      if (calls > 0) {
        per_call_ns.push_back((quantile(wrapped_ms, 0.5) - quantile(bare_ms, 0.5)) * 1e6 /
                              static_cast<double>(calls));
      }
    }
    out["wrappers.overhead_ns_per_call"] = quantile(per_call_ns, 0.5);
  }

 private:
  // LD_PRELOAD order, outermost first: profiling sees every call, the
  // robustness checks contain invalid ones before the security guards.
  // Layout: [profiling x2, robustness x2, security x2], kLibraries order.
  std::vector<std::shared_ptr<ComposedWrapper>> build_stack() const {
    std::vector<std::shared_ptr<ComposedWrapper>> stack;
    for (const char* soname : kLibraries) stack.push_back(toolkit_->profiling_wrapper(soname).value());
    for (std::size_t i = 0; i < kLibraries.size(); ++i) {
      stack.push_back(toolkit_->robustness_wrapper(kLibraries[i], campaigns_[i]).value());
    }
    for (const char* soname : kLibraries) stack.push_back(toolkit_->security_wrapper(soname).value());
    return stack;
  }

  static std::vector<healers::linker::InterpositionPtr> preloads_of(
      const std::vector<std::shared_ptr<ComposedWrapper>>& stack) {
    return {stack.begin(), stack.end()};
  }

  RunFacts run(const Program& program, Tracer& tracer) const {
    RunFacts facts;
    std::vector<std::shared_ptr<ComposedWrapper>> stack;
    {
      Span span(tracer, "wrappers.build");
      stack = build_stack();
    }
    std::unique_ptr<Process> proc;
    {
      Span span(tracer, "linker.spawn");
      proc = toolkit_->spawn(exe_, preloads_of(stack));
    }
    const std::uint64_t cycles_before = proc->machine().rdtsc();
    CallOutcome outcome;
    {
      Span span(tracer, "linker.entry");
      outcome = proc->run([&program](Process& p) { return run_program(p, program); });
    }
    facts.kind = outcome.kind;
    facts.status = outcome.exit_code;
    facts.detail = outcome.to_string();
    facts.dispatched = proc->calls_dispatched();
    facts.sim_cycles = proc->machine().rdtsc() - cycles_before;
    facts.heap_allocations = proc->machine().heap().stats().allocations;
    {
      Span span(tracer, "profile.report");
      for (std::size_t i = 0; i < kLibraries.size(); ++i) {
        const healers::profile::ProfileReport report =
            healers::profile::build_report(exe_.name, stack[i]->name(), *stack[i]->stats());
        facts.reports += healers::fleet::encode_binary(report);
      }
    }
    for (std::size_t i = 0; i < kLibraries.size(); ++i) {
      facts.contained += stack[kLibraries.size() + i]->stats()->total_contained();
    }
    return facts;
  }

  std::uint64_t campaign_seed_ = 0;
  std::vector<Program> programs_;
  healers::linker::Executable exe_;
  std::unique_ptr<Toolkit> toolkit_;
  std::array<healers::injector::CampaignResult, kLibraries.size()> campaigns_;
  std::vector<RunFacts> references_;
  RunFacts last_;
};

}  // namespace

std::unique_ptr<Workload> make_app_workload(std::uint64_t seed) {
  return std::make_unique<AppWorkload>(seed);
}

}  // namespace perfbench
