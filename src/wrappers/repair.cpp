// Repair micro-generator (ISSUE 9) — the wrapper family that *survives*
// attacks instead of rejecting (argcheck) or detecting (canaries) them.
//
// Two strategies, both driven by the campaign-derived RepairPolicy
// (gen/repair_policy.hpp) rather than hand-written function knowledge:
//
//   * failure-oblivious truncation (Rigger et al., arXiv:1806.09026): when a
//     memcpy-class call would write past the destination's known extent, the
//     wrapper clamps the caller-visible length argument to the extent and
//     lets the call proceed — the overflow bytes are simply never written;
//   * safe substitution (S3Library, arXiv:2004.09062): when a strcpy-class
//     call's computed write size exceeds the extent, the wrapper performs
//     the bounded copy itself (NUL-terminated, strlcpy semantics) and skips
//     the unbounded callee entirely. Computed writes with no copyable
//     source (sprintf past the extent) degrade to an empty NUL-terminated
//     output; invalid input strings degrade to the documented error return.
//
// The wrapper keeps its own allocation-extent table, fed by observing
// malloc/calloc/realloc/free — no canaries are planted and no sizes are
// resized, so a process whose calls never need repair behaves
// bit-identically to an unwrapped one. Every applied repair notifies the
// observer seam (on_repair), which the incident flight recorder turns into
// a RepairEvent plus a kRepair dossier.
#include <algorithm>
#include <map>

#include "gen/microgen.hpp"
#include "gen/repair_policy.hpp"
#include "gen/stats.hpp"
#include "simlib/cerrno.hpp"
#include "simlib/libstate.hpp"
#include "simlib/observer.hpp"
#include "wrappers/wrappers.hpp"

namespace healers::wrappers {

namespace {

using gen::RepairPolicy;
using gen::RepairRule;
using simlib::CallContext;
using simlib::RepairAction;
using simlib::SimValue;

constexpr std::uint64_t kScanCap = 1 << 20;

// Type-appropriate error value for a safe return (mirrors argcheck).
SimValue safe_error_value(const parser::FunctionProto& proto) {
  if (proto.return_type.is_pointer()) return SimValue::null();
  switch (proto.return_type.classify()) {
    case parser::TypeClass::kFloating:
      return SimValue::fp(0.0);
    case parser::TypeClass::kVoid:
      return SimValue::integer(0);
    default:
      return SimValue::integer(-1);
  }
}

// Per-process allocation-extent table. Unlike HeapGuardState this is pure
// bookkeeping: nothing is planted and no argument is resized, so tracking
// alone never perturbs the wrapped process.
struct RepairState {
  std::map<mem::Addr, std::uint64_t> allocations;  // user addr -> requested size

  // The tracked allocation containing `p`, if any: (base, size).
  [[nodiscard]] std::optional<std::pair<mem::Addr, std::uint64_t>> owner_of(mem::Addr p) const {
    auto it = allocations.upper_bound(p);
    if (it == allocations.begin()) return std::nullopt;
    --it;
    if (p < it->first + it->second) return std::make_pair(it->first, it->second);
    return std::nullopt;
  }
};

// The number of bytes that may safely be written starting at `dest`:
// the tracked heap allocation's remaining room when known (the tight bound
// the heap arena's page permissions cannot provide), else the room before
// the enclosing stack frame's return address, else the raw writable span.
// 0 when dest is not writable at all.
std::uint64_t writable_extent(const RepairState& state, CallContext& ctx, mem::Addr dest) {
  if (const auto owner = state.owner_of(dest)) {
    return owner->first + owner->second - dest;
  }
  // Allocation made through a different library's wrapper (malloc lives in
  // one library; the repaired writer may live in another): the arena's own
  // chunk metadata still bounds the write, just rounded up to chunk size.
  if (ctx.machine.heap().is_live(dest)) return ctx.machine.heap().usable_size(dest);
  if (const mem::Frame* frame = ctx.machine.stack().frame_of(dest)) {
    if (dest < frame->ret_slot) return frame->ret_slot - dest;
  }
  return ctx.machine.mem().span_extent(dest, mem::Perm::kWrite);
}

class RepairHook : public gen::RuntimeHook {
 public:
  enum class Fn : std::uint8_t { kMalloc, kCalloc, kRealloc, kFree, kOther };

  RepairHook(std::shared_ptr<RepairState> state, const gen::GenContext& ctx,
             const gen::FunctionRepairPolicy* policy)
      : state_(std::move(state)), symbol_(ctx.proto.name), error_(safe_error_value(ctx.proto)) {
    if (symbol_ == "malloc") fn_ = Fn::kMalloc;
    else if (symbol_ == "calloc") fn_ = Fn::kCalloc;
    else if (symbol_ == "realloc") fn_ = Fn::kRealloc;
    else if (symbol_ == "free") fn_ = Fn::kFree;
    if (policy != nullptr) rules_ = policy->rules;
    returns_pointer_ = ctx.proto.return_type.is_pointer();
  }

  const SimValue* prefix(CallContext& ctx) override {
    // Allocator bookkeeping: record the requested size, never change it.
    switch (fn_) {
      case Fn::kMalloc:
        requested_ = ctx.args.at(0).as_uint();
        return nullptr;
      case Fn::kCalloc: {
        const std::uint64_t nmemb = ctx.args.at(0).as_uint();
        const std::uint64_t size = ctx.args.at(1).as_uint();
        requested_ = (size != 0 && nmemb > ~std::uint64_t{0} / size) ? 0 : nmemb * size;
        return nullptr;
      }
      case Fn::kRealloc:
        requested_ = ctx.args.at(1).as_uint();
        return nullptr;
      case Fn::kFree:
        return nullptr;
      case Fn::kOther:
        break;
    }

    for (const RepairRule& rule : rules_) {
      if (static_cast<std::size_t>(rule.arg_index) > ctx.args.size()) continue;
      const SimValue* contained = apply(rule, ctx);
      if (contained != nullptr) return contained;
    }
    return nullptr;
  }

  void postfix(CallContext& ctx, SimValue& ret) override {
    switch (fn_) {
      case Fn::kMalloc:
      case Fn::kCalloc:
        if (ret.as_ptr() != 0) state_->allocations[ret.as_ptr()] = requested_;
        return;
      case Fn::kRealloc: {
        const mem::Addr old = ctx.args.at(0).as_ptr();
        if (requested_ == 0) {
          if (old != 0) state_->allocations.erase(old);
          return;
        }
        if (ret.as_ptr() != 0) {
          if (old != 0) state_->allocations.erase(old);
          state_->allocations[ret.as_ptr()] = requested_;
        }
        return;
      }
      case Fn::kFree: {
        const mem::Addr p = ctx.args.at(0).as_ptr();
        if (p != 0) state_->allocations.erase(p);
        return;
      }
      case Fn::kOther:
        return;
    }
  }

 private:
  void notify(CallContext& ctx, RepairAction action, const RepairRule& rule, mem::Addr addr,
              std::uint64_t requested, std::uint64_t granted, const std::string& what) const {
    if (ctx.state.observer == nullptr) return;
    ctx.state.observer->on_repair(ctx, action, symbol_, what + "; " + rule.provenance, addr,
                                  requested, granted);
  }

  [[nodiscard]] parser::SizeExpr::EvalEnv eval_env(CallContext& ctx) const {
    parser::SizeExpr::EvalEnv env{ctx.machine.mem(), {}, kScanCap,
                                  [&ctx](int idx) {
                                    return detail::safe_formatted_length(ctx, idx);
                                  },
                                  [&ctx]() -> std::optional<std::uint64_t> {
                                    const simlib::LibState& st = ctx.state;
                                    if (st.stdin_pos >= st.stdin_content.size()) return 0;
                                    const auto nl = st.stdin_content.find('\n', st.stdin_pos);
                                    return (nl == std::string::npos ? st.stdin_content.size()
                                                                    : nl) - st.stdin_pos;
                                  }};
    for (const SimValue& v : ctx.args) env.args.push_back(v.as_uint());
    return env;
  }

  // Applies one rule. Returns non-null to short-circuit the base call.
  const SimValue* apply(const RepairRule& rule, CallContext& ctx) {
    const mem::AddressSpace& space = ctx.machine.mem();

    if (rule.action == RepairAction::kSafeReturn) {
      // Invalid input string: skip the call, manufacture the documented
      // error value. A valid string passes through untouched.
      const mem::Addr p = ctx.args.at(static_cast<std::size_t>(rule.arg_index) - 1).as_ptr();
      if (p != 0 && parser::safe_cstrlen(space, p, kScanCap).has_value()) return nullptr;
      ctx.machine.set_err(simlib::kEINVAL);
      notify(ctx, RepairAction::kSafeReturn, rule, p, 0, 0,
             "invalid input string; call skipped, error value returned");
      return &error_;
    }

    const mem::Addr dest = ctx.args.at(static_cast<std::size_t>(rule.arg_index) - 1).as_ptr();
    if (dest == 0) return nullptr;  // argcheck-class territory, not repairable
    const std::uint64_t extent = writable_extent(*state_, ctx, dest);
    if (extent == 0) return nullptr;

    if (rule.action == RepairAction::kTruncateWrite) {
      // memcpy-class: the caller passes the length; clamp it to the extent.
      const std::uint64_t needed =
          ctx.args.at(static_cast<std::size_t>(rule.clamp_arg) - 1).as_uint();
      if (needed <= extent) return nullptr;
      ctx.args[static_cast<std::size_t>(rule.clamp_arg) - 1] =
          SimValue::integer(static_cast<std::int64_t>(extent));
      notify(ctx, RepairAction::kTruncateWrite, rule, dest, needed, extent,
             "write truncated to destination extent");
      return nullptr;  // the (now-bounded) call proceeds
    }

    // kSubstituteBounded: measure the computed write; within bounds means no
    // repair, past them means the wrapper performs the bounded variant.
    const auto needed = rule.write_size.has_value() ? rule.write_size->eval(eval_env(ctx))
                                                    : std::nullopt;
    if (!needed.has_value()) return nullptr;  // unmeasurable: detect layer's job
    if (*needed <= extent) return nullptr;

    // Where the write starts inside the destination buffer: after the
    // existing string for append (strcat) rules.
    std::uint64_t offset = 0;
    if (rule.append) {
      const auto dest_len = parser::safe_cstrlen(space, dest, kScanCap);
      if (!dest_len.has_value()) return nullptr;
      offset = std::min(*dest_len, extent - 1);
    }

    if (rule.src_arg != 0) {
      // strcpy/strcat-class: bounded copy with NUL termination (strlcpy
      // semantics), then skip the unbounded callee.
      const mem::Addr src = ctx.args.at(static_cast<std::size_t>(rule.src_arg) - 1).as_ptr();
      const auto src_len = parser::safe_cstrlen(space, src, kScanCap);
      if (!src_len.has_value()) return nullptr;  // safe-return rule handles it
      const std::uint64_t room = extent - offset;  // >= 1
      const std::uint64_t ncopy = std::min(*src_len, room - 1);
      mem::AddressSpace& wspace = ctx.machine.mem();
      for (std::uint64_t i = 0; i < ncopy; ++i) {
        wspace.store8(dest + offset + i, wspace.load8(src + i));
      }
      wspace.store8(dest + offset + ncopy, 0);
      ctx.machine.add_cycles(ncopy + 1);  // the bounded variant still copies
      notify(ctx, RepairAction::kSubstituteBounded, rule, dest, *needed, offset + ncopy + 1,
             "bounded copy substituted for unbounded write");
      result_ = returns_pointer_ ? SimValue::ptr(dest)
                                 : SimValue::integer(static_cast<std::int64_t>(ncopy));
      return &result_;
    }

    // Computed write with no copyable source (sprintf past the extent):
    // synthesize an empty NUL-terminated output — the most conservative
    // failure-oblivious result — and skip the callee.
    ctx.machine.mem().store8(dest + offset, 0);
    ctx.machine.add_cycles(1);
    notify(ctx, RepairAction::kSynthesizeInput, rule, dest, *needed, offset + 1,
           "unrepresentable bounded write; empty output synthesized");
    result_ = returns_pointer_ ? SimValue::ptr(dest) : SimValue::integer(0);
    return &result_;
  }

  std::shared_ptr<RepairState> state_;
  std::string symbol_;
  Fn fn_ = Fn::kOther;
  SimValue error_;          // storage behind a safe-return short-circuit
  SimValue result_ = SimValue::null();  // storage behind a substitution return
  std::vector<RepairRule> rules_;
  bool returns_pointer_ = false;
  std::uint64_t requested_ = 0;
};

class RepairGen : public gen::MicroGenerator {
 public:
  explicit RepairGen(std::shared_ptr<const RepairPolicy> policy)
      : policy_(std::move(policy)), state_(std::make_shared<RepairState>()) {}

  [[nodiscard]] std::string name() const override { return "repair"; }

  [[nodiscard]] std::string prefix_code(const gen::GenContext& ctx) const override {
    const gen::FunctionRepairPolicy* fn =
        policy_ != nullptr ? policy_->policy(ctx.proto.name) : nullptr;
    if (fn == nullptr) return {};
    const std::string err = ctx.proto.return_type.is_pointer() ? "NULL" : "-1";
    std::string out;
    for (const RepairRule& rule : fn->rules) {
      const std::string a = std::string("a").append(std::to_string(rule.arg_index));
      switch (rule.action) {
        case RepairAction::kTruncateWrite:
          out += "  a" + std::to_string(rule.clamp_arg) + " = healers_repair_clamp(" + a +
                 ", a" + std::to_string(rule.clamp_arg) + ");\n";
          break;
        case RepairAction::kSubstituteBounded:
          if (!rule.write_size.has_value()) break;
          out += "  if (!healers_room_for(" + a + ", " + rule.write_size->to_string() +
                 ")) return healers_bounded_" + (rule.append ? "append" : "copy") + "(" + a +
                 (rule.src_arg != 0 ? ", a" + std::to_string(rule.src_arg) : "") + ");\n";
          break;
        case RepairAction::kSynthesizeInput:
          break;  // runtime degradation of substitute; no extra fragment
        case RepairAction::kSafeReturn:
          out += "  if (!healers_valid_input(" + a + ")) { errno = EINVAL; return " + err +
                 "; }\n";
          break;
      }
    }
    return out;
  }

  [[nodiscard]] std::string postfix_code(const gen::GenContext& ctx) const override {
    const std::string& fn = ctx.proto.name;
    if (fn == "malloc" || fn == "calloc" || fn == "realloc") {
      return "  if (ret != NULL) healers_repair_track(ret);\n";
    }
    if (fn == "free") return "  healers_repair_untrack(a1);\n";
    return {};
  }

  [[nodiscard]] gen::RuntimeHookPtr make_hook(const gen::GenContext& ctx,
                                              gen::WrapperStats&) const override {
    const gen::FunctionRepairPolicy* fn =
        policy_ != nullptr ? policy_->policy(ctx.proto.name) : nullptr;
    return std::make_unique<RepairHook>(state_, ctx, fn);
  }

 private:
  std::shared_ptr<const RepairPolicy> policy_;
  std::shared_ptr<RepairState> state_;
};

}  // namespace

gen::MicroGeneratorPtr repair_gen(std::shared_ptr<const gen::RepairPolicy> policy) {
  return std::make_shared<RepairGen>(std::move(policy));
}

}  // namespace healers::wrappers
