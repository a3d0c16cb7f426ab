// Heap-canary micro-generator — the security wrapper's heap-smashing
// defence (paper §3.4, technique from [3] "Detecting heap smashing attacks
// through fault containment wrappers").
//
// The wrapper cannot change the C library, so it protects from the outside:
//   * malloc/calloc/realloc are forwarded with 8 extra bytes; the wrapper
//     plants a canary (secret ^ address) right after the user area and
//     records the allocation in its own table;
//   * free/realloc verify the canary BEFORE forwarding — a clobbered canary
//     means an overflow already corrupted the neighbouring chunk header, so
//     the wrapper aborts the process before free() can execute the unsafe
//     unlink (the exploit's arbitrary-write primitive);
//   * every other wrapped call re-verifies the canary of any tracked
//     allocation its pointer arguments touch, catching the smash at the
//     first wrapped call after it happens.
#include <map>

#include "gen/microgen.hpp"
#include "gen/stats.hpp"
#include "simlib/cerrno.hpp"
#include "simlib/libstate.hpp"
#include "simlib/observer.hpp"
#include "wrappers/wrappers.hpp"

namespace healers::wrappers {

namespace {

using simlib::CallContext;
using simlib::SimValue;

constexpr std::uint64_t kCanarySize = 8;
constexpr std::uint64_t kCanarySecret = 0x1dea5eedcafef00dULL;

}  // namespace

struct HeapGuardState {
  std::map<mem::Addr, std::uint64_t> allocations;  // user addr -> requested size

  [[nodiscard]] std::uint64_t canary_for(mem::Addr user) const noexcept {
    return kCanarySecret ^ (user * 0x9e3779b97f4a7c15ULL);
  }

  void plant(CallContext& ctx, mem::Addr user, std::uint64_t size) {
    ctx.machine.mem().store64(user + size, canary_for(user));
    allocations[user] = size;
  }

  // Verifies the canary of the allocation starting at `user`; throws
  // SimAbort on mismatch — the wrapper terminating the attacked process.
  void verify(CallContext& ctx, mem::Addr user, const std::string& at) const {
    auto it = allocations.find(user);
    if (it == allocations.end()) return;
    const std::uint64_t stored = ctx.machine.mem().load64(user + it->second);
    if (stored != canary_for(user)) {
      const std::string detail = "canary clobbered for allocation of " +
                                 std::to_string(it->second) + " bytes";
      if (ctx.state.observer != nullptr) {
        ctx.state.observer->on_detection(ctx, simlib::DetectionKind::kHeapSmash, at, detail,
                                         user);
      }
      throw SimAbort("security wrapper: heap smashing detected at " + at +
                     " (canary clobbered for allocation " + hex_addr(user) + ")");
    }
  }

  // The tracked allocation containing `p`, if any.
  [[nodiscard]] std::optional<mem::Addr> owner_of(mem::Addr p) const {
    auto it = allocations.upper_bound(p);
    if (it == allocations.begin()) return std::nullopt;
    --it;
    if (p < it->first + it->second + kCanarySize) return it->first;
    return std::nullopt;
  }
};

namespace {

class HeapGuardHook : public gen::RuntimeHook {
 public:
  // The allocator role is fixed per wrapped symbol, so classify once at
  // composition instead of string-comparing on every call.
  enum class Fn : std::uint8_t { kMalloc, kCalloc, kRealloc, kFree, kOther };

  HeapGuardHook(std::shared_ptr<HeapGuardState> state, std::string symbol)
      : state_(std::move(state)), symbol_(std::move(symbol)) {
    if (symbol_ == "malloc") fn_ = Fn::kMalloc;
    else if (symbol_ == "calloc") fn_ = Fn::kCalloc;
    else if (symbol_ == "realloc") fn_ = Fn::kRealloc;
    else if (symbol_ == "free") fn_ = Fn::kFree;
  }

  const SimValue* prefix(CallContext& ctx) override {
    if (fn_ == Fn::kMalloc) {
      requested_ = ctx.args.at(0).as_uint();
      if (requested_ + kCanarySize < requested_) {  // size overflow
        ctx.machine.set_err(simlib::kENOMEM);
        return &contained_;
      }
      ctx.args[0] = SimValue::integer(static_cast<std::int64_t>(requested_ + kCanarySize));
      return nullptr;
    }
    if (fn_ == Fn::kCalloc) {
      const std::uint64_t nmemb = ctx.args.at(0).as_uint();
      const std::uint64_t size = ctx.args.at(1).as_uint();
      // Fix the historical multiplication-overflow bug from the outside.
      if (size != 0 && nmemb > ~std::uint64_t{0} / size) {
        ctx.machine.set_err(simlib::kENOMEM);
        return &contained_;
      }
      requested_ = nmemb * size;
      if (requested_ + kCanarySize < requested_) {
        ctx.machine.set_err(simlib::kENOMEM);
        return &contained_;
      }
      ctx.args[0] = SimValue::integer(1);
      ctx.args[1] = SimValue::integer(static_cast<std::int64_t>(requested_ + kCanarySize));
      return nullptr;
    }
    if (fn_ == Fn::kRealloc) {
      const mem::Addr old = ctx.args.at(0).as_ptr();
      if (old != 0) state_->verify(ctx, old, "realloc");
      requested_ = ctx.args.at(1).as_uint();
      if (requested_ != 0) {
        if (requested_ + kCanarySize < requested_) {
          ctx.machine.set_err(simlib::kENOMEM);
          return &contained_;
        }
        ctx.args[1] = SimValue::integer(static_cast<std::int64_t>(requested_ + kCanarySize));
      }
      return nullptr;
    }
    if (fn_ == Fn::kFree) {
      const mem::Addr p = ctx.args.at(0).as_ptr();
      if (p != 0) state_->verify(ctx, p, "free");
      return nullptr;
    }
    return nullptr;
  }

  void postfix(CallContext& ctx, SimValue& ret) override {
    if (fn_ == Fn::kMalloc || fn_ == Fn::kCalloc) {
      if (ret.as_ptr() != 0) state_->plant(ctx, ret.as_ptr(), requested_);
      return;
    }
    if (fn_ == Fn::kRealloc) {
      const mem::Addr old = ctx.args.at(0).as_ptr();
      if (requested_ == 0) {  // realloc(p, 0) freed
        if (old != 0) state_->allocations.erase(old);
        return;
      }
      if (ret.as_ptr() != 0) {
        if (old != 0) state_->allocations.erase(old);
        state_->plant(ctx, ret.as_ptr(), requested_);
      }
      return;
    }
    if (fn_ == Fn::kFree) {
      const mem::Addr p = ctx.args.at(0).as_ptr();
      if (p != 0) state_->allocations.erase(p);
      return;
    }
    // Generic functions: re-verify the canary of every tracked allocation a
    // pointer argument touches — the first wrapped call after a smash trips
    // this, stopping the attack before any free()/unlink runs.
    for (const SimValue& arg : ctx.args) {
      if (arg.kind() != SimValue::Kind::kPtr) continue;
      if (const auto owner = state_->owner_of(arg.as_ptr())) {
        state_->verify(ctx, *owner, symbol_);
      }
    }
  }

 private:
  std::shared_ptr<HeapGuardState> state_;
  std::string symbol_;
  Fn fn_ = Fn::kOther;
  SimValue contained_ = SimValue::null();  // storage behind a containment return
  std::uint64_t requested_ = 0;
};

class HeapCanaryGen : public gen::MicroGenerator {
 public:
  HeapCanaryGen() : state_(std::make_shared<HeapGuardState>()) {}

  [[nodiscard]] std::string name() const override { return "heap canary"; }

  [[nodiscard]] std::string prefix_code(const gen::GenContext& ctx) const override {
    const std::string& fn = ctx.proto.name;
    if (fn == "malloc") return "  a1 += CANARY_SIZE;\n";
    if (fn == "calloc") {
      return "  if (a2 != 0 && a1 > SIZE_MAX / a2) { errno = ENOMEM; return NULL; }\n"
             "  a1 = a1 * a2 + CANARY_SIZE; a2 = 1;\n";
    }
    if (fn == "realloc") {
      return "  healers_canary_verify(a1);\n  if (a2 != 0) a2 += CANARY_SIZE;\n";
    }
    if (fn == "free") return "  healers_canary_verify(a1);\n";
    return {};
  }

  [[nodiscard]] std::string postfix_code(const gen::GenContext& ctx) const override {
    const std::string& fn = ctx.proto.name;
    if (fn == "malloc" || fn == "calloc" || fn == "realloc") {
      return "  if (ret != NULL) healers_canary_plant(ret);\n";
    }
    if (fn == "free") return "  healers_canary_untrack(a1);\n";
    std::string out;
    for (std::size_t i = 0; i < ctx.proto.params.size(); ++i) {
      if (!ctx.proto.params[i].type.is_pointer()) continue;
      out += "  healers_canary_check_touched(a" + std::to_string(i + 1) + ");\n";
    }
    return out;
  }

  [[nodiscard]] gen::RuntimeHookPtr make_hook(const gen::GenContext& ctx,
                                              gen::WrapperStats&) const override {
    return std::make_unique<HeapGuardHook>(state_, ctx.proto.name);
  }

 private:
  std::shared_ptr<HeapGuardState> state_;
};

}  // namespace

gen::MicroGeneratorPtr heap_canary_gen() { return std::make_shared<HeapCanaryGen>(); }

}  // namespace healers::wrappers
