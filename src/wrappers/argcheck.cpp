// The arg-check micro-generator: the robustness wrapper's core.
//
// For every argument it enforces the union of (a) the DerivedChecks the
// fault injector produced and (b) the man page's size expressions and
// domain annotations. A failed check CONTAINS the fault: the base call is
// skipped, errno is set to EINVAL, and a type-appropriate error value is
// returned (NULL / -1 / NaN) — "prevents a large class of software
// failures (crashes, hangs, aborts)" (paper §2.1).
#include <algorithm>
#include <cmath>

#include "gen/microgen.hpp"
#include "gen/stats.hpp"
#include "simlib/bulk.hpp"
#include "simlib/cerrno.hpp"
#include "simlib/libstate.hpp"
#include "simlib/observer.hpp"
#include "simlib/printf_spec.hpp"
#include "wrappers/wrappers.hpp"

namespace healers::wrappers {

namespace {

using injector::DerivedChecks;
using parser::ArgAnnotation;
using parser::SizeExpr;
using simlib::CallContext;
using simlib::SimValue;

constexpr std::uint64_t kScanCap = 1 << 20;

// Type-appropriate error value for a contained call.
SimValue error_value(const parser::FunctionProto& proto) {
  if (proto.return_type.is_pointer()) return SimValue::null();
  switch (proto.return_type.classify()) {
    case parser::TypeClass::kFloating:
      return SimValue::fp(std::nan(""));
    case parser::TypeClass::kVoid:
      return SimValue::integer(0);
    default:
      return SimValue::integer(-1);
  }
}

// One argument's compiled checks: the union of derived and annotated
// preconditions, in the order the generated C would test them.
struct CompiledArg {
  int index_0based = 0;
  bool allownull = false;
  bool cursor = false;  // NULL valid only once the strtok cursor is set
  bool nonnull = false;
  bool mapped = false;
  bool writable = false;
  bool terminated = false;
  bool file = false;
  bool heapptr = false;
  bool funcptr = false;
  std::optional<int> saveptr_index;  // NULL valid only when *arg<k> is a string
  std::optional<std::pair<std::int64_t, std::int64_t>> range;
  std::optional<SizeExpr> write_size;
  std::optional<SizeExpr> read_size;
  bool is_pointer = false;

  [[nodiscard]] bool any() const noexcept {
    return nonnull || cursor || mapped || writable || terminated || file || heapptr ||
           funcptr || saveptr_index.has_value() || range.has_value() ||
           write_size.has_value() || read_size.has_value();
  }
};

std::vector<CompiledArg> compile_checks(const gen::GenContext& ctx, CheckSource source) {
  const bool use_notes = source != CheckSource::kDerivedOnly;
  const bool use_spec = source != CheckSource::kAnnotationsOnly;
  std::vector<CompiledArg> out;
  for (std::size_t i = 0; i < ctx.proto.params.size(); ++i) {
    CompiledArg arg;
    arg.index_0based = static_cast<int>(i);
    arg.is_pointer = ctx.proto.params[i].type.is_pointer();

    const ArgAnnotation* note =
        use_notes && ctx.page != nullptr ? ctx.page->arg(static_cast<int>(i) + 1) : nullptr;
    if (note != nullptr) {
      arg.allownull = note->allownull;
      arg.cursor = note->cursor;
      arg.nonnull = note->nonnull && !note->allownull;
      arg.terminated = note->cstring;
      arg.file = note->is_file;
      arg.heapptr = note->is_heapptr;
      arg.funcptr = note->is_funcptr;
      arg.saveptr_index = note->saveptr_index;
      arg.range = note->range;
      arg.write_size = note->write_size;
      arg.read_size = note->read_size;
      if (arg.terminated || arg.write_size || arg.read_size) arg.mapped = true;
      if (arg.write_size) arg.writable = true;
    }
    if (use_spec && ctx.spec != nullptr) {
      for (const injector::ArgSpec& spec_arg : ctx.spec->args) {
        if (spec_arg.index != static_cast<int>(i) + 1) continue;
        const DerivedChecks& derived = spec_arg.checks;
        arg.nonnull = arg.nonnull || (derived.require_nonnull && !arg.allownull);
        arg.mapped = arg.mapped || derived.require_mapped;
        arg.writable = arg.writable || derived.require_writable;
        arg.terminated = arg.terminated || derived.require_terminated;
        arg.file = arg.file || derived.require_file;
        arg.heapptr = arg.heapptr || derived.require_heap_pointer;
        arg.funcptr = arg.funcptr || derived.require_callback;
        if (!arg.range && derived.range) arg.range = derived.range;
      }
    }
    out.push_back(std::move(arg));
  }
  return out;
}

}  // namespace

namespace detail {

// Safe printf-length pre-pass (libsafe carried its own format parser for
// exactly this): computes the number of bytes the library's formatter will
// produce for the format string at argument `fmt_index_1based`, using only
// non-faulting reads and simlib's own conversion-spec parser. nullopt when
// the format or a %s argument cannot be safely measured (the caller then
// falls back to the conservative policy). Shared with the repair wrapper
// (declared in wrappers.hpp).
std::optional<std::uint64_t> safe_formatted_length(CallContext& ctx, int fmt_index_1based) {
  const mem::AddressSpace& space = ctx.machine.mem();
  const mem::Addr fmt = ctx.args.at(static_cast<std::size_t>(fmt_index_1based) - 1).as_ptr();
  std::size_t vararg = static_cast<std::size_t>(fmt_index_1based);  // varargs follow the format
  std::uint64_t length = 0;
  mem::Addr p = fmt;
  for (;;) {
    // Literal run: count bytes up to the next '%' or terminator per readable
    // span — the wrapper's own non-faulting (and untimed) pre-pass.
    char c = '\0';
    for (;;) {
      const std::uint64_t extent = space.span_extent(p, mem::Perm::kRead);
      if (extent == 0) return std::nullopt;
      const std::byte* sp = space.span(p, extent, mem::Perm::kRead);
      const std::uint64_t k = simlib::bulk::find_nul_or(sp, extent, '%');
      length += k;
      p += k;
      if (k < extent) {
        c = static_cast<char>(sp[k]);
        break;
      }
    }
    if (c == '\0') return length;
    const auto read = [&space](mem::Addr at, std::uint8_t& byte, bool /*ticked*/) {
      if (!space.accessible(at, 1, mem::Perm::kRead)) return false;
      byte = space.load8(at);
      return true;
    };
    const std::optional<simlib::ConvSpec> spec = simlib::parse_conv_spec(p, read);
    if (!spec) return std::nullopt;
    // The library fails such a call with EOVERFLOW before writing a byte.
    if (spec->width_overflow) return 0;
    p = spec->end;
    std::uint64_t piece = 0;
    switch (spec->conv) {
      case '%':
        piece = 1;
        break;
      case 'd':
      case 'i':
        if (vararg >= ctx.args.size()) return std::nullopt;
        piece = std::to_string(ctx.args[vararg++].as_int()).size();
        break;
      case 'u':
        if (vararg >= ctx.args.size()) return std::nullopt;
        piece = std::to_string(ctx.args[vararg++].as_uint()).size();
        break;
      case 'x': {
        if (vararg >= ctx.args.size()) return std::nullopt;
        std::uint64_t v = ctx.args[vararg++].as_uint();
        piece = 1;
        while (v > 0xF) {
          v >>= 4;
          ++piece;
        }
        break;
      }
      case 'c':
        if (vararg >= ctx.args.size()) return std::nullopt;
        ++vararg;
        piece = 1;
        break;
      case 'f':
        if (vararg >= ctx.args.size()) return std::nullopt;
        piece = std::to_string(ctx.args[vararg++].as_double()).size();
        break;
      case 's': {
        if (vararg >= ctx.args.size()) return std::nullopt;
        const auto len = parser::safe_cstrlen(space, ctx.args[vararg++].as_ptr(), kScanCap);
        if (!len.has_value()) return std::nullopt;
        piece = *len;
        break;
      }
      default:
        piece = 2;  // emitted verbatim: '%' + conv
    }
    length += std::max<std::uint64_t>(piece, static_cast<std::uint64_t>(spec->width));
    ++p;  // past the conversion character
  }
}

}  // namespace detail

namespace {

// Runtime validation of one argument; returns false when the call must be
// contained.
bool check_arg(const CompiledArg& arg, CallContext& ctx) {
  const mem::AddressSpace& space = ctx.machine.mem();
  if (!arg.is_pointer) {
    if (arg.range.has_value()) {
      const std::int64_t v = ctx.args.at(static_cast<std::size_t>(arg.index_0based)).as_int();
      if (v < arg.range->first || v > arg.range->second) return false;
    }
    return true;
  }

  const mem::Addr p = ctx.args.at(static_cast<std::size_t>(arg.index_0based)).as_ptr();
  if (p == 0) {
    // Stateful exception (strtok): NULL is valid only once the runtime's
    // hidden cursor exists; a first-call NULL would chase address 0.
    if (arg.cursor && ctx.state.strtok_cursor == 0) return false;
    // strtok_r-style: NULL is valid only when the caller's saveptr slot
    // holds a pointer to a readable string (i.e. a prior call primed it).
    if (arg.saveptr_index.has_value()) {
      const mem::Addr slot =
          ctx.args.at(static_cast<std::size_t>(*arg.saveptr_index) - 1).as_ptr();
      if (!space.accessible(slot, 8, mem::Perm::kRead)) return false;
      const mem::Addr cursor_value = space.load64(slot);
      if (!parser::safe_cstrlen(space, cursor_value, kScanCap).has_value()) return false;
    }
    // Otherwise NULL is fine when explicitly allowed (or nothing demands
    // non-NULL); the remaining pointer checks are vacuous for it.
    return !arg.nonnull;
  }
  if (arg.file) {
    // A live FILE*: readable 16-byte object, correct magic, live slot.
    if (!space.accessible(p, simlib::kFileObjSize, mem::Perm::kRead)) return false;
    if (space.load64(p) != simlib::kFileMagic) return false;
    const std::uint64_t slot = space.load64(p + 8);
    if (slot >= ctx.state.open_files.size() || !ctx.state.open_files[slot].live) return false;
    return true;
  }
  if (arg.heapptr) {
    return ctx.machine.heap().is_live(p);
  }
  if (arg.funcptr) {
    // A function pointer is valid only when it names registered application
    // code; everything else would be a jump into data.
    return ctx.state.callbacks.contains(p);
  }
  if (arg.mapped && !space.accessible(p, 1, mem::Perm::kRead)) return false;
  if (arg.writable && !space.accessible(p, 1, mem::Perm::kWrite)) return false;
  if (arg.terminated && !parser::safe_cstrlen(space, p, kScanCap).has_value()) return false;

  // Size expressions: the precise "buffer large enough" checks.
  if (arg.write_size || arg.read_size) {
    SizeExpr::EvalEnv env{space, {}, kScanCap,
                          [&ctx](int idx) { return detail::safe_formatted_length(ctx, idx); },
                          [&ctx]() -> std::optional<std::uint64_t> {
                            // Length of the pending stdin line (gets pre-pass).
                            const simlib::LibState& st = ctx.state;
                            if (st.stdin_pos >= st.stdin_content.size()) return 0;
                            const auto nl = st.stdin_content.find('\n', st.stdin_pos);
                            return (nl == std::string::npos ? st.stdin_content.size()
                                                            : nl) - st.stdin_pos;
                          }};
    for (const SimValue& v : ctx.args) env.args.push_back(v.as_uint());
    if (arg.write_size) {
      const auto need = arg.write_size->eval(env);
      // Unevaluable sizes (formatted(%), unterminated inputs) degrade to a
      // 1-byte writability check — the strongest statically safe demand.
      const std::uint64_t bytes = need.value_or(1);
      if (bytes > 0 && !space.accessible(p, bytes, mem::Perm::kWrite)) return false;
    }
    if (arg.read_size) {
      const auto need = arg.read_size->eval(env);
      const std::uint64_t bytes = need.value_or(1);
      if (bytes > 0 && !space.accessible(p, bytes, mem::Perm::kRead)) return false;
    }
  }
  return true;
}

class ArgCheckHook : public gen::RuntimeHook {
 public:
  ArgCheckHook(gen::WrapperStats& stats, const gen::GenContext& ctx, CheckSource source)
      : stats_(stats),
        fid_(ctx.function_id),
        error_(error_value(ctx.proto)),
        checks_(compile_checks(ctx, source)) {}

  const SimValue* prefix(CallContext& ctx) override {
    for (const CompiledArg& arg : checks_) {
      if (static_cast<std::size_t>(arg.index_0based) >= ctx.args.size()) continue;
      if (!arg.any()) continue;
      // The generated check code executes a handful of instructions per
      // precondition (plus scans, charged as real work would be).
      ctx.machine.add_cycles(4);
      if (arg.terminated || arg.write_size || arg.read_size) {
        ctx.machine.add_cycles(8);  // scan/evaluation cost approximation
      }
      if (!check_arg(arg, ctx)) {
        ctx.machine.set_err(simlib::kEINVAL);
        gen::FunctionStats& fstats = stats_.function(fid_);
        ++fstats.contained;
        if (ctx.state.observer != nullptr) {
          const SimValue& bad = ctx.args.at(static_cast<std::size_t>(arg.index_0based));
          ctx.state.observer->on_detection(
              ctx, simlib::DetectionKind::kArgCheck, fstats.symbol,
              "argument " + std::to_string(arg.index_0based + 1) +
                  " rejected (call contained with EINVAL)",
              arg.is_pointer ? bad.as_ptr() : 0);
        }
        return &error_;
      }
    }
    return nullptr;
  }

 private:
  gen::WrapperStats& stats_;
  int fid_;
  SimValue error_;
  std::vector<CompiledArg> checks_;
};

class ArgCheckGen : public gen::MicroGenerator {
 public:
  explicit ArgCheckGen(CheckSource source) : source_(source) {}

  [[nodiscard]] std::string name() const override { return "arg check"; }

  [[nodiscard]] std::string prefix_code(const gen::GenContext& ctx) const override {
    std::string out;
    const std::string err =
        ctx.proto.return_type.is_pointer()
            ? "NULL"
            : (ctx.proto.return_type.classify() == parser::TypeClass::kFloating ? "NAN" : "-1");
    const std::string contain = "{ errno = EINVAL; return " + err + "; }";
    for (const CompiledArg& arg : compile_checks(ctx, source_)) {
      const std::string a = std::string("a").append(std::to_string(arg.index_0based + 1));
      if (!arg.any()) continue;
      if (!arg.is_pointer) {
        if (arg.range) {
          out += "  if (" + a + " < " + std::to_string(arg.range->first) + " || " + a + " > " +
                 std::to_string(arg.range->second) + ") " + contain + "\n";
        }
        continue;
      }
      if (arg.nonnull) out += "  if (" + a + " == NULL) " + contain + "\n";
      const std::string guard = arg.allownull || !arg.nonnull ? a + " != NULL && " : "";
      if (arg.file) {
        out += "  if (" + guard + "!healers_valid_file(" + a + ")) " + contain + "\n";
        continue;
      }
      if (arg.heapptr) {
        out += "  if (" + guard + "!healers_live_heap_ptr(" + a + ")) " + contain + "\n";
        continue;
      }
      if (arg.funcptr) {
        out += "  if (" + guard + "!healers_valid_callback(" + a + ")) " + contain + "\n";
        continue;
      }
      if (arg.saveptr_index.has_value()) {
        out += "  if (" + a + " == NULL && !healers_valid_cursor(a" +
               std::to_string(*arg.saveptr_index) + ")) " + contain + "\n";
      }
      if (arg.mapped && !arg.terminated && !arg.write_size && !arg.read_size) {
        out += "  if (" + guard + "!healers_readable(" + a + ", 1)) " + contain + "\n";
      }
      if (arg.terminated) {
        out += "  if (" + guard + "!healers_terminated(" + a + ")) " + contain + "\n";
      }
      if (arg.write_size) {
        out += "  if (" + guard + "!healers_writable(" + a + ", " +
               arg.write_size->to_string() + ")) " + contain + "\n";
      } else if (arg.writable) {
        out += "  if (" + guard + "!healers_writable(" + a + ", 1)) " + contain + "\n";
      }
      if (arg.read_size) {
        out += "  if (" + guard + "!healers_readable(" + a + ", " +
               arg.read_size->to_string() + ")) " + contain + "\n";
      }
    }
    return out;
  }

  [[nodiscard]] std::string postfix_code(const gen::GenContext&) const override { return {}; }

  [[nodiscard]] gen::RuntimeHookPtr make_hook(const gen::GenContext& ctx,
                                              gen::WrapperStats& stats) const override {
    return std::make_unique<ArgCheckHook>(stats, ctx, source_);
  }

 private:
  CheckSource source_;
};

}  // namespace

gen::MicroGeneratorPtr arg_check_gen(CheckSource source) {
  return std::make_shared<ArgCheckGen>(source);
}

}  // namespace healers::wrappers
