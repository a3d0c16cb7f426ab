// The standard micro-generators shown in the paper's Fig 3: prototype,
// caller, function exectime, collect errors, func errors, call counter —
// plus log call (the trace feature of the profiling wrapper, §3.3).
//
// Each one emits the C fragment of Fig 3 and a RuntimeHook with the same
// semantics against the simulated machine (rdtsc -> Machine::rdtsc, errno
// -> Machine::err, the stats arrays -> WrapperStats).
#include "gen/microgen.hpp"
#include "gen/stats.hpp"

namespace healers::gen {

namespace {

using parser::FunctionProto;
using simlib::CallContext;
using simlib::SimValue;

bool returns_void(const FunctionProto& proto) {
  return proto.return_type.classify() == parser::TypeClass::kVoid &&
         !proto.return_type.is_pointer();
}

// "a1, a2, a3" for the call site; "const char *a1" etc. for the signature.
std::string arg_list(const FunctionProto& proto) {
  std::string out;
  for (std::size_t i = 0; i < proto.params.size(); ++i) {
    if (i > 0) out += ", ";
    out += 'a';
    out += std::to_string(i + 1);
  }
  return out;
}

std::string param_list(const FunctionProto& proto) {
  if (proto.params.empty() && !proto.varargs) return "void";
  std::string out;
  for (std::size_t i = 0; i < proto.params.size(); ++i) {
    if (i > 0) out += ", ";
    out += proto.params[i].type.declare(std::string("a").append(std::to_string(i + 1)));
  }
  if (proto.varargs) out += ", ...";
  return out;
}

// --- prototype -------------------------------------------------------------

class PrototypeGen : public MicroGenerator {
 public:
  [[nodiscard]] std::string name() const override { return "prototype"; }

  [[nodiscard]] std::string prefix_code(const GenContext& ctx) const override {
    std::string out = ctx.proto.return_type.declare(ctx.proto.name);
    out.append("(").append(param_list(ctx.proto)).append(")\n{\n");
    if (!returns_void(ctx.proto)) {
      out += "  " + ctx.proto.return_type.declare("ret") + ";\n";
    }
    return out;
  }

  [[nodiscard]] std::string postfix_code(const GenContext& ctx) const override {
    return returns_void(ctx.proto) ? "  return;\n}\n" : "  return ret;\n}\n";
  }

  [[nodiscard]] RuntimeHookPtr make_hook(const GenContext&, WrapperStats&) const override {
    return nullptr;  // pure code structure
  }
};

// --- caller ----------------------------------------------------------------

class CallerGen : public MicroGenerator {
 public:
  [[nodiscard]] std::string name() const override { return "caller"; }

  [[nodiscard]] std::string prefix_code(const GenContext&) const override { return {}; }

  [[nodiscard]] std::string postfix_code(const GenContext& ctx) const override {
    const std::string call = "(*addr_" + ctx.proto.name + ")(" + arg_list(ctx.proto) + ");\n";
    return returns_void(ctx.proto) ? "  " + call : "  ret = " + call;
  }

  [[nodiscard]] RuntimeHookPtr make_hook(const GenContext&, WrapperStats&) const override {
    return nullptr;  // the composer performs the call itself
  }
};

// --- function exectime -------------------------------------------------------

class ExectimeHook : public RuntimeHook {
 public:
  // The FunctionStats node is resolved once here (register_function has
  // already run, and std::map nodes never move), not per call.
  ExectimeHook(WrapperStats& stats, int fid) : fn_(stats.function(fid)) {}

  const SimValue* prefix(CallContext& ctx) override {
    start_ = ctx.machine.rdtsc();
    return nullptr;
  }
  void postfix(CallContext& ctx, SimValue&) override {
    fn_.cycles += ctx.machine.rdtsc() - start_;
  }

 private:
  FunctionStats& fn_;
  std::uint64_t start_ = 0;
};

class ExectimeGen : public MicroGenerator {
 public:
  [[nodiscard]] std::string name() const override { return "function exectime"; }

  [[nodiscard]] std::string prefix_code(const GenContext&) const override {
    return "  unsigned long long exectime_start;\n"
           "  unsigned long long exectime_end;\n"
           "  rdtsc(exectime_start);\n";
  }
  [[nodiscard]] std::string postfix_code(const GenContext& ctx) const override {
    return "  rdtsc(exectime_end);\n  exectime[" + std::to_string(ctx.function_id) +
           "] += exectime_end - exectime_start;\n";
  }
  [[nodiscard]] RuntimeHookPtr make_hook(const GenContext& ctx,
                                         WrapperStats& stats) const override {
    return std::make_unique<ExectimeHook>(stats, ctx.function_id);
  }
};

// --- errno histograms --------------------------------------------------------

class ErrnoHook : public RuntimeHook {
 public:
  ErrnoHook(WrapperStats& stats, int fid, bool per_function)
      : stats_(stats), fn_(stats.function(fid)), per_function_(per_function) {}

  const SimValue* prefix(CallContext& ctx) override {
    saved_ = ctx.machine.err();
    return nullptr;
  }
  void postfix(CallContext& ctx, SimValue&) override {
    const int err = ctx.machine.err();
    if (err == saved_) return;
    if (per_function_) {
      const int bucket = (err < 0 || err >= simlib::kMaxErrno) ? simlib::kMaxErrno : err;
      ++fn_.errno_counts[bucket];
    } else {
      stats_.count_global_errno(err);
    }
  }

 private:
  WrapperStats& stats_;
  FunctionStats& fn_;
  bool per_function_;
  int saved_ = 0;
};

class CollectErrorsGen : public MicroGenerator {
 public:
  [[nodiscard]] std::string name() const override { return "collect errors"; }

  [[nodiscard]] std::string prefix_code(const GenContext&) const override {
    return "  int collect_errors_err = errno;\n";
  }
  [[nodiscard]] std::string postfix_code(const GenContext&) const override {
    return "  if (collect_errors_err != errno) {\n"
           "    if (errno < 0 || errno >= MAX_ERRNO)\n"
           "      ++collect_errors_cnter[MAX_ERRNO];\n"
           "    else\n"
           "      ++collect_errors_cnter[errno];\n"
           "  }\n";
  }
  [[nodiscard]] RuntimeHookPtr make_hook(const GenContext& ctx,
                                         WrapperStats& stats) const override {
    return std::make_unique<ErrnoHook>(stats, ctx.function_id, /*per_function=*/false);
  }
};

class FuncErrorsGen : public MicroGenerator {
 public:
  [[nodiscard]] std::string name() const override { return "func error"; }

  [[nodiscard]] std::string prefix_code(const GenContext&) const override {
    return "  int func_error_err = errno;\n";
  }
  [[nodiscard]] std::string postfix_code(const GenContext& ctx) const override {
    const std::string fid = std::to_string(ctx.function_id);
    return "  if (func_error_err != errno) {\n"
           "    if (errno < 0 || errno >= MAX_ERRNO)\n"
           "      ++func_error_cnter[" + fid + "][MAX_ERRNO];\n"
           "    else\n"
           "      ++func_error_cnter[" + fid + "][errno];\n"
           "  }\n";
  }
  [[nodiscard]] RuntimeHookPtr make_hook(const GenContext& ctx,
                                         WrapperStats& stats) const override {
    return std::make_unique<ErrnoHook>(stats, ctx.function_id, /*per_function=*/true);
  }
};

// --- call counter -------------------------------------------------------------

class CallCounterHook : public RuntimeHook {
 public:
  CallCounterHook(WrapperStats& stats, int fid) : fn_(stats.function(fid)) {}

  const SimValue* prefix(CallContext&) override {
    ++fn_.calls;
    return nullptr;
  }

 private:
  FunctionStats& fn_;
};

class CallCounterGen : public MicroGenerator {
 public:
  [[nodiscard]] std::string name() const override { return "call counter"; }

  [[nodiscard]] std::string prefix_code(const GenContext& ctx) const override {
    return "  ++call_counter_num_calls[" + std::to_string(ctx.function_id) + "];\n";
  }
  [[nodiscard]] std::string postfix_code(const GenContext&) const override { return {}; }
  [[nodiscard]] RuntimeHookPtr make_hook(const GenContext& ctx,
                                         WrapperStats& stats) const override {
    return std::make_unique<CallCounterHook>(stats, ctx.function_id);
  }
};

// --- log call -------------------------------------------------------------------

class LogCallHook : public RuntimeHook {
 public:
  LogCallHook(WrapperStats& stats, std::string symbol)
      : stats_(stats), symbol_(std::move(symbol)) {}

  const SimValue* prefix(CallContext& ctx) override {
    record_ = TraceRecord{};
    record_.symbol = symbol_;
    for (const SimValue& arg : ctx.args) record_.args.push_back(arg.to_string());
    return nullptr;
  }
  void postfix(CallContext&, SimValue& ret) override {
    record_.outcome = ret.to_string();
    stats_.append_trace(record_);
  }

 private:
  WrapperStats& stats_;
  std::string symbol_;
  TraceRecord record_;
};

class LogCallGen : public MicroGenerator {
 public:
  [[nodiscard]] std::string name() const override { return "log call"; }

  [[nodiscard]] std::string prefix_code(const GenContext& ctx) const override {
    return "  log_call_enter(" + std::to_string(ctx.function_id) + ", " +
           (ctx.proto.params.empty() ? std::string("0") : arg_list(ctx.proto)) + ");\n";
  }
  [[nodiscard]] std::string postfix_code(const GenContext& ctx) const override {
    return "  log_call_return(" + std::to_string(ctx.function_id) +
           (returns_void(ctx.proto) ? ", 0);\n" : ", ret);\n");
  }
  [[nodiscard]] RuntimeHookPtr make_hook(const GenContext& ctx,
                                         WrapperStats& stats) const override {
    return std::make_unique<LogCallHook>(stats, ctx.proto.name);
  }
};

}  // namespace

MicroGeneratorPtr prototype_gen() { return std::make_shared<PrototypeGen>(); }
MicroGeneratorPtr caller_gen() { return std::make_shared<CallerGen>(); }
MicroGeneratorPtr exectime_gen() { return std::make_shared<ExectimeGen>(); }
MicroGeneratorPtr collect_errors_gen() { return std::make_shared<CollectErrorsGen>(); }
MicroGeneratorPtr func_errors_gen() { return std::make_shared<FuncErrorsGen>(); }
MicroGeneratorPtr call_counter_gen() { return std::make_shared<CallCounterGen>(); }
MicroGeneratorPtr log_call_gen() { return std::make_shared<LogCallGen>(); }

}  // namespace healers::gen
