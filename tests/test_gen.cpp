// Unit tests for the micro-generator framework: per-generator code
// fragments, the Fig 3 golden wrapper source, composer call semantics
// (prefix order, postfix reversal, short-circuit), the library builder, and
// wrapper stats.
#include <gtest/gtest.h>

#include "gen/composer.hpp"
#include "parser/manpage.hpp"
#include "testbed.hpp"

namespace healers::gen {
namespace {

using testbed::I;
using testbed::P;

parser::ManPage page_for(const std::string& symbol) {
  const simlib::Symbol* sym = testbed::libsimc().find(symbol);
  if (sym == nullptr) sym = testbed::libsimio().find(symbol);
  return parser::parse_manpage(sym->manpage).value();
}

std::vector<MicroGeneratorPtr> fig3_list() {
  return {prototype_gen(),    exectime_gen(),     collect_errors_gen(),
          func_errors_gen(),  call_counter_gen(), caller_gen()};
}

// The paper's Fig 3, regenerated: the wrapper for wctrans with function id
// 1206 and the six standard micro-generators. This golden pins both the
// fragment content and the prefix-order/postfix-reverse-order assembly.
TEST(EmitWrapperSource, Fig3GoldenWctrans) {
  const parser::ManPage page = page_for("wctrans");
  GenContext ctx{page.proto, 1206, nullptr, &page};
  const std::string source = emit_wrapper_source(ctx, fig3_list());
  const std::string expected =
      "/* Prefix code by micro-gen prototype */\n"
      "wctrans_t wctrans(const char *a1)\n"
      "{\n"
      "  wctrans_t ret;\n"
      "/* Prefix code by micro-gen function exectime */\n"
      "  unsigned long long exectime_start;\n"
      "  unsigned long long exectime_end;\n"
      "  rdtsc(exectime_start);\n"
      "/* Prefix code by micro-gen collect errors */\n"
      "  int collect_errors_err = errno;\n"
      "/* Prefix code by micro-gen func error */\n"
      "  int func_error_err = errno;\n"
      "/* Prefix code by micro-gen call counter */\n"
      "  ++call_counter_num_calls[1206];\n"
      "/* Postfix code by micro-gen caller */\n"
      "  ret = (*addr_wctrans)(a1);\n"
      "/* Postfix code by micro-gen func error */\n"
      "  if (func_error_err != errno) {\n"
      "    if (errno < 0 || errno >= MAX_ERRNO)\n"
      "      ++func_error_cnter[1206][MAX_ERRNO];\n"
      "    else\n"
      "      ++func_error_cnter[1206][errno];\n"
      "  }\n"
      "/* Postfix code by micro-gen collect errors */\n"
      "  if (collect_errors_err != errno) {\n"
      "    if (errno < 0 || errno >= MAX_ERRNO)\n"
      "      ++collect_errors_cnter[MAX_ERRNO];\n"
      "    else\n"
      "      ++collect_errors_cnter[errno];\n"
      "  }\n"
      "/* Postfix code by micro-gen function exectime */\n"
      "  rdtsc(exectime_end);\n"
      "  exectime[1206] += exectime_end - exectime_start;\n"
      "/* Postfix code by micro-gen prototype */\n"
      "  return ret;\n"
      "}\n";
  EXPECT_EQ(source, expected);
}

TEST(EmitWrapperSource, VoidFunctionHasNoRetVariable) {
  const parser::ManPage page = page_for("free");
  GenContext ctx{page.proto, 1, nullptr, &page};
  const std::string source = emit_wrapper_source(ctx, {prototype_gen(), caller_gen()});
  EXPECT_NE(source.find("void free(void *a1)"), std::string::npos);
  EXPECT_EQ(source.find("  void ret;"), std::string::npos);
  EXPECT_NE(source.find("  (*addr_free)(a1);"), std::string::npos);
  EXPECT_NE(source.find("  return;"), std::string::npos);
}

TEST(EmitWrapperSource, VarargsSignatureRendered) {
  const parser::ManPage page = page_for("sprintf");
  GenContext ctx{page.proto, 2, nullptr, &page};
  const std::string source = emit_wrapper_source(ctx, {prototype_gen(), caller_gen()});
  EXPECT_NE(source.find("int sprintf(char *a1, const char *a2, ...)"), std::string::npos);
}

TEST(EmitWrapperSource, ZeroArgFunction) {
  const parser::ManPage page = page_for("rand");
  GenContext ctx{page.proto, 3, nullptr, &page};
  const std::string source = emit_wrapper_source(ctx, {prototype_gen(), caller_gen()});
  EXPECT_NE(source.find("int rand(void)"), std::string::npos);
  EXPECT_NE(source.find("ret = (*addr_rand)();"), std::string::npos);
}

TEST(EmitWrapperSource, FunctionPointerParameterRendered) {
  const parser::ManPage page = page_for("qsort");
  GenContext ctx{page.proto, 9, nullptr, &page};
  const std::string source = emit_wrapper_source(ctx, {prototype_gen(), caller_gen()});
  EXPECT_NE(source.find("void qsort(void *a1, size_t a2, size_t a3, "
                        "int (*a4)(const void *, const void *))"),
            std::string::npos)
      << source;
  EXPECT_NE(source.find("(*addr_qsort)(a1, a2, a3, a4);"), std::string::npos);
}

TEST(MicroGenerators, NamesMatchFig3Labels) {
  EXPECT_EQ(prototype_gen()->name(), "prototype");
  EXPECT_EQ(caller_gen()->name(), "caller");
  EXPECT_EQ(exectime_gen()->name(), "function exectime");
  EXPECT_EQ(collect_errors_gen()->name(), "collect errors");
  EXPECT_EQ(func_errors_gen()->name(), "func error");
  EXPECT_EQ(call_counter_gen()->name(), "call counter");
  EXPECT_EQ(log_call_gen()->name(), "log call");
}

struct ComposerFixture : ::testing::Test {
  std::unique_ptr<linker::Process> proc = testbed::make_process();

  std::shared_ptr<ComposedWrapper> build(const std::vector<MicroGeneratorPtr>& gens) {
    WrapperBuilder builder("test-wrapper");
    for (const auto& gen : gens) builder.add(gen);
    auto wrapper = builder.build(testbed::libsimc());
    EXPECT_TRUE(wrapper.ok());
    return wrapper.value();
  }
};

TEST_F(ComposerFixture, CallCounterCountsPerFunction) {
  auto wrapper = build({call_counter_gen()});
  proc->preload(wrapper);
  const mem::Addr s = proc->alloc_cstring("abc");
  proc->call("strlen", {P(s)});
  proc->call("strlen", {P(s)});
  proc->call("atoi", {P(proc->alloc_cstring("1"))});
  EXPECT_EQ(wrapper->stats()->total_calls(), 3u);
  // Find the per-function entries by symbol.
  std::uint64_t strlen_calls = 0;
  for (const auto& [_, fn] : wrapper->stats()->functions()) {
    if (fn.symbol == "strlen") strlen_calls = fn.calls;
  }
  EXPECT_EQ(strlen_calls, 2u);
}

TEST_F(ComposerFixture, ExectimeAccumulatesCycles) {
  auto wrapper = build({exectime_gen()});
  proc->preload(wrapper);
  proc->call("strlen", {P(proc->alloc_cstring("0123456789"))});
  EXPECT_GE(wrapper->stats()->total_cycles(), 10u);
}

TEST_F(ComposerFixture, ErrnoHistogramsRecordChangesOnly) {
  auto wrapper = build({collect_errors_gen(), func_errors_gen()});
  proc->preload(wrapper);
  // strlen never sets errno: nothing recorded.
  proc->call("strlen", {P(proc->alloc_cstring("x"))});
  EXPECT_TRUE(wrapper->stats()->global_errnos().empty());
  // wctrans("bogus") sets EINVAL.
  proc->call("wctrans", {P(proc->alloc_cstring("bogus"))});
  ASSERT_EQ(wrapper->stats()->global_errnos().count(simlib::kEINVAL), 1u);
  EXPECT_EQ(wrapper->stats()->global_errnos().at(simlib::kEINVAL), 1u);
}

TEST_F(ComposerFixture, LogCallRecordsArgsAndOutcome) {
  auto wrapper = build({log_call_gen()});
  proc->preload(wrapper);
  proc->call("atoi", {P(proc->alloc_cstring("42"))});
  ASSERT_EQ(wrapper->stats()->trace().size(), 1u);
  const TraceRecord& rec = wrapper->stats()->trace()[0];
  EXPECT_EQ(rec.symbol, "atoi");
  ASSERT_EQ(rec.args.size(), 1u);
  EXPECT_EQ(rec.outcome, "42");
}

TEST_F(ComposerFixture, UnwrappedSymbolsPassThrough) {
  auto wrapper = build({call_counter_gen()});
  proc->preload(wrapper);
  proc->call("sqrt", {testbed::F(4.0)});  // libsimm fn: not wrapped
  EXPECT_EQ(wrapper->stats()->total_calls(), 0u);
}

// A hook that short-circuits to verify composer containment semantics.
class ShortCircuitGen : public MicroGenerator {
 public:
  explicit ShortCircuitGen(std::vector<std::string>& log) : log_(log) {}
  [[nodiscard]] std::string name() const override { return "short circuit"; }
  [[nodiscard]] std::string prefix_code(const GenContext&) const override { return {}; }
  [[nodiscard]] std::string postfix_code(const GenContext&) const override { return {}; }
  [[nodiscard]] RuntimeHookPtr make_hook(const GenContext&, WrapperStats&) const override {
    class Hook : public RuntimeHook {
     public:
      explicit Hook(std::vector<std::string>& log) : log_(log) {}
      const simlib::SimValue* prefix(simlib::CallContext&) override {
        log_.push_back("short");
        contained_ = simlib::SimValue::integer(-42);
        return &contained_;
      }
      void postfix(simlib::CallContext&, simlib::SimValue&) override {
        log_.push_back("short-postfix(should not run)");
      }

     private:
      std::vector<std::string>& log_;
      simlib::SimValue contained_ = simlib::SimValue::integer(0);
    };
    return std::make_unique<Hook>(log_);
  }

 private:
  std::vector<std::string>& log_;
};

// A1 (EXPERIMENTS.md): simulated cycles of one strlen call as the Fig 3
// features are composed one at a time, then the trace feature on top. Each
// micro-generator adds the same constant.
TEST_F(ComposerFixture, EachComposedMicroGeneratorAddsSixCycles) {
  const std::vector<MicroGeneratorPtr> features = {exectime_gen(), collect_errors_gen(),
                                                   func_errors_gen(), call_counter_gen(),
                                                   log_call_gen()};
  std::vector<std::uint64_t> cycles;
  for (std::size_t n = 0; n <= features.size(); ++n) {
    std::vector<MicroGeneratorPtr> gens = {prototype_gen()};
    gens.insert(gens.end(), features.begin(), features.begin() + static_cast<std::ptrdiff_t>(n));
    gens.push_back(caller_gen());
    auto wrapped = testbed::make_process();
    wrapped->preload(build(gens));
    const mem::Addr s = wrapped->rodata_cstring("ablation-probe");
    const std::uint64_t before = wrapped->machine().rdtsc();
    for (int call = 0; call < 3; ++call) wrapped->call("strlen", {P(s)});
    const std::uint64_t total = wrapped->machine().rdtsc() - before;
    EXPECT_EQ(total % 3, 0u) << n << " features: calls differ in cost";
    cycles.push_back(total / 3);
  }
  EXPECT_EQ(cycles, (std::vector<std::uint64_t>{16, 22, 28, 34, 40, 46}));
}

TEST_F(ComposerFixture, ShortCircuitSkipsCallAndPostfixes) {
  std::vector<std::string> log;
  WrapperBuilder builder("sc");
  builder.add(call_counter_gen())
      .add(std::make_shared<ShortCircuitGen>(log))
      .add(exectime_gen());
  auto wrapper = builder.build(testbed::libsimc()).value();
  proc->preload(wrapper);
  // strlen(NULL) would crash; the short circuit returns -42 first.
  EXPECT_EQ(proc->call("strlen", {P(0)}).as_int(), -42);
  ASSERT_EQ(log.size(), 1u);               // postfix never ran
  EXPECT_EQ(log[0], "short");
  EXPECT_EQ(wrapper->stats()->total_calls(), 1u);   // counter prefix ran first
  EXPECT_EQ(wrapper->stats()->total_cycles(), 0u);  // exectime never started
}

TEST_F(ComposerFixture, FunctionIdsAssignedSequentiallyFrom1200) {
  auto wrapper = build({call_counter_gen()});
  const auto& functions = wrapper->stats()->functions();
  ASSERT_FALSE(functions.empty());
  EXPECT_EQ(functions.begin()->first, kFirstFunctionId);
  int expected = kFirstFunctionId;
  for (const auto& [fid, _] : functions) {
    EXPECT_EQ(fid, expected++);
  }
}

TEST(WrapperBuilder, EmitLibrarySourceContainsEveryFunction) {
  WrapperBuilder builder("src");
  builder.add(prototype_gen()).add(caller_gen());
  auto source = builder.emit_library_source(testbed::libsimm());
  ASSERT_TRUE(source.ok());
  for (const std::string& name : testbed::libsimm().names()) {
    EXPECT_NE(source.value().find("addr_" + name), std::string::npos) << name;
  }
}

// Fig 3 (EXPERIMENTS.md): the whole-library source of the Fig 3 wrapper.
TEST(WrapperBuilder, Fig3WholeLibrarySourceSize) {
  WrapperBuilder builder("profiling-wrapper");
  for (const auto& gen : fig3_list()) builder.add(gen);
  const auto source = builder.emit_library_source(testbed::libsimc());
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(testbed::libsimc().size(), 60u);
  EXPECT_EQ(source.value().size(), 68920u);
}

TEST(WrapperBuilder, RejectsNullGenerator) {
  WrapperBuilder builder("x");
  EXPECT_THROW(builder.add(nullptr), std::invalid_argument);
}

TEST(WrapperStats, RegisterConflictingSymbolThrows) {
  WrapperStats stats;
  stats.register_function(1, "a");
  stats.register_function(1, "a");  // idempotent
  EXPECT_THROW(stats.register_function(1, "b"), std::logic_error);
}

TEST(WrapperStats, GlobalErrnoFoldsOutOfRangeIntoMaxBucket) {
  WrapperStats stats;
  stats.count_global_errno(-5);
  stats.count_global_errno(1000);
  stats.count_global_errno(simlib::kEINVAL);
  EXPECT_EQ(stats.global_errnos().at(simlib::kMaxErrno), 2u);
  EXPECT_EQ(stats.global_errnos().at(simlib::kEINVAL), 1u);
}

TEST(WrapperStats, TraceRespectsLimit) {
  WrapperStats stats;
  stats.set_trace_limit(2);
  for (int i = 0; i < 5; ++i) stats.append_trace(TraceRecord{"f", {}, "ok"});
  EXPECT_EQ(stats.trace().size(), 2u);
}

}  // namespace
}  // namespace healers::gen
