// Wrapper composition: assembles micro-generators into
//   (a) a ComposedWrapper — an executable interposition for the simulated
//       linker, with one RuntimeHook chain per wrapped function, and
//   (b) the wrapper's C source (emit_wrapper_source / library source),
//       byte-identical in structure to the paper's Fig 3.
//
// Call semantics mirror the generated C: prefix fragments run in generator
// order, the base call runs, postfix fragments run in REVERSE order. A
// prefix that short-circuits (fault containment) returns immediately — the
// generated C's early `return err;` — skipping the call and all postfixes.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "gen/microgen.hpp"
#include "gen/stats.hpp"
#include "linker/interpose.hpp"
#include "simlib/library.hpp"
#include "support/result.hpp"

namespace healers::gen {

class ComposedWrapper : public linker::Interposition {
 public:
  ComposedWrapper(std::string name, std::shared_ptr<WrapperStats> stats);

  // Installs a hook chain for ctx.proto.name built from `gens`.
  void wrap_function(const GenContext& ctx, const std::vector<MicroGeneratorPtr>& gens);

  [[nodiscard]] std::string name() const override { return name_; }

  // The handle is the symbol's Entry (map nodes are stable), so interposed
  // calls do no per-call entries_.find.
  [[nodiscard]] const void* symbol_handle(const std::string& symbol) const override;
  simlib::SimValue call_with_handle(const void* handle, const std::string& symbol,
                                    simlib::CallContext& ctx,
                                    const linker::NextFn& next) override;

  [[nodiscard]] const std::shared_ptr<WrapperStats>& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t wrapped_count() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    int function_id = 0;
    std::vector<RuntimeHookPtr> hooks;
  };

  simlib::SimValue run_entry(Entry& entry, simlib::CallContext& ctx,
                             const linker::NextFn& next);

  std::string name_;
  std::shared_ptr<WrapperStats> stats_;
  std::map<std::string, Entry> entries_;
};

// Emits the Fig 3 wrapper function source for one function.
[[nodiscard]] std::string emit_wrapper_source(const GenContext& ctx,
                                              const std::vector<MicroGeneratorPtr>& gens);

// Fluent builder: configure a feature set once, then build the wrapper (and
// its source) for a whole library. Function ids are assigned 1200, 1201, ...
// over the library's sorted symbol list (Fig 3 shows id 1206).
class WrapperBuilder {
 public:
  explicit WrapperBuilder(std::string wrapper_name);

  WrapperBuilder& add(MicroGeneratorPtr gen);

  // Builds the executable wrapper over every function of `lib`. `campaign`
  // (optional) supplies robust specs to generators that use them. Fails
  // with "wrapping <name>: <parse error>" when any function's man page does
  // not parse, and when the library has no functions.
  [[nodiscard]] Result<std::shared_ptr<ComposedWrapper>> build(
      const simlib::SharedLibrary& lib,
      const injector::CampaignResult* campaign = nullptr) const;

  // Emits the whole wrapper library's C source (one Fig 3 function per
  // symbol, same ids as build()).
  [[nodiscard]] Result<std::string> emit_library_source(
      const simlib::SharedLibrary& lib,
      const injector::CampaignResult* campaign = nullptr) const;

  [[nodiscard]] const std::vector<MicroGeneratorPtr>& generators() const noexcept {
    return gens_;
  }

 private:
  std::string name_;
  std::vector<MicroGeneratorPtr> gens_;
};

inline constexpr int kFirstFunctionId = 1200;

}  // namespace healers::gen
