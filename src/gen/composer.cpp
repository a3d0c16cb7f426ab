#include "gen/composer.hpp"

#include <stdexcept>

#include "parser/manpage.hpp"

namespace healers::gen {

ComposedWrapper::ComposedWrapper(std::string name, std::shared_ptr<WrapperStats> stats)
    : name_(std::move(name)), stats_(std::move(stats)) {
  if (stats_ == nullptr) throw std::invalid_argument("ComposedWrapper: null stats");
}

void ComposedWrapper::wrap_function(const GenContext& ctx,
                                    const std::vector<MicroGeneratorPtr>& gens) {
  Entry entry;
  entry.function_id = ctx.function_id;
  stats_->register_function(ctx.function_id, ctx.proto.name);
  for (const MicroGeneratorPtr& gen : gens) {
    RuntimeHookPtr hook = gen->make_hook(ctx, *stats_);
    if (hook != nullptr) entry.hooks.push_back(std::move(hook));
  }
  entries_[ctx.proto.name] = std::move(entry);
}

const void* ComposedWrapper::symbol_handle(const std::string& symbol) const {
  const auto it = entries_.find(symbol);
  return it == entries_.end() ? nullptr : static_cast<const void*>(&it->second);
}

simlib::SimValue ComposedWrapper::call_with_handle(const void* handle,
                                                   const std::string& /*symbol*/,
                                                   simlib::CallContext& ctx,
                                                   const linker::NextFn& next) {
  // The handle came from symbol_handle on this wrapper; entries_ only grows
  // (wrap_function), and std::map nodes never move, so the Entry is live.
  return run_entry(*const_cast<Entry*>(static_cast<const Entry*>(handle)), ctx, next);
}

simlib::SimValue ComposedWrapper::run_entry(Entry& entry, simlib::CallContext& ctx,
                                            const linker::NextFn& next) {
  // Prefixes in generator order; a short-circuit is the generated early
  // return (fault containment) — call and postfixes are skipped. Each
  // fragment executed charges the virtual cycle clock, as the generated
  // code's instructions would on real hardware (the per-feature cost the
  // A1 ablation measures).
  constexpr std::uint64_t kFragmentCycles = 3;
  for (const RuntimeHookPtr& hook : entry.hooks) {
    ctx.machine.add_cycles(kFragmentCycles);
    if (const simlib::SimValue* contained = hook->prefix(ctx)) {
      return *contained;
    }
  }
  simlib::SimValue ret = next(ctx);
  // Postfixes in reverse order (Fig 3 nesting).
  for (auto rit = entry.hooks.rbegin(); rit != entry.hooks.rend(); ++rit) {
    ctx.machine.add_cycles(kFragmentCycles);
    (*rit)->postfix(ctx, ret);
  }
  return ret;
}

std::string emit_wrapper_source(const GenContext& ctx,
                                const std::vector<MicroGeneratorPtr>& gens) {
  std::string out;
  for (const MicroGeneratorPtr& gen : gens) {
    const std::string frag = gen->prefix_code(ctx);
    if (frag.empty()) continue;
    out += "/* Prefix code by micro-gen " + gen->name() + " */\n";
    out += frag;
  }
  for (auto rit = gens.rbegin(); rit != gens.rend(); ++rit) {
    const std::string frag = (*rit)->postfix_code(ctx);
    if (frag.empty()) continue;
    out += "/* Postfix code by micro-gen " + (*rit)->name() + " */\n";
    out += frag;
  }
  return out;
}

WrapperBuilder::WrapperBuilder(std::string wrapper_name) : name_(std::move(wrapper_name)) {}

WrapperBuilder& WrapperBuilder::add(MicroGeneratorPtr gen) {
  if (gen == nullptr) throw std::invalid_argument("WrapperBuilder::add: null generator");
  gens_.push_back(std::move(gen));
  return *this;
}

namespace {

// Shared per-function iteration for build() and emit_library_source(). Each
// context points into the library's own parse (SharedLibrary::parsed_manpage).
Result<std::vector<GenContext>> collect_targets(const simlib::SharedLibrary& lib,
                                                const injector::CampaignResult* campaign) {
  std::vector<GenContext> out;
  int next_id = kFirstFunctionId;
  for (const std::string& name : lib.names()) {
    const Result<parser::ManPage>& page = lib.parsed_manpage(name);
    if (!page.ok()) {
      return Error("wrapping " + name + ": " + page.error().message);
    }
    out.push_back({page.value().proto, next_id++,
                   campaign != nullptr ? campaign->spec(name) : nullptr, &page.value()});
  }
  if (out.empty()) return Error("library " + lib.soname() + " has no wrappable functions");
  return out;
}

}  // namespace

Result<std::shared_ptr<ComposedWrapper>> WrapperBuilder::build(
    const simlib::SharedLibrary& lib, const injector::CampaignResult* campaign) const {
  auto targets = collect_targets(lib, campaign);
  if (!targets.ok()) return targets.error();
  auto wrapper = std::make_shared<ComposedWrapper>(name_, std::make_shared<WrapperStats>());
  for (const GenContext& ctx : targets.value()) wrapper->wrap_function(ctx, gens_);
  return wrapper;
}

Result<std::string> WrapperBuilder::emit_library_source(
    const simlib::SharedLibrary& lib, const injector::CampaignResult* campaign) const {
  auto targets = collect_targets(lib, campaign);
  if (!targets.ok()) return targets.error();
  std::string out = "/* " + name_ + ": generated wrapper for " + lib.soname() + " */\n\n";
  for (const GenContext& ctx : targets.value()) {
    out += emit_wrapper_source(ctx, gens_);
    out += '\n';
  }
  return out;
}

}  // namespace healers::gen
