#include "core/toolkit.hpp"

#include <algorithm>

#include "parser/header_parser.hpp"

namespace healers::core {
namespace {

// Digest of a surface scope's function list for the campaign-cache key:
// order-insensitive (the list is hashed sorted) and 0 exactly when unscoped.
std::uint64_t scope_digest(const std::vector<std::string>& names) {
  if (names.empty()) return 0;
  std::vector<std::string> sorted = names;
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::string& name : sorted) {
    for (const char c : name) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
    hash ^= '\0';
    hash *= 0x100000001b3ULL;
  }
  return hash != 0 ? hash : 1;  // a scoped campaign never shares slot 0
}

// A memo table's whole-library entries, in key order. Scoped entries are
// partial documents — meaningless without the executable whose closure
// defined the scope — so they are not portable.
template <class T>
std::vector<CacheEntry<T>> export_memo(const std::map<CampaignKey, T>& memo) {
  std::vector<CacheEntry<T>> out;
  for (const auto& [key, value] : memo) {
    if (key.scope == 0) out.push_back({key, value});
  }
  return out;
}

// Admits the entries whose library is installed with the same fingerprint;
// the others could never hit.
template <class T>
std::size_t import_memo(const linker::LibraryCatalog& catalog, std::mutex& mutex,
                        std::map<CampaignKey, T>& memo, std::vector<CacheEntry<T>> entries) {
  std::size_t admitted = 0;
  for (CacheEntry<T>& entry : entries) {
    const simlib::SharedLibrary* lib = catalog.find(entry.key.soname);
    if (lib == nullptr || lib->fingerprint() != entry.key.fingerprint) continue;
    std::lock_guard lock(mutex);
    memo.insert_or_assign(std::move(entry.key), std::move(entry.value));
    ++admitted;
  }
  return admitted;
}

// The memo key of a derive of `lib` under `config`.
CampaignKey key_of(const simlib::SharedLibrary& lib, const injector::InjectorConfig& config) {
  return {lib.soname(), lib.fingerprint(), config, scope_digest(config.only_functions)};
}

}  // namespace

Toolkit::Toolkit() {
  install_library(simlib::build_libsimc());
  install_library(simlib::build_libsimio());
  install_library(simlib::build_libsimm());
}

void Toolkit::install_library(simlib::SharedLibrary lib) {
  owned_.push_back(std::make_unique<simlib::SharedLibrary>(std::move(lib)));
  catalog_.install(owned_.back().get());
  // The load set changed: every cached pristine state baked in the old
  // catalog and would fork testbeds missing the new library.
  std::lock_guard lock(cache_mutex_);
  testbed_states_.clear();
}

std::vector<std::string> Toolkit::list_libraries() const { return catalog_.sonames(); }

Result<std::vector<std::string>> Toolkit::list_functions(const std::string& soname) const {
  const simlib::SharedLibrary* lib = catalog_.find(soname);
  if (lib == nullptr) return Error("no such library: " + soname);
  return lib->names();
}

Result<xml::Node> Toolkit::declaration_xml(const std::string& soname) const {
  const simlib::SharedLibrary* lib = catalog_.find(soname);
  if (lib == nullptr) return Error("no such library: " + soname);
  // Parse the library's own header text — the toolkit reads prototypes the
  // way it would from a third-party library, not out of band.
  auto parsed = parser::parse_header(lib->header_text());
  if (!parsed.ok()) return parsed.error();

  xml::Node node("library");
  node.set_attr("name", lib->soname());
  node.set_attr("version", lib->version());
  node.set_attr("functions", std::to_string(parsed.value().functions.size()));
  for (const parser::FunctionProto& proto : parsed.value().functions) {
    xml::Node& fn = node.add_child("function");
    fn.set_attr("name", proto.name);
    fn.set_attr("returns", proto.return_type.to_string());
    if (proto.varargs) fn.set_attr("varargs", "1");
    fn.add_text_child("prototype", proto.to_declaration());
    for (std::size_t i = 0; i < proto.params.size(); ++i) {
      xml::Node& param = fn.add_child("param");
      param.set_attr("index", std::to_string(i + 1));
      param.set_attr("type", proto.params[i].type.to_string());
      if (!proto.params[i].name.empty()) param.set_attr("name", proto.params[i].name);
    }
  }
  return node;
}

Result<injector::CampaignResult> Toolkit::derive_robust_api(
    const std::string& soname, injector::InjectorConfig config) const {
  const simlib::SharedLibrary* lib = catalog_.find(soname);
  if (lib == nullptr) return Error("no such library: " + soname);
  const CampaignKey key = key_of(*lib, config);
  std::shared_ptr<Inflight> flight;
  bool leader = false;
  {
    std::lock_guard lock(cache_mutex_);
    const auto it = campaign_cache_.find(key);
    if (it != campaign_cache_.end()) return it->second;
    auto [fit, inserted] = inflight_.try_emplace(key);
    if (inserted) {
      fit->second = std::make_shared<Inflight>();
      leader = true;
    }
    flight = fit->second;
  }
  if (!leader) {
    // Another thread is already running this exact campaign: wait for it and
    // share its outcome instead of burning a second campaign's probes.
    std::unique_lock lock(flight->mutex);
    flight->done_cv.wait(lock, [&flight] { return flight->done; });
    return flight->outcome;
  }
  injector::FaultInjector injector(catalog_, config);
  // Thread the shared implication profiles through: this campaign is warmed
  // by every earlier derive, and what it learns warms the next.
  injector.set_profile_store(profiles_);
  const mem::MachineConfig machine = config.machine();
  {
    // Hand the injector the cached pristine state for this machine shape, if
    // any — the campaign then skips setup entirely and forks straight from
    // the shared image.
    std::lock_guard lock(cache_mutex_);
    const auto it = testbed_states_.find(machine);
    if (it != testbed_states_.end()) injector.set_testbed_state(it->second);
  }
  auto campaign = injector.run_campaign(*lib);
  probes_executed_.fetch_add(injector.probes_executed(), std::memory_order_relaxed);
  probes_implied_.fetch_add(injector.probes_implied(), std::memory_order_relaxed);
  {
    std::lock_guard lock(cache_mutex_);
    if (campaign.ok()) campaign_cache_.insert_or_assign(key, campaign.value());
    inflight_.erase(key);  // failures are not cached; a later call retries
    // Remember the pristine state the campaign built (or keep the one it
    // adopted) so the next derive — any library, any seed — reuses it.
    if (auto state = injector.testbed_state()) {
      testbed_states_.insert_or_assign(machine, std::move(state));
    }
  }
  {
    std::lock_guard lock(flight->mutex);
    flight->outcome = campaign;
    flight->done = true;
  }
  flight->done_cv.notify_all();
  return campaign;
}

Result<gen::RepairPolicy> Toolkit::derive_repair_policy(const std::string& soname,
                                                        injector::InjectorConfig config) const {
  const simlib::SharedLibrary* lib = catalog_.find(soname);
  if (lib == nullptr) return Error("no such library: " + soname);
  const CampaignKey key = key_of(*lib, config);
  {
    std::lock_guard lock(cache_mutex_);
    const auto it = repair_cache_.find(key);
    if (it != repair_cache_.end()) return it->second;
  }
  auto campaign = derive_robust_api(soname, config);
  if (!campaign.ok()) return campaign.error();
  auto policy = gen::derive_repair_policy(campaign.value(), *lib);
  if (!policy.ok()) return policy.error();
  std::lock_guard lock(cache_mutex_);
  repair_cache_.insert_or_assign(key, policy.value());
  return policy;
}

std::vector<CachedCampaign> Toolkit::export_campaigns() const {
  std::lock_guard lock(cache_mutex_);
  return export_memo(campaign_cache_);
}

std::size_t Toolkit::import_campaigns(std::vector<CachedCampaign> entries) const {
  return import_memo(catalog_, cache_mutex_, campaign_cache_, std::move(entries));
}

std::vector<CachedRepairPolicy> Toolkit::export_repair_policies() const {
  std::lock_guard lock(cache_mutex_);
  return export_memo(repair_cache_);
}

std::size_t Toolkit::import_repair_policies(std::vector<CachedRepairPolicy> entries) const {
  return import_memo(catalog_, cache_mutex_, repair_cache_, std::move(entries));
}

bool Toolkit::install_surface_scope(SurfaceScope scope) const {
  const simlib::SharedLibrary* lib = catalog_.find(scope.soname);
  if (lib == nullptr) return false;
  if (scope.fingerprint == 0) scope.fingerprint = lib->fingerprint();
  if (scope.fingerprint != lib->fingerprint()) return false;
  std::sort(scope.symbols.begin(), scope.symbols.end());
  scope.symbols.erase(std::unique(scope.symbols.begin(), scope.symbols.end()),
                      scope.symbols.end());
  std::lock_guard lock(cache_mutex_);
  surface_scopes_.insert_or_assign({scope.executable, scope.soname}, std::move(scope));
  return true;
}

std::vector<SurfaceScope> Toolkit::export_surface_scopes() const {
  std::vector<SurfaceScope> out;
  std::lock_guard lock(cache_mutex_);
  out.reserve(surface_scopes_.size());
  for (const auto& [_, scope] : surface_scopes_) out.push_back(scope);
  return out;
}

std::size_t Toolkit::import_surface_scopes(std::vector<SurfaceScope> entries) const {
  std::size_t admitted = 0;
  for (SurfaceScope& entry : entries) {
    if (install_surface_scope(std::move(entry))) ++admitted;
  }
  return admitted;
}

std::vector<std::string> Toolkit::surface_scope_for(const std::string& soname) const {
  std::vector<std::string> out;
  std::lock_guard lock(cache_mutex_);
  for (const auto& [key, scope] : surface_scopes_) {
    if (key.second != soname) continue;
    out.insert(out.end(), scope.symbols.begin(), scope.symbols.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

linker::LinkMap Toolkit::inspect(const linker::Executable& exe) const {
  return linker::inspect_executable(exe, catalog_);
}

Result<std::shared_ptr<gen::ComposedWrapper>> Toolkit::robustness_wrapper(
    const std::string& soname, const injector::CampaignResult& campaign) const {
  const simlib::SharedLibrary* lib = catalog_.find(soname);
  if (lib == nullptr) return Error("no such library: " + soname);
  return wrappers::make_robustness_wrapper(*lib, campaign);
}

Result<std::shared_ptr<gen::ComposedWrapper>> Toolkit::security_wrapper(
    const std::string& soname) const {
  const simlib::SharedLibrary* lib = catalog_.find(soname);
  if (lib == nullptr) return Error("no such library: " + soname);
  return wrappers::make_security_wrapper(*lib);
}

Result<std::shared_ptr<gen::ComposedWrapper>> Toolkit::profiling_wrapper(
    const std::string& soname, bool include_trace) const {
  const simlib::SharedLibrary* lib = catalog_.find(soname);
  if (lib == nullptr) return Error("no such library: " + soname);
  return wrappers::make_profiling_wrapper(*lib, include_trace);
}

Result<std::shared_ptr<gen::ComposedWrapper>> Toolkit::repair_wrapper(
    const std::string& soname, const injector::CampaignResult& campaign) const {
  const simlib::SharedLibrary* lib = catalog_.find(soname);
  if (lib == nullptr) return Error("no such library: " + soname);
  return wrappers::make_repair_wrapper(*lib, campaign);
}

Result<std::string> Toolkit::wrapper_source(const std::string& soname,
                                            const gen::WrapperBuilder& builder,
                                            const injector::CampaignResult* campaign) const {
  const simlib::SharedLibrary* lib = catalog_.find(soname);
  if (lib == nullptr) return Error("no such library: " + soname);
  return builder.emit_library_source(*lib, campaign);
}

std::unique_ptr<linker::Process> Toolkit::spawn(const linker::Executable& exe,
                                                std::vector<linker::InterpositionPtr> preloads,
                                                mem::MachineConfig config) const {
  return linker::spawn(exe, catalog_, std::move(preloads), config);
}

}  // namespace healers::core
