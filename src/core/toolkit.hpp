// The HEALERS toolkit facade — the operations the paper demonstrates:
//
//   §3.1 library-centric: list all libraries, list all functions defined in
//        a library, emit the XML declaration file describing each
//        function's prototype, derive the robust API by fault injection;
//   §3.2 application-centric: extract an executable's linked libraries and
//        undefined functions;
//   §2.3 wrapper generation: build robustness / security / profiling
//        wrappers (and their C source) and spawn processes with wrappers
//        preloaded.
//
// A Toolkit owns the installed shared libraries; every Process it spawns
// borrows them, so keep the Toolkit alive while processes run.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gen/composer.hpp"
#include "injector/injector.hpp"
#include "linker/executable.hpp"
#include "support/result.hpp"
#include "wrappers/wrappers.hpp"
#include "xml/xml.hpp"

namespace healers::core {

// Everything a memoized campaign is a function of: the library's soname and
// content fingerprint, the campaign parameters, and the surface scope — 0 for
// a whole-library campaign, a digest of InjectorConfig::only_functions
// otherwise. `jobs`, `snapshot_reset` and `prune` are deliberately absent:
// the engine guarantees bit-identical results for any combination, so all
// of them share one cache slot. The fingerprint keeps entries honest: an
// updated library hashes differently and simply never hits.
struct CampaignKey {
  std::string soname;
  std::uint64_t fingerprint = 0;
  injector::CampaignParams params;
  std::uint64_t scope = 0;

  auto operator<=>(const CampaignKey&) const = default;
};

// One memo entry with its key spelled out — the portable form the derivation
// server's spec cache serializes (HSCE1 campaigns, HSRP1 repair policies), so
// a fresh process can answer derive requests with zero probes. A repair
// policy is a pure function of the campaign document (plus the library's man
// pages), so it is valid exactly when the campaign under the same key is.
// Scoped campaigns are partial documents and are never exported, so a cache
// file holds whole-library entries only and does not carry the scope.
template <class T>
struct CacheEntry {
  CampaignKey key;
  T value;
};
using CachedCampaign = CacheEntry<injector::CampaignResult>;
using CachedRepairPolicy = CacheEntry<gen::RepairPolicy>;

// One executable's demand-driven surface scope for one library: the symbols
// its static closure (debloat::compute_reachability) can reach there. The
// derivation service scopes campaigns to the union of installed scopes, and
// persists them as HSSP1 spec-cache entries. The fingerprint keeps scopes
// honest the same way campaign entries are: a rebuilt library never matches.
struct SurfaceScope {
  std::string executable;
  std::string soname;
  std::uint64_t fingerprint = 0;
  std::vector<std::string> symbols;  // sorted

  [[nodiscard]] bool operator==(const SurfaceScope& other) const = default;
};

class Toolkit {
 public:
  // Installs the stock simulated libraries (libsimc, libsimio, libsimm).
  Toolkit();

  // Installs an additional library (takes ownership).
  void install_library(simlib::SharedLibrary lib);

  // --- demo §3.1: library-centric -----------------------------------------
  [[nodiscard]] std::vector<std::string> list_libraries() const;
  [[nodiscard]] Result<std::vector<std::string>> list_functions(const std::string& soname) const;
  // The XML declaration file: every function's parsed prototype.
  [[nodiscard]] Result<xml::Node> declaration_xml(const std::string& soname) const;
  // Fault-injection campaign deriving the library's robust API (Fig 2).
  //
  // Memoized under its CampaignKey: a repeated derive runs zero probes
  // (observable via probes_executed()).
  //
  // Single-flight: when M threads race on one key, exactly one runs the
  // campaign; the others block on its completion and share the result, so
  // probes_executed() rises by one campaign's worth no matter how many
  // callers collide. Distinct keys still derive concurrently.
  [[nodiscard]] Result<injector::CampaignResult> derive_robust_api(
      const std::string& soname, injector::InjectorConfig config = {}) const;

  // Probes executed by all campaigns this toolkit has run; cache hits add
  // nothing. The handle for cache-effectiveness tests and benches.
  [[nodiscard]] std::uint64_t probes_executed() const noexcept {
    return probes_executed_.load(std::memory_order_relaxed);
  }
  // Probe cases synthesized from the subsumption lattice instead of executed
  // (DESIGN.md, "Subsumption pruning") across all campaigns.
  [[nodiscard]] std::uint64_t probes_implied() const noexcept {
    return probes_implied_.load(std::memory_order_relaxed);
  }

  // The cross-campaign implication-profile store every derive this toolkit
  // runs learns into and orders probes by. Shared so the derivation server
  // can persist it (HSIP1 entries in the spec-cache file) and preload a warm
  // fleet.
  [[nodiscard]] const std::shared_ptr<lattice::ImplicationProfileStore>&
  implication_profiles() const noexcept {
    return profiles_;
  }

  // Derives the repair policy for `soname` from its (memoized) robust-API
  // campaign: derive_robust_api + gen::derive_repair_policy, memoized under
  // the same key. Warm fleets therefore ship repaired wrappers with zero
  // probes once either the campaign or the policy is cached.
  [[nodiscard]] Result<gen::RepairPolicy> derive_repair_policy(
      const std::string& soname, injector::InjectorConfig config = {}) const;

  // --- persistent spec cache (derivation service) ---------------------------
  // Every memoized campaign, with its key spelled out, in deterministic key
  // order — the derivation server's spec cache serializes this.
  [[nodiscard]] std::vector<CachedCampaign> export_campaigns() const;
  // Every memoized repair policy, same contract as export_campaigns (HSRP1).
  [[nodiscard]] std::vector<CachedRepairPolicy> export_repair_policies() const;
  // Preloads memoized repair policies; same admission rules as
  // import_campaigns. Returns the number of entries admitted.
  std::size_t import_repair_policies(std::vector<CachedRepairPolicy> entries) const;
  // Preloads memoized campaigns (e.g. parsed from a cache file). Entries for
  // libraries this toolkit does not have installed, or whose fingerprint no
  // longer matches the installed library, are skipped — they could never hit.
  // Returns the number of entries actually admitted.
  std::size_t import_campaigns(std::vector<CachedCampaign> entries) const;

  // --- demand-driven surface scopes (docs/debloat.md) -----------------------
  // Records which symbols of scope.soname one executable can reach. A zero
  // fingerprint is filled in from the installed library; a stale or unknown
  // library rejects the scope. Returns whether the scope was installed.
  bool install_surface_scope(SurfaceScope scope) const;
  // Every installed scope, sorted by (executable, soname) — the HSSP1
  // serialization order.
  [[nodiscard]] std::vector<SurfaceScope> export_surface_scopes() const;
  // Preloads scopes (e.g. parsed from a cache file); same admission rules as
  // install_surface_scope. Returns the number of entries admitted.
  std::size_t import_surface_scopes(std::vector<SurfaceScope> entries) const;
  // Union of every installed scope's symbols for `soname`, sorted. Empty
  // means no executable's scope mentions the library — derive unscoped.
  [[nodiscard]] std::vector<std::string> surface_scope_for(const std::string& soname) const;

  // --- demo §3.2: application-centric --------------------------------------
  [[nodiscard]] linker::LinkMap inspect(const linker::Executable& exe) const;

  // --- wrapper generation (§2.3) -------------------------------------------
  [[nodiscard]] Result<std::shared_ptr<gen::ComposedWrapper>> robustness_wrapper(
      const std::string& soname, const injector::CampaignResult& campaign) const;
  [[nodiscard]] Result<std::shared_ptr<gen::ComposedWrapper>> security_wrapper(
      const std::string& soname) const;
  [[nodiscard]] Result<std::shared_ptr<gen::ComposedWrapper>> profiling_wrapper(
      const std::string& soname, bool include_trace = false) const;
  [[nodiscard]] Result<std::shared_ptr<gen::ComposedWrapper>> repair_wrapper(
      const std::string& soname, const injector::CampaignResult& campaign) const;

  // The generated wrapper library's C source (Fig 3 per function).
  [[nodiscard]] Result<std::string> wrapper_source(
      const std::string& soname, const gen::WrapperBuilder& builder,
      const injector::CampaignResult* campaign = nullptr) const;

  // --- running applications -------------------------------------------------
  // Spawns the executable with the given wrappers preloaded (LD_PRELOAD
  // order: first wrapper sees calls first).
  [[nodiscard]] std::unique_ptr<linker::Process> spawn(
      const linker::Executable& exe, std::vector<linker::InterpositionPtr> preloads = {},
      mem::MachineConfig config = {}) const;

  [[nodiscard]] const linker::LibraryCatalog& catalog() const noexcept { return catalog_; }
  [[nodiscard]] const simlib::SharedLibrary* library(const std::string& soname) const {
    return catalog_.find(soname);
  }

 private:
  // One in-flight campaign: the first thread to miss the cache runs it, any
  // thread that arrives while it runs waits here and shares the outcome
  // (including failures — they are not cached, so a later call retries).
  struct Inflight {
    std::mutex mutex;
    std::condition_variable done_cv;
    bool done = false;
    Result<injector::CampaignResult> outcome{Error("campaign in flight")};
  };

  std::vector<std::unique_ptr<simlib::SharedLibrary>> owned_;
  linker::LibraryCatalog catalog_;

  mutable std::mutex cache_mutex_;
  mutable std::map<CampaignKey, injector::CampaignResult> campaign_cache_;
  mutable std::map<CampaignKey, gen::RepairPolicy> repair_cache_;
  mutable std::map<CampaignKey, std::shared_ptr<Inflight>> inflight_;
  // A pristine TestbedState depends only on the catalog and the machine
  // shape — not on which library a campaign probes, the seed, or variants.
  // One cached state therefore serves every derive (and every concurrent
  // request in the derivation server): each campaign forks O(metadata)
  // shells from it instead of re-running setup. Invalidated wholesale by
  // install_library (the load set changed).
  mutable std::map<mem::MachineConfig, std::shared_ptr<const linker::TestbedState>>
      testbed_states_;
  // Installed surface scopes, keyed (executable, soname) — one scope per
  // executable per library, latest install wins.
  mutable std::map<std::pair<std::string, std::string>, SurfaceScope> surface_scopes_;
  mutable std::atomic<std::uint64_t> probes_executed_{0};
  mutable std::atomic<std::uint64_t> probes_implied_{0};
  std::shared_ptr<lattice::ImplicationProfileStore> profiles_ =
      std::make_shared<lattice::ImplicationProfileStore>();
};

}  // namespace healers::core
