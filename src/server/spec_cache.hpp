// Persistent spec cache for the derivation service (ISSUE 5).
//
// HEALERS' premise is that robust APIs are derived ONCE per library and then
// reused to harden any application on the host (paper §2.2); this file makes
// "once" survive the process. A cache file is the toolkit's campaign memo
// table with every key spelled out, so a fresh server (or a fresh `healers
// derive` run) imports it and answers matching requests with zero probes —
// observable via Toolkit::probes_executed().
//
// On-disk format: one document stream (HFDS1, fleet::frame_stream) whose
// payloads are cache entries, each a record with its own magic: campaigns
// (HSCE1, nesting an HCB1 campaign), implication profiles (HSIP1), repair
// policies (HSRP1, nesting a <repair-policy> XML document) and surface
// scopes (HSSP1). Their layouts are the Layout field lists at the end of
// this file; HSCE1 and HSRP1 share one key, core::CampaignKey.
//
// Repair-policy entries (ISSUE 9) carry campaign-derived RepairPolicy
// documents under the same key and fingerprint discipline as campaigns, so
// a warm fleet ships repaired wrappers without re-deriving (docs/repair.md).
//
// Surface-scope entries (docs/debloat.md) record which symbols of a library
// one executable's static closure can reach; a loaded toolkit scopes
// --debloat campaigns to the union of its installed scopes.
//
// Profile entries carry the cross-campaign implication learning (DESIGN.md,
// "Subsumption pruning"): a warm server fleet loads them and orders/prunes
// probes for novel-but-related argument signatures. A campaign-only file
// (written before profiles existed) still loads — the dispatch just finds
// no HSIP1 payloads.
//
// The fingerprint is part of the key: entries recorded against an older
// build of a library decode fine but are skipped at import, so a cache file
// can never serve stale specs. Both layers are strict decoders — a
// truncated or alien file is an error, never a partial cache. The one
// deliberate leniency is forward compatibility: a payload whose magic this
// build does not know (an entry kind a NEWER writer added) is skipped and
// counted, not fatal — old readers keep serving what they understand.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/toolkit.hpp"
#include "fleet/record.hpp"
#include "server/codec.hpp"
#include "support/result.hpp"

namespace healers::server {

// Everything one cache file holds, in file order.
struct CacheImage {
  std::vector<core::CachedCampaign> campaigns;
  std::vector<lattice::SignatureProfile> profiles;
  std::vector<core::CachedRepairPolicy> repairs;
  std::vector<core::SurfaceScope> scopes;
  std::size_t skipped_unknown = 0;  // payloads of a kind this build does not know
};

// A cache image <-> the framed file bytes. Encoding is deterministic given
// deterministic entry order (the toolkit exports in canonical key order).
[[nodiscard]] std::string encode_cache_file(const CacheImage& image);
[[nodiscard]] Result<CacheImage> decode_cache_file(std::string_view bytes);

// Convenience file I/O: save the toolkit's memo table AND its learned
// implication profiles / import a saved file of either vintage.
// load_cache_file returns the number of campaign entries admitted (entries
// whose library or fingerprint no longer matches are decoded but skipped;
// profile/repair/surface entries merge into the toolkit's stores). Payloads
// with an unrecognized magic are counted into *skipped_unknown (when
// non-null) and otherwise ignored — never an error.
[[nodiscard]] Status save_cache_file(const core::Toolkit& toolkit, const std::string& path);
[[nodiscard]] Result<std::size_t> load_cache_file(const core::Toolkit& toolkit,
                                                  const std::string& path,
                                                  std::size_t* skipped_unknown = nullptr);

}  // namespace healers::server

namespace healers::fleet::record {

// The key HSCE1 and HSRP1 entries share. The scope is not written: only
// whole-library entries are exported (scope 0).
template <>
struct Layout<core::CampaignKey> {
  template <class V, class R>
  static void fields(V& v, R& r) {
    v.str(r.soname);
    v.u64(r.fingerprint);
    Layout<injector::CampaignParams>::fields(v, r.params);
  }
};

template <>
struct Layout<core::CachedCampaign> {
  static constexpr Kind kKind = Kind::kCampaignEntry;
  template <class V, class R>
  static void fields(V& v, R& r) {
    Layout<core::CampaignKey>::fields(v, r.key);
    v.nested(r.value);
  }
};

template <>
struct Layout<lattice::SignatureProfile> {
  static constexpr Kind kKind = Kind::kProfileEntry;
  template <class V, class R>
  static void fields(V& v, R& r) {
    v.str(r.signature);
    v.constant(lattice::kTestTypeCount);  // tallies merge only between equal lattices
    for (std::size_t i = 0; i < lattice::kTestTypeCount; ++i) {
      v.u32(r.passes[i]);
      v.u32(r.fails[i]);
    }
  }
};

template <>
struct Layout<core::CachedRepairPolicy> {
  static constexpr Kind kKind = Kind::kRepairEntry;
  template <class V, class R>
  static void fields(V& v, R& r) {
    Layout<core::CampaignKey>::fields(v, r.key);
    v.xml(r.value);
  }
};

template <>
struct Layout<core::SurfaceScope> {
  static constexpr Kind kKind = Kind::kSurfaceEntry;
  template <class V, class R>
  static void fields(V& v, R& r) {
    v.str(r.executable);
    v.str(r.soname);
    v.u64(r.fingerprint);
    v.list(r.symbols);
  }
};

}  // namespace healers::fleet::record
