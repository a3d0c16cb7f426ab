// Binary campaign records (the derivation server's payload format, ISSUE 5).
//
// Robust-API specs already serialize as self-describing XML (§3.1
// declaration files); at service scale the XML round-trip dominates a warm
// response, so the server can ship the SAME injector::CampaignResult as a
// compact "HCB1" record. Its layout is the Layout field lists below, run by
// the record engine (fleet/record.hpp). Encoding is deterministic —
// identical campaigns encode byte-identically — so served responses can be
// byte-compared across worker counts.
#pragma once

#include <limits>
#include <string>

#include "fleet/record.hpp"
#include "injector/injector.hpp"

namespace healers::server {

// CampaignResult -> compact binary document.
[[nodiscard]] inline std::string encode_campaign_binary(const injector::CampaignResult& campaign) {
  return fleet::record::encode(campaign);
}

}  // namespace healers::server

namespace healers::fleet::record {

// The campaign parameters, inline in HRQ1 requests and in the HSCE1/HSRP1
// cache-entry key.
template <>
struct Layout<injector::CampaignParams> {
  template <class V, class R>
  static void fields(V& v, R& r) {
    v.u64(r.seed);
    v.u32(r.variants, std::numeric_limits<int>::max());
    v.u64(r.probe_step_budget);
    v.u64(r.testbed_heap);
    v.u64(r.testbed_stack);
  }
};

template <>
struct Layout<injector::TypeVerdict> {
  template <class V, class R>
  static void fields(V& v, R& r) {
    v.u32(r.id, lattice::TestTypeId::kFInf);
    v.u32(r.probes);
    v.u32(r.failures);
    v.u32(r.crashes);
    v.u32(r.hangs);
    v.u32(r.aborts);
    v.str(r.first_failure);
  }
};

template <>
struct Layout<injector::ArgSpec> {
  template <class V, class R>
  static void fields(V& v, R& r) {
    v.u32(r.index);
    v.str(r.ctype);
    v.u32(r.cls, parser::TypeClass::kPointer);
    auto& c = r.checks;
    v.flags(c.require_nonnull, c.require_mapped, c.require_writable, c.require_terminated,
            c.require_size_check, c.require_heap_pointer, c.require_file, c.require_callback,
            c.range);
    if (c.range) {
      v.u64(c.range->first);
      v.u64(c.range->second);
    }
    v.list(r.verdicts);
  }
};

template <>
struct Layout<injector::RobustSpec> {
  template <class V, class R>
  static void fields(V& v, R& r) {
    v.str(r.function);
    v.str(r.library);
    v.str(r.declaration);
    v.u64(r.total_probes);
    v.u64(r.total_failures);
    v.u64(r.crashes);
    v.u64(r.hangs);
    v.u64(r.aborts);
    v.flags(r.skipped_noreturn);
    v.list(r.args);
  }
};

template <>
struct Layout<injector::CampaignResult> {
  static constexpr Kind kKind = Kind::kCampaign;
  template <class V, class R>
  static void fields(V& v, R& r) {
    v.str(r.library);
    v.u64(r.seed);
    v.list(r.specs);
  }
};

}  // namespace healers::fleet::record
