// Fig 2 in detail: the robust-API derivation pipeline, function by function.
//
// Shows the per-test-type verdicts the fault injector records for a few
// instructive functions, the derived safe argument types, the emitted
// Fig 3-style wrapper source for wctrans (the paper's running example), and
// the XML robust-API spec round-trip.
//
// Build & run:  ./build/examples/robust_api_tour
#include <cstdio>

#include "core/toolkit.hpp"
#include "wrappers/wrappers.hpp"

using namespace healers;

namespace {

void show_spec(const injector::RobustSpec& spec) {
  std::printf("%s  —  %s\n", spec.function.c_str(), spec.declaration.c_str());
  std::printf("  %llu probes, %llu failures (%llu crash / %llu hang / %llu abort)\n",
              static_cast<unsigned long long>(spec.total_probes),
              static_cast<unsigned long long>(spec.total_failures),
              static_cast<unsigned long long>(spec.crashes),
              static_cast<unsigned long long>(spec.hangs),
              static_cast<unsigned long long>(spec.aborts));
  for (const injector::ArgSpec& arg : spec.args) {
    std::printf("  arg %d (%s): safe type = %s\n", arg.index, arg.ctype.c_str(),
                arg.safe_type_name().c_str());
    for (const injector::TypeVerdict& v : arg.verdicts) {
      if (!v.failed()) continue;
      std::printf("    FAILS on %-18s (%d/%d probes)  e.g. %s\n",
                  lattice::to_string(v.id).c_str(), v.failures, v.probes,
                  v.first_failure.substr(0, 60).c_str());
    }
  }
  std::printf("\n");
}

}  // namespace

int main() {
  core::Toolkit toolkit;
  injector::InjectorConfig config;
  config.seed = 2003;  // DSN 2003
  config.variants = 2;

  const auto campaign = toolkit.derive_robust_api("libsimc.so.1", config).value();
  std::printf("%s\n", campaign.to_table().c_str());

  // A tour through instructive profiles.
  for (const char* name : {"strcpy", "strcat", "atoi", "isalpha", "free", "wctrans"}) {
    show_spec(*campaign.spec(name));
  }

  // The paper's Fig 3: the generated wrapper function for wctrans.
  const simlib::SharedLibrary* lib = toolkit.library("libsimc.so.1");
  const simlib::Symbol* wctrans = lib->find("wctrans");
  auto page = parser::parse_manpage(wctrans->manpage).value();
  gen::GenContext ctx{page.proto, 1206, campaign.spec("wctrans"), &page};
  std::printf("Fig 3 — generated wrapper for wctrans:\n%s\n",
              gen::emit_wrapper_source(ctx, wrappers::fig3_generators()).c_str());

  // Robust-API specs are exchanged as XML; round-trip one.
  const std::string doc = xml::serialize(campaign.spec("strcpy")->to_xml());
  std::printf("robust-spec XML for strcpy:\n%s\n", doc.c_str());
  const auto reparsed = injector::RobustSpec::from_xml(doc);
  std::printf("round-trip: %s (%llu probes)\n", reparsed.value().function.c_str(),
              static_cast<unsigned long long>(reparsed.value().total_probes));
  return 0;
}
