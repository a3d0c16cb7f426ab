#include "debloat/surface.hpp"

#include <array>
#include <sstream>
#include <utility>

#include "xml/xml.hpp"

namespace healers::debloat {

namespace {

void add_symbol_list(xml::Node& root, const std::string& name,
                     const std::vector<std::string>& symbols) {
  xml::Node& list = root.add_child(name);
  for (const std::string& symbol : symbols) {
    list.add_child("symbol").set_attr("name", symbol);
  }
}

// Reads the <symbol name=> rows of the list element `in` stands at.
Status read_symbol_list(xml::Reader& in, std::vector<std::string>& out) {
  return xml::read_rows(in, "symbol", out, [&in](std::string& symbol) {
    xml::AttrReader row(in);
    row.str("name", symbol);
    return row.ok() ? Status::success() : Status(row.error());
  });
}

int percent(double ratio) { return static_cast<int>(ratio * 100.0 + 0.5); }

}  // namespace

double SurfaceProfile::unmapped_ratio() const noexcept {
  if (exported == 0) return 0.0;
  const std::uint64_t mapped = touched < exported ? touched : exported;
  return static_cast<double>(exported - mapped) / static_cast<double>(exported);
}

double SurfaceProfile::bloat_ratio() const noexcept {
  if (exported == 0) return 0.0;
  const std::uint64_t reached = reachable < exported ? reachable : exported;
  return static_cast<double>(exported - reached) / static_cast<double>(exported);
}

double SurfaceProfile::resident_ratio() const noexcept {
  if (total_pages == 0) return 0.0;
  return static_cast<double>(resident_pages) / static_cast<double>(total_pages);
}

std::string SurfaceProfile::to_xml() const {
  xml::Node root("surface-profile");
  root.set_attr("host", host);
  root.set_attr("executable", executable);
  root.set_attr("exported", std::to_string(exported));
  root.set_attr("reachable", std::to_string(reachable));
  root.set_attr("touched", std::to_string(touched));
  root.set_attr("trapped", std::to_string(trapped));
  root.set_attr("resident_pages", std::to_string(resident_pages));
  root.set_attr("total_pages", std::to_string(total_pages));
  add_symbol_list(root, "reachable", reachable_symbols);
  add_symbol_list(root, "touched", touched_symbols);
  add_symbol_list(root, "trapped", trapped_symbols);
  return xml::serialize(root);
}

std::string SurfaceProfile::to_text() const {
  std::ostringstream out;
  out << "surface profile: " << executable << " on " << host << "\n";
  out << "  exported " << exported << ", reachable " << reachable << ", touched " << touched
      << ", trapped " << trapped << "\n";
  out << "  unmapped: " << percent(unmapped_ratio()) << "%  bloat (outside closure): "
      << percent(bloat_ratio()) << "%\n";
  out << "  text pages resident: " << resident_pages << "/" << total_pages << " ("
      << percent(resident_ratio()) << "%)\n";
  out << "  touched:";
  for (const std::string& symbol : touched_symbols) out << ' ' << symbol;
  out << "\n";
  if (!trapped_symbols.empty()) {
    out << "  TRAPPED (surface violations):";
    for (const std::string& symbol : trapped_symbols) out << ' ' << symbol;
    out << "\n";
  }
  return out.str();
}

Status surface_from_xml(xml::Reader& in, SurfaceProfile& out) {
  if (in.name() != "surface-profile") {
    return Error("surface-profile: root element is not <surface-profile>");
  }
  out.host.clear();
  out.executable.clear();
  xml::AttrReader attrs(in);
  attrs.str("host", out.host, xml::kOptional);
  attrs.str("executable", out.executable, xml::kOptional);
  attrs.num("exported", out.exported);
  attrs.num("reachable", out.reachable);
  attrs.num("touched", out.touched);
  attrs.num("trapped", out.trapped);
  attrs.num("resident_pages", out.resident_pages);
  attrs.num("total_pages", out.total_pages);
  if (!attrs.ok()) return attrs.error();
  // Sections: the first of each list, in this order; each is required.
  struct List {
    std::string_view name;
    std::vector<std::string>& symbols;
    bool seen = false;
  };
  std::array<List, 3> lists = {{{"reachable", out.reachable_symbols},
                                {"touched", out.touched_symbols},
                                {"trapped", out.trapped_symbols}}};
  xml::FirstError first;
  in.children([&](std::string_view name) {
    for (unsigned rank = 0; rank < lists.size(); ++rank) {
      List& list = lists[rank];
      if (name != list.name) continue;
      if (!std::exchange(list.seen, true) && first.wants(rank)) {
        first.keep(rank, read_symbol_list(in, list.symbols));
      }
      return;
    }
  });
  for (unsigned rank = 0; rank < lists.size(); ++rank) {
    if (lists[rank].seen) continue;
    lists[rank].symbols.clear();
    first.keep(rank, Error("surface-profile: missing <" + std::string(lists[rank].name) + ">"));
  }
  return first.status();
}

Result<SurfaceProfile> surface_from_xml(std::string_view document) {
  return xml::decode<SurfaceProfile>(document, surface_from_xml);
}

SurfaceProfile capture_surface_profile(const linker::Process& proc,
                                       const ReachabilityReport& reach, std::string host) {
  SurfaceProfile profile;
  profile.host = std::move(host);
  profile.executable = proc.name();
  profile.exported = proc.surface().exported;
  profile.reachable = reach.reachable.size();
  profile.touched = proc.surface().mapped;
  profile.trapped = proc.surface().violations;
  profile.reachable_symbols = reach.reachable;
  profile.touched_symbols.assign(proc.touched_symbols().begin(), proc.touched_symbols().end());
  profile.trapped_symbols.assign(proc.trapped_symbols().begin(), proc.trapped_symbols().end());
  // One text page per export is what eager binding would map; the load
  // barrier mapped exactly one resident page per touched symbol.
  profile.total_pages = profile.exported;
  for (const mem::Region* region : proc.machine().mem().region_map()) {
    if (region->label.rfind("text:", 0) == 0) profile.resident_pages += region->resident_pages();
  }
  return profile;
}

}  // namespace healers::debloat
