#include "incident/dossier.hpp"

#include <array>
#include <utility>

namespace healers::incident {

xml::Node Dossier::to_xml() const {
  xml::Node root("dossier");
  root.set_attr("process", process);
  root.set_attr("detector", simlib::to_string(detector));
  root.set_attr("symbol", symbol);
  root.set_attr("seq", std::to_string(seq));
  root.set_attr("tick", std::to_string(tick));
  root.set_attr("cycles", std::to_string(cycles));
  root.set_attr("fault_addr", hex_addr(fault_addr));
  root.add_text_child("detail", detail);

  xml::Node& call = root.add_child("call");
  for (const std::string& arg : args) {
    call.add_child("arg").set_attr("value", arg);
  }

  xml::Node& trace_node = root.add_child("trace");
  for (const TraceEntry& entry : trace) {
    xml::Node& row = trace_node.add_child("event");
    row.set_attr("seq", std::to_string(entry.seq));
    row.set_attr("symbol", entry.symbol);
    row.set_attr("tick", std::to_string(entry.tick));
    row.set_attr("cycles", std::to_string(entry.cycles));
    row.set_attr("argc", std::to_string(entry.argc));
    row.set_attr("digest", hex_addr(entry.arg_digest));
  }

  xml::Node& heap_node = root.add_child("heap");
  if (!heap_note.empty()) heap_node.set_attr("note", heap_note);
  for (const ChunkState& chunk : heap) {
    xml::Node& row = heap_node.add_child("chunk");
    row.set_attr("header", hex_addr(chunk.header));
    row.set_attr("user", hex_addr(chunk.user));
    row.set_attr("size", std::to_string(chunk.size));
    row.set_attr("in_use", chunk.in_use ? "1" : "0");
    if (chunk.suspect) row.set_attr("suspect", "1");
  }

  xml::Node& regions_node = root.add_child("regions");
  for (const RegionState& region : regions) {
    xml::Node& row = regions_node.add_child("region");
    row.set_attr("base", hex_addr(region.base));
    row.set_attr("size", std::to_string(region.size));
    row.set_attr("perm", std::to_string(region.perm));
    row.set_attr("kind", region.kind);
    row.set_attr("label", region.label);
    if (region.suspect) row.set_attr("suspect", "1");
  }

  // Appended after <regions> so pre-repair documents (no <repairs> child)
  // still parse: absent means "no repairs applied".
  if (!repairs.empty()) {
    xml::Node& repairs_node = root.add_child("repairs");
    for (const RepairEvent& repair : repairs) {
      xml::Node& row = repairs_node.add_child("repair");
      row.set_attr("seq", std::to_string(repair.seq));
      row.set_attr("tick", std::to_string(repair.tick));
      row.set_attr("action", simlib::to_string(repair.action));
      row.set_attr("symbol", repair.symbol);
      row.set_attr("addr", hex_addr(repair.fault_addr));
      row.set_attr("requested", std::to_string(repair.requested));
      row.set_attr("granted", std::to_string(repair.granted));
      row.set_attr("detail", repair.detail);
    }
  }
  return root;
}

Status from_xml(xml::Reader& in, Dossier& out) {
  if (in.name() != "dossier") return Error("dossier: root element is not <dossier>");
  out.process.clear();
  out.symbol.clear();
  // Addresses and digests are written in hex (hex_addr), counters in decimal.
  xml::AttrReader root(in);
  root.str("process", out.process, xml::kOptional);
  root.word("detector", out.detector, simlib::kDetectionKindNames);
  root.str("symbol", out.symbol, xml::kOptional);
  root.num("seq", out.seq);
  root.num("tick", out.tick);
  root.num("cycles", out.cycles);
  root.hex("fault_addr", out.fault_addr);
  if (!root.ok()) return root.error();

  // Sections: the first child of each kind, in this order.
  enum Section : unsigned { kDetail, kCall, kTrace, kHeap, kRegions, kRepairs, kSections };
  std::array<bool, kSections> seen{};
  xml::FirstError first;
  const auto section = [&](Section s) { return !std::exchange(seen[s], true) && first.wants(s); };
  out.detail.clear();
  out.heap_note.clear();
  in.children([&](std::string_view name) {
    if (name == "detail" && section(kDetail)) {
      in.text(out.detail);
    } else if (name == "call" && section(kCall)) {
      (void)xml::read_rows(in, "arg", out.args, [&in](std::string& arg) {
        arg.clear();
        xml::AttrReader(in).str("value", arg, xml::kOptional);
        return Status::success();
      });
    } else if (name == "trace" && section(kTrace)) {
      first.keep(kTrace, xml::read_rows(in, "event", out.trace, [&in](TraceEntry& entry) {
        entry.symbol.clear();
        xml::AttrReader row(in);
        row.num("seq", entry.seq);
        row.str("symbol", entry.symbol, xml::kOptional);
        row.num("tick", entry.tick);
        row.num("cycles", entry.cycles);
        row.num("argc", entry.argc);
        row.hex("digest", entry.arg_digest);
        return row.ok() ? Status::success() : Status(row.error());
      }));
    } else if (name == "heap" && section(kHeap)) {
      xml::AttrReader(in).str("note", out.heap_note, xml::kOptional);
      first.keep(kHeap, xml::read_rows(in, "chunk", out.heap, [&in](ChunkState& chunk) {
        chunk.suspect = false;
        xml::AttrReader row(in);
        row.hex("header", chunk.header);
        row.hex("user", chunk.user);
        row.num("size", chunk.size);
        row.flag("in_use", chunk.in_use);
        row.flag("suspect", chunk.suspect, xml::kOptional);
        return row.ok() ? Status::success() : Status(row.error());
      }));
    } else if (name == "regions" && section(kRegions)) {
      first.keep(kRegions, xml::read_rows(in, "region", out.regions, [&in](RegionState& region) {
        region.kind.clear();
        region.label.clear();
        region.suspect = false;
        xml::AttrReader row(in);
        row.hex("base", region.base);
        row.num("size", region.size);
        row.num("perm", region.perm);
        row.str("kind", region.kind, xml::kOptional);
        row.str("label", region.label, xml::kOptional);
        row.flag("suspect", region.suspect, xml::kOptional);
        return row.ok() ? Status::success() : Status(row.error());
      }));
    } else if (name == "repairs" && section(kRepairs)) {
      first.keep(kRepairs, xml::read_rows(in, "repair", out.repairs, [&in](RepairEvent& repair) {
        repair.symbol.clear();
        repair.detail.clear();
        xml::AttrReader row(in);
        row.num("seq", repair.seq);
        row.num("tick", repair.tick);
        row.word("action", repair.action, simlib::kRepairActionNames);
        row.str("symbol", repair.symbol, xml::kOptional);
        row.hex("addr", repair.fault_addr);
        row.num("requested", repair.requested);
        row.num("granted", repair.granted);
        row.str("detail", repair.detail, xml::kOptional);
        return row.ok() ? Status::success() : Status(row.error());
      }));
    }
  });
  // An absent list is empty.
  if (!seen[kCall]) out.args.clear();
  if (!seen[kTrace]) out.trace.clear();
  if (!seen[kHeap]) out.heap.clear();
  if (!seen[kRegions]) out.regions.clear();
  if (!seen[kRepairs]) out.repairs.clear();
  return first.status();
}

Result<Dossier> from_xml(std::string_view document) {
  return xml::decode<Dossier>(document, from_xml);
}

std::string Dossier::to_text() const {
  std::string out;
  out += "=== crash dossier: " + simlib::to_string(detector) + " in " + symbol + " ===\n";
  out += "process:     " + process + "\n";
  out += "detail:      " + detail + "\n";
  out += "at:          seq " + std::to_string(seq) + ", tick " + std::to_string(tick) +
         ", cycle " + std::to_string(cycles) + "\n";
  if (fault_addr != 0) out += "implicated:  " + hex_addr(fault_addr) + "\n";
  if (!args.empty()) {
    out += "call:        " + symbol + "(";
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i > 0) out += ", ";
      out += args[i];
    }
    out += ")\n";
  }
  if (!trace.empty()) {
    out += "last " + std::to_string(trace.size()) + " wrapped calls (oldest first):\n";
    for (const TraceEntry& entry : trace) {
      out += "  #" + std::to_string(entry.seq) + "  " + entry.symbol + "/" +
             std::to_string(entry.argc) + "  tick=" + std::to_string(entry.tick) +
             "  digest=" + hex_addr(entry.arg_digest) + "\n";
    }
  }
  if (!heap.empty() || !heap_note.empty()) {
    out += "heap neighborhood:\n";
    for (const ChunkState& chunk : heap) {
      out += "  chunk @" + hex_addr(chunk.header) + " user=" + hex_addr(chunk.user) +
             " size=" + std::to_string(chunk.size) + (chunk.in_use ? " in-use" : " free") +
             (chunk.suspect ? "   <-- corrupted allocation" : "") + "\n";
    }
    if (!heap_note.empty()) out += "  ! " + heap_note + "\n";
  }
  if (!regions.empty()) {
    out += "region map:\n";
    for (const RegionState& region : regions) {
      static constexpr const char* kPermNames[] = {"---", "r--", "-w-", "rw-"};
      out += "  " + hex_addr(region.base) + " +" + std::to_string(region.size) + "  " +
             kPermNames[region.perm & 3] + "  " + region.kind + "  " + region.label +
             (region.suspect ? "   <-- fault here" : "") + "\n";
    }
  }
  if (!repairs.empty()) {
    out += "repairs applied:\n";
    for (const RepairEvent& repair : repairs) {
      out += "  #" + std::to_string(repair.seq) + "  " + repair.symbol + "  " +
             simlib::to_string(repair.action) + "  " + hex_addr(repair.fault_addr) +
             "  requested=" + std::to_string(repair.requested) +
             " granted=" + std::to_string(repair.granted) + "  " + repair.detail + "\n";
    }
  }
  return out;
}

}  // namespace healers::incident
