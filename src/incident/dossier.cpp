#include "incident/dossier.hpp"

#include <array>
#include <limits>

namespace healers::incident {

namespace {

using simlib::DetectionKind;
using simlib::RepairAction;

constexpr std::array<DetectionKind, 7> kAllKinds = {
    DetectionKind::kArgCheck,    DetectionKind::kHeapSmash,   DetectionKind::kStackSmash,
    DetectionKind::kAccessFault, DetectionKind::kErrorInject, DetectionKind::kRepair,
    DetectionKind::kSurfaceViolation};

constexpr std::array<RepairAction, 4> kAllActions = {
    RepairAction::kTruncateWrite, RepairAction::kSubstituteBounded,
    RepairAction::kSynthesizeInput, RepairAction::kSafeReturn};

// The 0/1 `suspect` flag, written only when set.
Result<std::uint64_t> suspect_flag(const xml::Node& row) {
  if (row.attr("suspect") == nullptr) return std::uint64_t{0};
  return row.attr_u64("suspect", 1);
}

std::string attr_or_empty(const xml::Node& node, std::string_view key) {
  const std::string* value = node.attr(key);
  return value == nullptr ? std::string() : *value;
}

}  // namespace

std::string hex_addr(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  if (value == 0) return "0x0";
  std::string out;
  while (value != 0) {
    out.insert(out.begin(), kDigits[value & 0xF]);
    value >>= 4;
  }
  return "0x" + out;
}

bool operator==(const TraceEntry& a, const TraceEntry& b) {
  return a.seq == b.seq && a.tick == b.tick && a.cycles == b.cycles &&
         a.arg_digest == b.arg_digest && a.argc == b.argc && a.symbol == b.symbol;
}

bool operator==(const ChunkState& a, const ChunkState& b) {
  return a.header == b.header && a.user == b.user && a.size == b.size &&
         a.in_use == b.in_use && a.suspect == b.suspect;
}

bool operator==(const RegionState& a, const RegionState& b) {
  return a.base == b.base && a.size == b.size && a.perm == b.perm && a.kind == b.kind &&
         a.label == b.label && a.suspect == b.suspect;
}

bool operator==(const RepairEvent& a, const RepairEvent& b) {
  return a.seq == b.seq && a.tick == b.tick && a.action == b.action && a.symbol == b.symbol &&
         a.detail == b.detail && a.fault_addr == b.fault_addr && a.requested == b.requested &&
         a.granted == b.granted;
}

bool Dossier::operator==(const Dossier& other) const {
  return process == other.process && detector == other.detector && symbol == other.symbol &&
         detail == other.detail && seq == other.seq && tick == other.tick &&
         cycles == other.cycles && fault_addr == other.fault_addr && args == other.args &&
         trace == other.trace && heap == other.heap && heap_note == other.heap_note &&
         regions == other.regions && repairs == other.repairs;
}

Result<DetectionKind> detection_kind_from_name(const std::string& name) {
  for (const DetectionKind kind : kAllKinds) {
    if (simlib::to_string(kind) == name) return kind;
  }
  return Error("dossier: unknown detector '" + name + "'");
}

Result<RepairAction> repair_action_from_name(const std::string& name) {
  for (const RepairAction action : kAllActions) {
    if (simlib::to_string(action) == name) return action;
  }
  return Error("dossier: unknown repair action '" + name + "'");
}

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

Result<Dossier> from_xml(const xml::Node& node) {
  if (node.name() != "dossier") return Error("dossier: root element is not <dossier>");
  Dossier out;
  out.process = attr_or_empty(node, "process");
  auto kind = detection_kind_from_name(attr_or_empty(node, "detector"));
  if (!kind.ok()) return kind.error();
  out.detector = kind.value();
  out.symbol = attr_or_empty(node, "symbol");
  // Addresses and digests are written in hex (hex_addr), counters in decimal.
  auto seq = node.attr_u64("seq");
  auto tick = node.attr_u64("tick");
  auto cycles = node.attr_u64("cycles");
  auto fault_addr = node.attr_hex("fault_addr");
  for (const auto* field : {&seq, &tick, &cycles, &fault_addr}) {
    if (!field->ok()) return field->error();
  }
  out.seq = seq.value();
  out.tick = tick.value();
  out.cycles = cycles.value();
  out.fault_addr = fault_addr.value();
  if (const xml::Node* detail = node.child("detail")) out.detail = detail->text();

  if (const xml::Node* call = node.child("call")) {
    for (const xml::Node* arg : call->children_named("arg")) {
      out.args.push_back(attr_or_empty(*arg, "value"));
    }
  }

  if (const xml::Node* trace_node = node.child("trace")) {
    for (const xml::Node* row : trace_node->children_named("event")) {
      TraceEntry entry;
      entry.symbol = attr_or_empty(*row, "symbol");
      auto seq = row->attr_u64("seq");
      auto tick = row->attr_u64("tick");
      auto cycles = row->attr_u64("cycles");
      auto argc = row->attr_u64("argc", std::numeric_limits<std::uint32_t>::max());
      auto digest = row->attr_hex("digest");
      for (const auto* field : {&seq, &tick, &cycles, &argc, &digest}) {
        if (!field->ok()) return field->error();
      }
      entry.seq = seq.value();
      entry.tick = tick.value();
      entry.cycles = cycles.value();
      entry.argc = static_cast<std::uint32_t>(argc.value());
      entry.arg_digest = digest.value();
      out.trace.push_back(std::move(entry));
    }
  }

  if (const xml::Node* heap_node = node.child("heap")) {
    out.heap_note = attr_or_empty(*heap_node, "note");
    for (const xml::Node* row : heap_node->children_named("chunk")) {
      ChunkState chunk;
      auto header = row->attr_hex("header");
      auto user = row->attr_hex("user");
      auto size = row->attr_u64("size");
      auto in_use = row->attr_u64("in_use", 1);
      auto suspect = suspect_flag(*row);
      for (const auto* field : {&header, &user, &size, &in_use, &suspect}) {
        if (!field->ok()) return field->error();
      }
      chunk.header = header.value();
      chunk.user = user.value();
      chunk.size = size.value();
      chunk.in_use = in_use.value() != 0;
      chunk.suspect = suspect.value() != 0;
      out.heap.push_back(chunk);
    }
  }

  if (const xml::Node* regions_node = node.child("regions")) {
    for (const xml::Node* row : regions_node->children_named("region")) {
      RegionState region;
      auto base = row->attr_hex("base");
      auto size = row->attr_u64("size");
      auto perm = row->attr_u64("perm", std::numeric_limits<std::uint8_t>::max());
      auto suspect = suspect_flag(*row);
      for (const auto* field : {&base, &size, &perm, &suspect}) {
        if (!field->ok()) return field->error();
      }
      region.base = base.value();
      region.size = size.value();
      region.perm = static_cast<std::uint8_t>(perm.value());
      region.kind = attr_or_empty(*row, "kind");
      region.label = attr_or_empty(*row, "label");
      region.suspect = suspect.value() != 0;
      out.regions.push_back(std::move(region));
    }
  }

  if (const xml::Node* repairs_node = node.child("repairs")) {
    for (const xml::Node* row : repairs_node->children_named("repair")) {
      RepairEvent repair;
      auto action = repair_action_from_name(attr_or_empty(*row, "action"));
      if (!action.ok()) return action.error();
      repair.action = action.value();
      repair.symbol = attr_or_empty(*row, "symbol");
      repair.detail = attr_or_empty(*row, "detail");
      auto seq = row->attr_u64("seq");
      auto tick = row->attr_u64("tick");
      auto addr = row->attr_hex("addr");
      auto requested = row->attr_u64("requested");
      auto granted = row->attr_u64("granted");
      for (const auto* field : {&seq, &tick, &addr, &requested, &granted}) {
        if (!field->ok()) return field->error();
      }
      repair.seq = seq.value();
      repair.tick = tick.value();
      repair.fault_addr = addr.value();
      repair.requested = requested.value();
      repair.granted = granted.value();
      out.repairs.push_back(std::move(repair));
    }
  }
  return out;
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
