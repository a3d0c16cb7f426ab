#include "injector/robust_spec.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <string_view>
#include <utility>

#include "typelattice/subsume.hpp"

namespace healers::injector {

const TypeVerdict* ArgSpec::verdict(lattice::TestTypeId id) const noexcept {
  for (const TypeVerdict& v : verdicts) {
    if (v.id == id) return &v;
  }
  return nullptr;
}

std::string ArgSpec::safe_type_name() const {
  if (cls == parser::TypeClass::kPointer) {
    if (checks.require_file) return "live FILE* from fopen";
    if (checks.require_heap_pointer) return "live malloc'd pointer";
    if (checks.require_callback) return "registered callback function pointer";
    std::vector<std::string> parts;
    if (checks.require_nonnull) parts.emplace_back("non-NULL");
    if (checks.require_writable) parts.emplace_back("writable");
    else if (checks.require_mapped) parts.emplace_back("mapped");
    if (checks.require_terminated) parts.emplace_back("NUL-terminated");
    if (parts.empty()) return "any pointer";
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) out += ' ';
      out += parts[i];
    }
    out += " buffer";
    if (checks.require_size_check) out += " (size-checked)";
    return out;
  }
  if (cls == parser::TypeClass::kIntegral) {
    if (checks.range.has_value()) {
      return "int in [" + std::to_string(checks.range->first) + ", " +
             std::to_string(checks.range->second) + "]";
    }
    return "any int";
  }
  if (cls == parser::TypeClass::kFloating) return "any double";
  return "void";
}

namespace {

void checks_to_xml(const DerivedChecks& checks, xml::Node& node) {
  xml::Node& el = node.add_child("checks");
  auto flag = [&el](const char* key, bool value) {
    if (value) el.set_attr(key, "1");
  };
  flag("nonnull", checks.require_nonnull);
  flag("mapped", checks.require_mapped);
  flag("writable", checks.require_writable);
  flag("terminated", checks.require_terminated);
  flag("size", checks.require_size_check);
  flag("heapptr", checks.require_heap_pointer);
  flag("file", checks.require_file);
  flag("callback", checks.require_callback);
  if (checks.range.has_value()) {
    el.set_attr("range_lo", std::to_string(checks.range->first));
    el.set_attr("range_hi", std::to_string(checks.range->second));
  }
}

Status checks_from_xml(xml::Reader& in, DerivedChecks& checks) {
  xml::AttrReader attrs(in);
  attrs.flag("nonnull", checks.require_nonnull, xml::kOptional);
  attrs.flag("mapped", checks.require_mapped, xml::kOptional);
  attrs.flag("writable", checks.require_writable, xml::kOptional);
  attrs.flag("terminated", checks.require_terminated, xml::kOptional);
  attrs.flag("size", checks.require_size_check, xml::kOptional);
  attrs.flag("heapptr", checks.require_heap_pointer, xml::kOptional);
  attrs.flag("file", checks.require_file, xml::kOptional);
  attrs.flag("callback", checks.require_callback, xml::kOptional);
  // A range has both ends or neither.
  if (attrs.has("range_lo") || attrs.has("range_hi")) {
    auto& range = checks.range.emplace();
    attrs.signed_num("range_lo", range.first);
    attrs.signed_num("range_hi", range.second);
  }
  if (!attrs.ok()) return attrs.error();
  return Status::success();
}

// Reads the <arg> element `in` stands at into `arg`: its attributes, then
// every <verdict>, then the first <checks>. safe-type is safe_type_name() of
// the checks, so it is not read.
Status arg_from_xml(xml::Reader& in, ArgSpec& arg) {
  arg = ArgSpec{};
  xml::AttrReader attrs(in);
  attrs.num("index", arg.index);
  attrs.str("ctype", arg.ctype, xml::kOptional);
  attrs.word("class", arg.cls, parser::kTypeClassNames, xml::kOptional);
  if (!attrs.ok()) return attrs.error();
  if (arg.index < 1) return Error("<arg> with bad index");
  enum : unsigned { kVerdicts, kChecks };
  xml::FirstError first;
  bool checks = false;
  in.children([&](std::string_view name) {
    if (name == "verdict" && first.wants(kVerdicts)) {
      TypeVerdict& v = arg.verdicts.emplace_back();
      xml::AttrReader row(in);
      row.word("type", v.id, lattice::kTestTypeNames);
      row.num("probes", v.probes);
      row.num("failures", v.failures);
      row.num("crashes", v.crashes);
      row.num("hangs", v.hangs);
      row.num("aborts", v.aborts);
      row.str("first", v.first_failure, xml::kOptional);
      if (!row.ok()) first.keep(kVerdicts, row.error());
    } else if (name == "checks" && !std::exchange(checks, true) && first.wants(kChecks)) {
      first.keep(kChecks, checks_from_xml(in, arg.checks));
    }
  });
  return first.status();
}

// skipped="noreturn" is the one word; a probed function has no attribute.
constexpr std::array<std::string_view, 2> kSkippedNames = {"", "noreturn"};

}  // namespace

xml::Node RobustSpec::to_xml() const {
  xml::Node node("robust-spec");
  node.set_attr("function", function);
  node.set_attr("library", library);
  node.set_attr("probes", std::to_string(total_probes));
  node.set_attr("failures", std::to_string(total_failures));
  node.set_attr("crashes", std::to_string(crashes));
  node.set_attr("hangs", std::to_string(hangs));
  node.set_attr("aborts", std::to_string(aborts));
  if (skipped_noreturn) node.set_attr("skipped", xml::name_of(kSkippedNames, true));
  node.add_text_child("prototype", declaration);
  for (const ArgSpec& arg : args) {
    xml::Node& arg_el = node.add_child("arg");
    arg_el.set_attr("index", std::to_string(arg.index));
    arg_el.set_attr("ctype", arg.ctype);
    arg_el.set_attr("class", xml::name_of(parser::kTypeClassNames, arg.cls));
    arg_el.set_attr("safe-type", arg.safe_type_name());
    for (const TypeVerdict& v : arg.verdicts) {
      xml::Node& v_el = arg_el.add_child("verdict");
      v_el.set_attr("type", lattice::to_string(v.id));
      v_el.set_attr("probes", std::to_string(v.probes));
      v_el.set_attr("failures", std::to_string(v.failures));
      v_el.set_attr("crashes", std::to_string(v.crashes));
      v_el.set_attr("hangs", std::to_string(v.hangs));
      v_el.set_attr("aborts", std::to_string(v.aborts));
      if (!v.first_failure.empty()) v_el.set_attr("first", v.first_failure);
    }
    checks_to_xml(arg.checks, arg_el);
  }
  return node;
}

Status RobustSpec::from_xml(xml::Reader& in, RobustSpec& spec) {
  if (in.name() != "robust-spec") return Error("expected <robust-spec>");
  spec.library.clear();
  spec.skipped_noreturn = false;
  xml::AttrReader attrs(in);
  attrs.str("function", spec.function);
  attrs.str("library", spec.library, xml::kOptional);
  attrs.num("probes", spec.total_probes);
  attrs.num("failures", spec.total_failures);
  attrs.num("crashes", spec.crashes);
  attrs.num("hangs", spec.hangs);
  attrs.num("aborts", spec.aborts);
  attrs.word("skipped", spec.skipped_noreturn, kSkippedNames, xml::kOptional);
  if (!attrs.ok()) return attrs.error();
  // The first <prototype>, and every <arg>.
  spec.declaration.clear();
  bool prototype = false;
  std::size_t args = 0;
  Status status;
  in.children([&](std::string_view name) {
    if (name == "prototype" && !std::exchange(prototype, true)) {
      in.text(spec.declaration);
    } else if (name == "arg" && status.ok()) {
      status = arg_from_xml(in, xml::next_slot(spec.args, args));
    }
  });
  spec.args.resize(args);
  return status;
}

Result<RobustSpec> RobustSpec::from_xml(std::string_view document) {
  return xml::decode<RobustSpec>(document, from_xml);
}

std::uint64_t CampaignResult::total_probes() const noexcept {
  std::uint64_t n = 0;
  for (const RobustSpec& spec : specs) n += spec.total_probes;
  return n;
}

std::uint64_t CampaignResult::total_failures() const noexcept {
  std::uint64_t n = 0;
  for (const RobustSpec& spec : specs) n += spec.total_failures;
  return n;
}

std::size_t CampaignResult::functions_with_failures() const noexcept {
  std::size_t n = 0;
  for (const RobustSpec& spec : specs) {
    if (spec.total_failures > 0) ++n;
  }
  return n;
}

const RobustSpec* CampaignResult::spec(const std::string& function) const noexcept {
  for (const RobustSpec& s : specs) {
    if (s.function == function) return &s;
  }
  return nullptr;
}

std::string CampaignResult::to_table() const {
  std::ostringstream out;
  out << "robust API derivation for " << library << " (seed " << seed << ")\n";
  out << "----------------------------------------------------------------------\n";
  out << "function        probes  fail  crash  hang  abort  derived safe types\n";
  out << "----------------------------------------------------------------------\n";
  for (const RobustSpec& spec : specs) {
    std::string name = spec.function;
    name.resize(15, ' ');
    out << name << ' ';
    if (spec.skipped_noreturn) {
      out << "   (noreturn: skipped)\n";
      continue;
    }
    auto col = [&out](std::uint64_t v, int width) {
      std::string s = std::to_string(v);
      out << std::string(width > static_cast<int>(s.size())
                             ? static_cast<std::size_t>(width) - s.size()
                             : 0,
                         ' ')
          << s << ' ';
    };
    col(spec.total_probes, 6);
    col(spec.total_failures, 5);
    col(spec.crashes, 6);
    col(spec.hangs, 5);
    col(spec.aborts, 6);
    out << ' ';
    bool first = true;
    for (const ArgSpec& arg : spec.args) {
      if (!first) out << "; ";
      out << "a" << arg.index << ": " << arg.safe_type_name();
      first = false;
    }
    if (spec.args.empty()) out << "(no arguments)";
    out << '\n';
  }
  out << "----------------------------------------------------------------------\n";
  out << "totals: " << specs.size() << " functions, " << total_probes() << " probes, "
      << total_failures() << " robustness failures in " << functions_with_failures()
      << " functions\n";
  return out.str();
}

double CampaignEngineStats::implication_hit_rate() const noexcept {
  const std::uint64_t total = probes_executed + probes_implied;
  return total == 0 ? 0.0 : static_cast<double>(probes_implied) / static_cast<double>(total);
}

double CampaignEngineStats::warm_start_ratio() const noexcept {
  return args_probed == 0 ? 0.0
                          : static_cast<double>(args_warm_ordered) /
                                static_cast<double>(args_probed);
}

xml::Node CampaignEngineStats::to_xml() const {
  xml::Node node("engine");
  node.set_attr("states-forked", std::to_string(states_forked));
  node.set_attr("testbeds-built", std::to_string(testbeds_built));
  node.set_attr("pages-sealed", std::to_string(pages_sealed));
  node.set_attr("pages-faulted", std::to_string(pages_faulted));
  node.set_attr("pages-privatized", std::to_string(pages_privatized));
  node.set_attr("pages-dropped", std::to_string(pages_dropped));
  node.set_attr("probes-executed", std::to_string(probes_executed));
  node.set_attr("probes-implied", std::to_string(probes_implied));
  node.set_attr("verdicts-implied", std::to_string(verdicts_implied));
  node.set_attr("memo-case-hits", std::to_string(memo_case_hits));
  node.set_attr("args-probed", std::to_string(args_probed));
  node.set_attr("args-warm-ordered", std::to_string(args_warm_ordered));
  return node;
}

xml::Node CampaignResult::to_xml() const {
  xml::Node node("campaign");
  node.set_attr("library", library);
  node.set_attr("seed", std::to_string(seed));
  for (const RobustSpec& spec : specs) {
    node.add_child(spec.to_xml());
  }
  return node;
}

Status CampaignResult::from_xml(xml::Reader& in, CampaignResult& out) {
  if (in.name() != "campaign") return Error("expected <campaign>");
  out.library.clear();
  xml::AttrReader attrs(in);
  attrs.str("library", out.library, xml::kOptional);
  attrs.num("seed", out.seed);
  if (!attrs.ok()) return attrs.error();
  return xml::read_rows(in, "robust-spec", out.specs,
                        [&in](RobustSpec& spec) { return RobustSpec::from_xml(in, spec); });
}

Result<CampaignResult> CampaignResult::from_xml(std::string_view document) {
  return xml::decode<CampaignResult>(document, from_xml);
}

}  // namespace healers::injector
