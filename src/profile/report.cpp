#include "profile/report.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <utility>

#include "simlib/cerrno.hpp"
#include "support/map_reuse.hpp"

namespace healers::profile {

std::uint64_t FunctionProfile::errors() const noexcept {
  std::uint64_t n = 0;
  for (const auto& [_, count] : errno_counts) n += count;
  return n;
}

std::uint64_t ProfileReport::total_calls() const noexcept {
  std::uint64_t n = 0;
  for (const FunctionProfile& fn : functions) n += fn.calls;
  return n;
}

std::uint64_t ProfileReport::total_cycles() const noexcept {
  std::uint64_t n = 0;
  for (const FunctionProfile& fn : functions) n += fn.cycles;
  return n;
}

std::uint64_t ProfileReport::total_errors() const noexcept {
  std::uint64_t n = 0;
  for (const FunctionProfile& fn : functions) n += fn.errors();
  return n;
}

const FunctionProfile* ProfileReport::function(const std::string& symbol) const noexcept {
  for (const FunctionProfile& fn : functions) {
    if (fn.symbol == symbol) return &fn;
  }
  return nullptr;
}

ProfileReport build_report(const std::string& process, const std::string& wrapper,
                           const gen::WrapperStats& stats) {
  ProfileReport report;
  report.process = process;
  report.wrapper = wrapper;
  for (const auto& [_, fn] : stats.functions()) {
    if (fn.calls == 0 && fn.cycles == 0 && fn.errno_counts.empty() && fn.contained == 0) {
      continue;  // wrapped but never called: not part of the profile
    }
    FunctionProfile profile;
    profile.symbol = fn.symbol;
    profile.calls = fn.calls;
    profile.cycles = fn.cycles;
    profile.contained = fn.contained;
    profile.errno_counts = fn.errno_counts;
    report.functions.push_back(std::move(profile));
  }
  std::sort(report.functions.begin(), report.functions.end(),
            [](const FunctionProfile& a, const FunctionProfile& b) { return a.symbol < b.symbol; });
  report.global_errnos = stats.global_errnos();
  return report;
}

xml::Node to_xml(const ProfileReport& report) {
  xml::Node node("profile");
  node.set_attr("process", report.process);
  node.set_attr("wrapper", report.wrapper);
  node.set_attr("total_calls", std::to_string(report.total_calls()));
  node.set_attr("total_cycles", std::to_string(report.total_cycles()));
  for (const FunctionProfile& fn : report.functions) {
    xml::Node& fn_el = node.add_child("function");
    fn_el.set_attr("name", fn.symbol);
    fn_el.set_attr("calls", std::to_string(fn.calls));
    fn_el.set_attr("cycles", std::to_string(fn.cycles));
    if (fn.contained > 0) fn_el.set_attr("contained", std::to_string(fn.contained));
    for (const auto& [err, count] : fn.errno_counts) {
      xml::Node& err_el = fn_el.add_child("error");
      err_el.set_attr("errno", std::to_string(err));
      err_el.set_attr("name", simlib::errno_name(err));
      err_el.set_attr("count", std::to_string(count));
    }
  }
  if (!report.global_errnos.empty()) {
    xml::Node& global = node.add_child("errors");
    for (const auto& [err, count] : report.global_errnos) {
      xml::Node& err_el = global.add_child("error");
      err_el.set_attr("errno", std::to_string(err));
      err_el.set_attr("name", simlib::errno_name(err));
      err_el.set_attr("count", std::to_string(count));
    }
  }
  return node;
}

namespace {

// Reads the <error errno= count=> rows of the element `in` stands at into
// `counts`. Each errno appears once, as the encoder writes it (and as HFB1
// requires), and may be negative, as in HFB1; the name attribute is
// errno_name(errno), so it is not read. The nodes `counts` already holds are
// refilled before more are allocated.
Status read_errnos(xml::Reader& in, std::map<int, std::uint64_t>& counts) {
  std::map<int, std::uint64_t> spare;
  spare.swap(counts);
  Status status;
  in.children([&](std::string_view name) {
    if (name != "error" || !status.ok()) return;
    int err = 0;
    std::uint64_t count = 0;
    xml::AttrReader row(in);
    row.signed_num("errno", err);
    row.num("count", count);
    if (!row.ok()) {
      status = row.error();
      return;
    }
    if (!insert_reusing(counts, spare, err, count)) {
      status = Error("<error> duplicate errno " + std::to_string(err));
    }
  });
  return status;
}

}  // namespace

Status from_xml(xml::Reader& in, ProfileReport& report) {
  if (in.name() != "profile") return Error("expected <profile>");
  // total_calls and total_cycles are sums over the functions: checked as
  // numbers, not kept.
  std::uint64_t total = 0;
  report.process.clear();
  report.wrapper.clear();
  xml::AttrReader attrs(in);
  attrs.str("process", report.process, xml::kOptional);
  attrs.str("wrapper", report.wrapper, xml::kOptional);
  attrs.num("total_calls", total, xml::kOptional);
  attrs.num("total_cycles", total, xml::kOptional);
  if (!attrs.ok()) return attrs.error();
  // Sections: every <function>, then the first <errors>.
  enum : unsigned { kFunctions, kErrors };
  xml::FirstError first;
  std::size_t functions = 0;
  bool errors = false;
  report.global_errnos.clear();
  in.children([&](std::string_view name) {
    if (name == "function" && first.wants(kFunctions)) {
      FunctionProfile& fn = xml::next_slot(report.functions, functions);
      fn.contained = 0;  // the encoder omits contained="0"
      xml::AttrReader row(in);
      row.str("name", fn.symbol);
      row.num("calls", fn.calls);
      row.num("cycles", fn.cycles);
      row.num("contained", fn.contained, xml::kOptional);
      first.keep(kFunctions, row.ok() ? read_errnos(in, fn.errno_counts) : row.error());
    } else if (name == "errors" && !std::exchange(errors, true) && first.wants(kErrors)) {
      first.keep(kErrors, read_errnos(in, report.global_errnos));
    }
  });
  report.functions.resize(functions);
  return first.status();
}

Result<ProfileReport> from_xml(std::string_view document) {
  return xml::decode<ProfileReport>(document, from_xml);
}

std::string render(const ProfileReport& report) {
  std::ostringstream out;
  const std::uint64_t total_calls = report.total_calls();
  const std::uint64_t total_cycles = report.total_cycles();
  out << "profile report: process '" << report.process << "' (" << report.wrapper << ")\n";
  out << "---------------------------------------------------------------------------\n";
  out << std::left << std::setw(12) << "function" << std::right << std::setw(9) << "calls"
      << std::setw(9) << "%calls" << std::setw(12) << "cycles" << std::setw(9) << "%time"
      << std::setw(8) << "errors" << std::setw(10) << "contained" << "  top errno\n";
  out << "---------------------------------------------------------------------------\n";
  for (const FunctionProfile& fn : report.functions) {
    const double pct_calls =
        total_calls == 0 ? 0.0 : 100.0 * static_cast<double>(fn.calls) / static_cast<double>(total_calls);
    const double pct_time =
        total_cycles == 0 ? 0.0
                          : 100.0 * static_cast<double>(fn.cycles) / static_cast<double>(total_cycles);
    std::string top_errno = "-";
    std::uint64_t top_count = 0;
    for (const auto& [err, count] : fn.errno_counts) {
      if (count > top_count) {
        top_count = count;
        top_errno = simlib::errno_name(err);
      }
    }
    out << std::left << std::setw(12) << fn.symbol << std::right << std::setw(9) << fn.calls
        << std::setw(8) << std::fixed << std::setprecision(1) << pct_calls << "%" << std::setw(12)
        << fn.cycles << std::setw(8) << pct_time << "%" << std::setw(8) << fn.errors()
        << std::setw(10) << fn.contained << "  " << top_errno << "\n";
  }
  out << "---------------------------------------------------------------------------\n";
  out << "errno distribution (causes of errors):\n";
  if (report.global_errnos.empty()) {
    out << "  (no errors recorded)\n";
  } else {
    for (const auto& [err, count] : report.global_errnos) {
      out << "  " << std::left << std::setw(8) << simlib::errno_name(err) << std::right
          << std::setw(8) << count << "  (" << simlib::errno_describe(err) << ")\n";
    }
  }
  return out.str();
}

std::string render_chart(const ProfileReport& report, ChartMetric metric, int width) {
  const auto value_of = [metric](const FunctionProfile& fn) -> std::uint64_t {
    switch (metric) {
      case ChartMetric::kCalls: return fn.calls;
      case ChartMetric::kCycles: return fn.cycles;
      case ChartMetric::kErrors: return fn.errors();
    }
    return 0;
  };
  const char* title = metric == ChartMetric::kCalls
                          ? "calls"
                          : (metric == ChartMetric::kCycles ? "cycles" : "errors");

  std::uint64_t max_value = 0;
  for (const FunctionProfile& fn : report.functions) {
    max_value = std::max(max_value, value_of(fn));
  }

  std::ostringstream out;
  out << title << " per function ('" << report.process << "')\n";
  if (max_value == 0) {
    out << "  (nothing to chart)\n";
    return out.str();
  }
  for (const FunctionProfile& fn : report.functions) {
    const std::uint64_t value = value_of(fn);
    if (value == 0) continue;
    const int bar = std::max<int>(
        1, static_cast<int>(static_cast<double>(value) / static_cast<double>(max_value) *
                            width));
    out << "  " << std::left << std::setw(10) << fn.symbol << " "
        << std::string(static_cast<std::size_t>(bar), '#') << " " << value << "\n";
  }
  return out.str();
}

}  // namespace healers::profile
