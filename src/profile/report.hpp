// Profiling reports (paper §2.3, §3.3, Fig 5).
//
// "Just before the application terminates, the collection code is called to
// send the gathered information to a central server ... in form of a
// self-describing XML document."
//
// This module turns a wrapper's WrapperStats into that XML document, decodes
// such documents back into ProfileReports, and renders the Fig 5 view:
// frequency of function calls, percentage of execution time per function,
// distribution of function errors and their causes (classified by errno).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "gen/stats.hpp"
#include "support/result.hpp"
#include "xml/xml.hpp"

namespace healers::profile {

struct FunctionProfile {
  std::string symbol;
  std::uint64_t calls = 0;
  std::uint64_t cycles = 0;
  std::uint64_t contained = 0;
  std::map<int, std::uint64_t> errno_counts;

  [[nodiscard]] std::uint64_t errors() const noexcept;
};

struct ProfileReport {
  std::string process;
  std::string wrapper;
  std::vector<FunctionProfile> functions;        // sorted by symbol
  std::map<int, std::uint64_t> global_errnos;

  [[nodiscard]] std::uint64_t total_calls() const noexcept;
  [[nodiscard]] std::uint64_t total_cycles() const noexcept;
  [[nodiscard]] std::uint64_t total_errors() const noexcept;
  [[nodiscard]] const FunctionProfile* function(const std::string& symbol) const noexcept;
};

// WrapperStats -> report (the wrapper-side view at process termination).
[[nodiscard]] ProfileReport build_report(const std::string& process, const std::string& wrapper,
                                         const gen::WrapperStats& stats);

// Report <-> self-describing XML document. The reader overload decodes the
// <profile> element `in` stands at into `report`, reusing its storage, and
// returns the first error that is not a syntax error (in.finish() gives the
// document's verdict); the other decodes a whole document.
[[nodiscard]] xml::Node to_xml(const ProfileReport& report);
[[nodiscard]] Status from_xml(xml::Reader& in, ProfileReport& report);
[[nodiscard]] Result<ProfileReport> from_xml(std::string_view document);

// The Fig 5 rendering: call frequencies, execution-time percentages, error
// distributions and errno classification, as an ASCII table.
[[nodiscard]] std::string render(const ProfileReport& report);

// The "automatically generate graphics" half of demo §3.3: an ASCII bar
// chart of the given metric across functions (the toolkit's web UI drew the
// same data as images).
enum class ChartMetric : std::uint8_t { kCalls, kCycles, kErrors };
[[nodiscard]] std::string render_chart(const ProfileReport& report, ChartMetric metric,
                                       int width = 40);

}  // namespace healers::profile
