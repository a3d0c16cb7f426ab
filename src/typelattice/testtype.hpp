// Ballista-style test-type hierarchy (paper §2.2, Fig 2).
//
// The prototype of a function names only language types ("char *"); the
// *robust* API needs semantic types ("non-NULL, writable, NUL-terminated
// buffer of at least strlen(src)+1 bytes"). HEALERS discovers the gap by
// probing every argument with values drawn from a hierarchy of test types —
// from hostile (wild integers reinterpreted as pointers) to pristine (a
// valid writable C string) — while holding the other arguments at their
// safest values. The per-type pass/fail profile is then folded into the
// weakest safe argument type (see injector/robust_spec.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "linker/process.hpp"
#include "parser/ctypes.hpp"
#include "parser/manpage.hpp"
#include "simlib/value.hpp"
#include "support/rng.hpp"

namespace healers::lattice {

enum class TestTypeId : std::uint8_t {
  // --- pointer class, roughly weakest (most hostile) first ---
  kIntAsPtr,        // small/huge integers reinterpreted as pointers
  kNull,            // NULL
  kWildPtr,         // unmapped high address
  kFreedPtr,        // heap pointer after free
  kMisaligned,      // valid buffer base + odd offset
  kReadOnlyCString, // valid string in read-only memory
  kUntermBuf,       // readable+writable buffer with no NUL inside
  kTinyWritable,    // valid, terminated, but only 4 usable bytes
  kValidWritable,   // 256-byte writable buffer holding a short string
  kValidCString,    // pristine heap C string
  // --- integral class ---
  kZero,
  kOne,
  kNegOne,
  kIntMin,          // INT64_MIN and INT32_MIN variants
  kIntMax,          // INT64_MAX / INT32_MAX / SIZE_MAX-ish
  kHugeSize,        // sizes far beyond any mapped region
  kSmallRange,      // small positive values (1..16)
  kByteRange,       // values in [-1, 255] (EOF and char range)
  // --- floating class ---
  kFZero,
  kFOne,
  kFNegative,
  kFHuge,
  kFNan,
  kFInf,
};

// Word i names the TestTypeId with value i (campaign XML, reports).
inline constexpr std::array<std::string_view, 24> kTestTypeNames = {
    // pointer class
    "int_as_ptr", "null", "wild_ptr", "freed_ptr", "misaligned", "readonly_cstring",
    "unterminated_buf", "tiny_writable", "valid_writable", "valid_cstring",
    // integral class
    "zero", "one", "neg_one", "int_min", "int_max", "huge_size", "small_range", "byte_range",
    // floating class
    "f_zero", "f_one", "f_negative", "f_huge", "f_nan", "f_inf"};

[[nodiscard]] inline std::string to_string(TestTypeId id) {
  return std::string(kTestTypeNames[static_cast<std::size_t>(id)]);
}

// One probe value plus provenance for reports.
struct TestCase {
  TestTypeId id;
  simlib::SimValue value;
  std::string note;
};

// The ordered test types probed for a given argument class.
[[nodiscard]] const std::vector<TestTypeId>& test_types_for(parser::TypeClass cls);

// Produces concrete probe values inside a given process's address space.
// A factory is bound to one process: the buffers and strings it fabricates
// live in that process, so probes must use the same process.
class ValueFactory {
 public:
  ValueFactory(linker::Process& process, Rng& rng) : process_(process), rng_(rng) {}

  // All probe cases of one test type; `variants` controls how many
  // randomized instances of the fuzzier types (kIntAsPtr, kIntMax, ...) are
  // generated. Deterministic given the Rng state.
  [[nodiscard]] std::vector<TestCase> cases_of(TestTypeId id, int variants);

  // The safest value for an argument, used to hold non-injected positions
  // steady. Uses the man-page annotation when available (valid FILE* for
  // FILE args, big buffer for write-buffer args, in-range integers); falls
  // back to the class default.
  [[nodiscard]] simlib::SimValue safe_value(const parser::ManPage& page, int arg_index_1based);

 private:
  [[nodiscard]] mem::Addr writable_buffer(std::uint64_t size, const std::string& fill);
  [[nodiscard]] mem::Addr valid_file();

  linker::Process& process_;
  Rng& rng_;
};

}  // namespace healers::lattice
