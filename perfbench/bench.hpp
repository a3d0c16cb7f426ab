// Shared pieces of the benchmark binary: the workload interface, the span
// tracer, and the small JSON writer its results go through.
//
// Every workload is a closed loop with one client: the harness in main.cpp
// calls op() again only after the previous op returned. A workload sees
// only inputs generated from the workload seed.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- tracing ---------------------------------------------------------------
//
// Spans are recorded by the benchmark around calls into each layer's public
// API; nothing inside the program is instrumented. Names must be string
// literals (the tracer keeps the pointer). Spans are kept in memory and
// written out when the run ends.
struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the span list, -1 for an op root
  std::uint64_t op = 0;
};

class Tracer {
 public:
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  std::int32_t open(const char* name);
  void close(std::int32_t index);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

 private:
  bool enabled_ = false;
  std::uint64_t op_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
};

// RAII span; free when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.enabled() ? tracer.open(name) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer_.close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

// Per-op self time of every span name: a span's duration minus the part its
// direct children cover (spans of one op nest on one thread). Ops are keyed
// by op id; names by the literal passed to Span.
using SelfTimes = std::map<std::uint64_t, std::map<std::string, double>>;  // op -> name -> ms
[[nodiscard]] SelfTimes self_times(const std::vector<SpanRecord>& spans);

// Writes every span as one CSV line: op,name,parent,start_ns,end_ns.
bool write_spans(const std::vector<SpanRecord>& spans, const std::string& path);

// --- statistics ------------------------------------------------------------

// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
[[nodiscard]] double quantile(std::vector<double> values, double q);

// --- results ---------------------------------------------------------------

// A flat, ordered JSON object builder (values are numbers, strings, bools or
// pre-rendered JSON).
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value);
  JsonObject& integer(std::string_view key, std::int64_t value);
  JsonObject& str(std::string_view key, std::string_view value);
  JsonObject& boolean(std::string_view key, bool value);
  JsonObject& raw(std::string_view key, const std::string& json);
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// Named pass/fail verdicts; the first failure of each check keeps its detail.
class Checks {
 public:
  // Records one evaluation of `name`. Returns `ok` so call sites can chain.
  bool expect(const std::string& name, bool ok, const std::string& detail = {});
  [[nodiscard]] bool all_passed() const;
  [[nodiscard]] std::string render() const;  // JSON object name -> {pass, evaluated, detail}

 private:
  struct Verdict {
    std::uint64_t evaluated = 0;
    std::uint64_t failures = 0;
    std::string detail;
  };
  std::map<std::string, Verdict> verdicts_;
};

// What one op did, as the harness accounts it.
struct OpResult {
  double work = 0;      // work units (libraries derived, calls, documents)
  bool failed = false;  // any failure listed in NOTES.md for the workload
};

// Exact, seed-determined counts plus the per-op layer counters the traced
// report prints. Every value must repeat exactly for a given workload seed.
using Counts = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the program state the timed ops run against; a second call
  // replaces it. The harness times it once on the measured instance and
  // more times on a spare one; setup_s summarizes them (main.cpp).
  virtual void setup() = 0;
  // Untimed work after setup(): reference runs for the output checks.
  virtual void prepare(Checks& checks) = 0;
  // One closed-loop op. `index` picks the op's inputs from the workload's
  // seeded pools. Output checks run outside the op's timed span via check().
  virtual OpResult op(std::uint64_t index, Tracer& tracer) = 0;
  // Verifies the outputs of the op just run (untimed).
  virtual void check(std::uint64_t index, Checks& checks) = 0;
  // Untimed checks after the loop (e.g. summaries across a fixed input set).
  virtual void finish(Checks& checks) = 0;

  // Smallest number of ops a run makes (one pass over the input pools).
  [[nodiscard]] virtual std::uint64_t min_ops() const = 0;
  // Human-readable unit of OpResult::work.
  [[nodiscard]] virtual std::string work_unit() const = 0;
  // Input parameters for the result stamp (JSON object).
  [[nodiscard]] virtual std::string params() const = 0;
  // Threads the workload keeps alive, the client thread included.
  [[nodiscard]] virtual unsigned threads() const = 0;
  // Exact counts per op (see Counts), over one pass of the input pools.
  [[nodiscard]] virtual Counts counts() const = 0;
  // Extra untimed measurements for the traced report (ms, ns, ...).
  virtual void traced_extras(Counts& out) { (void)out; }
  // Digest of outputs that must be byte-identical across runs with one
  // seed ("" when the workload has none beyond its counts).
  [[nodiscard]] virtual std::string digest() const { return {}; }
};

[[nodiscard]] std::unique_ptr<Workload> make_derive_workload(std::uint64_t seed,
                                                            const std::string& work_dir);
[[nodiscard]] std::unique_ptr<Workload> make_app_workload(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_fleet_workload(std::uint64_t seed);

// FNV-1a over bytes, rendered as 16 hex digits (output digests).
[[nodiscard]] std::string hex_digest(std::string_view bytes);

}  // namespace perfbench
