// healers_perfbench — the measurement half of the repository benchmark.
//
//   healers_perfbench --workload derive|hardened-app|fleet
//                     --seed N --seconds S --trace 0|1 --out result.json
//                     [--spans spans.csv] [--work-dir DIR]
//
// Protocol of one run:
//   1. the timed set-up the ops run against;
//   2. untimed reference runs for the output checks;
//   3. one untimed warm-up pass over the workload's input pools;
//   4. the timed closed loop for S seconds with tracing off — or, with
//      --trace 1, with every other pass over the input pools traced, so the
//      traced report can state its own overhead. kSetupRepetitions more
//      set-ups of a second instance of the workload run between ops, spread
//      evenly over the loop; setup_s is the median of group means over all
//      of them (setup_estimate), so no single host phase decides it.
//      peak_rss_mb is read when the loop ends;
//   5. untimed final checks; the result document goes to --out.
//
// perfbench/run.py builds this binary, stamps the result and prints the
// metrics; see perfbench/NOTES.md.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string spans;
  std::string work_dir = ".";
};

// Set-up repetitions on the spare instance during the loop.
constexpr int kSetupRepetitions = 29;
// Groups the set-up samples are split into for setup_s.
constexpr std::size_t kSetupGroups = 5;

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: healers_perfbench --workload "
               "derive|hardened-app|fleet --seed N --seconds S "
               "--trace 0|1 --out FILE [--spans FILE] [--work-dir DIR]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Options& options, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + arg;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      options.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (arg == "--out") {
      options.out = value;
    } else if (arg == "--spans") {
      options.spans = value;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      error = "unknown option " + arg;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      error = "bad value for " + arg + ": " + value;
      return false;
    }
  }
  if (options.workload.empty() || options.out.empty()) {
    error = "--workload and --out are required";
    return false;
  }
  if (!(options.seconds > 0)) {
    error = "--seconds must be > 0";
    return false;
  }
  return true;
}

// Timings of one closed-loop window.
struct Window {
  std::vector<double> op_ms;
  double work = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] double busy_s() const {
    double sum = 0;
    for (const double ms : op_ms) sum += ms;
    return sum / 1e3;
  }
  [[nodiscard]] double work_per_s() const { return busy_s() > 0 ? work / busy_s() : 0.0; }

  [[nodiscard]] std::string render() const {
    JsonObject out;
    out.integer("ops", static_cast<std::int64_t>(op_ms.size()))
        .integer("attempted", static_cast<std::int64_t>(attempted))
        .integer("failed", static_cast<std::int64_t>(failed))
        .num("work", work)
        .num("busy_s", busy_s())
        .num("op_p10_ms", quantile(op_ms, 0.1))
        .num("op_p50_ms", quantile(op_ms, 0.5))
        .num("op_p90_ms", quantile(op_ms, 0.9))
        .num("op_p99_ms", quantile(op_ms, 0.99))
        .num("work_per_s", work_per_s());
    std::string samples = "[";
    for (std::size_t i = 0; i < op_ms.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.4f", i ? "," : "", op_ms[i]);
      samples += buf;
    }
    out.raw("op_ms", samples + "]");
    return out.render();
  }
};

// Times set-up repetitions of a spare workload instance at evenly spaced
// points of the loop; the spare never shares state with the measured one.
class SetupClock {
 public:
  SetupClock(Workload& spare, std::vector<double>& samples, int repetitions, double seconds)
      : spare_(spare),
        samples_(samples),
        left_(repetitions),
        every_ns_(static_cast<std::int64_t>(seconds * 1e9) / repetitions),
        next_ns_(now_ns() + every_ns_ / 2) {}

  // Runs the next repetition when its time has come.
  void tick() {
    if (left_ > 0 && now_ns() >= next_ns_) {
      run_one();
      next_ns_ += every_ns_;
    }
  }
  // Runs the repetitions a short loop left over.
  void finish() {
    while (left_ > 0) run_one();
  }

 private:
  void run_one() {
    const std::int64_t start = now_ns();
    spare_.setup();
    samples_.push_back(static_cast<double>(now_ns() - start) / 1e9);
    --left_;
  }

  Workload& spare_;
  std::vector<double>& samples_;
  int left_;
  std::int64_t every_ns_;
  std::int64_t next_ns_;
};

// Runs ops until `seconds` have passed and at least `min_ops` ran. With
// `traced` set, every other pass of `min_ops` ops runs with the tracer on and
// is accounted in *traced; the rest stay in the returned window. So both run
// every pool entry alike and see the same host phases, and their difference
// is the tracing overhead.
Window run_window(Workload& workload, Tracer& tracer, Checks& checks, double seconds,
                  std::uint64_t min_ops, std::uint64_t& next_index, Window* traced = nullptr,
                  SetupClock* setups = nullptr) {
  Window untraced;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (untraced.attempted < min_ops || now_ns() < deadline) {
    const std::uint64_t index = next_index++;
    const bool trace_op = traced != nullptr && (index / min_ops) % 2 == 1;
    Window& window = trace_op ? *traced : untraced;
    tracer.set_enabled(trace_op);
    tracer.set_op(index);
    const std::int64_t start = now_ns();
    OpResult result;
    {
      Span root(tracer, "op");
      result = workload.op(index, tracer);
    }
    const std::int64_t end = now_ns();
    tracer.set_enabled(false);
    workload.check(index, checks);
    window.op_ms.push_back(static_cast<double>(end - start) / 1e6);
    window.work += result.work;
    ++window.attempted;
    if (result.failed) ++window.failed;
    if (setups != nullptr) setups->tick();
  }
  return untraced;
}

// setup_s: the median of kSetupGroups group means, where group g holds
// set-ups g, g + kSetupGroups, ... and so spans the whole run. The host
// switches between two speed states about 1.6x apart for seconds at a time
// (NOTES.md, "Host facts"). A plain median of a run's set-ups lands on
// whichever state held most of the run and jumps between runs; a mean over
// the run moves with the share of each state instead. The median of the
// group means drops a group hit by one outlier, such as the cold first
// set-up.
double setup_estimate(const std::vector<double>& samples) {
  std::vector<double> means;
  for (std::size_t g = 0; g < kSetupGroups; ++g) {
    double sum = 0;
    std::size_t n = 0;
    for (std::size_t i = g; i < samples.size(); i += kSetupGroups, ++n) sum += samples[i];
    means.push_back(sum / static_cast<double>(n));
  }
  return quantile(means, 0.5);
}

// Per-layer self time (median per op) and share of traced op time.
std::string layer_report(const Tracer& tracer) {
  const SelfTimes per_op = self_times(tracer.spans());
  std::set<std::string> names;
  for (const auto& [op, layers] : per_op) {
    for (const auto& [name, ms] : layers) names.insert(name);
  }
  double total_ms = 0;
  for (const SpanRecord& span : tracer.spans()) {
    if (span.parent < 0) total_ms += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
  }
  JsonObject out;
  for (const std::string& name : names) {
    std::vector<double> values;
    double sum = 0;
    for (const auto& [op, layers] : per_op) {
      const auto it = layers.find(name);
      const double ms = it == layers.end() ? 0.0 : it->second;
      values.push_back(ms);
      sum += ms;
    }
    JsonObject layer;
    layer.num("ms", quantile(values, 0.5)).num("share", total_ms > 0 ? sum / total_ms : 0.0);
    // The op root's self time is the benchmark's own glue between spans.
    out.raw(name == "op" ? "bench.unattributed" : name, layer.render());
  }
  return out.render();
}

// Peak resident set of this process image so far. VmHWM, not getrusage:
// Linux carries ru_maxrss across execve, so it would report the parent's
// peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::string counts_json(const Counts& counts) {
  JsonObject out;
  for (const auto& [name, value] : counts) out.num(name, value);
  return out.render();
}

std::unique_ptr<Workload> make_workload(const Options& options, const std::string& work_dir) {
  if (options.workload == "derive") return make_derive_workload(options.seed, work_dir);
  if (options.workload == "hardened-app") return make_app_workload(options.seed);
  if (options.workload == "fleet") return make_fleet_workload(options.seed);
  return nullptr;
}

int run(const Options& options) {
  std::unique_ptr<Workload> workload = make_workload(options, options.work_dir);
  std::unique_ptr<Workload> spare = make_workload(options, options.work_dir + "/setup-spare");
  if (!workload || !spare) return usage(("unknown workload " + options.workload).c_str());

  std::vector<double> setup_s;
  {
    const std::int64_t start = now_ns();
    workload->setup();
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }

  Checks checks;
  workload->prepare(checks);
  Tracer tracer;
  std::uint64_t next_index = 0;
  const std::uint64_t min_ops = workload->min_ops();
  run_window(*workload, tracer, checks, 0.0, min_ops, next_index);  // warm-up pass

  Window traced;
  SetupClock setups(*spare, setup_s, kSetupRepetitions, options.seconds);
  const Window untraced = run_window(*workload, tracer, checks, options.seconds, min_ops,
                                    next_index, options.trace ? &traced : nullptr, &setups);
  setups.finish();
  // Before the untimed checks and traced extras, which build more state.
  const double peak_rss = peak_rss_mb();
  Counts extras;
  if (options.trace) workload->traced_extras(extras);
  workload->finish(checks);

  JsonObject result;
  std::string samples = "[";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%s%.9g", i ? ", " : "", setup_s[i]);
    samples += buf;
  }
  samples += "]";
  result.str("workload", options.workload)
      .integer("seed", static_cast<std::int64_t>(options.seed))
      .num("seconds", options.seconds)
      .boolean("trace", options.trace)
      .str("compiler", HEALERS_PERFBENCH_COMPILER)
      .str("build_type", HEALERS_PERFBENCH_BUILD_TYPE)
      .integer("nproc", sysconf(_SC_NPROCESSORS_ONLN))
      .integer("threads", workload->threads())
      .str("work_unit", workload->work_unit())
      .raw("params", workload->params())
      .raw("setup_samples_s", samples)
      .integer("setup_groups", static_cast<std::int64_t>(kSetupGroups))
      .num("setup_s", setup_estimate(setup_s))
      .num("peak_rss_mb", peak_rss)
      .raw("untraced", untraced.render())
      .raw("counts", counts_json(workload->counts()))
      .str("digest", workload->digest())
      .raw("checks", checks.render())
      .boolean("correct", checks.all_passed());
  if (options.trace) {
    result.raw("traced", traced.render())
        .raw("layers", layer_report(tracer))
        .raw("extras", counts_json(extras));
  }

  std::ofstream out(options.out, std::ios::trunc);
  out << result.render() << '\n';
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", options.out.c_str());
    return 1;
  }
  if (options.trace && !options.spans.empty() && !write_spans(tracer.spans(), options.spans)) {
    std::fprintf(stderr, "error: cannot write %s\n", options.spans.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string error;
  if (!perfbench::parse(argc, argv, options, error)) return perfbench::usage(error.c_str());
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
