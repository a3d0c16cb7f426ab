// The `healers` command-line driver — the scriptable face of the toolkit
// (the paper drove the same operations through a web UI, Figs 4/5).
//
// derive→(ship XML)→gen-source is the paper's offline pipeline: campaigns
// run where the library lives; wrapper generation can happen anywhere the
// spec file reaches. fleet simulate→ingest/report is the §2.3 collection
// story at fleet scale: hosts emit profile documents (XML or the compact
// binary wire format), the sharded collector aggregates them. serve is the
// derivation service: a simulated client fleet asks one DeriveServer for
// robust APIs and wrapper bundles; single-flight dedup plus the persistent
// spec cache (--cache-file, shared with derive) keep repeat answers at zero
// probes.
//
// One command table drives the parser and `healers help` (flags are
// explained in docs/cli.md). Each command form is a struct whose syntax()
// binds its operands and flags to the fields they set, and whose run() is the
// handler; a command refuses, before it does any work, every flag and
// argument it would not read.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "attacks/attacks.hpp"
#include "core/toolkit.hpp"
#include "debloat/reachability.hpp"
#include "debloat/surface.hpp"
#include "fleet/collector.hpp"
#include "fleet/simulator.hpp"
#include "fleet/wire.hpp"
#include "incident/recorder.hpp"
#include "server/derive_server.hpp"
#include "server/spec_cache.hpp"
#include "sim/fleet_sim.hpp"
#include "simlib/library.hpp"
#include "wrappers/wrappers.hpp"

using namespace healers;

namespace {

// One argument of one command — an operand or a flag — bound to the field it
// sets. Operands are positional and required; flags are named.
struct Arg {
  enum class Kind : std::uint8_t { kOperand, kCount, kText, kChoice, kSwitch };
  Kind kind;
  std::string_view name;                      // "<soname>", "--seed", "-o"
  std::function<bool(std::string_view)> set;  // false: the value is not one the kind takes
  std::vector<std::string_view> words = {};   // kChoice: the accepted values
  bool required = false;
  // A flag that only some values of another argument read: that argument's
  // name and those values. Empty when every value reads it.
  std::string_view only_with = {};
  std::vector<std::string_view> only_values = {};
};

// A command's arguments, operands first and in order.
using Syntax = std::vector<Arg>;

std::string join(const std::vector<std::string_view>& words) {
  std::string out;
  for (const std::string_view word : words) out += (out.empty() ? "" : "|") + std::string(word);
  return out;
}

Arg operand(std::string_view name, std::string& field) {
  return {Arg::Kind::kOperand, name, [&field](std::string_view v) { field = v; return true; },
          {}, /*required=*/true};
}

// A non-negative decimal integer that fits the field.
template <class T>
Arg count(std::string_view name, T& field) {
  return {Arg::Kind::kCount, name, [&field](std::string_view text) {
            const char* const end = text.data() + text.size();
            const auto [stop, error] = std::from_chars(text.data(), end, field);
            return !text.starts_with('-') && error == std::errc() && stop == end;
          }};
}

Arg text(std::string_view name, std::string& field, bool required = false) {
  return {Arg::Kind::kText, name, [&field](std::string_view v) { field = v; return true; },
          {}, required};
}

// A switch stores `value` (--no-prune stores false into a prune field).
Arg toggle(std::string_view name, bool& field, bool value = true) {
  return {Arg::Kind::kSwitch, name, [&field, value](auto) { field = value; return true; }};
}

// One word of a fixed list; each word stands for a value of the field.
template <class T>
Arg choice(std::string_view name, T& field, std::vector<std::pair<std::string_view, T>> table,
           bool required = false) {
  Arg arg{Arg::Kind::kChoice, name, [&field, table](std::string_view value) {
            const auto word = std::ranges::find_if(
                table, [value](const auto& entry) { return entry.first == value; });
            if (word != table.end()) field = word->second;
            return word != table.end();
          }, {}, required};
  for (const auto& [word, _] : table) arg.words.push_back(word);
  return arg;
}

// Restricts a flag to the given values of the argument named `with` (an
// operand or a choice); any other value makes the flag a usage error. A
// required flag so restricted is required for exactly those values.
Arg only(Arg flag, std::string_view with, std::vector<std::string_view> values) {
  flag.only_with = with;
  flag.only_values = std::move(values);
  return flag;
}

// "--type testing" or, for an operand, "demo-heap|demo-stack".
std::string scope(const Arg& flag) {
  const std::string with = flag.only_with.starts_with('-') ? std::string(flag.only_with) + " " : "";
  return with + join(flag.only_values);
}

// A choice whose words are the values themselves.
Arg choice(std::string_view name, std::string_view& field,
           std::initializer_list<std::string_view> words, bool required = false) {
  std::vector<std::pair<std::string_view, std::string_view>> table;
  for (const std::string_view word : words) table.emplace_back(word, word);
  return choice(name, field, std::move(table), required);
}

// Binds a command's arguments to its syntax. Anything the syntax does not
// declare is an error: an unknown or foreign flag, a value its kind does not
// take, an extra operand, a missing operand or required flag, and a flag
// the given value of its governing argument does not read.
Status parse_args(const Syntax& syntax, std::span<char* const> args) {
  std::vector<std::pair<std::string_view, std::string>> given;  // (name, value)
  // The last value given, the one set() left in the field.
  const auto value_of = [&given](std::string_view name) -> const std::string* {
    const auto it = std::ranges::find(given.rbegin(), given.rend(), name,
                                      &decltype(given)::value_type::first);
    return it == given.rend() ? nullptr : &it->second;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string arg = args[i];
    const bool flag = arg.starts_with('-');
    const auto target = flag ? std::ranges::find(syntax, arg, &Arg::name)
                             : std::ranges::find_if(syntax, [&](const Arg& a) {
                                 return a.kind == Arg::Kind::kOperand && !value_of(a.name);
                               });
    if (target == syntax.end()) {
      return Error(flag ? "unknown option " + arg : "unexpected argument '" + arg + "'");
    }
    if (target->kind == Arg::Kind::kOperand || target->kind == Arg::Kind::kSwitch) {
      target->set(arg);
      given.emplace_back(target->name, arg);
    } else if (i + 1 == args.size()) {
      return Error("missing value for " + arg);
    } else if (const std::string value = args[++i]; !target->set(value)) {
      const std::string wanted = target->kind == Arg::Kind::kChoice
                                     ? " takes " + join(target->words)
                                     : " needs a non-negative integer";
      return Error(arg + wanted + ", got '" + value + "'");
    } else {
      given.emplace_back(target->name, value);
    }
  }
  for (const Arg& a : syntax) {
    const std::string* with = a.only_with.empty() ? nullptr : value_of(a.only_with);
    const bool applies = a.only_with.empty() ||
                         (with != nullptr && std::ranges::count(a.only_values, *with) != 0);
    if (value_of(a.name) && !applies) {
      return Error(std::string(a.name) + " applies only to " + scope(a));
    }
    if (a.required && applies && !value_of(a.name)) {
      const std::string in_scope = a.only_with.empty() ? "" : " (" + scope(a) + ")";
      return Error("missing " + std::string(a.name) + in_scope);
    }
  }
  return Status::success();
}

// One line of `healers help`: the form, then its operands and flags.
std::string synopsis(std::string_view form, const Syntax& syntax) {
  std::string line(form);
  for (const Arg& arg : syntax) {
    std::string usage(arg.name);
    switch (arg.kind) {
      case Arg::Kind::kCount: usage += " N"; break;
      case Arg::Kind::kText: usage += " file"; break;
      case Arg::Kind::kChoice: usage += " " + join(arg.words); break;
      case Arg::Kind::kOperand:
      case Arg::Kind::kSwitch: break;
    }
    if (!arg.only_with.empty()) usage += " (" + scope(arg) + ")";
    line += arg.required ? " " + usage : " [" + usage + "]";
  }
  return line;
}

int fail(const std::string& message) {
  std::fprintf(stderr, "healers: %s\n", message.c_str());
  return 1;
}

// Writes to the -o target, or stdout when none was given.
int emit(const std::string& text, const std::string& out_path) {
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) return fail("cannot write " + out_path);
  out << text;
  std::printf("wrote %zu bytes to %s\n", text.size(), out_path.c_str());
  return 0;
}

Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Result<injector::CampaignResult> load_campaign(const std::string& path) {
  auto text = read_file(path);
  if (!text.ok()) return text.error();
  auto campaign = injector::CampaignResult::from_xml(text.value());
  if (!campaign.ok()) return Error(path + ": " + campaign.error().message);
  return campaign;
}

// Imports the persistent spec cache when one is named and the file exists; a
// missing file is a cold start, not an error (the save after the run creates it).
int load_spec_cache(const core::Toolkit& toolkit, const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (path.empty() || !probe) return 0;
  std::size_t skipped_unknown = 0;
  auto imported = server::load_cache_file(toolkit, path, &skipped_unknown);
  if (!imported.ok()) return fail(imported.error().message);
  std::fprintf(stderr, "spec cache: imported %zu campaign(s) from %s\n", imported.value(),
               path.c_str());
  if (skipped_unknown > 0) {
    std::fprintf(stderr, "spec cache: skipped %zu entry(ies) with unknown magic\n",
                 skipped_unknown);
  }
  return 0;
}

// Saves the persistent spec cache when one is named.
int save_spec_cache(const core::Toolkit& toolkit, const std::string& path) {
  if (path.empty()) return 0;
  const auto saved = server::save_cache_file(toolkit, path);
  if (!saved.ok()) return fail(saved.error().message);
  std::fprintf(stderr, "spec cache: saved %zu campaign(s) to %s\n",
               toolkit.export_campaigns().size(), path.c_str());
  return 0;
}

// The named demo executables (the operand of inspect, debloat and dossier).
constexpr std::string_view kDemoExecutables = "demo-heap|demo-stack|demo-drift";

Result<linker::Executable> demo_executable(const std::string& name) {
  if (name == "demo-heap") return attacks::heap_victim_executable();
  if (name == "demo-stack") return attacks::stack_victim_executable();
  if (name == "demo-drift") return attacks::drift_victim_executable();
  return Error("unknown executable: " + name + " (try demo-heap, demo-stack or demo-drift)");
}

// Partitions one executable's static closure per needed library and installs
// the pieces as surface scopes. Returns the number of scopes installed.
std::size_t install_scopes_from(const core::Toolkit& toolkit, const linker::Executable& exe,
                                const debloat::ReachabilityReport& report) {
  std::size_t installed = 0;
  for (const std::string& soname : exe.needed) {
    const simlib::SharedLibrary* lib = toolkit.library(soname);
    if (lib == nullptr) continue;
    core::SurfaceScope scope;
    scope.executable = exe.name;
    scope.soname = soname;
    for (const std::string& symbol : report.reachable) {
      if (lib->defines(symbol)) scope.symbols.push_back(symbol);
    }
    if (scope.symbols.empty()) continue;
    if (toolkit.install_surface_scope(std::move(scope))) ++installed;
  }
  return installed;
}

// Installs the scopes of every demo executable — what --debloat falls back
// to when no cache file supplied installed scopes for the library.
std::size_t install_demo_scopes(const core::Toolkit& toolkit) {
  std::size_t installed = 0;
  for (const char* name : {"demo-heap", "demo-stack", "demo-drift"}) {
    const linker::Executable exe = demo_executable(name).value();
    installed += install_scopes_from(toolkit, exe, debloat::compute_reachability(exe, toolkit.catalog()));
  }
  return installed;
}

// Repair rules per action — the census derive --repair and serve --stats
// print on stderr.
struct RuleCensus {
  std::size_t rules = 0;
  std::size_t truncate = 0;
  std::size_t substitute = 0;
  std::size_t safe_return = 0;

  void add(const gen::RepairPolicy& policy) {
    for (const gen::FunctionRepairPolicy& fn : policy.functions) {
      for (const gen::RepairRule& rule : fn.rules) {
        ++rules;
        switch (rule.action) {
          case simlib::RepairAction::kTruncateWrite: ++truncate; break;
          case simlib::RepairAction::kSubstituteBounded:
          case simlib::RepairAction::kSynthesizeInput: ++substitute; break;
          case simlib::RepairAction::kSafeReturn: ++safe_return; break;
        }
      }
    }
  }
};

using Encoding = fleet::SimulatorConfig::Encoding;
const std::vector<std::pair<std::string_view, Encoding>> kEncodings = {
    {"xml", Encoding::kXml}, {"binary", Encoding::kBinary}, {"mixed", Encoding::kMixed}};

// The traffic model names are sim::to_string's, plus the `crashloop`
// spelling the flag has always accepted.
std::vector<std::pair<std::string_view, sim::TrafficModel>> traffic_models() {
  std::vector<std::pair<std::string_view, sim::TrafficModel>> table;
  for (int m = 0; m <= static_cast<int>(sim::TrafficModel::kMixed); ++m) {
    const auto model = static_cast<sim::TrafficModel>(m);
    table.emplace_back(sim::to_string(model), model);
  }
  table.emplace_back("crashloop", sim::TrafficModel::kCrashLoop);
  return table;
}

using ull = unsigned long long;  // printf's %llu
void print_help(std::FILE* out);

struct Help {
  Syntax syntax() { return {}; }
  int run() {
    print_help(stdout);
    return 0;
  }
};

struct ListLibs {
  Syntax syntax() { return {}; }
  int run(const core::Toolkit& toolkit) {
    for (const std::string& soname : toolkit.list_libraries()) {
      const auto functions = toolkit.list_functions(soname);
      std::printf("%-16s %zu functions\n", soname.c_str(), functions.value().size());
    }
    return 0;
  }
};

struct ListFunctions {
  std::string soname;
  Syntax syntax() { return {operand("<soname>", soname)}; }
  int run(const core::Toolkit& toolkit) {
    const auto functions = toolkit.list_functions(soname);
    if (!functions.ok()) return fail(functions.error().message);
    for (const std::string& name : functions.value()) std::printf("%s\n", name.c_str());
    return 0;
  }
};

struct Decls {
  std::string soname, out;
  Syntax syntax() { return {operand("<soname>", soname), text("-o", out)}; }
  int run(const core::Toolkit& toolkit) {
    const auto doc = toolkit.declaration_xml(soname);
    if (!doc.ok()) return fail(doc.error().message);
    return emit(xml::serialize(doc.value()), out);
  }
};

struct Derive {
  std::string soname, cache_file, out;
  injector::InjectorConfig config;
  bool stats = false, repair = false, debloat = false;

  Derive() {  // derive's documented defaults; InjectorConfig's own are 42 and 2
    config.seed = 2003;
    config.variants = 1;
  }

  Syntax syntax() {
    return {operand("<soname>", soname), count("--seed", config.seed),
            count("--variants", config.variants), count("--jobs", config.jobs),
            choice("--reset", config.snapshot_reset, {{"fork", true}, {"fresh", false}}),
            toggle("--no-prune", config.prune, false), toggle("--stats", stats),
            toggle("--repair", repair), toggle("--debloat", debloat),
            text("--cache-file", cache_file), text("-o", out)};
  }


  int run(const core::Toolkit& toolkit) {
    if (const int rc = load_spec_cache(toolkit, cache_file); rc != 0) return rc;
    if (debloat) {
      // Scope the campaign to the symbols some executable's static closure can
      // reach. Scopes come from the cache file (HSSP1 entries) when present;
      // otherwise the demo executables' closures stand in.
      if (toolkit.surface_scope_for(soname).empty()) install_demo_scopes(toolkit);
      config.only_functions = toolkit.surface_scope_for(soname);
      if (config.only_functions.empty()) {
        return fail("no surface scope covers " + soname +
                    " (run `healers debloat <exe> --cache-file ...` first)");
      }
      std::fprintf(stderr, "debloat: campaign scoped to %zu reachable function(s)\n",
                   config.only_functions.size());
    }
    const auto campaign = toolkit.derive_robust_api(soname, config);
    if (!campaign.ok()) return fail(campaign.error().message);
    std::fprintf(stderr, "%llu probes, %llu failures in %zu functions; executed %llu probes this run\n",
                 ull(campaign.value().total_probes()), ull(campaign.value().total_failures()),
                 campaign.value().functions_with_failures(), ull(toolkit.probes_executed()));
    if (const int rc = save_spec_cache(toolkit, cache_file); rc != 0) return rc;
    xml::Node doc = campaign.value().to_xml();
    if (repair) {
      // The repair policy is a pure function of the campaign document, so it
      // rides along as a sibling node — the campaign bytes stay identical.
      const auto policy = toolkit.derive_repair_policy(soname, config);
      if (!policy.ok()) return fail(policy.error().message);
      RuleCensus census;
      census.add(policy.value());
      std::fprintf(stderr,
                   "repair: %zu rule(s) in %zu function(s): %zu truncate, %zu substitute, "
                   "%zu safe-return\n",
                   census.rules, policy.value().functions.size(), census.truncate,
                   census.substitute, census.safe_return);
      doc.add_child(policy.value().to_xml());
    }
    if (stats) {
      // Engine telemetry is jobs/reset-dependent, so it rides along only on
      // request — the default document stays bit-identical across both knobs.
      const injector::CampaignEngineStats& engine = campaign.value().engine;
      doc.add_child(engine.to_xml());
      std::fprintf(stderr,
                   "engine: %llu states forked, %llu testbeds built, pages sealed=%llu "
                   "faulted=%llu privatized=%llu dropped=%llu, %llu crashes unwound\n",
                   ull(engine.states_forked), ull(engine.testbeds_built), ull(engine.pages_sealed),
                   ull(engine.pages_faulted), ull(engine.pages_privatized),
                   ull(engine.pages_dropped), ull(engine.crashes_unwound));
      std::fprintf(stderr,
                   "prune: %llu probes implied, %llu executed (implication hit rate %.1f%%), "
                   "%llu/%llu args warm-ordered (%.1f%%), %llu memo case hits\n",
                   ull(engine.probes_implied), ull(engine.probes_executed),
                   engine.implication_hit_rate() * 100.0, ull(engine.args_warm_ordered),
                   ull(engine.args_probed), engine.warm_start_ratio() * 100.0,
                   ull(engine.memo_case_hits));
    }
    return emit(xml::serialize(doc), out);
  }
};

struct Report {
  std::string path;
  Syntax syntax() { return {operand("<campaign.xml>", path)}; }
  int run() {
    auto campaign = load_campaign(path);
    if (!campaign.ok()) return fail(campaign.error().message);
    std::fputs(campaign.value().to_table().c_str(), stdout);
    return 0;
  }
};

struct GenSource {
  std::string soname, campaign_path, out;
  std::string_view type;
  std::uint64_t seed = 2003;

  Syntax syntax() {
    return {operand("<soname>", soname),
            choice("--type", type, {"profiling", "robustness", "security", "testing", "repair"},
                   /*required=*/true),
            only(text("--campaign", campaign_path, /*required=*/true), "--type",
                 {"robustness", "repair"}),
            only(count("--seed", seed), "--type", {"testing"}), text("-o", out)};
  }


  int run(const core::Toolkit& toolkit) {
    gen::WrapperBuilder builder(std::string(type) + "-wrapper");
    std::optional<injector::CampaignResult> campaign;
    if (type == "robustness" || type == "repair") {
      auto loaded = load_campaign(campaign_path);
      if (!loaded.ok()) return fail(loaded.error().message);
      campaign = std::move(loaded).take();
    }
    if (type == "profiling") {
      for (const auto& g : wrappers::fig3_generators()) builder.add(g);
    } else if (type == "robustness") {
      builder.add(gen::prototype_gen()).add(wrappers::arg_check_gen());
      builder.add(gen::call_counter_gen()).add(gen::caller_gen());
    } else if (type == "security") {
      builder.add(gen::prototype_gen()).add(wrappers::heap_canary_gen());
      builder.add(wrappers::stack_guard_gen()).add(gen::caller_gen());
    } else if (type == "testing") {
      builder.add(gen::prototype_gen()).add(wrappers::error_injection_gen(0.1, seed));
      builder.add(gen::call_counter_gen()).add(gen::caller_gen());
    } else {  // repair
      const simlib::SharedLibrary* lib = toolkit.library(soname);
      if (lib == nullptr) return fail("no such library: " + soname);
      auto policy = gen::derive_repair_policy(*campaign, *lib);
      if (!policy.ok()) return fail(policy.error().message);
      builder.add(gen::prototype_gen()).add(wrappers::repair_gen(
          std::make_shared<const gen::RepairPolicy>(std::move(policy).take())));
      builder.add(gen::call_counter_gen()).add(gen::caller_gen());
    }
    const auto source = toolkit.wrapper_source(soname, builder, campaign ? &*campaign : nullptr);
    if (!source.ok()) return fail(source.error().message);
    return emit(source.value(), out);
  }
};

struct Inspect {
  std::string executable, out;
  bool validate = false;
  std::string_view format = "text";

  Syntax syntax() {
    return {operand(kDemoExecutables, executable), toggle("--validate", validate),
            choice("--format", format, {"text", "xml"}), text("-o", out)};
  }


  int run(const core::Toolkit& toolkit) {
    auto exe = demo_executable(executable);
    if (!exe.ok()) return fail(exe.error().message);
    linker::LinkMap map = toolkit.inspect(exe.value());
    if (validate) {
      // Dynamic cross-check: run the entry point under a tracing interposition
      // and record calls the declared import list is missing (Fig 4 rot).
      linker::CallOutcome outcome;
      map.stale_imports = linker::validate_executable(exe.value(), toolkit.catalog(), &outcome);
      std::fprintf(stderr, "validate: %zu stale import(s), run %s\n", map.stale_imports.size(),
                   outcome.to_string().c_str());
    }
    return emit(format == "xml" ? xml::serialize(map.to_xml()) : map.to_text(), out);
  }
};

// Demand-driven debloating report (docs/debloat.md): computes the static
// closure for a demo executable, runs it under the demand-loading barrier,
// and reports the surface profile. With --cache-file, the closure is also
// persisted as HSSP1 surface-scope entries so later --debloat derives scope
// their campaigns to it.
struct Debloat {
  std::string executable, cache_file, out;
  std::string_view format = "text";

  Syntax syntax() {
    return {operand(kDemoExecutables, executable),
            choice("--format", format, {"text", "xml", "binary"}),
            text("--cache-file", cache_file), text("-o", out)};
  }


  int run(const core::Toolkit& toolkit) {
    auto exe = demo_executable(executable);
    if (!exe.ok()) return fail(exe.error().message);
    if (const int rc = load_spec_cache(toolkit, cache_file); rc != 0) return rc;
    const debloat::ReachabilityReport report =
        debloat::compute_reachability(exe.value(), toolkit.catalog());
    auto proc = debloat::spawn_debloated(exe.value(), toolkit.catalog(), report);
    incident::FlightRecorder recorder;
    recorder.set_process_name(exe.value().name);
    proc->set_observer(&recorder);
    const linker::CallOutcome outcome = proc->run(exe.value().entry);
    const debloat::SurfaceProfile profile = debloat::capture_surface_profile(*proc, report, "local");
    std::fprintf(stderr,
                 "debloat: run %s; %llu/%llu symbol(s) mapped, %llu violation(s), "
                 "%zu dossier(s)\n",
                 outcome.to_string().c_str(), ull(profile.touched), ull(profile.exported),
                 ull(profile.trapped), recorder.dossiers().size());
    if (!cache_file.empty()) {
      const std::size_t installed = install_scopes_from(toolkit, exe.value(), report);
      const auto saved = server::save_cache_file(toolkit, cache_file);
      if (!saved.ok()) return fail(saved.error().message);
      std::fprintf(stderr, "spec cache: saved %zu surface scope(s) to %s\n", installed,
                   cache_file.c_str());
    }
    if (format == "xml") return emit(profile.to_xml(), out);
    if (format == "binary") return emit(fleet::encode_surface_binary(profile), out);
    return emit(report.to_text() + profile.to_text(), out);
  }
};

struct FleetSimulate {
  fleet::SimulatorConfig config;
  std::string out;

  Syntax syntax() {
    return {count("--hosts", config.hosts), count("--docs", config.docs_per_host),
            count("--seed", config.seed), count("--jobs", config.jobs),
            choice("--encoding", config.encoding, kEncodings), text("-o", out)};
  }


  int run(const core::Toolkit& toolkit) {
    const auto documents = fleet::FleetSimulator(toolkit, config).run();
    std::fprintf(stderr, "%u host(s), %zu document(s)\n", config.hosts, documents.size());
    return emit(fleet::frame_stream(documents), out);
  }
};

// `fleet ingest` and `fleet report`: a framed document stream run through
// a fleet collector.
struct FleetStream {
  std::string path;
  fleet::CollectorConfig config;

  Syntax syntax() {
    return {operand("<file>", path), count("--shards", config.shards),
            count("--jobs", config.workers), count("--capacity", config.queue_capacity)};
  }


  // Runs the stream through `collector`; nonzero when it cannot be read.
  int collect(fleet::FleetCollector& collector) const {
    auto text = read_file(path);
    if (!text.ok()) return fail(text.error().message);
    auto documents = fleet::unframe_stream(text.value());
    if (!documents.ok()) return fail(path + ": " + documents.error().message);
    for (const std::string& doc : documents.value()) collector.submit(doc);
    collector.flush();
    return 0;
  }
};

struct FleetIngest : FleetStream {
  int run() {
    const auto start = std::chrono::steady_clock::now();
    fleet::FleetCollector server(config);
    if (const int rc = collect(server); rc != 0) return rc;
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    std::printf("ingested %llu/%llu document(s) on %u shard(s): %llu malformed, "
                "%llu dropped (%.0f docs/sec)\n",
                ull(server.aggregated()), ull(server.submitted()), server.shards(),
                ull(server.malformed()), ull(server.dropped()),
                seconds > 0 ? static_cast<double>(server.submitted()) / seconds : 0.0);
    if (server.malformed() > 0) {
      std::fprintf(stderr, "first decode error: %s\n", server.first_error().c_str());
    }
    return server.malformed() == 0 ? 0 : 1;
  }
};

struct FleetReport : FleetStream {
  int run() {
    fleet::FleetCollector collector(config);
    if (const int rc = collect(collector); rc != 0) return rc;
    std::fputs(collector.render_summary().c_str(), stdout);
    return 0;
  }
};

// Runs one of the §3.4 attack demos with the security wrapper AND an incident
// flight recorder attached, then prints the captured crash dossier. The
// dossier is derived purely from deterministic simulated state, so every
// format is byte-identical across runs.
struct Dossier {
  std::string scenario, out;
  std::string_view format = "text";
  bool repair = false;

  Syntax syntax() {
    return {operand(kDemoExecutables, scenario),
            choice("--format", format, {"text", "xml", "binary"}),
            only(toggle("--repair", repair), kDemoExecutables, {"demo-heap", "demo-stack"}),
            text("-o", out)};
  }


  int emit_dossier(const incident::FlightRecorder& recorder) const {
    const incident::Dossier& dossier = recorder.dossiers().front();
    if (format == "xml") return emit(xml::serialize(dossier.to_xml()), out);
    if (format == "binary") return emit(fleet::encode_dossier_binary(dossier), out);
    return emit(dossier.to_text(), out);
  }

  int run(const core::Toolkit& toolkit) {
    if (scenario == "demo-drift") {
      // Surface-drift scenario: the victim's stale import list leaves rand()
      // outside the static closure, so under demand loading the call traps as
      // a surface violation and the recorder snapshots the incident.
      const linker::Executable exe = attacks::drift_victim_executable();
      const debloat::ReachabilityReport report =
          debloat::compute_reachability(exe, toolkit.catalog());
      auto proc = debloat::spawn_debloated(exe, toolkit.catalog(), report);
      incident::FlightRecorder recorder;
      recorder.set_process_name(exe.name);
      proc->set_observer(&recorder);
      const linker::CallOutcome outcome = proc->run(exe.entry);
      if (recorder.dossiers().empty()) {
        return fail("no detector fired (" + outcome.to_string() + "); no dossier captured");
      }
      return emit_dossier(recorder);
    }
    auto wrapper = toolkit.security_wrapper("libsimc.so.1");
    if (repair) {
      // Repair mode: the victim keeps running — the dossier captured is the
      // kRepair snapshot carrying the applied RepairEvents, not a crash.
      const auto campaign = toolkit.derive_robust_api("libsimc.so.1");
      if (!campaign.ok()) return fail(campaign.error().message);
      wrapper = toolkit.repair_wrapper("libsimc.so.1", campaign.value());
    }
    if (!wrapper.ok()) return fail(wrapper.error().message);
    incident::FlightRecorder recorder;
    attacks::AttackResult result;
    if (scenario == "demo-heap") {
      recorder.set_process_name("netd");
      result = attacks::run_heap_smash_attack(toolkit.catalog(), {wrapper.value()},
                                              /*hardened_allocator=*/false, &recorder);
    } else if (scenario == "demo-stack") {
      recorder.set_process_name("reqhandler");
      result = attacks::run_stack_smash_attack(toolkit.catalog(), {wrapper.value()}, &recorder);
    } else {
      return fail("unknown scenario: " + scenario +
                  " (try demo-heap, demo-stack or demo-drift)");
    }
    if (recorder.dossiers().empty()) {
      return fail("no detector fired (" + result.outcome.to_string() + "); no dossier captured");
    }
    if (repair) {
      std::fprintf(stderr, "repair: %llu repair(s) applied, victim %s (%s)\n",
                   ull(recorder.repairs_applied()),
                   result.survived ? "survived" : "did NOT survive",
                   result.outcome.to_string().c_str());
    }
    return emit_dossier(recorder);
  }
};

// Drives the derivation service with a simulated client fleet: --clients
// clients each submit --requests requests (rotating over the installed
// libraries, the derive endpoint, and the three bundle kinds), then one
// drain on --jobs workers answers everything. The trace is a pure function
// of the flags, so the rendered summary is byte-identical across reruns
// and across --jobs values.
struct Serve {
  int clients = 4, requests = 8, variants = 1;
  std::uint64_t seed = 2003;
  server::ServerConfig config{.shards = 4, .queue_capacity = 4096};
  Encoding encoding = Encoding::kMixed;
  bool repair = false, stats = false;
  std::string cache_file, out;

  Syntax syntax() {
    return {count("--clients", clients), count("--requests", requests),
            count("--jobs", config.workers), count("--shards", config.shards),
            count("--capacity", config.queue_capacity), text("--cache-file", cache_file),
            choice("--encoding", encoding, kEncodings), count("--seed", seed),
            count("--variants", variants), toggle("--repair", repair), toggle("--stats", stats),
            toggle("--debloat", config.debloat), text("-o", out)};
  }


  int run(const core::Toolkit& toolkit) {
    if (const int rc = load_spec_cache(toolkit, cache_file); rc != 0) return rc;
    if (config.debloat && toolkit.export_surface_scopes().empty()) {
      // No cache file supplied scopes: the demo executables' closures stand in,
      // so scoped serving is demonstrable from a cold start.
      std::fprintf(stderr, "debloat: %zu demo surface scope(s) installed\n",
                   install_demo_scopes(toolkit));
    }
    server::DeriveServer server(toolkit, config);

    // Smallest library first keeps tiny traces (few requests) cheap.
    const std::vector<std::string> sonames = {"libsimm.so.1", "libsimio.so.1", "libsimc.so.1"};
    std::vector<server::BundleKind> bundles = {server::BundleKind::kProfiling,
                                               server::BundleKind::kSecurity,
                                               server::BundleKind::kRobustness};
    if (repair) bundles.push_back(server::BundleKind::kRepair);
    std::vector<server::DeriveServer::Ticket> tickets;
    std::size_t n = 0;
    for (int client = 0; client < clients; ++client) {
      for (int request = 0; request < requests; ++request, ++n) {
        server::DeriveRequest req;
        req.soname = sonames[n % sonames.size()];
        req.seed = seed;
        req.variants = variants;
        // Every fourth request asks for a wrapper bundle instead of a spec.
        if (n % 4 == 3) {
          req.endpoint = server::Endpoint::kBundle;
          req.bundle = bundles[(n / 4) % bundles.size()];
        }
        const bool binary =
            encoding == Encoding::kMixed ? n % 2 == 1 : encoding == Encoding::kBinary;
        req.format = binary ? server::WireFormat::kBinary : server::WireFormat::kXml;
        tickets.push_back(server.submit(req.encode()));
      }
    }
    server.drain();

    std::fputs(server.render_summary().c_str(), stdout);
    const auto latency = [&server](server::Endpoint endpoint, double q) {
      return ull(server.wall_latency_micros(endpoint, q));
    };
    std::fprintf(stderr, "wall latency us: derive p50=%llu p99=%llu, bundle p50=%llu p99=%llu\n",
                 latency(server::Endpoint::kDerive, 0.50),
                 latency(server::Endpoint::kDerive, 0.99),
                 latency(server::Endpoint::kBundle, 0.50),
                 latency(server::Endpoint::kBundle, 0.99));
    // Probes executed, and their per-campaign subsumption-pruning split.
    // Scheduling-dependent (like the wall latencies above): a warm profile
    // learned from whichever campaign finished first shifts the
    // executed/implied split — so stderr only, never the byte-compared summary.
    std::fprintf(stderr, "probes executed this run: %llu\n", ull(toolkit.probes_executed()));
    for (const core::CachedCampaign& entry : toolkit.export_campaigns()) {
      const injector::CampaignEngineStats& engine = entry.value.engine;
      if (engine.args_probed == 0) continue;  // imported from cache: no engine run
      std::fprintf(stderr,
                   "prune %s: %llu implied / %llu executed (hit rate %.1f%%), "
                   "warm-start %.1f%%\n",
                   entry.key.soname.c_str(), ull(engine.probes_implied),
                   ull(engine.probes_executed),
                   engine.implication_hit_rate() * 100.0, engine.warm_start_ratio() * 100.0);
    }
    if (stats) {
      // Repair-policy census across everything the drain derived. Stderr like
      // the telemetry above: the byte-compared summary must not depend on
      // whether --repair bundles were in the rotation.
      const auto policies = toolkit.export_repair_policies();
      RuleCensus census;
      for (const core::CachedRepairPolicy& entry : policies) census.add(entry.value);
      std::fprintf(stderr,
                   "repair: %zu policy(ies) derived, %zu rule(s): %zu truncate, "
                   "%zu substitute, %zu safe-return\n",
                   policies.size(), census.rules, census.truncate, census.substitute,
                   census.safe_return);
    }
    if (const int rc = save_spec_cache(toolkit, cache_file); rc != 0) return rc;
    if (!out.empty()) {
      // Responses in ticket (submission) order, wrapped in the same stream
      // framing fleet documents use — replayable through fleet::unframe_stream.
      std::vector<std::string> responses;
      responses.reserve(tickets.size());
      for (const auto ticket : tickets) {
        const auto response = server.response(ticket);
        responses.push_back(response ? *response : std::string());
      }
      if (const int rc = emit(fleet::frame_stream(responses), out); rc != 0) return rc;
    }
    return server.stats().answered_error == 0 ? 0 : 1;
  }
};

// The virtual-time discrete-event fleet (src/sim): a million cheap host
// tasks on a virtual clock, emitting into the real FleetCollector and
// DeriveServer. The deterministic summary goes to stdout (byte-identical
// for a given --seed at any --jobs/--shards); wall-clock throughput — the
// one nondeterministic number — goes to stderr.
struct Simulate {
  sim::SimConfig config;
  bool stats = false;
  std::string out;

  Syntax syntax() {
    return {count("--hosts", config.hosts), count("--virtual-seconds", config.virtual_seconds),
            count("--seed", config.seed), count("--jobs", config.jobs),
            choice("--traffic", config.traffic, traffic_models()),
            count("--shards", config.shards),
            count("--capacity", config.collector.queue_capacity), toggle("--stats", stats),
            toggle("--debloat", config.debloat), text("-o", out)};
  }


  int run(const core::Toolkit& toolkit) {
    if (config.hosts == 0 || config.shards == 0 || config.virtual_seconds == 0 ||
        config.collector.queue_capacity == 0) {
      return fail("simulate: --hosts/--shards/--capacity/--virtual-seconds must be positive");
    }
    const auto start = std::chrono::steady_clock::now();
    sim::FleetSim simulation(toolkit, config);
    const sim::SimStats sim_stats = simulation.run();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    const auto& collector = simulation.collector();
    const auto server_stats = simulation.server().stats();
    // The accounting identities the sim exists to exercise, enforced at ANY
    // scale this command runs at — a million-host run that loses one document
    // exits nonzero.
    if (collector.submitted() != collector.aggregated() + collector.malformed() +
                                     collector.dropped() + collector.pending()) {
      return fail("simulate: collector accounting identity violated");
    }
    if (server_stats.submitted != server_stats.answered + server_stats.shed + server_stats.pending) {
      return fail("simulate: derive-server accounting identity violated");
    }
    if (collector.malformed() != 0) {
      return fail("simulate: malformed documents: " + collector.first_error());
    }
    if (sim_stats.responses_error != 0) return fail("simulate: derive responses errored");

    std::fprintf(stderr, "simulated %llu hosts / %llu emissions in %.2fs wall (%.0f hosts/s, %.0f docs/s)\n",
                 ull(sim_stats.hosts), ull(sim_stats.emissions), wall,
                 static_cast<double>(sim_stats.hosts) / (wall > 0 ? wall : 1e-9),
                 static_cast<double>(sim_stats.emissions) / (wall > 0 ? wall : 1e-9));
    return emit(stats ? simulation.render_global_summary() : sim_stats.render(), out);
  }
};

struct DemoAttacks {
  Syntax syntax() { return {}; }
  int run(const core::Toolkit& toolkit) {
    const auto plain = attacks::run_heap_smash_attack(toolkit.catalog(), {});
    std::printf("unprotected heap attack:\n%s\n", plain.narrative.c_str());
    const auto guarded = attacks::run_heap_smash_attack(
        toolkit.catalog(), {toolkit.security_wrapper("libsimc.so.1").value()});
    std::printf("with security wrapper:\n%s", guarded.narrative.c_str());
    return plain.hijack_succeeded && guarded.blocked_by_wrapper ? 0 : 1;
  }
};

struct Row {
  std::string_view form;  // one word ("derive") or two ("fleet ingest")
  std::string (*synopsis)(std::string_view form);
  int (*run)(std::string_view form, std::span<char* const> args);
};

// Parses the arguments after the form, then runs the handler. A usage error
// exits 2 before the toolkit is built.
template <class Command>
int run_command(std::string_view form, std::span<char* const> args) {
  Command command;
  if (const Status parsed = parse_args(command.syntax(), args); !parsed.ok()) {
    std::fprintf(stderr, "healers: %s\nusage: healers %s\n", parsed.error().message.c_str(),
                 synopsis(form, command.syntax()).c_str());
    return 2;
  }
  if constexpr (requires { command.run(); }) {
    return command.run();
  } else {
    const core::Toolkit toolkit;
    return command.run(toolkit);
  }
}

template <class Command>
constexpr Row row(std::string_view form) {
  return {form, [](std::string_view f) { return synopsis(f, Command{}.syntax()); },
          &run_command<Command>};
}

constexpr Row kCommands[] = {
    row<Help>("help"),
    row<ListLibs>("list-libs"),
    row<ListFunctions>("list-functions"),
    row<Decls>("decls"),
    row<Derive>("derive"),
    row<Report>("report"),
    row<GenSource>("gen-source"),
    row<Inspect>("inspect"),
    row<Debloat>("debloat"),
    row<DemoAttacks>("demo attacks"),
    row<Dossier>("dossier"),
    row<Simulate>("simulate"),
    row<FleetSimulate>("fleet simulate"),
    row<FleetIngest>("fleet ingest"),
    row<FleetReport>("fleet report"),
    row<Serve>("serve"),
};

void print_help(std::FILE* out) {
  std::fputs("usage: healers <command> [args]\n", out);
  for (const Row& row : kCommands) std::fprintf(out, "  %s\n", row.synopsis(row.form).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::span<char* const> args(argv + 1, argc > 1 ? argc - 1 : 0);
  std::string command = args.empty() ? "" : args[0];
  if (command == "--help" || command == "-h") command = "help";
  for (const Row& row : kCommands) {
    // A form spells its leading arguments: "fleet ingest f" runs "fleet ingest".
    if (row.form == command) return row.run(row.form, args.subspan(1));
    if (args.size() > 1 && row.form == command + " " + args[1]) {
      return row.run(row.form, args.subspan(2));
    }
  }
  if (!command.empty()) std::fprintf(stderr, "healers: unknown command '%s'\n", command.c_str());
  print_help(stderr);
  return 2;
}
