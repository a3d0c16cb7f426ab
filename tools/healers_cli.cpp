// The `healers` command-line driver — the scriptable face of the toolkit
// (the paper drove the same operations through a web UI, Figs 4/5).
//
//   healers list-libs
//   healers list-functions <soname>
//   healers decls <soname> [-o decls.xml]
//   healers derive <soname> [--seed N] [--variants N] [--jobs N] [-o campaign.xml]
//   healers report <campaign.xml>
//   healers gen-source <soname> --type profiling|robustness|security|testing
//                      [--campaign campaign.xml] [-o wrapper.c]
//   healers inspect demo-heap|demo-stack
//   healers demo attacks
//   healers fleet simulate [--hosts N] [--docs N] [--seed N] [--jobs N]
//                          [--encoding xml|binary|mixed] -o fleet.docs
//   healers fleet ingest <fleet.docs> [--shards N] [--jobs N] [--capacity N]
//   healers fleet report <fleet.docs> [--shards N] [--jobs N]
//   healers serve [--clients N] [--requests N] [--jobs N] [--shards N]
//                 [--capacity N] [--cache-file F] [--encoding xml|binary]
//   healers simulate [--hosts N] [--virtual-seconds N] [--seed N] [--jobs N]
//                    [--traffic M] [--shards N] [--capacity N] [--stats]
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
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
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

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: healers <command> [args]\n"
               "  help\n"
               "  list-libs\n"
               "  list-functions <soname>\n"
               "  decls <soname> [-o file]\n"
               "  derive <soname> [--seed N] [--variants N] [--jobs N]\n"
               "         [--reset fork|fresh] [--no-prune] [--stats] [--repair]\n"
               "         [--cache-file file] [-o file]\n"
               "         [--debloat]\n"
               "         (--jobs N probes on N worker threads, 0 = all cores;\n"
               "          --reset fork resets probes by COW fork from a shared pristine\n"
               "          state, fresh rebuilds a process per probe; --no-prune disables\n"
               "          subsumption pruning and executes every probe; results are\n"
               "          identical for every --jobs, --reset and --no-prune value;\n"
               "          --stats appends engine fork/privatize and implication-cache\n"
               "          counters as an <engine> XML node;\n"
               "          --cache-file loads/saves the persistent spec cache so repeat\n"
               "          runs execute 0 probes and warm campaigns reuse learned\n"
               "          implication profiles;\n"
               "          --repair additionally derives the repair policy from the\n"
               "          campaign's crash boundaries and appends it as a\n"
               "          <repair-policy> XML node — the campaign document itself is\n"
               "          byte-identical with or without it;\n"
               "          --debloat scopes the campaign to the symbols reachable from\n"
               "          an installed surface scope — HSSP1 cache entries, or the demo\n"
               "          executables' closures when none are installed)\n"
               "  report <campaign.xml>\n"
               "  gen-source <soname> --type profiling|robustness|security|testing|repair\n"
               "             [--campaign file] [-o file]\n"
               "  inspect demo-heap|demo-stack|demo-drift [--validate] [--format text|xml]\n"
               "          [-o file]\n"
               "          (--validate runs the entry point under a tracing interposition\n"
               "           and records stale imports — symbols the binary calls that its\n"
               "           declared import list is missing — in the Fig 4 link map)\n"
               "  debloat demo-heap|demo-stack|demo-drift [--format text|xml|binary]\n"
               "          [--cache-file file] [-o file]\n"
               "          (static reachability closure + a demand-loading run: symbols\n"
               "           start unmapped, the first call faults each one in, and calls\n"
               "           outside the closure trap as surface violations; --cache-file\n"
               "           persists the closure as HSSP1 surface-scope entries that\n"
               "           derive/serve --debloat campaigns are scoped to)\n"
               "  demo attacks\n"
               "  dossier demo-heap|demo-stack|demo-drift [--format text|xml|binary]\n"
               "          [--repair] [-o file]\n"
               "          (--repair preloads the repair wrapper instead of the security\n"
               "           wrapper: the attack is truncated/substituted away, the victim\n"
               "           survives, and the dossier records the applied RepairEvents;\n"
               "           demo-drift runs under demand loading and captures the\n"
               "           surface-violation dossier its stale rand() import raises)\n"
               "  simulate [--hosts N] [--virtual-seconds N] [--seed N] [--jobs N]\n"
               "           [--traffic steady|diurnal|burst|straggler|crashloop|mixed]\n"
               "           [--shards N] [--capacity N] [--stats] [--debloat] [-o file]\n"
               "           (virtual-time discrete-event fleet: N simulated hosts drive\n"
               "            the real collector and DeriveServer; the summary is\n"
               "            byte-identical for a given --seed at any --jobs/--shards;\n"
               "            --stats appends the collector and derive-service summaries;\n"
               "            --debloat puts hosts under demand loading — they emit\n"
               "            surface-profile documents the collector aggregates)\n"
               "  fleet simulate [--hosts N] [--docs N] [--seed N] [--jobs N]\n"
               "                 [--encoding xml|binary|mixed] [-o file]\n"
               "  fleet ingest <file> [--shards N] [--jobs N] [--capacity N]\n"
               "  fleet report <file> [--shards N] [--jobs N]\n"
               "  serve [--clients N] [--requests N] [--jobs N] [--shards N]\n"
               "        [--capacity N] [--cache-file file] [--encoding xml|binary]\n"
               "        [--seed N] [--repair] [--stats] [--debloat] [-o file]\n"
               "        (--repair adds repair-wrapper bundles to the simulated client\n"
               "         rotation; derived policies persist as HSRP1 spec-cache\n"
               "         entries. --stats additionally reports the repair-policy\n"
               "         census on stderr: policies derived, rules per action.\n"
               "         --debloat scopes campaigns to the installed surface scopes)\n");
}

int usage() {
  print_usage(stderr);
  return 2;
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

struct Options {
  std::vector<std::string> positional;
  std::string out_path;
  std::string type;
  std::string campaign_path;
  std::uint64_t seed = 2003;
  int variants = 1;
  int jobs = 1;
  int hosts = 8;
  int docs = 8;
  int shards = 4;
  int capacity = 4096;
  int clients = 4;
  int requests = 8;
  std::uint64_t virtual_seconds = 60;
  std::string traffic = "mixed";
  bool capacity_set = false;
  std::string encoding = "mixed";
  std::string format = "text";
  std::string cache_file;
  std::string reset = "fork";
  bool prune = true;
  bool stats = false;
  bool repair = false;
  bool validate = false;
  bool debloat = false;
};

// Parses a numeric flag's value: anything but a non-negative decimal integer
// that fits the field is an error.
template <class T>
Status parse_count(const std::string& flag, const std::string& text, T& field) {
  const char* const end = text.data() + text.size();
  T value{};
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.starts_with('-') || error != std::errc() || stop != end) {
    return Status::failure(flag + " needs a non-negative integer, got '" + text + "'");
  }
  field = value;
  return Status::success();
}

Result<Options> parse_options(int argc, char** argv) {
  Options options;
  const std::map<std::string, std::variant<int*, std::uint64_t*>> counts = {
      {"--seed", &options.seed},         {"--variants", &options.variants},
      {"--jobs", &options.jobs},         {"--hosts", &options.hosts},
      {"--docs", &options.docs},         {"--shards", &options.shards},
      {"--capacity", &options.capacity}, {"--virtual-seconds", &options.virtual_seconds},
      {"--clients", &options.clients},   {"--requests", &options.requests},
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&i, argc, argv, &arg]() -> Result<std::string> {
      if (i + 1 >= argc) return Error("missing value for " + arg);
      return std::string(argv[++i]);
    };
    if (const auto count = counts.find(arg); count != counts.end()) {
      auto value = next();
      if (!value.ok()) return value.error();
      const Status parsed = std::visit(
          [&](auto* field) { return parse_count(arg, value.value(), *field); }, count->second);
      if (!parsed.ok()) return parsed.error();
      if (arg == "--capacity") options.capacity_set = true;
    } else if (arg == "-o") {
      auto value = next();
      if (!value.ok()) return value.error();
      options.out_path = value.value();
    } else if (arg == "--type") {
      auto value = next();
      if (!value.ok()) return value.error();
      options.type = value.value();
    } else if (arg == "--campaign") {
      auto value = next();
      if (!value.ok()) return value.error();
      options.campaign_path = value.value();
    } else if (arg == "--traffic") {
      auto value = next();
      if (!value.ok()) return value.error();
      options.traffic = value.value();
    } else if (arg == "--cache-file") {
      auto value = next();
      if (!value.ok()) return value.error();
      options.cache_file = value.value();
    } else if (arg == "--encoding") {
      auto value = next();
      if (!value.ok()) return value.error();
      options.encoding = value.value();
    } else if (arg == "--format") {
      auto value = next();
      if (!value.ok()) return value.error();
      options.format = value.value();
    } else if (arg == "--reset") {
      auto value = next();
      if (!value.ok()) return value.error();
      options.reset = value.value();
      if (options.reset != "fork" && options.reset != "fresh") {
        return Error("--reset must be fork or fresh");
      }
    } else if (arg == "--no-prune") {
      options.prune = false;
    } else if (arg == "--stats") {
      options.stats = true;
    } else if (arg == "--repair") {
      options.repair = true;
    } else if (arg == "--validate") {
      options.validate = true;
    } else if (arg == "--debloat") {
      options.debloat = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return Error("unknown option " + arg);
    } else {
      options.positional.push_back(arg);
    }
  }
  return options;
}

Result<injector::CampaignResult> load_campaign(const std::string& path) {
  auto text = read_file(path);
  if (!text.ok()) return text.error();
  auto doc = xml::parse(text.value());
  if (!doc.ok()) return Error(path + ": " + doc.error().message);
  return injector::CampaignResult::from_xml(doc.value());
}

int cmd_list_libs(const core::Toolkit& toolkit) {
  for (const std::string& soname : toolkit.list_libraries()) {
    const auto functions = toolkit.list_functions(soname);
    std::printf("%-16s %zu functions\n", soname.c_str(), functions.value().size());
  }
  return 0;
}

int cmd_list_functions(const core::Toolkit& toolkit, const Options& options) {
  if (options.positional.empty()) return usage();
  const auto functions = toolkit.list_functions(options.positional[0]);
  if (!functions.ok()) return fail(functions.error().message);
  for (const std::string& name : functions.value()) std::printf("%s\n", name.c_str());
  return 0;
}

int cmd_decls(const core::Toolkit& toolkit, const Options& options) {
  if (options.positional.empty()) return usage();
  const auto doc = toolkit.declaration_xml(options.positional[0]);
  if (!doc.ok()) return fail(doc.error().message);
  return emit(xml::serialize(doc.value()), options.out_path);
}

// Imports the persistent spec cache when the file exists; a missing file is
// a cold start, not an error (the save after the run creates it).
int load_spec_cache(const core::Toolkit& toolkit, const std::string& path, bool* loaded) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) return 0;
  std::size_t skipped_unknown = 0;
  auto imported = server::load_cache_file(toolkit, path, &skipped_unknown);
  if (!imported.ok()) return fail(imported.error().message);
  std::fprintf(stderr, "spec cache: imported %zu campaign(s) from %s\n", imported.value(),
               path.c_str());
  if (skipped_unknown > 0) {
    std::fprintf(stderr, "spec cache: skipped %zu entry(ies) with unknown magic\n",
                 skipped_unknown);
  }
  if (loaded != nullptr) *loaded = true;
  return 0;
}

// The named demo executables (`healers inspect`, `healers debloat`).
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

int cmd_derive(const core::Toolkit& toolkit, const Options& options) {
  if (options.positional.empty()) return usage();
  if (!options.cache_file.empty()) {
    if (const int rc = load_spec_cache(toolkit, options.cache_file, nullptr); rc != 0) return rc;
  }
  injector::InjectorConfig config;
  config.seed = options.seed;
  config.variants = options.variants;
  config.jobs = options.jobs;
  config.snapshot_reset = options.reset == "fork";
  config.prune = options.prune;
  if (options.debloat) {
    // Scope the campaign to the symbols some executable's static closure can
    // reach. Scopes come from the cache file (HSSP1 entries) when present;
    // otherwise the demo executables' closures stand in.
    config.only_functions = toolkit.surface_scope_for(options.positional[0]);
    if (config.only_functions.empty()) {
      install_demo_scopes(toolkit);
      config.only_functions = toolkit.surface_scope_for(options.positional[0]);
    }
    if (config.only_functions.empty()) {
      return fail("no surface scope covers " + options.positional[0] +
                  " (run `healers debloat <exe> --cache-file ...` first)");
    }
    std::fprintf(stderr, "debloat: campaign scoped to %zu reachable function(s)\n",
                 config.only_functions.size());
  }
  const auto campaign = toolkit.derive_robust_api(options.positional[0], config);
  if (!campaign.ok()) return fail(campaign.error().message);
  std::fprintf(stderr, "%llu probes, %llu failures in %zu functions; executed %llu probes this run\n",
               static_cast<unsigned long long>(campaign.value().total_probes()),
               static_cast<unsigned long long>(campaign.value().total_failures()),
               campaign.value().functions_with_failures(),
               static_cast<unsigned long long>(toolkit.probes_executed()));
  if (!options.cache_file.empty()) {
    const auto saved = server::save_cache_file(toolkit, options.cache_file);
    if (!saved.ok()) return fail(saved.error().message);
    std::fprintf(stderr, "spec cache: saved %zu campaign(s) to %s\n",
                 toolkit.export_campaigns().size(), options.cache_file.c_str());
  }
  xml::Node doc = campaign.value().to_xml();
  if (options.repair) {
    // The repair policy is a pure function of the campaign document, so it
    // rides along as a sibling node — the campaign bytes stay identical.
    const auto policy = toolkit.derive_repair_policy(options.positional[0], config);
    if (!policy.ok()) return fail(policy.error().message);
    std::size_t truncate = 0, substitute = 0, safe_return = 0;
    for (const gen::FunctionRepairPolicy& fn : policy.value().functions) {
      for (const gen::RepairRule& rule : fn.rules) {
        switch (rule.action) {
          case simlib::RepairAction::kTruncateWrite: ++truncate; break;
          case simlib::RepairAction::kSubstituteBounded:
          case simlib::RepairAction::kSynthesizeInput: ++substitute; break;
          case simlib::RepairAction::kSafeReturn: ++safe_return; break;
        }
      }
    }
    std::fprintf(stderr,
                 "repair: %zu rule(s) in %zu function(s): %zu truncate, %zu substitute, "
                 "%zu safe-return\n",
                 policy.value().rule_count(), policy.value().functions.size(), truncate,
                 substitute, safe_return);
    doc.add_child(policy.value().to_xml());
  }
  if (options.stats) {
    // Engine telemetry is jobs/reset-dependent, so it rides along only on
    // request — the default document stays bit-identical across both knobs.
    const injector::CampaignEngineStats& engine = campaign.value().engine;
    doc.add_child(engine.to_xml());
    std::fprintf(stderr,
                 "engine: %llu states forked, %llu testbeds built, pages sealed=%llu "
                 "faulted=%llu privatized=%llu dropped=%llu\n",
                 static_cast<unsigned long long>(engine.states_forked),
                 static_cast<unsigned long long>(engine.testbeds_built),
                 static_cast<unsigned long long>(engine.pages_sealed),
                 static_cast<unsigned long long>(engine.pages_faulted),
                 static_cast<unsigned long long>(engine.pages_privatized),
                 static_cast<unsigned long long>(engine.pages_dropped));
    std::fprintf(stderr,
                 "prune: %llu probes implied, %llu executed (implication hit rate %.1f%%), "
                 "%llu/%llu args warm-ordered (%.1f%%), %llu memo case hits\n",
                 static_cast<unsigned long long>(engine.probes_implied),
                 static_cast<unsigned long long>(engine.probes_executed),
                 engine.implication_hit_rate() * 100.0,
                 static_cast<unsigned long long>(engine.args_warm_ordered),
                 static_cast<unsigned long long>(engine.args_probed),
                 engine.warm_start_ratio() * 100.0,
                 static_cast<unsigned long long>(engine.memo_case_hits));
  }
  return emit(xml::serialize(doc), options.out_path);
}

int cmd_report(const Options& options) {
  if (options.positional.empty()) return usage();
  auto campaign = load_campaign(options.positional[0]);
  if (!campaign.ok()) return fail(campaign.error().message);
  std::fputs(campaign.value().to_table().c_str(), stdout);
  return 0;
}

int cmd_gen_source(const core::Toolkit& toolkit, const Options& options) {
  if (options.positional.empty() || options.type.empty()) return usage();
  const std::string& soname = options.positional[0];

  gen::WrapperBuilder builder(options.type + "-wrapper");
  injector::CampaignResult campaign;
  const injector::CampaignResult* campaign_ptr = nullptr;
  if (options.type == "profiling") {
    for (const auto& g : wrappers::fig3_generators()) builder.add(g);
  } else if (options.type == "robustness") {
    if (options.campaign_path.empty()) {
      return fail("gen-source --type robustness requires --campaign <file>");
    }
    auto loaded = load_campaign(options.campaign_path);
    if (!loaded.ok()) return fail(loaded.error().message);
    campaign = std::move(loaded).take();
    campaign_ptr = &campaign;
    builder.add(gen::prototype_gen())
        .add(wrappers::arg_check_gen())
        .add(gen::call_counter_gen())
        .add(gen::caller_gen());
  } else if (options.type == "security") {
    builder.add(gen::prototype_gen())
        .add(wrappers::heap_canary_gen())
        .add(wrappers::stack_guard_gen())
        .add(gen::caller_gen());
  } else if (options.type == "testing") {
    builder.add(gen::prototype_gen())
        .add(wrappers::error_injection_gen(0.1, options.seed))
        .add(gen::call_counter_gen())
        .add(gen::caller_gen());
  } else if (options.type == "repair") {
    if (options.campaign_path.empty()) {
      return fail("gen-source --type repair requires --campaign <file>");
    }
    auto loaded = load_campaign(options.campaign_path);
    if (!loaded.ok()) return fail(loaded.error().message);
    campaign = std::move(loaded).take();
    campaign_ptr = &campaign;
    const simlib::SharedLibrary* lib = toolkit.library(soname);
    if (lib == nullptr) return fail("no such library: " + soname);
    auto policy = gen::derive_repair_policy(campaign, *lib);
    if (!policy.ok()) return fail(policy.error().message);
    builder.add(gen::prototype_gen())
        .add(wrappers::repair_gen(
            std::make_shared<const gen::RepairPolicy>(std::move(policy).take())))
        .add(gen::call_counter_gen())
        .add(gen::caller_gen());
  } else {
    return fail("unknown wrapper type: " + options.type);
  }

  const auto source = toolkit.wrapper_source(soname, builder, campaign_ptr);
  if (!source.ok()) return fail(source.error().message);
  return emit(source.value(), options.out_path);
}

int cmd_inspect(const core::Toolkit& toolkit, const Options& options) {
  if (options.positional.empty()) return usage();
  auto exe = demo_executable(options.positional[0]);
  if (!exe.ok()) return fail(exe.error().message);
  linker::LinkMap map = toolkit.inspect(exe.value());
  if (options.validate) {
    // Dynamic cross-check: run the entry point under a tracing interposition
    // and record calls the declared import list is missing (Fig 4 rot).
    linker::CallOutcome outcome;
    map.stale_imports = linker::validate_executable(exe.value(), toolkit.catalog(), &outcome);
    std::fprintf(stderr, "validate: %zu stale import(s), run %s\n", map.stale_imports.size(),
                 outcome.to_string().c_str());
  }
  if (options.format == "xml") return emit(xml::serialize(map.to_xml()), options.out_path);
  if (options.format != "text") return fail("unknown format: " + options.format + " (text|xml)");
  return emit(map.to_text(), options.out_path);
}

// Demand-driven debloating report (docs/debloat.md): computes the static
// closure for a demo executable, runs it under the demand-loading barrier,
// and reports the surface profile. With --cache-file, the closure is also
// persisted as HSSP1 surface-scope entries so later --debloat derives scope
// their campaigns to it.
int cmd_debloat(const core::Toolkit& toolkit, const Options& options) {
  if (options.positional.empty()) return usage();
  auto exe = demo_executable(options.positional[0]);
  if (!exe.ok()) return fail(exe.error().message);
  if (!options.cache_file.empty()) {
    if (const int rc = load_spec_cache(toolkit, options.cache_file, nullptr); rc != 0) return rc;
  }

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
               outcome.to_string().c_str(),
               static_cast<unsigned long long>(profile.touched),
               static_cast<unsigned long long>(profile.exported),
               static_cast<unsigned long long>(profile.trapped), recorder.dossiers().size());

  if (!options.cache_file.empty()) {
    const std::size_t installed = install_scopes_from(toolkit, exe.value(), report);
    const auto saved = server::save_cache_file(toolkit, options.cache_file);
    if (!saved.ok()) return fail(saved.error().message);
    std::fprintf(stderr, "spec cache: saved %zu surface scope(s) to %s\n", installed,
                 options.cache_file.c_str());
  }

  if (options.format == "text") {
    return emit(report.to_text() + profile.to_text(), options.out_path);
  }
  if (options.format == "xml") return emit(profile.to_xml(), options.out_path);
  if (options.format == "binary") {
    return emit(fleet::encode_surface_binary(profile), options.out_path);
  }
  return fail("unknown format: " + options.format + " (text|xml|binary)");
}

Result<fleet::SimulatorConfig> simulator_config(const Options& options) {
  fleet::SimulatorConfig config;
  config.hosts = static_cast<unsigned>(options.hosts);
  config.docs_per_host = static_cast<unsigned>(options.docs);
  config.seed = options.seed;
  config.jobs = static_cast<unsigned>(options.jobs);
  if (options.encoding == "xml") {
    config.encoding = fleet::SimulatorConfig::Encoding::kXml;
  } else if (options.encoding == "binary") {
    config.encoding = fleet::SimulatorConfig::Encoding::kBinary;
  } else if (options.encoding == "mixed") {
    config.encoding = fleet::SimulatorConfig::Encoding::kMixed;
  } else {
    return Error("unknown encoding: " + options.encoding + " (xml|binary|mixed)");
  }
  return config;
}

// Reads a framed document stream and runs it through a fleet collector.
// (unique_ptr: the collector owns mutexes/atomics and cannot move.)
Result<std::unique_ptr<fleet::FleetCollector>> collect_stream(const std::string& path,
                                                              const Options& options) {
  auto text = read_file(path);
  if (!text.ok()) return text.error();
  auto documents = fleet::unframe_stream(text.value());
  if (!documents.ok()) return Error(path + ": " + documents.error().message);
  fleet::CollectorConfig config;
  config.shards = static_cast<unsigned>(options.shards);
  config.workers = static_cast<unsigned>(options.jobs);
  config.queue_capacity = static_cast<std::size_t>(options.capacity);
  auto collector = std::make_unique<fleet::FleetCollector>(config);
  for (std::string& doc : documents.value()) collector->submit(std::move(doc));
  collector->flush();
  return collector;
}

int cmd_fleet(const core::Toolkit& toolkit, const Options& options) {
  if (options.positional.empty()) return usage();
  const std::string& sub = options.positional[0];

  if (sub == "simulate") {
    auto config = simulator_config(options);
    if (!config.ok()) return fail(config.error().message);
    const fleet::FleetSimulator simulator(toolkit, config.value());
    const auto documents = simulator.run();
    std::fprintf(stderr, "%d host(s), %zu document(s)\n", options.hosts, documents.size());
    return emit(fleet::frame_stream(documents), options.out_path);
  }

  if (sub == "ingest" || sub == "report") {
    if (options.positional.size() < 2) return usage();
    const auto start = std::chrono::steady_clock::now();
    auto collector = collect_stream(options.positional[1], options);
    if (!collector.ok()) return fail(collector.error().message);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    const fleet::FleetCollector& server = *collector.value();
    if (sub == "ingest") {
      std::printf("ingested %llu/%llu document(s) on %u shard(s): %llu malformed, "
                  "%llu dropped (%.0f docs/sec)\n",
                  static_cast<unsigned long long>(server.aggregated()),
                  static_cast<unsigned long long>(server.submitted()), server.shards(),
                  static_cast<unsigned long long>(server.malformed()),
                  static_cast<unsigned long long>(server.dropped()),
                  seconds > 0 ? static_cast<double>(server.submitted()) / seconds : 0.0);
      if (server.malformed() > 0) {
        std::fprintf(stderr, "first decode error: %s\n", server.first_error().c_str());
      }
      return server.malformed() == 0 ? 0 : 1;
    }
    std::fputs(server.render_summary().c_str(), stdout);
    return 0;
  }

  return usage();
}

// Runs one of the §3.4 attack demos with the security wrapper AND an incident
// flight recorder attached, then prints the captured crash dossier. The
// dossier is derived purely from deterministic simulated state, so every
// format is byte-identical across runs.
int emit_dossier(const incident::FlightRecorder& recorder, const Options& options) {
  const incident::Dossier& dossier = recorder.dossiers().front();
  if (options.format == "text") return emit(dossier.to_text(), options.out_path);
  if (options.format == "xml") return emit(xml::serialize(dossier.to_xml()), options.out_path);
  if (options.format == "binary") {
    return emit(fleet::encode_dossier_binary(dossier), options.out_path);
  }
  return fail("unknown format: " + options.format + " (text|xml|binary)");
}

int cmd_dossier(const core::Toolkit& toolkit, const Options& options) {
  if (options.positional.empty()) return usage();
  const std::string& scenario = options.positional[0];
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
    return emit_dossier(recorder, options);
  }
  auto wrapper = toolkit.security_wrapper("libsimc.so.1");
  if (options.repair) {
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
  if (options.repair) {
    std::fprintf(stderr, "repair: %llu repair(s) applied, victim %s (%s)\n",
                 static_cast<unsigned long long>(recorder.repairs_applied()),
                 result.survived ? "survived" : "did NOT survive",
                 result.outcome.to_string().c_str());
  }
  return emit_dossier(recorder, options);
}

// Drives the derivation service with a simulated client fleet: --clients
// clients each submit --requests requests (rotating over the installed
// libraries, the derive endpoint, and the three bundle kinds), then one
// drain on --jobs workers answers everything. The trace is a pure function
// of the options, so the rendered summary is byte-identical across reruns
// and across --jobs values.
int cmd_serve(const core::Toolkit& toolkit, const Options& options) {
  const bool mixed = options.encoding == "mixed";
  if (!mixed && options.encoding != "xml" && options.encoding != "binary") {
    return fail("unknown encoding: " + options.encoding + " (xml|binary|mixed)");
  }
  if (!options.cache_file.empty()) {
    if (const int rc = load_spec_cache(toolkit, options.cache_file, nullptr); rc != 0) return rc;
  }
  server::ServerConfig config;
  config.shards = options.shards > 0 ? static_cast<unsigned>(options.shards) : 1;
  config.queue_capacity = options.capacity > 0 ? static_cast<std::size_t>(options.capacity) : 1;
  config.workers = options.jobs >= 0 ? static_cast<unsigned>(options.jobs) : 1;
  config.debloat = options.debloat;
  if (options.debloat && toolkit.export_surface_scopes().empty()) {
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
  if (options.repair) bundles.push_back(server::BundleKind::kRepair);
  std::vector<server::DeriveServer::Ticket> tickets;
  std::size_t n = 0;
  for (int client = 0; client < options.clients; ++client) {
    for (int request = 0; request < options.requests; ++request, ++n) {
      server::DeriveRequest req;
      req.soname = sonames[n % sonames.size()];
      req.seed = options.seed;
      req.variants = options.variants;
      // Every fourth request asks for a wrapper bundle instead of a spec.
      if (n % 4 == 3) {
        req.endpoint = server::Endpoint::kBundle;
        req.bundle = bundles[(n / 4) % bundles.size()];
      }
      req.format = (mixed ? (n % 2 == 1) : options.encoding == "binary")
                       ? server::WireFormat::kBinary
                       : server::WireFormat::kXml;
      tickets.push_back(server.submit(req.encode()));
    }
  }
  server.drain();

  std::fputs(server.render_summary().c_str(), stdout);
  std::printf("  probes executed this run: %llu\n",
              static_cast<unsigned long long>(toolkit.probes_executed()));
  std::fprintf(stderr, "wall latency us: derive p50=%llu p99=%llu, bundle p50=%llu p99=%llu\n",
               static_cast<unsigned long long>(
                   server.wall_latency_micros(server::Endpoint::kDerive, 0.50)),
               static_cast<unsigned long long>(
                   server.wall_latency_micros(server::Endpoint::kDerive, 0.99)),
               static_cast<unsigned long long>(
                   server.wall_latency_micros(server::Endpoint::kBundle, 0.50)),
               static_cast<unsigned long long>(
                   server.wall_latency_micros(server::Endpoint::kBundle, 0.99)));
  // Per-campaign subsumption-pruning telemetry. Scheduling-dependent (like
  // the wall latencies above): a warm profile learned from whichever campaign
  // finished first shifts the executed/implied split — so stderr only, never
  // the byte-compared summary.
  for (const core::CachedCampaign& entry : toolkit.export_campaigns()) {
    const injector::CampaignEngineStats& engine = entry.result.engine;
    if (engine.args_probed == 0) continue;  // imported from cache: no engine run
    std::fprintf(stderr,
                 "prune %s: %llu implied / %llu executed (hit rate %.1f%%), "
                 "warm-start %.1f%%\n",
                 entry.soname.c_str(), static_cast<unsigned long long>(engine.probes_implied),
                 static_cast<unsigned long long>(engine.probes_executed),
                 engine.implication_hit_rate() * 100.0, engine.warm_start_ratio() * 100.0);
  }

  if (options.stats) {
    // Repair-policy census across everything the drain derived. Stderr like
    // the telemetry above: the byte-compared summary must not depend on
    // whether --repair bundles were in the rotation.
    std::size_t rules = 0;
    std::size_t truncate = 0;
    std::size_t substitute = 0;
    std::size_t safe_return = 0;
    const auto policies = toolkit.export_repair_policies();
    for (const core::CachedRepairPolicy& entry : policies) {
      for (const gen::FunctionRepairPolicy& fn : entry.policy.functions) {
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
    std::fprintf(stderr,
                 "repair: %zu policy(ies) derived, %zu rule(s): %zu truncate, "
                 "%zu substitute, %zu safe-return\n",
                 policies.size(), rules, truncate, substitute, safe_return);
  }

  if (!options.cache_file.empty()) {
    const auto saved = server::save_cache_file(toolkit, options.cache_file);
    if (!saved.ok()) return fail(saved.error().message);
    std::fprintf(stderr, "spec cache: saved %zu campaign(s) to %s\n",
                 toolkit.export_campaigns().size(), options.cache_file.c_str());
  }

  if (!options.out_path.empty()) {
    // Responses in ticket (submission) order, wrapped in the same stream
    // framing fleet documents use — replayable through fleet::unframe_stream.
    std::vector<std::string> responses;
    responses.reserve(tickets.size());
    for (const auto ticket : tickets) {
      const auto response = server.response(ticket);
      responses.push_back(response ? *response : std::string());
    }
    const int rc = emit(fleet::frame_stream(responses), options.out_path);
    if (rc != 0) return rc;
  }

  const auto stats = server.stats();
  return stats.answered_error == 0 ? 0 : 1;
}

// The virtual-time discrete-event fleet (src/sim): a million cheap host
// tasks on a virtual clock, emitting into the real FleetCollector and
// DeriveServer. The deterministic summary goes to stdout (byte-identical
// for a given --seed at any --jobs/--shards); wall-clock throughput — the
// one nondeterministic number — goes to stderr.
int cmd_simulate(const core::Toolkit& toolkit, const Options& options) {
  const auto traffic = sim::traffic_model_from_name(options.traffic);
  if (!traffic.ok()) return fail(traffic.error().message);
  if (options.hosts <= 0 || options.shards <= 0 || options.jobs < 0 ||
      options.virtual_seconds == 0 || options.capacity <= 0) {
    return fail("simulate: --hosts/--shards/--capacity/--virtual-seconds must be positive");
  }
  sim::SimConfig config;
  config.hosts = static_cast<std::uint32_t>(options.hosts);
  config.virtual_seconds = options.virtual_seconds;
  config.seed = options.seed;
  config.traffic = traffic.value();
  config.shards = static_cast<unsigned>(options.shards);
  config.jobs = static_cast<unsigned>(options.jobs);
  config.debloat = options.debloat;
  if (options.capacity_set) {
    config.collector.queue_capacity = static_cast<std::size_t>(options.capacity);
  }

  const auto start = std::chrono::steady_clock::now();
  sim::FleetSim simulation(toolkit, config);
  const sim::SimStats stats = simulation.run();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  const auto& collector = simulation.collector();
  const auto server_stats = simulation.server().stats();
  // The accounting identities the sim exists to exercise, enforced at ANY
  // scale this command runs at — a million-host run that loses one document
  // exits nonzero.
  if (collector.submitted() !=
      collector.aggregated() + collector.malformed() + collector.dropped() + collector.pending()) {
    return fail("simulate: collector accounting identity violated");
  }
  if (server_stats.submitted != server_stats.answered + server_stats.shed + server_stats.pending) {
    return fail("simulate: derive-server accounting identity violated");
  }
  if (collector.malformed() != 0) {
    return fail("simulate: malformed documents: " + collector.first_error());
  }
  if (stats.responses_error != 0) return fail("simulate: derive responses errored");

  std::fprintf(stderr, "simulated %llu hosts / %llu emissions in %.2fs wall (%.0f hosts/s, %.0f docs/s)\n",
               static_cast<unsigned long long>(stats.hosts),
               static_cast<unsigned long long>(stats.emissions), wall,
               static_cast<double>(stats.hosts) / (wall > 0 ? wall : 1e-9),
               static_cast<double>(stats.emissions) / (wall > 0 ? wall : 1e-9));
  return emit(options.stats ? simulation.render_global_summary() : stats.render(),
              options.out_path);
}

int cmd_demo(const core::Toolkit& toolkit, const Options& options) {
  if (options.positional.empty() || options.positional[0] != "attacks") return usage();
  const auto plain = attacks::run_heap_smash_attack(toolkit.catalog(), {});
  std::printf("unprotected heap attack:\n%s\n", plain.narrative.c_str());
  const auto guarded = attacks::run_heap_smash_attack(
      toolkit.catalog(), {toolkit.security_wrapper("libsimc.so.1").value()});
  std::printf("with security wrapper:\n%s", guarded.narrative.c_str());
  return plain.hijack_succeeded && guarded.blocked_by_wrapper ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    print_usage(stdout);
    return 0;
  }
  auto options = parse_options(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "healers: %s\n", options.error().message.c_str());
    return usage();
  }

  core::Toolkit toolkit;
  if (command == "list-libs") return cmd_list_libs(toolkit);
  if (command == "list-functions") return cmd_list_functions(toolkit, options.value());
  if (command == "decls") return cmd_decls(toolkit, options.value());
  if (command == "derive") return cmd_derive(toolkit, options.value());
  if (command == "report") return cmd_report(options.value());
  if (command == "gen-source") return cmd_gen_source(toolkit, options.value());
  if (command == "inspect") return cmd_inspect(toolkit, options.value());
  if (command == "debloat") return cmd_debloat(toolkit, options.value());
  if (command == "demo") return cmd_demo(toolkit, options.value());
  if (command == "dossier") return cmd_dossier(toolkit, options.value());
  if (command == "fleet") return cmd_fleet(toolkit, options.value());
  if (command == "serve") return cmd_serve(toolkit, options.value());
  if (command == "simulate") return cmd_simulate(toolkit, options.value());
  return usage();
}
