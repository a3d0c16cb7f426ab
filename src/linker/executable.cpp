#include "linker/executable.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace healers::linker {

std::string LinkMap::to_text() const {
  std::string out;
  out += "executable: " + executable + "\n";
  out += "linked libraries:\n";
  for (const std::string& soname : linked_libraries) {
    out += "  " + soname + "\n";
  }
  out += "undefined functions:\n";
  for (const SymbolResolution& res : resolutions) {
    out += "  " + res.symbol + " -> " + (res.provider.empty() ? "<unresolved>" : res.provider) +
           "\n";
  }
  if (!stale_imports.empty()) {
    out += "stale imports (called at runtime, missing from the declared list):\n";
    for (const std::string& symbol : stale_imports) {
      out += "  " + symbol + "\n";
    }
  }
  return out;
}

xml::Node LinkMap::to_xml() const {
  xml::Node root("link-map");
  root.set_attr("executable", executable);
  for (const std::string& soname : linked_libraries) {
    root.add_child("library").set_attr("soname", soname);
  }
  for (const SymbolResolution& res : resolutions) {
    xml::Node& row = root.add_child("import");
    row.set_attr("symbol", res.symbol);
    row.set_attr("provider", res.provider);
  }
  for (const std::string& symbol : stale_imports) {
    root.add_child("stale-import").set_attr("symbol", symbol);
  }
  return root;
}

void LibraryCatalog::install(const simlib::SharedLibrary* lib) {
  if (lib == nullptr) throw std::invalid_argument("LibraryCatalog::install: null library");
  libraries_[lib->soname()] = lib;
}

const simlib::SharedLibrary* LibraryCatalog::find(const std::string& soname) const {
  auto it = libraries_.find(soname);
  return it == libraries_.end() ? nullptr : it->second;
}

std::vector<std::string> LibraryCatalog::sonames() const {
  std::vector<std::string> out;
  out.reserve(libraries_.size());
  for (const auto& [soname, _] : libraries_) out.push_back(soname);
  return out;
}

LinkMap inspect_executable(const Executable& exe, const LibraryCatalog& catalog) {
  LinkMap map;
  map.executable = exe.name;
  map.linked_libraries = exe.needed;
  for (const std::string& symbol : exe.undefined) {
    SymbolResolution res;
    res.symbol = symbol;
    for (const std::string& soname : exe.needed) {
      const simlib::SharedLibrary* lib = catalog.find(soname);
      if (lib != nullptr && lib->defines(symbol)) {
        res.provider = soname;
        break;
      }
    }
    if (res.provider.empty()) map.unresolved.push_back(symbol);
    map.resolutions.push_back(std::move(res));
  }
  return map;
}

namespace {

// Records every symbol dispatched through it; wraps everything.
class TracingInterposition : public Interposition {
 public:
  explicit TracingInterposition(std::set<std::string>& seen) : seen_(seen) {}

  [[nodiscard]] std::string name() const override { return "import-tracer"; }
  [[nodiscard]] const void* symbol_handle(const std::string&) const override { return this; }
  simlib::SimValue call_with_handle(const void*, const std::string& symbol,
                                    simlib::CallContext& ctx, const NextFn& next) override {
    seen_.insert(symbol);
    return next(ctx);
  }

 private:
  std::set<std::string>& seen_;
};

}  // namespace

std::vector<std::string> validate_executable(const Executable& exe,
                                             const LibraryCatalog& catalog,
                                             CallOutcome* outcome) {
  std::set<std::string> seen;
  auto process = spawn(exe, catalog, {std::make_shared<TracingInterposition>(seen)});
  const CallOutcome result =
      exe.entry ? process->run(exe.entry) : CallOutcome{};
  if (outcome != nullptr) *outcome = result;
  std::vector<std::string> missing;
  for (const std::string& symbol : seen) {
    if (std::find(exe.undefined.begin(), exe.undefined.end(), symbol) == exe.undefined.end()) {
      missing.push_back(symbol);
    }
  }
  return missing;
}

std::unique_ptr<Process> spawn(const Executable& exe, const LibraryCatalog& catalog,
                               std::vector<InterpositionPtr> preloads,
                               mem::MachineConfig config) {
  auto process = std::make_unique<Process>(exe.name, config);
  // LD_PRELOAD semantics: preloads interpose ahead of everything.
  for (InterpositionPtr& wrapper : preloads) {
    process->preload(std::move(wrapper));
  }
  for (const std::string& soname : exe.needed) {
    const simlib::SharedLibrary* lib = catalog.find(soname);
    if (lib == nullptr) {
      throw std::runtime_error("spawn: missing library " + soname + " for " + exe.name);
    }
    process->load_library(lib);
  }
  return process;
}

}  // namespace healers::linker
