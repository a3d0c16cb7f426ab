// The derive workload: hardening a host's libraries the way
// `healers derive <lib> --cache-file F` does, engine at the CLI defaults
// (--jobs 1, fork reset, pruning on, --variants 1). Each op is a cold
// derive followed by a warm one:
//
//   cold: fresh Toolkit, no cache file yet; derive libsimc, libsimio and
//     libsimm, serialize the three campaign documents, save the cache file;
//   warm: fresh Toolkit, load the file the cold half wrote, derive the same
//     three libraries (zero probes), serialize them, save the cache again.
//
// So one op uses the spec cache once for writing and once for reading.
// Campaign seeds come from a pool drawn from the workload seed; op i uses
// pool[i % pool size], so every run covers the pool evenly.
#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "core/toolkit.hpp"
#include "server/spec_cache.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using healers::core::Toolkit;
using healers::injector::CampaignEngineStats;
using healers::injector::CampaignResult;

constexpr std::array<const char*, 3> kLibraries = {"libsimc.so.1", "libsimio.so.1",
                                                   "libsimm.so.1"};
constexpr std::size_t kSeedPool = 8;

healers::injector::InjectorConfig cli_config(std::uint64_t campaign_seed) {
  healers::injector::InjectorConfig config;
  config.seed = campaign_seed;
  config.variants = 1;
  config.jobs = 1;
  config.snapshot_reset = true;
  config.prune = true;
  return config;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void add_engine(CampaignEngineStats& sum, const CampaignEngineStats& one) {
  sum.states_forked += one.states_forked;
  sum.pages_faulted += one.pages_faulted;
  sum.pages_privatized += one.pages_privatized;
  sum.pages_dropped += one.pages_dropped;
  sum.probes_executed += one.probes_executed;
  sum.probes_implied += one.probes_implied;
  sum.memo_case_hits += one.memo_case_hits;
  sum.args_probed += one.args_probed;
  sum.args_warm_ordered += one.args_warm_ordered;
}

// What one half of an op produced, kept for the untimed checks.
struct Half {
  std::string error;                     // first failure, "" when none
  std::array<std::string, 3> documents;  // serialized campaign documents
  CampaignEngineStats engine;            // summed over the three libraries
  std::uint64_t probes_executed = 0;     // Toolkit::probes_executed() afterwards
};

class DeriveWorkload final : public Workload {
 public:
  DeriveWorkload(std::uint64_t seed, std::string work_dir) : work_dir_(std::move(work_dir)) {
    healers::Rng rng(seed ^ 0x6465726976650000ULL);
    for (std::size_t i = 0; i < kSeedPool; ++i) seeds_.push_back(1 + rng.below(1'000'000));
  }

  // A `healers derive` process starts from nothing but the installed
  // libraries: set-up is the Toolkit it builds before deriving.
  void setup() override {
    std::filesystem::create_directories(work_dir_);
    std::filesystem::remove(cache_path());
    setup_toolkit_ = std::make_unique<Toolkit>();
  }

  // Reference documents, counts and cache image per campaign seed, from a
  // cold derive independent of the timed ops.
  void prepare(Checks& checks) override {
    Tracer off;
    const std::string path = work_dir_ + "/reference.hfds";
    refs_.assign(seeds_.size(), Reference{});
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      Half half;
      derive_cold(i, path, off, half);
      checks.expect("reference derive succeeds", half.error.empty(), half.error);
      refs_[i].documents = half.documents;
      refs_[i].engine = half.engine;
      refs_[i].cache_image = read_file(path);
    }
    std::filesystem::remove(path);
  }

  OpResult op(std::uint64_t index, Tracer& tracer) override {
    const std::size_t slot = index % seeds_.size();
    cold_ = Half{};
    warm_ = Half{};
    derive_cold(slot, cache_path(), tracer, cold_);
    if (cold_.error.empty()) derive_warm(slot, tracer, warm_);
    return OpResult{static_cast<double>(2 * kLibraries.size()),
                    !cold_.error.empty() || !warm_.error.empty()};
  }

  void check(std::uint64_t index, Checks& checks) override {
    const std::size_t slot = index % seeds_.size();
    const Reference& ref = refs_[slot];
    const std::string seed = "campaign seed " + std::to_string(seeds_[slot]);
    checks.expect("every derive succeeds", cold_.error.empty() && warm_.error.empty(),
                  cold_.error + warm_.error);
    checks.expect("cold documents match the reference byte for byte",
                  cold_.documents == ref.documents, seed);
    checks.expect("cold probes_executed equals its campaign seed's count",
                  cold_.engine.probes_executed == ref.engine.probes_executed &&
                      cold_.probes_executed == ref.engine.probes_executed,
                  std::to_string(cold_.probes_executed) + " vs " +
                      std::to_string(ref.engine.probes_executed) + ", " + seed);
    checks.expect("warm half executes 0 probes", warm_.probes_executed == 0,
                  std::to_string(warm_.probes_executed) + " probes, " + seed);
    checks.expect("warm documents reproduce the cold ones byte for byte",
                  warm_.documents == cold_.documents, seed);
    checks.expect("re-saved cache file matches the cold one byte for byte",
                  read_file(cache_path()) == ref.cache_image, seed);
    std::filesystem::remove(cache_path());  // the next cold half starts without one
  }

  void finish(Checks&) override {}

  [[nodiscard]] std::uint64_t min_ops() const override { return seeds_.size(); }
  [[nodiscard]] std::string work_unit() const override { return "libraries derived"; }
  [[nodiscard]] unsigned threads() const override { return 1; }

  [[nodiscard]] std::string params() const override {
    std::string pool = "[";
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      pool += (i ? ", " : "") + std::to_string(seeds_[i]);
    }
    pool += "]";
    JsonObject out;
    out.str("op", "cold derive of 3 libs (no cache), then warm derive from its cache file")
        .str("libraries", "libsimc.so.1 libsimio.so.1 libsimm.so.1")
        .raw("campaign_seeds", pool)
        .str("engine", "jobs 1, fork reset, prune on, variants 1");
    return out.render();
  }

  // Means over the seed pool: each seed's counts are fixed, so these are
  // exact for a given workload seed. Campaign counts come from the cold
  // half; the warm half runs none.
  [[nodiscard]] Counts counts() const override {
    Counts out;
    const double n = static_cast<double>(refs_.size());
    for (const Reference& ref : refs_) {
      const CampaignEngineStats& e = ref.engine;
      out["injector.probes_executed"] += static_cast<double>(e.probes_executed) / n;
      out["injector.probes_implied"] += static_cast<double>(e.probes_implied) / n;
      out["linker.states_forked"] += static_cast<double>(e.states_forked) / n;
      out["memmodel.pages_faulted"] += static_cast<double>(e.pages_faulted) / n;
      out["memmodel.pages_privatized"] += static_cast<double>(e.pages_privatized) / n;
      out["memmodel.pages_dropped"] += static_cast<double>(e.pages_dropped) / n;
      out["typelattice.memo_case_hits"] += static_cast<double>(e.memo_case_hits) / n;
      out["typelattice.args_probed"] += static_cast<double>(e.args_probed) / n;
      out["typelattice.args_warm_ordered"] += static_cast<double>(e.args_warm_ordered) / n;
      std::size_t bytes = 0;
      for (const std::string& doc : ref.documents) bytes += doc.size();
      out["xml.campaign_bytes"] += static_cast<double>(bytes) / n;
      out["server.cache_bytes"] += static_cast<double>(ref.cache_image.size()) / n;
    }
    const double attempted = out["injector.probes_executed"] + out["injector.probes_implied"];
    out["injector.implied_share"] =
        attempted > 0 ? out["injector.probes_implied"] / attempted : 0.0;
    out["typelattice.warm_ordered_share"] =
        out["typelattice.args_probed"] > 0
            ? out["typelattice.args_warm_ordered"] / out["typelattice.args_probed"]
            : 0.0;
    return out;
  }

  void traced_extras(Counts& out) override {
    if (!libsimc_ms_.empty()) out["injector.libsimc_ms"] = quantile(libsimc_ms_, 0.5);
  }

 private:
  struct Reference {
    std::array<std::string, 3> documents;
    CampaignEngineStats engine;
    std::string cache_image;  // the cache file a cold derive saves
  };

  [[nodiscard]] std::string cache_path() const { return work_dir_ + "/cache.hfds"; }

  static void serialize(const std::array<CampaignResult, 3>& results, Tracer& tracer, Half& half) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      Span span(tracer, "xml.serialize");
      half.documents[i] = healers::xml::serialize(results[i].to_xml());
    }
  }

  static void save(const Toolkit& toolkit, const std::string& path, Tracer& tracer, Half& half) {
    Span span(tracer, "server.cache_save");
    const healers::Status saved = healers::server::save_cache_file(toolkit, path);
    if (!saved.ok() && half.error.empty()) half.error = saved.error().message;
  }

  static std::unique_ptr<Toolkit> fresh_toolkit(Tracer& tracer) {
    Span span(tracer, "core.toolkit");
    return std::make_unique<Toolkit>();
  }

  void derive_cold(std::size_t slot, const std::string& path, Tracer& tracer, Half& half) {
    const std::unique_ptr<Toolkit> toolkit = fresh_toolkit(tracer);
    const auto config = cli_config(seeds_[slot]);
    std::array<CampaignResult, 3> results;
    for (std::size_t i = 0; i < kLibraries.size(); ++i) {
      const std::int64_t start = now_ns();
      auto derived = [&] {
        Span span(tracer, "injector.campaign");
        return toolkit->derive_robust_api(kLibraries[i], config);
      }();
      if (i == 0 && tracer.enabled()) {
        libsimc_ms_.push_back(static_cast<double>(now_ns() - start) / 1e6);
      }
      if (!derived.ok()) {
        half.error = derived.error().message;
        return;
      }
      results[i] = std::move(derived).take();
      add_engine(half.engine, results[i].engine);
    }
    serialize(results, tracer, half);
    save(*toolkit, path, tracer, half);
    half.probes_executed = toolkit->probes_executed();
  }

  void derive_warm(std::size_t slot, Tracer& tracer, Half& half) const {
    const std::unique_ptr<Toolkit> toolkit = fresh_toolkit(tracer);
    {
      Span span(tracer, "server.cache_load");
      auto loaded = healers::server::load_cache_file(*toolkit, cache_path());
      if (!loaded.ok()) {
        half.error = loaded.error().message;
        return;
      }
      if (loaded.value() != kLibraries.size()) {
        half.error = "cache admitted " + std::to_string(loaded.value()) + " campaigns";
        return;
      }
    }
    const auto config = cli_config(seeds_[slot]);
    std::array<CampaignResult, 3> results;
    for (std::size_t i = 0; i < kLibraries.size(); ++i) {
      auto derived = [&] {
        Span span(tracer, "core.memo_hit");
        return toolkit->derive_robust_api(kLibraries[i], config);
      }();
      if (!derived.ok()) {
        half.error = derived.error().message;
        return;
      }
      results[i] = std::move(derived).take();
    }
    serialize(results, tracer, half);
    save(*toolkit, cache_path(), tracer, half);
    half.probes_executed = toolkit->probes_executed();
  }

  std::string work_dir_;
  std::vector<std::uint64_t> seeds_;
  std::unique_ptr<Toolkit> setup_toolkit_;
  std::vector<Reference> refs_;
  Half cold_;
  Half warm_;
  std::vector<double> libsimc_ms_;  // libsimc's cold campaign, traced ops only
};

}  // namespace

std::unique_ptr<Workload> make_derive_workload(std::uint64_t seed, const std::string& work_dir) {
  return std::make_unique<DeriveWorkload>(seed, work_dir);
}

}  // namespace perfbench
