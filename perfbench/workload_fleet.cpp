// The fleet workload: delivery windows, one right after another, into one
// long-lived fleet::FleetCollector and one server::DeriveServer.
//
// Each op is one window:
//   1. submit a seeded batch of host payloads — profile documents (HFB1,
//      about 1 in 20 as XML), HDB1 crash dossiers, HSP1 surface profiles,
//      and a few derive/bundle requests (HRQ1 or XML) whose keys were
//      warmed at set-up;
//   2. flush() the collector and drain() the server;
//   3. take every response and read a collector snapshot.
//
// How many payloads of each kind a window holds is the emission census of
// the repository's fleet simulator (sim::FleetSim) at its default
// configuration, `mixed` traffic with demand-loaded hosts. The command
//
//   healers simulate --hosts 100000 --virtual-seconds 60 --seed 2003
//                    --traffic mixed --debloat
//
// reports 512182 profile docs, 52771 dossiers, 41859 surface profiles and
// 8159 derive requests (614971 emissions). These counts are scaled to 2048
// payloads by largest remainder. Request keys follow the simulator's draw
// (sim/fleet_sim.cpp, make_derive_request). The simulator sends every
// payload in binary; the 1-in-20 XML share of profiles and requests is
// chosen, so the XML decode path stays in the window.
//
// Collector and server run single-worker pools, which execute inline on the
// client thread. With pools of 2, each window waited on the slowest of three
// vCPUs, and its p90 swung with contention on any of them (NOTES.md, "Host
// facts"). Windows come from a pool generated from the workload seed before
// timing starts; op i delivers window i % pool size. No campaign or wrapper
// work runs in the loop.
#include <array>
#include <cstdio>
#include <utility>

#include "bench.hpp"
#include "core/toolkit.hpp"
#include "fleet/collector.hpp"
#include "fleet/wire.hpp"
#include "profile/report.hpp"
#include "server/derive_server.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using healers::fleet::FleetCollector;
using healers::server::DeriveRequest;
using healers::server::DeriveServer;
using healers::server::ResponseStatus;

constexpr std::size_t kWindowPool = 16;
// Exact composition of every window: the simulator census above, scaled to
// 2048 payloads.
constexpr std::size_t kProfiles = 1706;
constexpr std::size_t kProfilesXml = 85;  // 1 in 20 profile documents
constexpr std::size_t kProfilesBinary = kProfiles - kProfilesXml;
constexpr std::size_t kDossiers = 176;
constexpr std::size_t kSurfaces = 139;
constexpr std::size_t kRequests = 27;
constexpr std::size_t kDocuments = kProfiles + kDossiers + kSurfaces;
constexpr std::size_t kWindowSize = kDocuments + kRequests;
static_assert(kWindowSize == 2048);
// 1 in kXmlEvery profiles and requests is sent as XML.
constexpr std::uint64_t kXmlEvery = 20;
constexpr unsigned kCollectorWorkers = 1;  // inline on the client thread
constexpr unsigned kServerWorkers = 1;

constexpr std::array<const char*, 12> kSymbols = {
    "atoi",   "fopen",  "free",    "malloc",  "memcpy", "printf",
    "snprintf", "strchr", "strcpy", "strlen", "toupper", "wctrans"};

std::string host_name(healers::Rng& rng) {
  char name[16];
  std::snprintf(name, sizeof name, "h%05u", static_cast<unsigned>(rng.below(50'000)));
  return name;
}

std::string profile_doc(healers::Rng& rng, bool xml) {
  healers::profile::ProfileReport report;
  report.process = host_name(rng);
  report.wrapper = "libsimc.so.1-profiling";
  const std::size_t nfn = 2 + rng.below(4);
  const std::size_t start = rng.below(kSymbols.size() - nfn + 1);
  for (std::size_t i = 0; i < nfn; ++i) {
    healers::profile::FunctionProfile fn;
    fn.symbol = kSymbols[start + i];
    fn.calls = 1 + rng.below(200);
    fn.cycles = fn.calls * (20 + rng.below(60));
    fn.contained = rng.below(12) == 0 ? 1 + rng.below(3) : 0;
    if (rng.below(5) == 0) {
      const std::uint64_t count = 1 + rng.below(4);
      fn.errno_counts[22] = count;  // EINVAL
      report.global_errnos[22] += count;
    }
    report.functions.push_back(fn);
  }
  return xml ? healers::xml::serialize(healers::profile::to_xml(report))
             : healers::fleet::encode_binary(report);
}

std::string dossier_doc(healers::Rng& rng) {
  healers::incident::Dossier dossier;
  dossier.process = host_name(rng);
  const bool heap = rng.below(2) == 0;
  dossier.detector = heap ? healers::simlib::DetectionKind::kHeapSmash
                          : healers::simlib::DetectionKind::kStackSmash;
  dossier.symbol = heap ? "memcpy" : "strcpy";
  dossier.detail = heap ? "heap canary mismatch" : "stack bound violation";
  dossier.seq = 1 + rng.below(512);
  dossier.tick = dossier.seq * 7;
  dossier.cycles = dossier.seq * 90;
  dossier.fault_addr = 0x20000 + rng.below(0x1000);
  dossier.args = {"0x20010", "0x30000", std::to_string(64 + rng.below(64))};
  return healers::fleet::encode_dossier_binary(dossier);
}

std::string surface_doc(healers::Rng& rng) {
  static constexpr std::array<const char*, 6> kReachable = {"free",   "malloc", "memcpy",
                                                            "puts",   "strcpy", "strlen"};
  healers::debloat::SurfaceProfile profile;
  profile.host = host_name(rng);
  profile.executable = rng.below(2) == 0 ? "netd" : "statsd";
  profile.exported = 90;
  profile.reachable = kReachable.size();
  for (const char* symbol : kReachable) profile.reachable_symbols.emplace_back(symbol);
  profile.touched = 3 + rng.below(4);
  for (std::uint64_t i = 0; i < profile.touched; ++i) {
    profile.touched_symbols.emplace_back(kReachable[i]);
  }
  if (rng.below(16) == 0) {
    profile.trapped = 1;
    profile.trapped_symbols.emplace_back("rand");
  }
  profile.resident_pages = profile.touched;
  profile.total_pages = profile.exported;
  return healers::fleet::encode_surface_binary(profile);
}

// The request keys hosts ask for, drawn as the simulator draws them:
// libsimm 5/8, libsimio 1/8, libsimio security bundle 1/8, libsimc 1/8.
// Every key is answered once at set-up in both wire formats, so windows are
// served from the response cache.
constexpr std::size_t kKeyDraws = 8;

DeriveRequest request_for(std::uint64_t draw, std::uint64_t campaign_seed, bool xml) {
  DeriveRequest request;
  request.soname = draw < 5 ? "libsimm.so.1" : draw < 7 ? "libsimio.so.1" : "libsimc.so.1";
  if (draw == 6) {
    request.endpoint = healers::server::Endpoint::kBundle;
    request.bundle = healers::server::BundleKind::kSecurity;
  }
  request.format = xml ? healers::server::WireFormat::kXml : healers::server::WireFormat::kBinary;
  request.seed = campaign_seed;
  request.variants = 1;
  return request;
}

std::vector<std::string> request_keys(std::uint64_t campaign_seed) {
  std::vector<std::string> out;
  for (const std::uint64_t draw : {0, 5, 6, 7}) {
    for (const bool xml : {false, true}) out.push_back(request_for(draw, campaign_seed, xml).encode());
  }
  return out;
}

struct Window {
  std::vector<std::string> documents;
  std::vector<std::string> requests;
};

// Per-window counter deltas (the exact counts) and the running totals they
// come from.
struct Tally {
  std::uint64_t aggregated = 0, malformed = 0, dropped = 0;
  std::uint64_t cache_hits = 0, deduped = 0, shed = 0, errors = 0, answered = 0;
};

// One long-lived collector + server pair. Declaration order keeps the
// toolkit alive until the server that borrows it is gone.
struct Service {
  std::unique_ptr<healers::core::Toolkit> toolkit;
  std::unique_ptr<DeriveServer> server;
  std::unique_ptr<FleetCollector> collector;
};

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(std::uint64_t seed) : rng_(seed ^ 0x666c656574000000ULL) {
    campaign_seed_ = 1 + rng_.below(1'000'000);
    keys_ = request_keys(campaign_seed_);
  }

  void setup() override { service_ = make_service(); }

  // The window pool is built here, not in the constructor, so the spare
  // instance that only repeats set-up (main.cpp) does not hold one too.
  void prepare(Checks&) override {
    for (std::size_t w = 0; w < kWindowPool; ++w) {
      Window window;
      for (std::size_t i = 0; i < kProfiles; ++i) {
        window.documents.push_back(profile_doc(rng_, i < kProfilesXml));
      }
      for (std::size_t i = 0; i < kDossiers; ++i) window.documents.push_back(dossier_doc(rng_));
      for (std::size_t i = 0; i < kSurfaces; ++i) window.documents.push_back(surface_doc(rng_));
      // Deterministic Fisher-Yates, so kinds interleave within the window.
      for (std::size_t i = window.documents.size(); i > 1; --i) {
        std::swap(window.documents[i - 1], window.documents[rng_.below(i)]);
      }
      for (std::size_t i = 0; i < kRequests; ++i) {
        const std::uint64_t draw = rng_.below(kKeyDraws);
        window.requests.push_back(
            request_for(draw, campaign_seed_, rng_.below(kXmlEvery) == 0).encode());
      }
      windows_.push_back(std::move(window));
    }
  }

  OpResult op(std::uint64_t index, Tracer& tracer) override {
    const Window& window = windows_[index % windows_.size()];
    const std::uint64_t aggregated = service_.collector->aggregated();
    deliver(service_, window, tracer, last_);
    return OpResult{static_cast<double>(service_.collector->aggregated() - aggregated),
                    last_.failed};
  }

  void check(std::uint64_t, Checks& checks) override {
    const healers::fleet::FleetSnapshot& snap = last_.snapshot;
    checks.expect("collector: submitted == aggregated + malformed + dropped + pending",
                  snap.submitted == snap.aggregated + snap.malformed + snap.dropped + snap.pending);
    const healers::server::ServerStats stats = service_.server->stats();
    checks.expect("server: submitted == answered + shed + pending",
                  stats.submitted == stats.answered + stats.shed + stats.pending);
    checks.expect("every ticket holds an ok response", last_.not_ok == 0,
                  std::to_string(last_.not_ok) + " responses not ok");
    checks.expect("no document malformed or dropped", snap.malformed == 0 && snap.dropped == 0,
                  service_.collector->first_error());
  }

  // Replays one pass over the window pool into a fresh collector and server:
  // the per-window counts, and the summaries that must be byte-identical
  // across runs with one seed.
  void finish(Checks& checks) override {
    Service replay = make_service();
    Tracer off;
    Delivery delivery;
    for (const Window& window : windows_) {
      const Tally before = tally(replay);
      deliver(replay, window, off, delivery);
      const Tally after = tally(replay);
      per_window_.aggregated += after.aggregated - before.aggregated;
      per_window_.malformed += after.malformed - before.malformed;
      per_window_.dropped += after.dropped - before.dropped;
      per_window_.cache_hits += after.cache_hits - before.cache_hits;
      per_window_.deduped += after.deduped - before.deduped;
      per_window_.shed += after.shed - before.shed;
      per_window_.errors += after.errors - before.errors;
      per_window_.answered += after.answered - before.answered;
      checks.expect("every ticket holds an ok response", delivery.not_ok == 0);
    }
    summaries_ = replay.collector->render_summary() + replay.server->render_summary();
  }

  [[nodiscard]] std::uint64_t min_ops() const override { return windows_.size(); }
  [[nodiscard]] std::string work_unit() const override { return "documents aggregated"; }
  // Single-worker pools run inline, so the client thread is the only one.
  [[nodiscard]] unsigned threads() const override { return 1; }

  [[nodiscard]] std::string params() const override {
    const auto share = [](std::size_t n) {
      return static_cast<double>(n) / static_cast<double>(kWindowSize);
    };
    JsonObject shares;
    shares.num("profile_hfb1", share(kProfilesBinary))
        .num("profile_xml", share(kProfilesXml))
        .num("dossier_hdb1", share(kDossiers))
        .num("surface_hsp1", share(kSurfaces))
        .num("request", share(kRequests))
        .num("xml_share_of_profiles",
             static_cast<double>(kProfilesXml) / static_cast<double>(kProfiles))
        .num("xml_share_of_requests", 1.0 / static_cast<double>(kXmlEvery));
    JsonObject out;
    out.integer("window_size", kWindowSize)
        .str("composition", "sim::FleetSim census: mixed traffic, --debloat, 100000 hosts, "
                            "60 virtual s, seed 2003")
        .integer("windows_in_pool", kWindowPool)
        .integer("campaign_seed", static_cast<std::int64_t>(campaign_seed_))
        .integer("request_keys", static_cast<std::int64_t>(keys_.size()))
        .integer("collector_workers", kCollectorWorkers)
        .integer("server_workers", kServerWorkers)
        .raw("payload_shares", shares.render());
    return out.render();
  }

  [[nodiscard]] Counts counts() const override {
    const double n = static_cast<double>(windows_.size());
    return Counts{
        {"fleet.aggregated", static_cast<double>(per_window_.aggregated) / n},
        {"fleet.malformed", static_cast<double>(per_window_.malformed) / n},
        {"fleet.dropped", static_cast<double>(per_window_.dropped) / n},
        {"server.answered", static_cast<double>(per_window_.answered) / n},
        {"server.cache_hits", static_cast<double>(per_window_.cache_hits) / n},
        {"server.deduped", static_cast<double>(per_window_.deduped) / n},
        {"server.shed", static_cast<double>(per_window_.shed) / n},
        {"server.errors", static_cast<double>(per_window_.errors) / n},
    };
  }

  [[nodiscard]] std::string digest() const override { return hex_digest(summaries_); }

 private:
  struct Delivery {
    std::vector<DeriveServer::Ticket> tickets;
    healers::fleet::FleetSnapshot snapshot;
    std::uint64_t not_ok = 0;
    bool failed = false;
  };

  Service make_service() {
    Service service;
    service.toolkit = std::make_unique<healers::core::Toolkit>();
    healers::server::ServerConfig server_config;
    server_config.workers = kServerWorkers;
    service.server = std::make_unique<DeriveServer>(*service.toolkit, server_config);
    healers::fleet::CollectorConfig collector_config;
    collector_config.workers = kCollectorWorkers;
    service.collector = std::make_unique<FleetCollector>(collector_config);
    // Warm-up drain: answer every request key once.
    std::vector<DeriveServer::Ticket> tickets;
    for (const std::string& key : keys_) tickets.push_back(service.server->submit(key));
    service.server->drain();
    for (const DeriveServer::Ticket ticket : tickets) {
      const auto response = service.server->take_response(ticket);
      if (response == nullptr || classify(response) != ResponseStatus::kOk) {
        throw std::runtime_error("warm-up request failed");
      }
    }
    return service;
  }

  static Tally tally(const Service& service) {
    const healers::server::ServerStats stats = service.server->stats();
    Tally t;
    t.aggregated = service.collector->aggregated();
    t.malformed = service.collector->malformed();
    t.dropped = service.collector->dropped();
    t.cache_hits = stats.cache_hits;
    t.deduped = stats.deduped;
    t.shed = stats.shed;
    t.errors = stats.answered_error;
    t.answered = stats.answered;
    return t;
  }

  // Status of a response blob: binary responses carry it at a fixed offset;
  // XML envelopes are decoded once per distinct (shared, immutable) blob.
  ResponseStatus classify(const std::shared_ptr<const std::string>& blob) {
    const std::string& bytes = *blob;
    if (bytes.size() >= 8 && bytes.compare(0, 4, healers::server::kResponseMagic) == 0) {
      healers::fleet::codec::Cursor cursor(std::string_view(bytes).substr(4, 4));
      return static_cast<ResponseStatus>(cursor.u32());
    }
    const auto [it, inserted] = xml_status_.try_emplace(blob.get(), ResponseStatus::kError);
    if (inserted) {
      auto decoded = healers::server::DeriveResponse::decode(bytes);
      if (decoded.ok()) it->second = decoded.value().status;
      held_.push_back(blob);  // keeps the memo key's blob alive
    }
    return it->second;
  }

  void deliver(Service& service, const Window& window, Tracer& tracer, Delivery& out) {
    const std::uint64_t malformed = service.collector->malformed();
    const std::uint64_t dropped = service.collector->dropped();
    const std::uint64_t shed = service.server->shed();
    out.tickets.clear();
    out.not_ok = 0;
    {
      Span span(tracer, "fleet.submit");
      for (const std::string& doc : window.documents) service.collector->submit(doc);
    }
    {
      Span span(tracer, "server.submit");
      for (const std::string& request : window.requests) {
        out.tickets.push_back(service.server->submit(request));
      }
    }
    {
      Span span(tracer, "fleet.flush");
      service.collector->flush();
    }
    {
      Span span(tracer, "server.drain");
      service.server->drain();
    }
    std::vector<std::shared_ptr<const std::string>> responses;
    {
      Span span(tracer, "server.take");
      for (const DeriveServer::Ticket ticket : out.tickets) {
        responses.push_back(service.server->take_response(ticket));
      }
    }
    {
      Span span(tracer, "fleet.snapshot");
      out.snapshot = service.collector->snapshot();
    }
    for (const auto& response : responses) {
      if (response == nullptr || classify(response) != ResponseStatus::kOk) ++out.not_ok;
    }
    out.failed = out.not_ok > 0 || service.collector->malformed() != malformed ||
                 service.collector->dropped() != dropped || service.server->shed() != shed;
  }

  healers::Rng rng_;
  std::uint64_t campaign_seed_ = 0;
  std::vector<std::string> keys_;
  std::vector<Window> windows_;
  Service service_;
  Delivery last_;
  Tally per_window_;
  std::string summaries_;
  std::map<const std::string*, ResponseStatus> xml_status_;
  std::vector<std::shared_ptr<const std::string>> held_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_workload(std::uint64_t seed) {
  return std::make_unique<FleetWorkload>(seed);
}

}  // namespace perfbench
