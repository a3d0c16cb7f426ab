#include "sim/fleet_sim.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "debloat/surface.hpp"
#include "fleet/sketch.hpp"
#include "fleet/wire.hpp"
#include "incident/dossier.hpp"
#include "server/protocol.hpp"
#include "simlib/cerrno.hpp"
#include "simlib/observer.hpp"
#include "support/thread_pool.hpp"

namespace healers::sim {
namespace {

// The lookahead window: emissions inside one virtual second are merged and
// delivered together; flush()/drain() run at every window boundary.
constexpr VirtualTime kWindow = kMicrosPerVirtualSecond;

enum class EmissionKind : std::uint8_t { kProfile, kDossier, kSurface, kDerive };

// One encoded payload waiting for the serial delivery phase. `seq` is the
// host's emission counter at emission time, the tie-break that makes the
// merged delivery order a total order.
struct Emission {
  VirtualTime at = 0;
  std::uint32_t host = 0;
  std::uint32_t seq = 0;
  EmissionKind kind = EmissionKind::kProfile;
  std::string payload;
};

// Per-shard simulation state: a contiguous slice of the fleet, its event
// heap, and the out-buffer the parallel advance phase appends to.
struct ShardState {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  std::vector<HostTask> tasks;
  EventQueue queue;
  std::vector<Emission> out;
  std::uint64_t events = 0;
  // Host -> shard reduction, merged into the global stats at the end.
  fleet::CycleSketch per_host;
  std::array<std::uint64_t, kConcreteModels> model_hosts{};
};

// The symbols sim hosts report against, sorted (documents pick a contiguous
// run so the rendered fleet summary stays compact).
constexpr std::array<std::string_view, 8> kSymbols = {
    "atoi", "memcpy", "qsort", "strchr", "strcpy", "strlen", "toupper", "wctrans"};

// Builds one "HFB1" binary profile document from the host's Rng. At a
// million hosts this is the generator's hot loop, so each advance thread
// fills one reused report whose strings and function list keep their
// storage from one host to the next.
std::string make_profile_doc(HostTask& host) {
  thread_local profile::ProfileReport report;
  char name[12];
  std::snprintf(name, sizeof name, "h%07u", host.index);
  report.process = name;
  report.wrapper = "sim-wrapper";
  const std::size_t nfn = 2 + host.rng.below(3);
  const std::size_t start = host.rng.below(kSymbols.size() - nfn + 1);
  report.functions.resize(nfn);
  report.global_errnos.clear();
  for (std::size_t i = 0; i < nfn; ++i) {
    profile::FunctionProfile& fn = report.functions[i];
    fn.symbol = kSymbols[start + i];
    fn.calls = 1 + host.rng.below(64);
    fn.cycles = fn.calls * (20 + host.rng.below(40));
    fn.contained = host.rng.below(16) == 0 ? 1 : 0;
    fn.errno_counts.clear();
    // Only wctrans reports failures here — EINVAL on unknown mappings, the
    // paper's own Fig 3 example of an errno histogram.
    if (fn.symbol == "wctrans" && host.rng.below(4) == 0) {
      const std::uint64_t count = 1 + host.rng.below(3);
      fn.errno_counts[simlib::kEINVAL] = count;
      report.global_errnos[simlib::kEINVAL] += count;
    }
  }
  std::string out;
  out.reserve(192);
  out += fleet::kBinaryMagic;
  fleet::record::write(out, report);
  return out;
}

// A minimal crash dossier: the two security-wrapper detectors a wedged host
// keeps tripping, encoded in the compact "HDB1" wire form.
std::string make_dossier_doc(HostTask& host) {
  incident::Dossier dossier;
  {
    char name[12];
    std::snprintf(name, sizeof name, "h%07u", host.index);
    dossier.process = name;
  }
  const bool heap = host.rng.below(2) == 0;
  dossier.detector =
      heap ? simlib::DetectionKind::kHeapSmash : simlib::DetectionKind::kStackSmash;
  dossier.symbol = heap ? "memcpy" : "strcpy";
  dossier.detail = heap ? "heap canary mismatch" : "stack bound violation";
  dossier.seq = 1 + host.rng.below(512);
  dossier.tick = dossier.seq * 7;
  dossier.cycles = dossier.seq * 90;
  dossier.fault_addr = 0x20000 + host.rng.below(0x1000);
  return fleet::encode_dossier_binary(dossier);
}

// A surface profile from a demand-loaded host, encoded in the compact
// "HSP1" wire form. The netd closure (docs/debloat.md) is the reachable
// set; how much of it the host has actually touched — and whether a drifted
// caller tripped the surface-violation trap — comes from the host's Rng, so
// the document is a pure function of (seed, host index) like every other
// emission.
std::string make_surface_doc(HostTask& host) {
  static constexpr std::array<std::string_view, 6> kReachable = {
      "free", "malloc", "memcpy", "puts", "strcpy", "strlen"};
  debloat::SurfaceProfile profile;
  {
    char name[12];
    std::snprintf(name, sizeof name, "h%07u", host.index);
    profile.host = name;
  }
  profile.executable = "netd";
  profile.exported = 90;
  profile.reachable = kReachable.size();
  for (const std::string_view symbol : kReachable) {
    profile.reachable_symbols.emplace_back(symbol);
  }
  const auto touched = 3 + host.rng.below(4);  // 3..6 of the closure exercised
  profile.touched = touched;
  for (std::uint64_t i = 0; i < touched; ++i) {
    profile.touched_symbols.emplace_back(kReachable[i]);
  }
  if (host.rng.below(16) == 0) {  // a drifted caller hit the load barrier
    profile.trapped = 1;
    profile.trapped_symbols.emplace_back("rand");
  }
  profile.resident_pages = touched;
  profile.total_pages = profile.exported;
  return fleet::encode_surface_binary(profile);
}

// A derive request against the stock libraries, pinned to a tiny campaign
// (seed 21, variants 1) so the server's single-flight + response cache keep
// the whole fleet's curiosity down to a handful of real campaigns.
std::string make_derive_request(HostTask& host) {
  server::DeriveRequest request;
  const std::uint64_t pick = host.rng.below(8);
  request.soname = pick < 5   ? "libsimm.so.1"
                   : pick < 7 ? "libsimio.so.1"
                              : "libsimc.so.1";
  request.seed = 21;
  request.variants = 1;
  request.format = server::WireFormat::kBinary;
  if (pick == 6) {
    request.endpoint = server::Endpoint::kBundle;
    request.bundle = server::BundleKind::kSecurity;
  }
  return request.encode();
}

// Classifies a response blob by status without decoding payloads: binary
// responses carry the status word at a fixed offset; XML envelopes (sheds,
// pre-decode errors) are parsed once per distinct blob — responses are
// shared immutable strings, so memoizing by blob identity collapses a
// million lookups to one per unique response.
class ResponseClassifier {
 public:
  server::ResponseStatus classify(const std::shared_ptr<const std::string>& blob) {
    const std::string& bytes = *blob;
    if (bytes.size() >= 8 && std::string_view(bytes).substr(0, 4) == server::kResponseMagic) {
      const auto b = reinterpret_cast<const unsigned char*>(bytes.data() + 4);
      const std::uint32_t raw = static_cast<std::uint32_t>(b[0]) |
                                static_cast<std::uint32_t>(b[1]) << 8 |
                                static_cast<std::uint32_t>(b[2]) << 16 |
                                static_cast<std::uint32_t>(b[3]) << 24;
      return static_cast<server::ResponseStatus>(raw);
    }
    const auto [it, inserted] = memo_.try_emplace(blob.get(), server::ResponseStatus::kError);
    if (inserted) {
      auto decoded = server::DeriveResponse::decode(bytes);
      if (decoded.ok()) it->second = decoded.value().status;
    }
    return it->second;
  }

 private:
  std::map<const std::string*, server::ResponseStatus> memo_;
};

}  // namespace

FleetSim::FleetSim(const core::Toolkit& toolkit, SimConfig config) : config_(config) {
  if (config_.hosts == 0) config_.hosts = 1;
  if (config_.shards == 0) config_.shards = 1;
  config_.shards = std::min(config_.shards, config_.hosts);
  collector_ = std::make_unique<fleet::FleetCollector>(config_.collector);
  server_ = std::make_unique<server::DeriveServer>(toolkit, config_.server);
}

SimStats FleetSim::run() {
  const VirtualTime horizon = config_.virtual_seconds * kMicrosPerVirtualSecond;
  const std::uint32_t hosts = config_.hosts;
  const unsigned nshards = config_.shards;
  const unsigned jobs =
      config_.jobs == 0 ? support::ThreadPool::hardware_workers() : config_.jobs;
  support::ThreadPool pool(std::max(1u, std::min(jobs, nshards)));

  // Partition the fleet into contiguous slices and seed every host's first
  // wake-up, in parallel: HostTask construction touches only its own slice.
  std::vector<ShardState> shards(nshards);
  const std::uint32_t per = (hosts + nshards - 1) / nshards;
  {
    std::vector<support::ThreadPool::Task> tasks;
    tasks.reserve(nshards);
    for (unsigned s = 0; s < nshards; ++s) {
      shards[s].lo = std::min(s * per, hosts);
      shards[s].hi = std::min(shards[s].lo + per, hosts);
      tasks.push_back([this, &shards, s](unsigned /*worker*/) {
        ShardState& shard = shards[s];
        shard.tasks.reserve(shard.hi - shard.lo);
        shard.queue.reserve(shard.hi - shard.lo);
        for (std::uint32_t host = shard.lo; host < shard.hi; ++host) {
          shard.tasks.emplace_back(config_.seed, host, config_.traffic);
          shard.tasks.back().debloat = config_.debloat;
          shard.queue.push(Event{initial_delay(shard.tasks.back()), host});
        }
      });
    }
    pool.run(std::move(tasks));
  }

  SimStats stats;
  stats.hosts = hosts;
  stats.virtual_seconds = config_.virtual_seconds;
  stats.traffic = config_.traffic;
  stats.sim_shards = nshards;

  std::vector<server::DeriveServer::Ticket> tickets;
  std::vector<Emission*> order;
  ResponseClassifier classifier;

  for (VirtualTime wstart = 0; wstart < horizon; wstart += kWindow) {
    const VirtualTime wend = std::min(wstart + kWindow, horizon);

    // Parallel advance: each shard drains its heap up to the window edge
    // into its private out-buffer. No shared state is touched.
    {
      std::vector<support::ThreadPool::Task> tasks;
      tasks.reserve(nshards);
      for (unsigned s = 0; s < nshards; ++s) {
        tasks.push_back([&shards, s, wend, horizon](unsigned /*worker*/) {
          ShardState& shard = shards[s];
          while (!shard.queue.empty() && shard.queue.top().at < wend) {
            const Event event = shard.queue.pop();
            HostTask& task = shard.tasks[event.host - shard.lo];
            ++shard.events;
            const StepPlan plan = step(task, event.at);
            for (std::uint8_t d = 0; d < plan.profile_docs; ++d) {
              shard.out.push_back(Emission{event.at, event.host, task.emissions++,
                                           EmissionKind::kProfile, make_profile_doc(task)});
            }
            if (plan.dossier) {
              shard.out.push_back(Emission{event.at, event.host, task.emissions++,
                                           EmissionKind::kDossier, make_dossier_doc(task)});
            }
            if (plan.surface) {
              shard.out.push_back(Emission{event.at, event.host, task.emissions++,
                                           EmissionKind::kSurface, make_surface_doc(task)});
            }
            if (plan.derive) {
              shard.out.push_back(Emission{event.at, event.host, task.emissions++,
                                           EmissionKind::kDerive, make_derive_request(task)});
            }
            const VirtualTime next = event.at + std::max<VirtualTime>(plan.next_delay, 1);
            if (next < horizon) shard.queue.push(Event{next, event.host});
          }
        });
      }
      pool.run(std::move(tasks));
    }

    // Serial merged delivery in (at, host, seq) order — the total order that
    // erases both the shard partition and the thread interleaving.
    order.clear();
    {
      std::size_t total = 0;
      for (ShardState& shard : shards) total += shard.out.size();
      order.reserve(total);
    }
    for (ShardState& shard : shards) {
      for (Emission& emission : shard.out) order.push_back(&emission);
    }
    std::sort(order.begin(), order.end(), [](const Emission* a, const Emission* b) {
      if (a->at != b->at) return a->at < b->at;
      if (a->host != b->host) return a->host < b->host;
      return a->seq < b->seq;
    });

    tickets.clear();
    for (Emission* emission : order) {
      ++stats.emissions;
      stats.payload_bytes += emission->payload.size();
      switch (emission->kind) {
        case EmissionKind::kProfile:
          ++stats.profile_docs;
          collector_->submit(emission->payload);
          break;
        case EmissionKind::kDossier:
          ++stats.dossier_docs;
          collector_->submit(emission->payload);
          break;
        case EmissionKind::kSurface:
          ++stats.surface_docs;
          collector_->submit(emission->payload);
          break;
        case EmissionKind::kDerive:
          ++stats.derive_requests;
          tickets.push_back(server_->submit(std::move(emission->payload)));
          break;
      }
    }
    for (ShardState& shard : shards) shard.out.clear();

    collector_->flush();
    server_->drain();

    // Retire this window's derive tickets; take_response keeps the server's
    // response table bounded by one window's requests, not the whole run's.
    for (const auto ticket : tickets) {
      const auto response = server_->take_response(ticket);
      if (!response) {
        ++stats.responses_error;
        continue;
      }
      switch (classifier.classify(response)) {
        case server::ResponseStatus::kOk: ++stats.responses_ok; break;
        case server::ResponseStatus::kError: ++stats.responses_error; break;
        case server::ResponseStatus::kShed: ++stats.responses_shed; break;
      }
    }
  }

  // Hierarchical reduction: hosts fold into their shard (in parallel), the
  // shards fold into the global stats (serially, commutative adds only).
  {
    std::vector<support::ThreadPool::Task> tasks;
    tasks.reserve(nshards);
    for (unsigned s = 0; s < nshards; ++s) {
      tasks.push_back([&shards, s](unsigned /*worker*/) {
        ShardState& shard = shards[s];
        for (const HostTask& task : shard.tasks) {
          shard.per_host.add(task.emissions);
          ++shard.model_hosts[static_cast<std::size_t>(task.model)];
        }
      });
    }
    pool.run(std::move(tasks));
  }
  fleet::CycleSketch per_host;
  for (const ShardState& shard : shards) {
    stats.events += shard.events;
    per_host.merge(shard.per_host);
    for (std::size_t m = 0; m < kConcreteModels; ++m) {
      stats.hosts_by_model[m] += shard.model_hosts[m];
    }
  }
  stats.emissions_per_host_p50 = per_host.quantile(0.50);
  stats.emissions_per_host_p95 = per_host.quantile(0.95);
  stats.emissions_per_host_p99 = per_host.quantile(0.99);

  stats_ = stats;
  return stats;
}

std::string SimStats::render() const {
  std::ostringstream out;
  // Deliberately no sim-shard or jobs echo here: the summary must be
  // byte-identical across BOTH, so only trace-determining config appears.
  out << "fleet simulation summary\n";
  out << "  fleet: " << hosts << " hosts, " << virtual_seconds
      << " virtual seconds, traffic " << to_string(traffic) << "\n";
  out << "  hosts by model:";
  for (std::size_t m = 0; m < kConcreteModels; ++m) {
    if (hosts_by_model[m] == 0) continue;
    out << " " << to_string(static_cast<TrafficModel>(m)) << "=" << hosts_by_model[m];
  }
  out << "\n";
  out << "  events: " << events << " host wake-ups, " << emissions << " emissions ("
      << profile_docs << " profile docs, " << dossier_docs << " dossiers, ";
  if (surface_docs > 0) out << surface_docs << " surface profiles, ";
  out << derive_requests << " derive requests), " << payload_bytes << " payload bytes\n";
  out << "  emissions per host: p50=" << emissions_per_host_p50
      << " p95=" << emissions_per_host_p95 << " p99=" << emissions_per_host_p99 << "\n";
  out << "  derive responses: " << responses_ok << " ok, " << responses_error << " error, "
      << responses_shed << " shed\n";
  return out.str();
}

std::string FleetSim::render_global_summary() const {
  return stats_.render() + collector_->render_summary() + server_->render_summary();
}

}  // namespace healers::sim
