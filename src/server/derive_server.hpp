// Hardening-as-a-service: the in-process derivation server (ISSUE 5).
//
// HEALERS derives a library's robust API once and reuses it to harden every
// application on the host; at fleet scale that derivation step is a shared
// service in front of the (already parallel, already memoized) campaign
// engine. DeriveServer is that service:
//
//   clients --submit()--> sharded bounded MPSC request queues  (admission
//                         control: overflow is SHED with a counted kShed
//                         response, never silently lost or blocking)
//   drain():  decode + group by canonical request key (single-flight: N
//             queued requests for one key trigger exactly ONE computation),
//             fan the unique keys out over a support::ThreadPool, answer
//             every ticket — repeat keys from the in-drain flight, repeated
//             drains from the response cache, and campaigns themselves from
//             the Toolkit's memo table (zero probes when warm, observable
//             via Toolkit::probes_executed()).
//
// Invariants (the FleetCollector discipline, applied to request serving):
//   * No silent loss. Every submitted request is exactly one of: answered
//     ok, answered error, answered shed, or still queued —
//     submitted() == answered() + shed() + pending().
//   * Deterministic serving. For a fixed submission trace (order + drain
//     points), response bytes per ticket AND the rendered summary are
//     byte-identical for any worker count. Response bytes are a pure
//     function of the request and library content, so they also survive
//     server restarts (and, via the spec cache file, process restarts).
//
// Metrics ride the same deterministic quantile sketch the fleet collector
// uses: queue depth at admission and response sizes per endpoint are part
// of the deterministic summary; wall-clock service latency is tracked in a
// separate sketch exposed per endpoint but kept OUT of render_summary(),
// because wall time is the one thing here that scheduling may change.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/toolkit.hpp"
#include "fleet/sketch.hpp"
#include "server/protocol.hpp"

namespace healers::server {

// A full queue shard sheds the incoming request: submit() counts it in
// shed() and answers its ticket with a kShed response.
struct ServerConfig {
  unsigned shards = 2;               // request queues (round-robin by ticket)
  std::size_t queue_capacity = 256;  // per queue shard
  unsigned workers = 1;              // drain workers, 0 = all cores
  // Scope campaigns to the toolkit's installed surface scopes (--debloat):
  // a derive for a library only probes the symbols some executable's static
  // closure can reach. Libraries with no installed scope derive unscoped.
  bool debloat = false;
};

// A merged, immutable view of the server's counters at one instant. All
// fields are trace-determined — worker count never changes any of them.
struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t answered = 0;     // tickets holding a response (ok or error)
  std::uint64_t answered_ok = 0;
  std::uint64_t answered_error = 0;  // malformed request / unknown library /...
  std::uint64_t shed = 0;         // rejected by admission control
  std::uint64_t pending = 0;      // queued, drain not yet run
  std::uint64_t deduped = 0;      // merged into an in-drain single flight
  std::uint64_t cache_hits = 0;   // served from the response cache
  std::uint64_t queue_depth_p50 = 0;  // depth seen at admission
  std::uint64_t queue_depth_p95 = 0;
  std::uint64_t queue_depth_p99 = 0;
  // Response payload bytes per endpoint (p50/p95/p99).
  std::uint64_t derive_bytes_p50 = 0, derive_bytes_p95 = 0, derive_bytes_p99 = 0;
  std::uint64_t bundle_bytes_p50 = 0, bundle_bytes_p95 = 0, bundle_bytes_p99 = 0;

  // Deterministic rendering — the byte-identical-across-worker-counts
  // surface tests compare.
  [[nodiscard]] std::string render() const;
};

class DeriveServer {
 public:
  using Ticket = std::uint64_t;

  // The toolkit supplies the libraries, the campaign engine, and the derive
  // memo table; keep it alive while the server runs. Several servers may
  // share one toolkit (they then share its spec cache).
  explicit DeriveServer(const core::Toolkit& toolkit, ServerConfig config = {});

  // Enqueues one encoded request (XML or binary; decoded at drain).
  // Thread-safe. The ticket identifies the eventual response; a shed
  // request's ticket is answered immediately with a kShed response.
  Ticket submit(std::string request_bytes);

  // Serves everything queued: one computation per unique request key on a
  // pool of config.workers workers. Not thread-safe against itself;
  // submit() during a drain is safe (late arrivals wait for the next one).
  void drain();

  // The encoded response for a ticket; nullptr while still pending or for
  // tickets this server never issued. Responses are shared, immutable blobs
  // — every ticket of a single-flight group points at the same bytes.
  [[nodiscard]] std::shared_ptr<const std::string> response(Ticket ticket) const;

  // Like response(), but retires the ticket: the table entry is erased so a
  // long-lived caller that consumes every response (the fleet simulator, a
  // proxy) holds the response table to its in-flight window instead of the
  // server's whole lifetime. The returned blob stays valid — responses are
  // shared immutable strings.
  [[nodiscard]] std::shared_ptr<const std::string> take_response(Ticket ticket);

  [[nodiscard]] std::uint64_t submitted() const noexcept { return submitted_.load(); }
  [[nodiscard]] std::uint64_t shed() const noexcept { return shed_.load(); }
  [[nodiscard]] std::uint64_t pending() const;

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] std::string render_summary() const { return stats().render(); }

  // Wall-clock service latency (microseconds per computed response) at
  // quantile q, per endpoint. Operational telemetry only: this is the one
  // surface that is NOT deterministic, which is why it lives outside
  // render_summary().
  [[nodiscard]] std::uint64_t wall_latency_micros(Endpoint endpoint, double q) const;

 private:
  struct Pending {
    Ticket ticket = 0;
    std::string bytes;
  };
  struct QueueShard {
    std::mutex mutex;
    std::deque<Pending> queue;
  };
  // One single-flight group: every queued request whose canonical key
  // matched, all answered by one computation.
  struct Flight {
    DeriveRequest request;
    std::string key;
    std::vector<Ticket> tickets;
    std::shared_ptr<const std::string> response;  // filled by the task
    std::uint64_t payload_bytes = 0;
    std::uint64_t wall_micros = 0;
    bool ok = false;
  };

  // Computes the response for one decoded request — the pure function the
  // whole service memoizes.
  [[nodiscard]] DeriveResponse serve(const DeriveRequest& request) const;

  // The request's campaign config, with the toolkit's surface scope for the
  // requested library applied when config_.debloat is set.
  [[nodiscard]] injector::InjectorConfig campaign_config(const DeriveRequest& request) const;

  void answer(Ticket ticket, std::shared_ptr<const std::string> response);

  const core::Toolkit& toolkit_;
  ServerConfig config_;
  std::vector<std::unique_ptr<QueueShard>> queues_;
  std::atomic<Ticket> next_ticket_{1};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> answered_ok_{0};
  std::atomic<std::uint64_t> answered_error_{0};
  std::atomic<std::uint64_t> deduped_{0};
  std::atomic<std::uint64_t> cache_hits_{0};

  mutable std::mutex responses_mutex_;
  std::map<Ticket, std::shared_ptr<const std::string>> responses_;
  // Response memo: canonical request key -> encoded response bytes. Only
  // kOk responses are cached; errors stay recomputable (a library installed
  // later should turn them into answers).
  std::map<std::string, std::shared_ptr<const std::string>> response_cache_;

  mutable std::mutex metrics_mutex_;
  fleet::CycleSketch queue_depth_;
  fleet::CycleSketch derive_bytes_;
  fleet::CycleSketch bundle_bytes_;
  fleet::CycleSketch derive_wall_micros_;
  fleet::CycleSketch bundle_wall_micros_;
};

}  // namespace healers::server
