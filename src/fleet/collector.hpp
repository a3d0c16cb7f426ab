// The collection service (paper §2.3), sharded for fleet scale. The paper's
// single-process collector server is one configuration of it — one shard and
// one flush worker, whose pool runs inline ({.shards = 1, .workers = 1}):
//
//   producers --submit()--> per-shard bounded arena queues  (backpressure)
//                           payload bytes appended to one buffer per shard
//                 flush():  swap each shard's buffer out, then batched decode
//                           on support::ThreadPool, each batch into one
//                           reused record per kind (record::decode_into,
//                           or the XML decoders for the same records)
//                           fold into aggregation shards    (by symbol hash)
//   snapshot(): merge shards -> totals + quantile sketch -> summary
//
// Ingest allocates nothing per document once the buffers have grown: a
// shard's queue is one byte buffer plus end offsets, flush() hands the decode
// tasks views into the buffer it swapped out and keeps that buffer as the
// shard's next spare, and documents, binary or XML, decode into reused
// records.
//
// Invariants:
//   * No silent loss. Every submitted payload is exactly one of: aggregated,
//     counted malformed, counted dropped, or still pending in a queue —
//     submitted() == aggregated() + malformed() + dropped() + pending().
//   * Deterministic aggregation. Totals and sketch buckets are commutative
//     sums, so snapshot()/render_summary() are byte-identical for any shard
//     count and any flush worker count over the same document set (the fleet
//     analogue of the campaign engine's jobs-independence guarantee).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/sketch.hpp"
#include "profile/report.hpp"

namespace healers::incident {
struct Dossier;
}

namespace healers::debloat {
struct SurfaceProfile;
}

namespace healers::fleet {

// A full ingest shard drops the incoming payload and counts it in dropped();
// there is no blocking mode because draining is explicit (flush()) and
// blocking producers would deadlock them.
struct CollectorConfig {
  unsigned shards = 4;              // ingest queues AND aggregation shards
  std::size_t queue_capacity = 4096;  // per ingest shard
  std::size_t batch_size = 64;        // payloads per decode task
  unsigned workers = 1;               // flush decode workers, 0 = all cores
};

// Commutative per-executable aggregate of surface-profile documents
// (docs/debloat.md): plain sums, so shard and worker counts cannot change
// the snapshot.
struct SurfaceAgg {
  std::uint64_t docs = 0;
  std::uint64_t exported = 0;
  std::uint64_t reachable = 0;
  std::uint64_t touched = 0;
  std::uint64_t trapped = 0;
  std::uint64_t resident_pages = 0;
  std::uint64_t total_pages = 0;
  std::map<std::string, std::uint64_t> trapped_symbols;  // symbol -> reports
};

// A merged, immutable view of the collector at one instant.
struct FleetSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t aggregated = 0;  // documents folded into the totals
  std::uint64_t malformed = 0;   // documents rejected by the decoders
  std::uint64_t dropped = 0;     // documents refused by a full shard
  std::uint64_t pending = 0;     // still queued (flush not yet run)
  std::map<std::string, profile::FunctionProfile> functions;
  std::map<int, std::uint64_t> global_errnos;
  // Crash-dossier documents folded per "<detector> <symbol>" key. Commutative
  // counts, like everything else here, so the summary stays byte-identical
  // across shard and worker counts.
  std::map<std::string, std::uint64_t> dossiers;
  // Surface-profile documents folded per executable.
  std::map<std::string, SurfaceAgg> surfaces;
  std::uint64_t cycles_p50 = 0;  // exec cycles per document
  std::uint64_t cycles_p95 = 0;
  std::uint64_t cycles_p99 = 0;

  // Deterministic rendering (the byte-identical-across-configs surface).
  [[nodiscard]] std::string render() const;
};

class FleetCollector {
 public:
  explicit FleetCollector(CollectorConfig config = {});

  // Enqueues a copy of one encoded document (XML or binary; not decoded
  // here). Thread-safe. Returns false, and counts the document in dropped(),
  // when its shard is full.
  bool submit(std::string_view payload);

  // Decodes and aggregates everything queued, in batches on a thread pool
  // of config.workers workers. Not thread-safe against itself; submit()
  // during a flush is safe (late arrivals stay queued for the next flush).
  void flush();

  [[nodiscard]] std::uint64_t submitted() const noexcept { return submitted_.load(); }
  [[nodiscard]] std::uint64_t aggregated() const noexcept { return aggregated_.load(); }
  [[nodiscard]] std::uint64_t malformed() const noexcept { return malformed_.load(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_.load(); }
  [[nodiscard]] std::uint64_t pending() const;
  // Bytes the ingest queues hold.
  [[nodiscard]] std::size_t queued_bytes() const;
  [[nodiscard]] unsigned shards() const noexcept { return static_cast<unsigned>(ingest_.size()); }
  // The error of the first malformed payload since construction ("" when
  // none), the diagnostic handle for the malformed() counter. "First" is the
  // order flush() claims payloads in: shard by shard, each shard's queue in
  // submit order. The worker count cannot change which error it is.
  [[nodiscard]] std::string first_error() const;

  [[nodiscard]] FleetSnapshot snapshot() const;
  [[nodiscard]] std::string render_summary() const { return snapshot().render(); }

 private:
  // One shard's queued payloads: their bytes back to back, and where each
  // one ends.
  struct Arena {
    std::string bytes;
    std::vector<std::size_t> ends;

    [[nodiscard]] std::size_t size() const noexcept { return ends.size(); }
    [[nodiscard]] std::string_view payload(std::size_t i) const noexcept {
      const std::size_t begin = i == 0 ? 0 : ends[i - 1];
      return std::string_view(bytes).substr(begin, ends[i] - begin);
    }
    void push(std::string_view payload);
    // Empties the arena and keeps its storage.
    void clear() noexcept;
  };
  struct IngestShard {
    std::mutex mutex;
    Arena queue;
  };
  struct AggShard {
    mutable std::mutex mutex;
    std::map<std::string, profile::FunctionProfile> functions;
    std::map<int, std::uint64_t> global_errnos;
    std::map<std::string, std::uint64_t> dossiers;  // "<detector> <symbol>" -> docs
    std::map<std::string, SurfaceAgg> surfaces;     // executable -> aggregate
    CycleSketch sketch;  // one sample per document: its total exec cycles
  };

  void fold(const profile::ProfileReport& report);
  void fold(const incident::Dossier& dossier);
  void fold(const debloat::SurfaceProfile& profile);

  CollectorConfig config_;
  std::vector<std::unique_ptr<IngestShard>> ingest_;
  // flush()'s side of each shard's buffer swap: the payloads the last flush
  // decoded, emptied before the next swap, which hands on its storage.
  std::vector<Arena> drained_;
  std::vector<std::unique_ptr<AggShard>> agg_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> aggregated_{0};
  std::atomic<std::uint64_t> malformed_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> next_shard_{0};  // round-robin producer cursor
  mutable std::mutex error_mutex_;
  std::string first_error_;
};

// FNV-1a — the stable function-name -> aggregation-shard hash. Exposed so
// tests can assert the placement rule.
[[nodiscard]] std::uint64_t fnv1a(std::string_view text) noexcept;

}  // namespace healers::fleet
