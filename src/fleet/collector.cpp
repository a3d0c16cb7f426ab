#include "fleet/collector.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <utility>

#include "debloat/surface.hpp"
#include "fleet/wire.hpp"
#include "incident/dossier.hpp"
#include "simlib/cerrno.hpp"
#include "simlib/observer.hpp"
#include "support/thread_pool.hpp"
#include "xml/xml.hpp"

namespace healers::fleet {

std::uint64_t fnv1a(std::string_view text) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

FleetCollector::FleetCollector(CollectorConfig config) : config_(config) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.batch_size == 0) config_.batch_size = 1;
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  for (unsigned i = 0; i < config_.shards; ++i) {
    ingest_.push_back(std::make_unique<IngestShard>());
    agg_.push_back(std::make_unique<AggShard>());
  }
  drained_.resize(config_.shards);
}

void FleetCollector::Arena::push(std::string_view payload) {
  bytes.append(payload);
  ends.push_back(bytes.size());
}

void FleetCollector::Arena::clear() noexcept {
  bytes.clear();
  ends.clear();
}

bool FleetCollector::submit(std::string_view payload) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t shard =
      next_shard_.fetch_add(1, std::memory_order_relaxed) % ingest_.size();
  IngestShard& target = *ingest_[shard];
  std::lock_guard lock(target.mutex);
  if (target.queue.size() >= config_.queue_capacity) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  target.queue.push(payload);
  return true;
}

void FleetCollector::fold(const profile::ProfileReport& report) {
  // One sketch sample per document; shard by process so merge order never
  // depends on queue placement.
  {
    AggShard& shard = *agg_[fnv1a(report.process) % agg_.size()];
    std::lock_guard lock(shard.mutex);
    shard.sketch.add(report.total_cycles());
  }
  for (const profile::FunctionProfile& fn : report.functions) {
    AggShard& shard = *agg_[fnv1a(fn.symbol) % agg_.size()];
    std::lock_guard lock(shard.mutex);
    profile::FunctionProfile& total = shard.functions[fn.symbol];
    total.symbol = fn.symbol;
    total.calls += fn.calls;
    total.cycles += fn.cycles;
    total.contained += fn.contained;
    for (const auto& [err, count] : fn.errno_counts) total.errno_counts[err] += count;
  }
  for (const auto& [err, count] : report.global_errnos) {
    AggShard& shard = *agg_[static_cast<std::uint64_t>(err) % agg_.size()];
    std::lock_guard lock(shard.mutex);
    shard.global_errnos[err] += count;
  }
  aggregated_.fetch_add(1, std::memory_order_relaxed);
}

void FleetCollector::fold(const incident::Dossier& dossier) {
  const std::string key = simlib::to_string(dossier.detector) + " " + dossier.symbol;
  {
    AggShard& shard = *agg_[fnv1a(key) % agg_.size()];
    std::lock_guard lock(shard.mutex);
    ++shard.dossiers[key];
  }
  aggregated_.fetch_add(1, std::memory_order_relaxed);
}

void FleetCollector::fold(const debloat::SurfaceProfile& profile) {
  AggShard& shard = *agg_[fnv1a(profile.executable) % agg_.size()];
  {
    std::lock_guard lock(shard.mutex);
    SurfaceAgg& agg = shard.surfaces[profile.executable];
    ++agg.docs;
    agg.exported += profile.exported;
    agg.reachable += profile.reachable;
    agg.touched += profile.touched;
    agg.trapped += profile.trapped;
    agg.resident_pages += profile.resident_pages;
    agg.total_pages += profile.total_pages;
    for (const std::string& symbol : profile.trapped_symbols) ++agg.trapped_symbols[symbol];
  }
  aggregated_.fetch_add(1, std::memory_order_relaxed);
}

void FleetCollector::flush() {
  // Claim everything queued right now; later submits wait for the next flush.
  // Shards are claimed one at a time, so a producer racing this loop may
  // land a payload in an already-claimed shard — that payload is simply
  // pending() until the next flush, never lost: the accounting identity
  // submitted == aggregated + malformed + dropped + pending holds at every
  // quiescent point for every shard/worker combination (test_sim's
  // drop-accounting matrix and test_fleet's flush-race test assert this).
  // Claiming swaps the shard's buffer with an emptied spare, so the lock
  // covers only the swap.
  std::vector<std::string_view> claimed;
  for (std::size_t s = 0; s < ingest_.size(); ++s) {
    Arena& drained = drained_[s];
    drained.clear();  // the previous flush's payloads; the storage stays
    {
      std::lock_guard lock(ingest_[s]->mutex);
      std::swap(ingest_[s]->queue, drained);
    }
    claimed.reserve(claimed.size() + drained.size());
    for (std::size_t i = 0; i < drained.size(); ++i) {
      claimed.push_back(drained.payload(i));
    }
  }
  if (claimed.empty()) return;

  // One decode task per batch; the totals are commutative, so tasks fold
  // directly into the aggregation shards under their mutexes. Each batch
  // keeps the first error among its payloads, so the earliest batch's error
  // is the earliest malformed payload in claim order, for any worker count.
  std::vector<support::ThreadPool::Task> tasks;
  const std::size_t batches =
      (claimed.size() + config_.batch_size - 1) / config_.batch_size;
  std::vector<std::string> batch_errors(batches);
  tasks.reserve(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t begin = b * config_.batch_size;
    const std::size_t end = std::min(claimed.size(), begin + config_.batch_size);
    tasks.push_back([this, &claimed, &error = batch_errors[b], begin, end](unsigned /*worker*/) {
      const auto reject = [this, &error](const std::string& message) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        if (error.empty()) error = message;
      };
      const auto ingest = [this, &reject](const Status& decoded, const auto& document) {
        if (decoded.ok()) {
          fold(document);
        } else {
          reject(decoded.error().message);
        }
      };
      // One record per kind and one XML reader, reused across the batch:
      // binary and XML decoders both keep their strings' and lists' storage.
      profile::ProfileReport report;
      incident::Dossier dossier;
      debloat::SurfaceProfile surface;
      xml::Reader in;
      for (std::size_t i = begin; i < end; ++i) {
        const std::string_view payload = claimed[i];
        // Dossiers, surface profiles and profiles share the pipe; binary
        // documents dispatch on their magic, XML on the root element.
        switch (record::sniff(payload)) {
          case record::Kind::kProfile:
            ingest(record::decode_into(payload, report), report);
            continue;
          case record::Kind::kDossier:
            ingest(record::decode_into(payload, dossier), dossier);
            continue;
          case record::Kind::kSurface:
            ingest(record::decode_into(payload, surface), surface);
            continue;
          default:
            break;
        }
        in.reset(payload);
        const auto ingest_xml = [&](Status decoded, const auto& document) {
          ingest(in.finish(std::move(decoded), "xml document: "), document);
        };
        if (in.name() == "dossier") {
          ingest_xml(incident::from_xml(in, dossier), dossier);
        } else if (in.name() == "surface-profile") {
          ingest_xml(debloat::surface_from_xml(in, surface), surface);
        } else {
          ingest_xml(profile::from_xml(in, report), report);
        }
      }
    });
  }
  const unsigned workers =
      config_.workers == 0 ? support::ThreadPool::hardware_workers() : config_.workers;
  support::ThreadPool pool(workers);
  pool.run(std::move(tasks));

  // An earlier flush's error stays first; else the earliest batch's error.
  std::lock_guard lock(error_mutex_);
  for (std::string& error : batch_errors) {
    if (!first_error_.empty()) break;
    first_error_ = std::move(error);
  }
}

std::uint64_t FleetCollector::pending() const {
  std::uint64_t n = 0;
  for (const auto& shard : ingest_) {
    std::lock_guard lock(shard->mutex);
    n += shard->queue.size();
  }
  return n;
}

std::size_t FleetCollector::queued_bytes() const {
  std::size_t n = 0;
  for (const auto& shard : ingest_) {
    std::lock_guard lock(shard->mutex);
    n += shard->queue.bytes.size();
  }
  return n;
}

std::string FleetCollector::first_error() const {
  std::lock_guard lock(error_mutex_);
  return first_error_;
}

FleetSnapshot FleetCollector::snapshot() const {
  FleetSnapshot snap;
  snap.submitted = submitted();
  snap.aggregated = aggregated();
  snap.malformed = malformed();
  snap.dropped = dropped();
  snap.pending = pending();
  CycleSketch merged;
  for (const auto& shard : agg_) {
    std::lock_guard lock(shard->mutex);
    merged.merge(shard->sketch);
    for (const auto& [symbol, fn] : shard->functions) {
      profile::FunctionProfile& total = snap.functions[symbol];
      total.symbol = symbol;
      total.calls += fn.calls;
      total.cycles += fn.cycles;
      total.contained += fn.contained;
      for (const auto& [err, count] : fn.errno_counts) total.errno_counts[err] += count;
    }
    for (const auto& [err, count] : shard->global_errnos) snap.global_errnos[err] += count;
    for (const auto& [key, count] : shard->dossiers) snap.dossiers[key] += count;
    for (const auto& [exe, agg] : shard->surfaces) {
      SurfaceAgg& total = snap.surfaces[exe];
      total.docs += agg.docs;
      total.exported += agg.exported;
      total.reachable += agg.reachable;
      total.touched += agg.touched;
      total.trapped += agg.trapped;
      total.resident_pages += agg.resident_pages;
      total.total_pages += agg.total_pages;
      for (const auto& [symbol, count] : agg.trapped_symbols)
        total.trapped_symbols[symbol] += count;
    }
  }
  snap.cycles_p50 = merged.quantile(0.50);
  snap.cycles_p95 = merged.quantile(0.95);
  snap.cycles_p99 = merged.quantile(0.99);
  return snap;
}

std::string FleetSnapshot::render() const {
  std::ostringstream out;
  out << "fleet summary\n";
  out << "  documents: " << aggregated << " aggregated, " << malformed << " malformed, "
      << dropped << " dropped, " << pending << " pending (" << submitted << " submitted)\n";
  std::uint64_t calls = 0;
  std::uint64_t errors = 0;
  std::uint64_t contained = 0;
  for (const auto& [_, fn] : functions) {
    calls += fn.calls;
    errors += fn.errors();
    contained += fn.contained;
  }
  out << "  functions: " << functions.size() << " distinct, " << calls << " calls, " << errors
      << " errors, " << contained << " contained\n";
  out << "  exec cycles per document: p50=" << cycles_p50 << " p95=" << cycles_p95
      << " p99=" << cycles_p99 << "\n";
  for (const auto& [symbol, fn] : functions) {
    out << "    " << std::left << std::setw(12) << symbol << std::right << std::setw(10)
        << fn.calls << " calls" << std::setw(12) << fn.cycles << " cycles";
    if (fn.errors() > 0) out << ", " << fn.errors() << " errors";
    if (fn.contained > 0) out << ", " << fn.contained << " contained";
    out << "\n";
  }
  if (!global_errnos.empty()) {
    out << "  errno distribution:\n";
    for (const auto& [err, count] : global_errnos) {
      out << "    " << std::left << std::setw(8) << simlib::errno_name(err) << std::right
          << std::setw(8) << count << "\n";
    }
  }
  if (!dossiers.empty()) {
    std::uint64_t total = 0;
    for (const auto& [_, count] : dossiers) total += count;
    out << "  incident dossiers: " << total << "\n";
    for (const auto& [key, count] : dossiers) {
      out << "    " << std::left << std::setw(24) << key << std::right << std::setw(8) << count
          << "\n";
    }
  }
  if (!surfaces.empty()) {
    std::uint64_t total = 0;
    for (const auto& [_, agg] : surfaces) total += agg.docs;
    out << "  surface profiles: " << total << "\n";
    for (const auto& [exe, agg] : surfaces) {
      // Integer percentages over commutative sums keep the line identical
      // for every shard/worker split of the same document set.
      const std::uint64_t unmapped =
          agg.exported == 0 ? 0 : (agg.exported - agg.touched) * 100 / agg.exported;
      const std::uint64_t resident =
          agg.total_pages == 0 ? 0 : agg.resident_pages * 100 / agg.total_pages;
      out << "    " << std::left << std::setw(12) << exe << std::right << std::setw(8)
          << agg.docs << " docs, " << unmapped << "% unmapped, " << resident
          << "% pages resident, " << agg.trapped << " trapped\n";
      for (const auto& [symbol, count] : agg.trapped_symbols) {
        out << "      trapped " << std::left << std::setw(16) << symbol << std::right
            << std::setw(8) << count << "\n";
      }
    }
  }
  return out.str();
}

}  // namespace healers::fleet
