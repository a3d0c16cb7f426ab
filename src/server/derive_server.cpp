#include "server/derive_server.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "gen/microgen.hpp"
#include "server/codec.hpp"
#include "support/thread_pool.hpp"
#include "wrappers/wrappers.hpp"

namespace healers::server {
namespace {

// Shed responses are emitted before the request is ever decoded (that is
// the point of admission control), so they are always XML envelopes — and
// they are all byte-identical, so every shed ticket shares ONE immutable
// blob: a burst that sheds a million requests allocates nothing per victim.
std::shared_ptr<const std::string> shed_response() {
  static const std::shared_ptr<const std::string> blob = [] {
    DeriveResponse response;
    response.status = ResponseStatus::kShed;
    response.error = "admission control: request queue full";
    return std::make_shared<const std::string>(response.encode(WireFormat::kXml));
  }();
  return blob;
}

void render_quantiles(std::ostringstream& out, const char* label, std::uint64_t p50,
                      std::uint64_t p95, std::uint64_t p99) {
  out << "  " << label << ": p50=" << p50 << " p95=" << p95 << " p99=" << p99 << "\n";
}

}  // namespace

DeriveServer::DeriveServer(const core::Toolkit& toolkit, ServerConfig config)
    : toolkit_(toolkit), config_(config) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  for (unsigned i = 0; i < config_.shards; ++i) queues_.push_back(std::make_unique<QueueShard>());
}

DeriveServer::Ticket DeriveServer::submit(std::string request_bytes) {
  const Ticket ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  QueueShard& shard = *queues_[ticket % queues_.size()];
  bool shed = false;
  {
    std::lock_guard lock(shard.mutex);
    {
      std::lock_guard metrics(metrics_mutex_);
      queue_depth_.add(shard.queue.size());
    }
    shed = shard.queue.size() >= config_.queue_capacity;
    if (!shed) shard.queue.push_back(Pending{ticket, std::move(request_bytes)});
  }
  if (shed) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    answer(ticket, shed_response());
  }
  return ticket;
}

injector::InjectorConfig DeriveServer::campaign_config(const DeriveRequest& request) const {
  injector::InjectorConfig config = request.injector_config();
  if (config_.debloat) config.only_functions = toolkit_.surface_scope_for(request.soname);
  return config;
}

DeriveResponse DeriveServer::serve(const DeriveRequest& request) const {
  DeriveResponse response;
  auto reject = [&response](std::string message) {
    response.status = ResponseStatus::kError;
    response.error = std::move(message);
    response.payload.clear();
    response.probes = 0;
    return response;
  };

  if (request.endpoint == Endpoint::kDerive) {
    auto campaign = toolkit_.derive_robust_api(request.soname, campaign_config(request));
    if (!campaign.ok()) return reject(campaign.error().message);
    response.probes = campaign.value().total_probes();
    response.payload = request.format == WireFormat::kBinary
                           ? encode_campaign_binary(campaign.value())
                           : xml::serialize(campaign.value().to_xml());
    return response;
  }

  // kBundle: the generated wrapper C source for one policy (Fig 3). The
  // robustness bundle derives its campaign server-side first — clients never
  // round-trip a spec file.
  gen::WrapperBuilder builder(std::string(to_string(request.bundle)) + "-wrapper");
  injector::CampaignResult campaign;
  const injector::CampaignResult* campaign_ptr = nullptr;
  switch (request.bundle) {
    case BundleKind::kRobustness: {
      auto derived = toolkit_.derive_robust_api(request.soname, campaign_config(request));
      if (!derived.ok()) return reject(derived.error().message);
      campaign = std::move(derived).take();
      campaign_ptr = &campaign;
      response.probes = campaign.total_probes();
      builder.add(gen::prototype_gen())
          .add(wrappers::arg_check_gen())
          .add(gen::call_counter_gen())
          .add(gen::caller_gen());
      break;
    }
    case BundleKind::kSecurity:
      builder.add(gen::prototype_gen())
          .add(wrappers::heap_canary_gen())
          .add(wrappers::stack_guard_gen())
          .add(gen::caller_gen());
      break;
    case BundleKind::kProfiling:
      for (const auto& g : wrappers::fig3_generators()) builder.add(g);
      break;
    case BundleKind::kRepair: {
      // Repair bundles derive the campaign AND the policy server-side, so a
      // warm fleet ships repaired wrappers with zero client-side probes.
      auto derived = toolkit_.derive_robust_api(request.soname, campaign_config(request));
      if (!derived.ok()) return reject(derived.error().message);
      campaign = std::move(derived).take();
      campaign_ptr = &campaign;
      response.probes = campaign.total_probes();
      auto policy = toolkit_.derive_repair_policy(request.soname, campaign_config(request));
      if (!policy.ok()) return reject(policy.error().message);
      builder.add(gen::prototype_gen())
          .add(wrappers::repair_gen(
              std::make_shared<const gen::RepairPolicy>(std::move(policy).take())))
          .add(gen::call_counter_gen())
          .add(gen::caller_gen());
      break;
    }
  }
  auto source = toolkit_.wrapper_source(request.soname, builder, campaign_ptr);
  if (!source.ok()) return reject(source.error().message);
  response.payload = std::move(source).take();
  return response;
}

void DeriveServer::answer(Ticket ticket, std::shared_ptr<const std::string> response) {
  std::lock_guard lock(responses_mutex_);
  responses_[ticket] = std::move(response);
}

void DeriveServer::drain() {
  // Claim everything queued right now; later submits wait for the next drain.
  std::vector<Pending> claimed;
  for (auto& shard : queues_) {
    std::lock_guard lock(shard->mutex);
    while (!shard->queue.empty()) {
      claimed.push_back(std::move(shard->queue.front()));
      shard->queue.pop_front();
    }
  }
  if (claimed.empty()) return;
  // Canonical order: by ticket, i.e. submission order — so flight grouping
  // and every counter below are independent of shard count and worker count.
  std::sort(claimed.begin(), claimed.end(),
            [](const Pending& a, const Pending& b) { return a.ticket < b.ticket; });

  std::vector<Flight> flights;
  std::map<std::string, std::size_t> flight_index;
  for (Pending& pending : claimed) {
    auto request = DeriveRequest::decode(pending.bytes);
    if (!request.ok()) {
      // Undecodable requests get an immediate XML error envelope; there is
      // no key to deduplicate or cache them under.
      DeriveResponse response;
      response.status = ResponseStatus::kError;
      response.error = request.error().message;
      answer(pending.ticket,
             std::make_shared<const std::string>(response.encode(WireFormat::kXml)));
      answered_error_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    std::string key = request.value().canonical_key();
    {
      std::lock_guard lock(responses_mutex_);
      const auto cached = response_cache_.find(key);
      if (cached != response_cache_.end()) {
        responses_[pending.ticket] = cached->second;
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        answered_ok_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
    }
    const auto [it, inserted] = flight_index.try_emplace(std::move(key), flights.size());
    if (inserted) {
      Flight flight;
      flight.request = std::move(request).take();
      flight.key = it->first;
      flight.tickets.push_back(pending.ticket);
      flights.push_back(std::move(flight));
    } else {
      // Single flight: this request is satisfied by the computation already
      // scheduled for its key — no second campaign, no second encode.
      flights[it->second].tickets.push_back(pending.ticket);
      deduped_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // One task per unique key; heavy keys (cold campaigns) steal-balance
  // against cheap ones (warm encodes) on the pool.
  std::vector<support::ThreadPool::Task> tasks;
  tasks.reserve(flights.size());
  for (Flight& flight : flights) {
    tasks.push_back([this, &flight](unsigned /*worker*/) {
      const auto start = std::chrono::steady_clock::now();
      const DeriveResponse response = serve(flight.request);
      flight.ok = response.status == ResponseStatus::kOk;
      flight.payload_bytes = response.payload.size();
      flight.response =
          std::make_shared<const std::string>(response.encode(flight.request.format));
      flight.wall_micros = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                                start)
              .count());
    });
  }
  if (!tasks.empty()) {
    const unsigned workers =
        config_.workers == 0 ? support::ThreadPool::hardware_workers() : config_.workers;
    support::ThreadPool pool(workers);
    pool.run(std::move(tasks));
  }

  // Fold in canonical flight order; every count and sketch sample below is a
  // pure function of the submission trace.
  for (Flight& flight : flights) {
    {
      std::lock_guard lock(responses_mutex_);
      for (const Ticket ticket : flight.tickets) responses_[ticket] = flight.response;
      if (flight.ok) response_cache_[flight.key] = flight.response;
    }
    const auto n = static_cast<std::uint64_t>(flight.tickets.size());
    if (flight.ok) {
      answered_ok_.fetch_add(n, std::memory_order_relaxed);
    } else {
      answered_error_.fetch_add(n, std::memory_order_relaxed);
    }
    std::lock_guard metrics(metrics_mutex_);
    if (flight.request.endpoint == Endpoint::kDerive) {
      derive_bytes_.add(flight.payload_bytes);
      derive_wall_micros_.add(flight.wall_micros);
    } else {
      bundle_bytes_.add(flight.payload_bytes);
      bundle_wall_micros_.add(flight.wall_micros);
    }
  }
}

std::shared_ptr<const std::string> DeriveServer::response(Ticket ticket) const {
  std::lock_guard lock(responses_mutex_);
  const auto it = responses_.find(ticket);
  return it == responses_.end() ? nullptr : it->second;
}

std::shared_ptr<const std::string> DeriveServer::take_response(Ticket ticket) {
  std::lock_guard lock(responses_mutex_);
  const auto it = responses_.find(ticket);
  if (it == responses_.end()) return nullptr;
  auto blob = std::move(it->second);
  responses_.erase(it);
  return blob;
}

std::uint64_t DeriveServer::pending() const {
  std::uint64_t n = 0;
  for (const auto& shard : queues_) {
    std::lock_guard lock(shard->mutex);
    n += shard->queue.size();
  }
  return n;
}

ServerStats DeriveServer::stats() const {
  ServerStats stats;
  stats.submitted = submitted_.load();
  stats.answered_ok = answered_ok_.load();
  stats.answered_error = answered_error_.load();
  stats.shed = shed_.load();
  stats.answered = stats.answered_ok + stats.answered_error;
  stats.pending = pending();
  stats.deduped = deduped_.load();
  stats.cache_hits = cache_hits_.load();
  std::lock_guard metrics(metrics_mutex_);
  stats.queue_depth_p50 = queue_depth_.quantile(0.50);
  stats.queue_depth_p95 = queue_depth_.quantile(0.95);
  stats.queue_depth_p99 = queue_depth_.quantile(0.99);
  stats.derive_bytes_p50 = derive_bytes_.quantile(0.50);
  stats.derive_bytes_p95 = derive_bytes_.quantile(0.95);
  stats.derive_bytes_p99 = derive_bytes_.quantile(0.99);
  stats.bundle_bytes_p50 = bundle_bytes_.quantile(0.50);
  stats.bundle_bytes_p95 = bundle_bytes_.quantile(0.95);
  stats.bundle_bytes_p99 = bundle_bytes_.quantile(0.99);
  return stats;
}

std::uint64_t DeriveServer::wall_latency_micros(Endpoint endpoint, double q) const {
  std::lock_guard metrics(metrics_mutex_);
  return endpoint == Endpoint::kDerive ? derive_wall_micros_.quantile(q)
                                       : bundle_wall_micros_.quantile(q);
}

std::string ServerStats::render() const {
  std::ostringstream out;
  out << "derive service summary\n";
  out << "  requests: " << submitted << " submitted, " << answered << " answered, " << shed
      << " shed, " << pending << " pending\n";
  out << "  responses: " << answered_ok << " ok, " << answered_error << " error\n";
  out << "  single-flight: " << deduped << " deduped, " << cache_hits << " response-cache hits\n";
  render_quantiles(out, "queue depth at admission", queue_depth_p50, queue_depth_p95,
                   queue_depth_p99);
  render_quantiles(out, "derive payload bytes", derive_bytes_p50, derive_bytes_p95,
                   derive_bytes_p99);
  render_quantiles(out, "bundle payload bytes", bundle_bytes_p50, bundle_bytes_p95,
                   bundle_bytes_p99);
  return out.str();
}

}  // namespace healers::server
