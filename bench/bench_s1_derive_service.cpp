// Experiment S1 — the derivation service (ISSUE 5: hardening-as-a-service).
//
// Regenerates: a request trace (derive + bundle endpoints, XML and binary
// envelopes, across all three stock libraries) served by a DeriveServer in
// three warmth tiers:
//
//   cold            fresh toolkit, every campaign actually runs probes
//   warm            same server answering the trace again (response cache)
//   cache-file-warm fresh toolkit preloaded from a serialized spec cache —
//                   the "server restarted overnight" case: zero probes, but
//                   full decode/serve/encode work
//
// Expected shape: warm >> cache-file-warm >> cold in requests/sec; the gap
// between cold and cache-file-warm is exactly the campaign cost the
// persistent cache saves, and the summary line proves each tier served the
// identical trace (same counters) at its own probe cost.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/toolkit.hpp"
#include "server/derive_server.hpp"
#include "server/protocol.hpp"
#include "server/spec_cache.hpp"

using namespace healers;

namespace {

constexpr unsigned kClients = 8;
constexpr unsigned kRequestsPerClient = 16;  // 128 requests per drain

// The shared submission trace: a pure function of nothing, so every tier
// and every iteration serves identical bytes.
const std::vector<std::string>& trace() {
  static const std::vector<std::string> requests = [] {
    const std::vector<std::string> sonames = {"libsimm.so.1", "libsimio.so.1", "libsimc.so.1"};
    const std::vector<server::BundleKind> bundles = {server::BundleKind::kProfiling,
                                                     server::BundleKind::kSecurity,
                                                     server::BundleKind::kRobustness};
    std::vector<std::string> out;
    std::size_t n = 0;
    for (unsigned client = 0; client < kClients; ++client) {
      for (unsigned request = 0; request < kRequestsPerClient; ++request, ++n) {
        server::DeriveRequest req;
        req.soname = sonames[n % sonames.size()];
        req.seed = 21;
        req.variants = 1;
        if (n % 4 == 3) {
          req.endpoint = server::Endpoint::kBundle;
          req.bundle = bundles[(n / 4) % bundles.size()];
        }
        req.format = n % 2 == 1 ? server::WireFormat::kBinary : server::WireFormat::kXml;
        out.push_back(req.encode());
      }
    }
    return out;
  }();
  return requests;
}

std::uint64_t serve_trace(server::DeriveServer& srv) {
  for (const auto& bytes : trace()) srv.submit(std::string(bytes));
  srv.drain();
  return srv.stats().answered_ok;
}

// The serialized spec cache a cold run would leave behind — what a restarted
// server loads from disk.
const std::vector<core::CachedCampaign>& cache_entries() {
  static const std::vector<core::CachedCampaign> entries = [] {
    core::Toolkit toolkit;
    server::DeriveServer srv(toolkit, {});
    serve_trace(srv);
    server::CacheImage cache;
    cache.campaigns = toolkit.export_campaigns();
    const std::string image = server::encode_cache_file(cache);
    return server::decode_cache_file(image).value().campaigns;
  }();
  return entries;
}

void print_headline() {
  std::printf("==== S1: derivation service (cold / warm / cache-file-warm) ====\n\n");
  core::Toolkit toolkit;
  server::ServerConfig config;
  config.workers = 0;  // all cores
  server::DeriveServer srv(toolkit, config);
  serve_trace(srv);
  const std::uint64_t cold_probes = toolkit.probes_executed();
  serve_trace(srv);  // warm pass: all response-cache hits, zero new probes
  std::printf("%s  probes: %llu cold, %llu after warm pass\n\n", srv.render_summary().c_str(),
              static_cast<unsigned long long>(cold_probes),
              static_cast<unsigned long long>(toolkit.probes_executed()));
}

void BM_ServeCold(benchmark::State& state) {
  const auto workers = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    core::Toolkit toolkit;
    server::ServerConfig config;
    config.workers = workers;
    server::DeriveServer srv(toolkit, config);
    benchmark::DoNotOptimize(serve_trace(srv));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(trace().size()));
}

void BM_ServeWarm(benchmark::State& state) {
  core::Toolkit toolkit;
  server::ServerConfig config;
  config.workers = static_cast<unsigned>(state.range(0));
  server::DeriveServer srv(toolkit, config);
  serve_trace(srv);  // warm the response cache outside the timed region
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve_trace(srv));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(trace().size()));
}

void BM_ServeCacheFileWarm(benchmark::State& state) {
  const auto& entries = cache_entries();
  const auto workers = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    core::Toolkit toolkit;
    toolkit.import_campaigns(entries);
    server::ServerConfig config;
    config.workers = workers;
    server::DeriveServer srv(toolkit, config);
    benchmark::DoNotOptimize(serve_trace(srv));
    if (toolkit.probes_executed() != 0) state.SkipWithError("cache-warm run executed probes");
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(trace().size()));
}

}  // namespace

BENCHMARK(BM_ServeCold)->Unit(benchmark::kMillisecond)->Arg(1)->Arg(0);   // 0 = all cores
BENCHMARK(BM_ServeWarm)->Unit(benchmark::kMillisecond)->Arg(1)->Arg(0);
BENCHMARK(BM_ServeCacheFileWarm)->Unit(benchmark::kMillisecond)->Arg(1)->Arg(0);

int main(int argc, char** argv) {
  print_headline();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
