// Hardening-as-a-service, end to end: a multi-client load generator in
// front of one DeriveServer.
//
// Eight client threads each fire a burst of requests at the service —
// mostly the SAME derive request (the thundering-herd case: every host in a
// fleet asking for libsimio's robust API at once), plus a couple of wrapper
// bundle requests. The server groups the herd into one single flight, runs
// exactly one campaign, and answers every ticket with shared bytes; a
// second, "restarted" server warmed from the serialized spec cache answers
// the same trace with zero probes.
//
// Build & run:  cmake --build build -j --target derive_service_demo
//               ./build/examples/derive_service_demo
#include <cassert>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/toolkit.hpp"
#include "server/derive_server.hpp"
#include "server/protocol.hpp"
#include "server/spec_cache.hpp"

using namespace healers;

namespace {

constexpr int kClients = 8;
constexpr int kRequestsPerClient = 4;

server::DeriveRequest derive_request() {
  server::DeriveRequest request;
  request.soname = "libsimio.so.1";
  request.seed = 21;
  request.variants = 1;
  request.format = server::WireFormat::kBinary;
  return request;
}

// One client's burst: the shared derive request, then a bundle of its own.
std::vector<server::DeriveServer::Ticket> run_client(server::DeriveServer& srv, int client) {
  std::vector<server::DeriveServer::Ticket> tickets;
  for (int i = 0; i < kRequestsPerClient - 1; ++i) {
    tickets.push_back(srv.submit(derive_request().encode()));
  }
  auto bundle = derive_request();
  bundle.endpoint = server::Endpoint::kBundle;
  bundle.bundle = client % 2 == 0 ? server::BundleKind::kSecurity : server::BundleKind::kProfiling;
  tickets.push_back(srv.submit(bundle.encode()));
  return tickets;
}

std::uint64_t serve_concurrently(const core::Toolkit& toolkit, const char* label) {
  server::ServerConfig config;
  config.workers = 4;
  server::DeriveServer srv(toolkit, config);

  std::vector<std::vector<server::DeriveServer::Ticket>> tickets(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&srv, &tickets, c] { tickets[c] = run_client(srv, c); });
  }
  for (auto& client : clients) client.join();
  srv.drain();

  // Every ticket is answered, and the herd's tickets all share one response.
  std::shared_ptr<const std::string> herd_bytes;
  for (const auto& per_client : tickets) {
    for (const auto ticket : per_client) {
      const auto bytes = srv.response(ticket);
      assert(bytes != nullptr);
      const auto response = server::DeriveResponse::decode(*bytes);
      assert(response.ok() && response.value().status == server::ResponseStatus::kOk);
      (void)response;
      if (*bytes == *srv.response(tickets[0][0])) herd_bytes = bytes;
    }
  }
  assert(herd_bytes != nullptr);

  std::printf("--- %s ---\n%s\n", label, srv.render_summary().c_str());
  return toolkit.probes_executed();
}

}  // namespace

int main() {
  std::printf("derive_service_demo: %d clients x %d requests\n\n", kClients, kRequestsPerClient);

  // Cold service: the herd triggers exactly one campaign (single flight).
  core::Toolkit toolkit;
  const std::uint64_t cold_probes = serve_concurrently(toolkit, "cold server");
  std::printf("probes executed: %llu (one campaign, despite %d identical requests)\n\n",
              static_cast<unsigned long long>(cold_probes), kClients * (kRequestsPerClient - 1));
  assert(cold_probes > 0);

  // Restarted service: warm a fresh toolkit from the serialized spec cache;
  // the same trace now costs zero probes.
  server::CacheImage cache;
  cache.campaigns = toolkit.export_campaigns();
  const std::string image = server::encode_cache_file(cache);
  core::Toolkit restarted;
  const auto entries = server::decode_cache_file(image);
  assert(entries.ok());
  const std::size_t admitted = restarted.import_campaigns(entries.value().campaigns);
  std::printf("spec cache: %zu bytes on the wire, %zu entries admitted\n\n", image.size(),
              admitted);
  const std::uint64_t warm_probes = serve_concurrently(restarted, "restarted server, cache-warmed");
  std::printf("probes executed after restart: %llu\n",
              static_cast<unsigned long long>(warm_probes));
  assert(warm_probes == 0);

  std::printf("\ndone: single-flight held cold cost to one campaign; the cache file held the\n"
              "restarted server to zero.\n");
  return 0;
}
