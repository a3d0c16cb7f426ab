// Derivation-service tests (ISSUE 5): the campaign binary codec, the
// persistent spec cache, the request/response protocol, and the DeriveServer
// itself — single-flight dedup, admission control with shed accounting, and
// the FleetCollector determinism discipline (byte-identical responses and
// summaries for any worker count).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/toolkit.hpp"
#include "fleet/wire.hpp"
#include "server/codec.hpp"
#include "server/derive_server.hpp"
#include "server/protocol.hpp"
#include "server/spec_cache.hpp"
#include "xml/xml.hpp"

namespace healers::server {
namespace {

using fleet::record::decode;

injector::InjectorConfig quick_config() {
  injector::InjectorConfig config;
  config.seed = 21;
  config.variants = 1;
  return config;
}

// A derive request pinned to the same campaign quick_config() runs.
DeriveRequest quick_request(const std::string& soname, WireFormat format = WireFormat::kXml) {
  DeriveRequest request;
  request.soname = soname;
  request.seed = 21;
  request.variants = 1;
  request.format = format;
  return request;
}

// A campaign document in either wire format: binary by magic, else XML.
Result<injector::CampaignResult> decode_campaign(std::string_view payload) {
  if (fleet::record::sniff(payload) == fleet::record::Kind::kCampaign) {
    return decode<injector::CampaignResult>(payload);
  }
  return injector::CampaignResult::from_xml(payload);
}

struct ServerFixture : ::testing::Test {
  core::Toolkit toolkit;
};

// --- campaign binary codec -------------------------------------------------

TEST_F(ServerFixture, CampaignBinaryRoundTripMatchesXml) {
  const auto campaign = toolkit.derive_robust_api("libsimio.so.1", quick_config());
  ASSERT_TRUE(campaign.ok());

  const std::string binary = encode_campaign_binary(campaign.value());
  ASSERT_EQ(fleet::record::sniff(binary), fleet::record::Kind::kCampaign);
  const auto decoded = decode<injector::CampaignResult>(binary);
  ASSERT_TRUE(decoded.ok());
  // The XML image is the campaign's canonical fingerprint: equal XML means
  // every spec, check, range, and verdict survived the binary round trip.
  EXPECT_EQ(xml::serialize(decoded.value().to_xml()), xml::serialize(campaign.value().to_xml()));

  // Encoding is deterministic, and much denser than the XML document.
  EXPECT_EQ(encode_campaign_binary(decoded.value()), binary);
  EXPECT_LT(binary.size(), xml::serialize(campaign.value().to_xml()).size());
}

TEST_F(ServerFixture, CampaignSniffingDecoderTakesBothFormats) {
  const auto campaign = toolkit.derive_robust_api("libsimm.so.1", quick_config());
  ASSERT_TRUE(campaign.ok());
  const auto from_binary = decode_campaign(encode_campaign_binary(campaign.value()));
  const auto from_xml = decode_campaign(xml::serialize(campaign.value().to_xml()));
  ASSERT_TRUE(from_binary.ok());
  ASSERT_TRUE(from_xml.ok());
  EXPECT_EQ(xml::serialize(from_binary.value().to_xml()),
            xml::serialize(from_xml.value().to_xml()));
}

TEST_F(ServerFixture, CampaignBinaryDecoderIsStrict) {
  const auto campaign = toolkit.derive_robust_api("libsimm.so.1", quick_config());
  ASSERT_TRUE(campaign.ok());
  const std::string binary = encode_campaign_binary(campaign.value());

  EXPECT_FALSE(decode<injector::CampaignResult>("").ok());
  EXPECT_FALSE(decode<injector::CampaignResult>("HDB1 not a campaign").ok());
  // Every proper prefix is truncated, never a partial campaign.
  for (std::size_t len = 0; len < binary.size(); len += 17) {
    EXPECT_FALSE(decode<injector::CampaignResult>(std::string_view(binary).substr(0, len)).ok());
  }
  EXPECT_FALSE(decode<injector::CampaignResult>(binary + "x").ok())
      << "trailing bytes must be rejected";
}

// --- persistent spec cache ---------------------------------------------------

TEST_F(ServerFixture, CacheEntryRoundTrip) {
  ASSERT_TRUE(toolkit.derive_robust_api("libsimio.so.1", quick_config()).ok());
  const auto exported = toolkit.export_campaigns();
  ASSERT_EQ(exported.size(), 1u);

  const std::string payload = fleet::record::encode(exported[0]);
  const auto decoded = decode<core::CachedCampaign>(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().key, exported[0].key);
  EXPECT_EQ(decoded.value().key.soname, "libsimio.so.1");
  EXPECT_EQ(decoded.value().key.params.seed, 21u);
  EXPECT_EQ(decoded.value().key.params.variants, 1);
  EXPECT_EQ(xml::serialize(decoded.value().value.to_xml()),
            xml::serialize(exported[0].value.to_xml()));

  EXPECT_FALSE(decode<core::CachedCampaign>(payload.substr(0, payload.size() / 2)).ok());
  EXPECT_FALSE(decode<core::CachedCampaign>("HFB1 something else").ok());
}

TEST_F(ServerFixture, CacheFileWarmsAFreshToolkitToZeroProbes) {
  ASSERT_TRUE(toolkit.derive_robust_api("libsimio.so.1", quick_config()).ok());
  ASSERT_TRUE(toolkit.derive_robust_api("libsimm.so.1", quick_config()).ok());
  const std::string path = ::testing::TempDir() + "healers_spec_cache_test.hsc";
  ASSERT_TRUE(save_cache_file(toolkit, path).ok());

  core::Toolkit fresh;
  const auto imported = load_cache_file(fresh, path);
  ASSERT_TRUE(imported.ok());
  EXPECT_EQ(imported.value(), 2u);
  ASSERT_TRUE(fresh.derive_robust_api("libsimio.so.1", quick_config()).ok());
  ASSERT_TRUE(fresh.derive_robust_api("libsimm.so.1", quick_config()).ok());
  EXPECT_EQ(fresh.probes_executed(), 0u);
  std::remove(path.c_str());
}

TEST_F(ServerFixture, CacheFileImageIsDeterministicAndStrict) {
  ASSERT_TRUE(toolkit.derive_robust_api("libsimm.so.1", quick_config()).ok());
  CacheImage cache;
  cache.campaigns = toolkit.export_campaigns();
  const std::string image = encode_cache_file(cache);
  EXPECT_EQ(encode_cache_file(cache), image);
  const auto decoded = decode_cache_file(image);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().campaigns.size(), 1u);

  EXPECT_FALSE(decode_cache_file("not a stream").ok());
  EXPECT_FALSE(decode_cache_file(image.substr(0, image.size() - 3)).ok());
  EXPECT_FALSE(load_cache_file(toolkit, "/nonexistent/healers.hsc").ok());
}

// Forward compatibility: a payload whose magic this build does not know (an
// entry kind a NEWER writer added) is skipped and counted, never fatal.
TEST_F(ServerFixture, UnknownCacheEntryMagicIsSkippedNotFatal) {
  ASSERT_TRUE(toolkit.derive_robust_api("libsimm.so.1", quick_config()).ok());
  const std::string path = ::testing::TempDir() + "healers_forward_compat.hsc";
  ASSERT_TRUE(save_cache_file(toolkit, path).ok());

  // Splice two alien entries into the stream, as a future writer would.
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto documents = fleet::unframe_stream(buffer.str());
  ASSERT_TRUE(documents.ok());
  auto spliced = documents.value();
  spliced.insert(spliced.begin(), "HSQQ1 an entry kind from the future");
  spliced.push_back("HSZZ7\x01\x02\x03");
  {
    std::ofstream out(path, std::ios::binary);
    out << fleet::frame_stream(spliced);
  }

  core::Toolkit fresh;
  std::size_t skipped = 0;
  const auto imported = load_cache_file(fresh, path, &skipped);
  ASSERT_TRUE(imported.ok());
  EXPECT_EQ(imported.value(), 1u);  // the campaign still loads
  EXPECT_EQ(skipped, 2u);
  ASSERT_TRUE(fresh.derive_robust_api("libsimm.so.1", quick_config()).ok());
  EXPECT_EQ(fresh.probes_executed(), 0u);
  std::remove(path.c_str());
}

// HSSP1 surface-scope entries persist through the same file and admit under
// the same fingerprint discipline as campaigns.
TEST_F(ServerFixture, SurfaceScopesPersistThroughTheCacheFile) {
  core::SurfaceScope scope;
  scope.executable = "netd";
  scope.soname = "libsimc.so.1";
  scope.symbols = {"strcpy", "strlen"};
  ASSERT_TRUE(toolkit.install_surface_scope(scope));

  const std::string payload = fleet::record::encode(toolkit.export_surface_scopes().front());
  const auto round = decode<core::SurfaceScope>(payload);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value(), toolkit.export_surface_scopes().front());
  EXPECT_FALSE(decode<core::SurfaceScope>(payload.substr(0, payload.size() - 1)).ok());
  EXPECT_FALSE(decode<core::SurfaceScope>(payload + "x").ok());

  const std::string path = ::testing::TempDir() + "healers_surface_scopes.hsc";
  ASSERT_TRUE(save_cache_file(toolkit, path).ok());
  core::Toolkit fresh;
  ASSERT_TRUE(load_cache_file(fresh, path).ok());
  const std::vector<std::string> expected = {"strcpy", "strlen"};
  EXPECT_EQ(fresh.surface_scope_for("libsimc.so.1"), expected);
  std::remove(path.c_str());
}

// --- request/response protocol ----------------------------------------------

TEST(ServerProtocol, RequestRoundTripsInBothFormats) {
  DeriveRequest request;
  request.endpoint = Endpoint::kBundle;
  request.soname = "libsimc.so.1";
  request.seed = 7;
  request.variants = 3;
  request.probe_step_budget = 12345;
  request.testbed_heap = 4096;
  request.testbed_stack = 2048;
  request.bundle = BundleKind::kSecurity;

  for (const WireFormat format : {WireFormat::kXml, WireFormat::kBinary}) {
    request.format = format;
    const auto decoded = DeriveRequest::decode(request.encode());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().canonical_key(), request.canonical_key());
    EXPECT_EQ(decoded.value().format, format);
    EXPECT_EQ(decoded.value().soname, request.soname);
    EXPECT_EQ(decoded.value().bundle, request.bundle);
  }
}

TEST(ServerProtocol, CanonicalKeySeparatesEveryResultAffectingField) {
  const DeriveRequest base = [] {
    DeriveRequest r;
    r.soname = "libsimm.so.1";
    return r;
  }();
  auto key = [](DeriveRequest r) { return r.canonical_key(); };
  std::vector<DeriveRequest> variants(8, base);
  variants[0].endpoint = Endpoint::kBundle;
  variants[1].soname = "libsimio.so.1";
  variants[2].seed = 43;
  variants[3].variants = 9;
  variants[4].probe_step_budget = 1;
  variants[5].testbed_heap = 1;
  variants[6].testbed_stack = 1;
  variants[7].format = WireFormat::kBinary;  // format changes the bytes served
  std::map<std::string, int> keys;
  keys[key(base)] = 1;
  for (const auto& v : variants) ++keys[key(v)];
  EXPECT_EQ(keys.size(), 9u) << "every field must feed the single-flight key";
}

TEST(ServerProtocol, ResponseRoundTripsAndDecoderIsStrict) {
  DeriveResponse response;
  response.status = ResponseStatus::kOk;
  response.probes = 777;
  response.payload = "generated C source\nline two\n";
  for (const WireFormat format : {WireFormat::kXml, WireFormat::kBinary}) {
    const auto decoded = DeriveResponse::decode(response.encode(format));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().status, ResponseStatus::kOk);
    EXPECT_EQ(decoded.value().probes, 777u);
    if (format == WireFormat::kBinary) {
      EXPECT_EQ(decoded.value().payload, response.payload);
    }
  }

  EXPECT_FALSE(DeriveRequest::decode("HRQ1").ok());
  EXPECT_FALSE(DeriveRequest::decode("<wrong-element/>").ok());
  EXPECT_FALSE(DeriveRequest::decode("not xml at all").ok());
  EXPECT_FALSE(DeriveResponse::decode(std::string(kResponseMagic)).ok());
  const std::string binary = response.encode(WireFormat::kBinary);
  EXPECT_FALSE(DeriveResponse::decode(binary.substr(0, binary.size() - 2)).ok());
}

// Numbers in an XML request or response are strict: an absent one keeps its
// default, while a garbled, signed or too-large one fails the decode instead
// of reading as a default or a wrapped value.
constexpr const char* kBadRequestNumbers[] = {
    R"(seed="x")",               // garbled: must not read as the default seed 42
    R"(seed="-5")",              // signed: must not wrap to 2^64 - 5
    R"(variants="4294967296")",  // wider than the u32 HRQ1 field
    R"(variants="4294967295")",  // fits the u32 but would wrap the int field to -1
    R"(variants="2147483648")",  // fits the u32 but would wrap the int field to INT_MIN
};

std::string xml_request(const std::string& attrs) {
  return R"(<derive-request soname="libsimm.so.1" )" + attrs + "/>";
}

TEST(ServerProtocol, RequestNumbersAreStrict) {
  const auto defaults = DeriveRequest::decode(xml_request(""));
  ASSERT_TRUE(defaults.ok());
  DeriveRequest want;
  want.soname = "libsimm.so.1";
  EXPECT_EQ(defaults.value().canonical_key(), want.canonical_key());
  const auto widest = DeriveRequest::decode(xml_request(R"(seed="18446744073709551615")"));
  ASSERT_TRUE(widest.ok());
  EXPECT_EQ(widest.value().seed, 18446744073709551615ULL);
  const auto most_variants = DeriveRequest::decode(xml_request(R"(variants="2147483647")"));
  ASSERT_TRUE(most_variants.ok());
  const auto again = DeriveRequest::from_xml(xml::serialize(most_variants.value().to_xml()));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().variants, 2147483647);

  for (const char* attrs : kBadRequestNumbers) {
    const auto decoded = DeriveRequest::decode(xml_request(attrs));
    ASSERT_FALSE(decoded.ok()) << attrs;
    EXPECT_NE(decoded.error().message.find(attrs), std::string::npos) << decoded.error().message;
  }
}

TEST(ServerProtocol, ResponseProbesAreStrict) {
  const auto ok = DeriveResponse::decode(R"(<derive-response status="ok" probes="7"/>)");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().probes, 7u);
  EXPECT_EQ(DeriveResponse::decode(R"(<derive-response status="ok"/>)").value().probes, 0u);
  EXPECT_FALSE(DeriveResponse::decode(R"(<derive-response status="ok" probes="-1"/>)").ok());
}

// --- the server --------------------------------------------------------------

TEST_F(ServerFixture, ServesADeriveRequestEndToEnd) {
  DeriveServer server(toolkit);
  const auto ticket = server.submit(quick_request("libsimio.so.1", WireFormat::kBinary).encode());
  EXPECT_EQ(server.response(ticket), nullptr) << "no response before drain";
  server.drain();

  const auto bytes = server.response(ticket);
  ASSERT_NE(bytes, nullptr);
  const auto response = DeriveResponse::decode(*bytes);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, ResponseStatus::kOk);

  // The served campaign is the same one a direct toolkit call derives.
  const auto direct = toolkit.derive_robust_api("libsimio.so.1", quick_config());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(response.value().probes, direct.value().total_probes());
  const auto campaign = decode_campaign(response.value().payload);
  ASSERT_TRUE(campaign.ok());
  EXPECT_EQ(xml::serialize(campaign.value().to_xml()), xml::serialize(direct.value().to_xml()));
}

TEST_F(ServerFixture, ServesWrapperBundles) {
  DeriveServer server(toolkit);
  std::map<BundleKind, DeriveServer::Ticket> tickets;
  for (const BundleKind kind :
       {BundleKind::kRobustness, BundleKind::kSecurity, BundleKind::kProfiling}) {
    auto request = quick_request("libsimm.so.1");
    request.endpoint = Endpoint::kBundle;
    request.bundle = kind;
    tickets[kind] = server.submit(request.encode());
  }
  server.drain();
  for (const auto& [kind, ticket] : tickets) {
    const auto bytes = server.response(ticket);
    ASSERT_NE(bytes, nullptr);
    const auto response = DeriveResponse::decode(*bytes);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, ResponseStatus::kOk) << response.value().error;
    EXPECT_NE(response.value().payload.find("double sin(double a1)"), std::string::npos)
        << "bundle source must carry the wrapped prototypes";
  }
  // Only the robustness bundle needs a campaign; the others run zero probes.
  EXPECT_GT(toolkit.probes_executed(), 0u);
}

TEST_F(ServerFixture, SingleFlightMergesConcurrentIdenticalRequests) {
  // Baseline: one campaign's probes, measured on an independent toolkit.
  core::Toolkit baseline;
  ASSERT_TRUE(baseline.derive_robust_api("libsimio.so.1", quick_config()).ok());
  const std::uint64_t one_campaign = baseline.probes_executed();
  ASSERT_GT(one_campaign, 0u);

  ServerConfig config;
  config.workers = 4;
  DeriveServer server(toolkit, config);
  constexpr int kClients = 9;
  std::vector<DeriveServer::Ticket> tickets;
  for (int i = 0; i < kClients; ++i) {
    tickets.push_back(server.submit(quick_request("libsimio.so.1").encode()));
  }
  server.drain();

  // Exactly ONE campaign ran for the nine queued requests...
  EXPECT_EQ(toolkit.probes_executed(), one_campaign);
  const auto stats = server.stats();
  EXPECT_EQ(stats.deduped, static_cast<std::uint64_t>(kClients - 1));
  EXPECT_EQ(stats.answered_ok, static_cast<std::uint64_t>(kClients));
  // ...and every ticket shares the same immutable response bytes.
  const auto first = server.response(tickets.front());
  ASSERT_NE(first, nullptr);
  for (const auto ticket : tickets) EXPECT_EQ(server.response(ticket), first);
}

TEST_F(ServerFixture, WarmDrainServesFromResponseCacheWithZeroProbes) {
  DeriveServer server(toolkit);
  const auto cold = server.submit(quick_request("libsimio.so.1").encode());
  server.drain();
  const std::uint64_t after_cold = toolkit.probes_executed();

  const auto warm = server.submit(quick_request("libsimio.so.1").encode());
  server.drain();
  EXPECT_EQ(toolkit.probes_executed(), after_cold) << "warm request must execute zero probes";
  EXPECT_EQ(server.stats().cache_hits, 1u);
  EXPECT_EQ(*server.response(warm), *server.response(cold));
}

TEST_F(ServerFixture, MalformedRequestsAnswerWithErrorsNotSilence) {
  DeriveServer server(toolkit);
  const auto garbage = server.submit("neither xml nor binary");
  const auto unknown = server.submit(quick_request("libnope.so.9").encode());
  server.drain();

  for (const auto ticket : {garbage, unknown}) {
    const auto bytes = server.response(ticket);
    ASSERT_NE(bytes, nullptr);
    const auto response = DeriveResponse::decode(*bytes);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, ResponseStatus::kError);
    EXPECT_FALSE(response.value().error.empty());
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.answered_error, 2u);
  EXPECT_EQ(stats.submitted, stats.answered + stats.shed + stats.pending);
}

TEST_F(ServerFixture, MalformedRequestNumbersAnswerWithErrorEnvelopes) {
  DeriveServer server(toolkit);
  std::vector<DeriveServer::Ticket> tickets;
  for (const char* attrs : kBadRequestNumbers) tickets.push_back(server.submit(xml_request(attrs)));
  server.drain();

  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const auto bytes = server.response(tickets[i]);
    ASSERT_NE(bytes, nullptr);
    const auto response = DeriveResponse::decode(*bytes);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, ResponseStatus::kError) << kBadRequestNumbers[i];
    EXPECT_NE(response.value().error.find("malformed attribute"), std::string::npos)
        << response.value().error;
  }
  EXPECT_EQ(server.stats().answered_error, tickets.size());
  EXPECT_EQ(toolkit.probes_executed(), 0u) << "no campaign may run for an undecodable request";
}

// A megabyte of nested elements under a request is a positional error
// answered with the error envelope, not a stack overflow.
TEST_F(ServerFixture, DeeplyNestedRequestAnswersWithAnErrorEnvelope) {
  std::string deep = R"(<derive-request soname="libsimm.so.1">)";
  while (deep.size() < (1u << 20)) deep += "<a>";
  DeriveServer server(toolkit);
  const auto ticket = server.submit(deep);
  server.drain();
  const auto bytes = server.response(ticket);
  ASSERT_NE(bytes, nullptr);
  const auto response = DeriveResponse::decode(*bytes);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, ResponseStatus::kError);
  EXPECT_NE(response.value().error.find("xml request: line 1:"), std::string::npos)
      << response.value().error;
  EXPECT_NE(response.value().error.find(": elements nested deeper than 64"), std::string::npos)
      << response.value().error;
  EXPECT_EQ(server.stats().answered_error, 1u);
  EXPECT_EQ(toolkit.probes_executed(), 0u);
}

// The binary twin of the variants bound: an HRQ1 variants word that would
// read as a negative int is a decode error, answered with the error
// envelope, while INT_MAX decodes and survives the XML round trip.
TEST_F(ServerFixture, BinaryRequestVariantsMustFitTheIntField) {
  DeriveRequest request = quick_request("libsimm.so.1", WireFormat::kBinary);
  request.variants = std::numeric_limits<int>::max();
  const std::string widest = request.encode();
  const std::string word("\xff\xff\xff\x7f", 4);
  const std::size_t at = widest.find(word);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(widest.find(word, at + 1), std::string::npos);
  const auto decoded = DeriveRequest::decode(widest);
  ASSERT_TRUE(decoded.ok());
  const auto again = DeriveRequest::from_xml(xml::serialize(decoded.value().to_xml()));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().variants, std::numeric_limits<int>::max());

  DeriveServer server(toolkit);
  std::vector<DeriveServer::Ticket> tickets;
  for (const std::string_view negative : {std::string_view("\x00\x00\x00\x80", 4),
                                          std::string_view("\xff\xff\xff\xff", 4)}) {
    std::string bad = widest;
    bad.replace(at, word.size(), negative);
    EXPECT_FALSE(DeriveRequest::decode(bad).ok());
    tickets.push_back(server.submit(bad));
  }
  server.drain();
  for (const auto ticket : tickets) {
    const auto bytes = server.response(ticket);
    ASSERT_NE(bytes, nullptr);
    const auto response = DeriveResponse::decode(*bytes);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, ResponseStatus::kError);
  }
  EXPECT_EQ(toolkit.probes_executed(), 0u) << "no campaign may run for an undecodable request";
}

TEST_F(ServerFixture, AdmissionControlShedsAndAccountsEveryRequest) {
  ServerConfig config;
  config.shards = 1;
  config.queue_capacity = 2;
  DeriveServer server(toolkit, config);

  std::vector<DeriveServer::Ticket> tickets;
  for (int i = 0; i < 5; ++i) {
    tickets.push_back(server.submit(quick_request("libsimm.so.1").encode()));
  }
  EXPECT_EQ(server.shed(), 3u);
  EXPECT_EQ(server.pending(), 2u);

  // Shed tickets are answered immediately with a decodable kShed response.
  std::size_t shed_seen = 0;
  for (const auto ticket : tickets) {
    const auto bytes = server.response(ticket);
    if (bytes == nullptr) continue;
    const auto response = DeriveResponse::decode(*bytes);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value().status, ResponseStatus::kShed);
    ++shed_seen;
  }
  EXPECT_EQ(shed_seen, 3u);
  // A full queue sheds the incoming request: the two oldest survive.
  for (const auto survivor : {tickets[0], tickets[1]}) {
    EXPECT_EQ(server.response(survivor), nullptr) << "survivors wait for the drain";
  }

  server.drain();
  const auto stats = server.stats();
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.submitted, stats.answered + stats.shed) << "no silent loss";
  EXPECT_NE(server.response(tickets[0]), nullptr);
  EXPECT_NE(server.response(tickets[1]), nullptr);
}

// Burst sheds at fleet scale (ISSUE 7): every shed ticket must hold a real
// kShed response — counted sheds and undelivered responses may never drift
// apart — and since all shed envelopes are byte-identical, they share ONE
// immutable blob (a million-victim burst allocates no per-victim response).
TEST_F(ServerFixture, BurstShedsShareOneResponseBlob) {
  ServerConfig config;
  config.shards = 1;
  config.queue_capacity = 1;
  DeriveServer server(toolkit, config);

  std::vector<DeriveServer::Ticket> tickets;
  for (int i = 0; i < 32; ++i) {
    tickets.push_back(server.submit(quick_request("libsimm.so.1").encode()));
  }
  EXPECT_EQ(server.shed(), 31u);
  server.drain();

  std::size_t shed_delivered = 0;
  const std::string* shed_blob = nullptr;
  for (const auto ticket : tickets) {
    const auto bytes = server.response(ticket);
    ASSERT_NE(bytes, nullptr) << "every ticket is answered";
    const auto response = DeriveResponse::decode(*bytes);
    ASSERT_TRUE(response.ok());
    if (response.value().status != ResponseStatus::kShed) continue;
    ++shed_delivered;
    if (shed_blob == nullptr) shed_blob = bytes.get();
    EXPECT_EQ(bytes.get(), shed_blob) << "shed responses share one blob";
  }
  EXPECT_EQ(shed_delivered, server.shed());
}

TEST_F(ServerFixture, TakeResponseBoundsTheResponseTable) {
  DeriveServer server(toolkit, {});
  const auto ticket = server.submit(quick_request("libsimm.so.1").encode());
  server.drain();
  const auto taken = server.take_response(ticket);
  ASSERT_NE(taken, nullptr);
  EXPECT_EQ(DeriveResponse::decode(*taken).value().status, ResponseStatus::kOk);
  // Retired: neither accessor sees the ticket again.
  EXPECT_EQ(server.response(ticket), nullptr);
  EXPECT_EQ(server.take_response(ticket), nullptr);
}

// The tentpole invariant: an identical submission trace replayed at worker
// counts 1, 4, and 16 yields byte-identical response bytes for every ticket
// and a byte-identical rendered summary.
TEST_F(ServerFixture, TraceReplayIsByteIdenticalForAnyWorkerCount) {
  const auto run_trace = [this](unsigned workers, std::string* concatenated) {
    ServerConfig config;
    config.workers = workers;
    config.shards = 3;
    DeriveServer server(toolkit, config);
    std::vector<DeriveServer::Ticket> tickets;
    const auto submit = [&](const std::string& bytes) { tickets.push_back(server.submit(bytes)); };

    // A messy, realistic trace: duplicates, both formats, bundles, a
    // malformed blob, an unknown library, and a second drain reusing keys.
    submit(quick_request("libsimio.so.1").encode());
    submit(quick_request("libsimm.so.1", WireFormat::kBinary).encode());
    submit(quick_request("libsimio.so.1").encode());  // dup -> single flight
    submit("HRQ1 truncated");                          // malformed
    auto bundle = quick_request("libsimm.so.1");
    bundle.endpoint = Endpoint::kBundle;
    bundle.bundle = BundleKind::kProfiling;
    submit(bundle.encode());
    submit(quick_request("libnope.so.9").encode());    // unknown library
    server.drain();
    submit(quick_request("libsimio.so.1").encode());   // response-cache hit
    submit(quick_request("libsimm.so.1", WireFormat::kBinary).encode());
    server.drain();

    concatenated->clear();
    for (const auto ticket : tickets) {
      const auto bytes = server.response(ticket);
      EXPECT_NE(bytes, nullptr);
      if (bytes != nullptr) *concatenated += *bytes;
    }
    return server.render_summary();
  };

  std::string golden_bytes;
  const std::string golden_summary = run_trace(1, &golden_bytes);
  EXPECT_NE(golden_summary.find("single-flight: 1 deduped, 2 response-cache hits"),
            std::string::npos)
      << golden_summary;
  for (const unsigned workers : {4u, 16u}) {
    std::string bytes;
    const std::string summary = run_trace(workers, &bytes);
    EXPECT_EQ(bytes, golden_bytes) << "worker count " << workers << " changed response bytes";
    EXPECT_EQ(summary, golden_summary) << "worker count " << workers << " changed the summary";
  }
}

// A restarted server warmed from a cache file answers with zero probes and
// the same bytes the original server served.
TEST_F(ServerFixture, RestartedServerWithCacheFileServesWithZeroProbes) {
  const std::string request_bytes = quick_request("libsimio.so.1", WireFormat::kBinary).encode();
  const std::string path = ::testing::TempDir() + "healers_server_restart.hsc";

  DeriveServer first_server(toolkit);
  const auto first_ticket = first_server.submit(request_bytes);
  first_server.drain();
  ASSERT_GT(toolkit.probes_executed(), 0u);
  ASSERT_TRUE(save_cache_file(toolkit, path).ok());
  const std::string first_bytes = *first_server.response(first_ticket);

  core::Toolkit restarted;
  ASSERT_TRUE(load_cache_file(restarted, path).ok());
  DeriveServer second_server(restarted);
  const auto second_ticket = second_server.submit(request_bytes);
  second_server.drain();
  EXPECT_EQ(restarted.probes_executed(), 0u);
  EXPECT_EQ(*second_server.response(second_ticket), first_bytes);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace healers::server
