// Golden wire bytes for every HEALERS binary record.
//
// Each of the eleven magics (HFB1, HDB1, HSP1, HFDS1, HCB1, HRQ1, HRS1,
// HSCE1, HSIP1, HSRP1, HSSP1) is pinned byte for byte on one small fixed
// record, and a real spec-cache image is pinned by its FNV-1a hash. These
// bytes live on disk and on the wire: a codec change that moves any of them
// is a format break, and caches written by earlier builds must keep loading.
// The seven XML twins decode the same records strictly, attribute by
// attribute (the XmlTwin cases at the end).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/toolkit.hpp"
#include "debloat/surface.hpp"
#include "fleet/collector.hpp"
#include "fleet/wire.hpp"
#include "gen/repair_policy.hpp"
#include "incident/dossier.hpp"
#include "profile/report.hpp"
#include "server/codec.hpp"
#include "server/protocol.hpp"
#include "server/spec_cache.hpp"
#include "support/rng.hpp"

namespace healers {
namespace {

// Golden bytes are written as hex pairs with 'quoted' runs of literal text;
// spaces are ignored.
std::string bytes(std::string_view spec) {
  std::string out;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    if (spec[i] == ' ') continue;
    if (spec[i] == '\'') {
      const std::size_t end = spec.find('\'', i + 1);
      out.append(spec.substr(i + 1, end - i - 1));
      i = end;
      continue;
    }
    out.push_back(static_cast<char>(std::stoi(std::string(spec.substr(i, 2)), nullptr, 16)));
    ++i;
  }
  return out;
}

// Bytes -> hex pairs, so a mismatch prints readably.
std::string hex(std::string_view data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : data) {
    out.push_back(kDigits[static_cast<unsigned char>(c) >> 4]);
    out.push_back(kDigits[static_cast<unsigned char>(c) & 0xf]);
  }
  return out;
}

// A u32 length prefix followed by the bytes, as the stream framing and
// nested documents are written.
std::string framed(std::string_view payload) {
  std::string out;
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((payload.size() >> shift) & 0xff));
  }
  out.append(payload);
  return out;
}

std::uint64_t fnv1a(std::string_view blob) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : blob) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// --- the fixed records -------------------------------------------------------

profile::ProfileReport golden_profile() {
  profile::ProfileReport report;
  report.process = "netd";
  report.wrapper = "profiling";
  profile::FunctionProfile fn;
  fn.symbol = "strcpy";
  fn.calls = 3;
  fn.cycles = 120;
  fn.contained = 1;
  fn.errno_counts = {{22, 1}};
  report.functions = {fn};
  report.global_errnos = {{-1, 2}, {22, 1}};
  return report;
}

const std::string kProfile = bytes(
    "'HFB1'"
    "04000000 'netd'"
    "09000000 'profiling'"
    "01000000"                            // functions
    "  06000000 'strcpy'"
    "  0300000000000000"                  // calls
    "  7800000000000000"                  // cycles
    "  0100000000000000"                  // contained
    "  01000000 16000000 0100000000000000"  // errno 22 x1
    "02000000"                            // global errnos
    "  ffffffff 0200000000000000"         // errno -1 x2
    "  16000000 0100000000000000");       // errno 22 x1

incident::Dossier golden_dossier() {
  incident::Dossier dossier;
  dossier.process = "victim";
  dossier.detector = simlib::DetectionKind::kHeapSmash;
  dossier.symbol = "strcpy";
  dossier.detail = "canary";
  dossier.seq = 7;
  dossier.tick = 100;
  dossier.cycles = 2000;
  dossier.fault_addr = 0x1010;
  dossier.args = {"0x1010"};
  dossier.trace = {{7, 100, 2000, 0xabcdef, 2, "strcpy"}};
  dossier.heap = {{0x1000, 0x1010, 32, true, true}};
  incident::RegionState region;
  region.base = 0x1000;
  region.size = 0x1000;
  region.perm = 3;
  region.kind = "heap";
  region.label = "[heap]";
  region.suspect = true;
  dossier.regions = {region};
  incident::RepairEvent repair;
  repair.seq = 7;
  repair.tick = 100;
  repair.action = simlib::RepairAction::kSubstituteBounded;
  repair.symbol = "strcpy";
  repair.detail = "strncpy";
  repair.fault_addr = 0x1010;
  repair.requested = 64;
  repair.granted = 32;
  dossier.repairs = {repair};
  return dossier;
}

const std::string kDossier = bytes(
    "'HDB1'"
    "06000000 'victim'"
    "01000000"                            // detector: heap smash
    "06000000 'strcpy'"
    "06000000 'canary'"
    "0700000000000000 6400000000000000"   // seq, tick
    "d007000000000000 1010000000000000"   // cycles, fault_addr
    "01000000 06000000 '0x1010'"          // args
    "01000000"                            // trace
    "  0700000000000000 6400000000000000 d007000000000000"
    "  efcdab0000000000"                  // arg digest
    "  02000000 06000000 'strcpy'"        // argc, symbol
    "00000000"                            // heap note ""
    "01000000"                            // chunks
    "  0010000000000000 1010000000000000 2000000000000000"
    "  03000000"                          // in_use | suspect
    "01000000"                            // regions
    "  0010000000000000 0010000000000000"
    "  03000000 01000000"                 // perm rw, suspect
    "  04000000 'heap' 06000000 '[heap]'"
    "01000000"                            // repairs
    "  0700000000000000 6400000000000000"
    "  01000000"                          // substitute-bounded
    "  06000000 'strcpy' 07000000 'strncpy'"
    "  1010000000000000 4000000000000000 2000000000000000");

debloat::SurfaceProfile golden_surface() {
  debloat::SurfaceProfile profile;
  profile.host = "h1";
  profile.executable = "netd";
  profile.exported = 10;
  profile.reachable = 3;
  profile.touched = 2;
  profile.trapped = 1;
  profile.resident_pages = 2;
  profile.total_pages = 5;
  profile.reachable_symbols = {"puts", "strcpy", "strlen"};
  profile.touched_symbols = {"puts", "strlen"};
  profile.trapped_symbols = {"rand"};
  return profile;
}

const std::string kSurface = bytes(
    "'HSP1'"
    "02000000 'h1' 04000000 'netd'"
    "0a00000000000000 0300000000000000"   // exported, reachable
    "0200000000000000 0100000000000000"   // touched, trapped
    "0200000000000000 0500000000000000"   // resident, total pages
    "03000000 04000000 'puts' 06000000 'strcpy' 06000000 'strlen'"
    "02000000 04000000 'puts' 06000000 'strlen'"
    "01000000 04000000 'rand'");

const std::string kStream = bytes(
    "'HFDS1' 0a"
    "02000000"
    "04000000 'HFB1'"
    "00000000");

injector::CampaignResult golden_campaign() {
  injector::CampaignResult campaign;
  campaign.library = "libsimm.so.1";
  campaign.seed = 21;

  injector::RobustSpec frexp;
  frexp.function = "frexp";
  frexp.library = "libsimm.so.1";
  frexp.declaration = "double frexp(double x, int *exp)";
  frexp.total_probes = 6;
  frexp.total_failures = 2;
  frexp.crashes = 2;
  injector::ArgSpec exp;
  exp.index = 2;
  exp.ctype = "int *";
  exp.cls = parser::TypeClass::kPointer;
  exp.checks.require_nonnull = true;
  exp.checks.require_mapped = true;
  exp.checks.require_writable = true;
  injector::TypeVerdict verdict;
  verdict.id = lattice::TestTypeId::kNull;
  verdict.probes = 1;
  verdict.failures = 1;
  verdict.crashes = 1;
  verdict.first_failure = "SIGSEGV";
  exp.verdicts = {verdict};
  frexp.args = {exp};

  injector::RobustSpec exit;
  exit.function = "exit";
  exit.library = "libsimm.so.1";
  exit.declaration = "void exit(int status)";
  exit.skipped_noreturn = true;
  injector::ArgSpec status;
  status.index = 1;
  status.ctype = "int";
  status.cls = parser::TypeClass::kIntegral;
  status.checks.range = {{-5, 5}};
  exit.args = {status};

  campaign.specs = {frexp, exit};
  return campaign;
}

const std::string kCampaign = bytes(
    "'HCB1'"
    "0c000000 'libsimm.so.1'"
    "1500000000000000"                    // seed 21
    "02000000"                            // specs
    "  05000000 'frexp' 0c000000 'libsimm.so.1'"
    "  20000000 'double frexp(double x, int *exp)'"
    "  0600000000000000 0200000000000000 0200000000000000"  // probes, failures, crashes
    "  0000000000000000 0000000000000000"  // hangs, aborts
    "  00000000"                          // flags
    "  01000000"                          // args
    "    02000000 05000000 'int *' 03000000"  // index, ctype, class pointer
    "    07000000"                        // nonnull | mapped | writable
    "    01000000"                        // verdicts
    "      01000000 01000000 01000000 01000000 00000000 00000000"
    "      07000000 'SIGSEGV'"
    "  04000000 'exit' 0c000000 'libsimm.so.1'"
    "  15000000 'void exit(int status)'"
    "  0000000000000000 0000000000000000 0000000000000000"
    "  0000000000000000 0000000000000000"
    "  01000000"                          // skipped noreturn
    "  01000000"                          // args
    "    01000000 03000000 'int' 01000000"  // index, ctype, class integral
    "    00010000"                        // has range
    "    fbffffffffffffff 0500000000000000"  // range [-5, 5]
    "    00000000");                      // verdicts

server::DeriveRequest golden_request() {
  server::DeriveRequest request;
  request.endpoint = server::Endpoint::kDerive;
  request.soname = "libsimm.so.1";
  request.seed = 7;
  request.variants = 1;
  request.probe_step_budget = 1000;
  request.testbed_heap = 4096;
  request.testbed_stack = 1024;
  request.bundle = server::BundleKind::kSecurity;  // ignored by kDerive
  request.format = server::WireFormat::kBinary;
  return request;
}

const std::string kRequest = bytes(
    "'HRQ1'"
    "00000000"                            // endpoint derive
    "0c000000 'libsimm.so.1'"
    "0700000000000000 01000000"           // seed, variants
    "e803000000000000"                    // probe step budget
    "0010000000000000 0004000000000000"   // testbed heap, stack
    "00000000"                            // bundle: 0 on derive requests
    "01000000");                          // format binary

server::DeriveResponse golden_response() {
  server::DeriveResponse response;
  response.status = server::ResponseStatus::kShed;
  response.probes = 9;
  response.error = "queue full";
  return response;
}

const std::string kResponse = bytes(
    "'HRS1'"
    "02000000"                            // status shed
    "0900000000000000"
    "0a000000 'queue full'"
    "00000000");                          // payload ""

// --- the spec cache ------------------------------------------------------------

// libsimm.so.1's content fingerprint; cache entries carry it as their key.
constexpr std::uint64_t kLibsimmFingerprint = 0x7d7d166f800a5e64;

lattice::SignatureProfile golden_signature_profile() {
  lattice::SignatureProfile profile;
  profile.signature = "int";
  profile.passes[static_cast<std::size_t>(lattice::TestTypeId::kZero)] = 3;
  profile.fails[static_cast<std::size_t>(lattice::TestTypeId::kNegOne)] = 1;
  return profile;
}

gen::RepairPolicy golden_policy() {
  gen::RepairPolicy policy;
  policy.library = "libsimm.so.1";
  policy.seed = 21;
  gen::RepairRule rule;
  rule.arg_index = 1;
  rule.action = simlib::RepairAction::kSafeReturn;
  rule.provenance = "crash";
  policy.functions = {{"frexp", {rule}}};
  return policy;
}

// A toolkit holding exactly one fixed entry of each cache kind.
void install_golden_entries(const core::Toolkit& toolkit) {
  core::SurfaceScope scope;
  scope.executable = "netd";
  scope.soname = "libsimm.so.1";
  scope.symbols = {"exit", "frexp"};
  ASSERT_TRUE(toolkit.install_surface_scope(scope));
  const std::uint64_t fingerprint = toolkit.export_surface_scopes().front().fingerprint;
  ASSERT_EQ(fingerprint, kLibsimmFingerprint) << "libsimm.so.1 changed: re-pin the cache goldens";

  core::CampaignKey key;
  key.soname = "libsimm.so.1";
  key.fingerprint = fingerprint;
  key.params.seed = 21;
  key.params.variants = 1;
  key.params.probe_step_budget = 1000;
  key.params.testbed_heap = 4096;
  key.params.testbed_stack = 1024;
  ASSERT_EQ(toolkit.import_campaigns({{key, golden_campaign()}}), 1u);
  ASSERT_EQ(toolkit.import_repair_policies({{key, golden_policy()}}), 1u);

  toolkit.implication_profiles()->import_profiles({golden_signature_profile()});
}

// The key HSCE1 and HSRP1 entries share.
const std::string kCacheKey = bytes(
    "0c000000 'libsimm.so.1'"
    "645e0a806f167d7d"                    // fingerprint
    "1500000000000000 01000000"           // seed, variants
    "e803000000000000"                    // probe step budget
    "0010000000000000 0004000000000000"); // testbed heap, stack

const std::string kCampaignEntry = bytes("'HSCE1'") + kCacheKey + framed(kCampaign);

const std::string kProfileEntry = bytes(
    "'HSIP1'"
    "03000000 'int'"
    "18000000"                            // 24 test types: passes, fails
    "  00000000 00000000  00000000 00000000  00000000 00000000  00000000 00000000"
    "  00000000 00000000  00000000 00000000  00000000 00000000  00000000 00000000"
    "  00000000 00000000  00000000 00000000"
    "  03000000 00000000"                 // kZero: 3 passes
    "  00000000 00000000"
    "  00000000 01000000"                 // kNegOne: 1 fail
    "  00000000 00000000  00000000 00000000  00000000 00000000  00000000 00000000"
    "  00000000 00000000  00000000 00000000  00000000 00000000  00000000 00000000"
    "  00000000 00000000  00000000 00000000  00000000 00000000");

const std::string kRepairEntry =
    bytes("'HSRP1'") + kCacheKey +
    framed(bytes("'<?xml version=\"1.0\" encoding=\"UTF-8\"?>' 0a"
                 "'<repair-policy library=\"libsimm.so.1\" seed=\"21\" rules=\"1\">' 0a"
                 "'  <function name=\"frexp\">' 0a"
                 "'    <rule arg=\"1\" action=\"safe-return\" provenance=\"crash\"/>' 0a"
                 "'  </function>' 0a"
                 "'</repair-policy>' 0a"));

const std::string kSurfaceEntry = bytes(
    "'HSSP1'"
    "04000000 'netd' 0c000000 'libsimm.so.1'"
    "645e0a806f167d7d"                    // fingerprint
    "02000000 04000000 'exit' 05000000 'frexp'");

// save_cache_file writes campaigns, profiles, repairs, then scopes.
const std::string kCacheImage = bytes("'HFDS1' 0a 04000000") + framed(kCampaignEntry) +
                                framed(kProfileEntry) + framed(kRepairEntry) +
                                framed(kSurfaceEntry);

// FNV-1a of the cache image a fixed-seed libsimm derive (plus its repair
// policy) leaves behind.
constexpr std::uint64_t kDerivedImageHash = 8964762105510736649ULL;

// --- encoders -------------------------------------------------------------------

TEST(WireGolden, ProfileReportHFB1) {
  EXPECT_EQ(hex(fleet::encode_binary(golden_profile())), hex(kProfile));
}

TEST(WireGolden, DossierHDB1) {
  EXPECT_EQ(hex(fleet::encode_dossier_binary(golden_dossier())), hex(kDossier));
}

TEST(WireGolden, SurfaceProfileHSP1) {
  EXPECT_EQ(hex(fleet::encode_surface_binary(golden_surface())), hex(kSurface));
}

TEST(WireGolden, DocumentStreamHFDS1) {
  EXPECT_EQ(hex(fleet::frame_stream({"HFB1", ""})), hex(kStream));
}

TEST(WireGolden, CampaignHCB1) {
  EXPECT_EQ(hex(server::encode_campaign_binary(golden_campaign())), hex(kCampaign));
}

TEST(WireGolden, RequestHRQ1IsTheCanonicalKeyBehindTheMagic) {
  const server::DeriveRequest request = golden_request();
  EXPECT_EQ(hex(request.encode()), hex(kRequest));
  EXPECT_EQ(hex(request.canonical_key()), hex(std::string_view(kRequest).substr(4)));
}

TEST(WireGolden, ResponseHRS1) {
  EXPECT_EQ(hex(golden_response().encode(server::WireFormat::kBinary)), hex(kResponse));
}

TEST(WireGolden, CacheEntriesHSCE1HSIP1HSRP1HSSP1) {
  const core::Toolkit toolkit;
  ASSERT_NO_FATAL_FAILURE(install_golden_entries(toolkit));
  const std::string path = ::testing::TempDir() + "healers_wire_golden.hsc";
  ASSERT_TRUE(server::save_cache_file(toolkit, path).ok());
  EXPECT_EQ(hex(read_file(path)), hex(kCacheImage));
  std::remove(path.c_str());
}

// --- decoders accept the golden bytes and re-encode them exactly --------------

TEST(WireGolden, ProfileReportDecodesBack) {
  const auto report = fleet::decode_document(kProfile);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(hex(fleet::encode_binary(report.value())), hex(kProfile));
}

TEST(WireGolden, DossierAndSurfaceProfileFoldIntoTheCollector) {
  fleet::FleetCollector collector;
  collector.submit(kDossier);
  collector.submit(kSurface);
  collector.flush();
  EXPECT_EQ(collector.malformed(), 0u) << collector.first_error();
  EXPECT_EQ(collector.aggregated(), 2u);
}

TEST(WireGolden, DocumentStreamUnframes) {
  const auto documents = fleet::unframe_stream(kStream);
  ASSERT_TRUE(documents.ok());
  EXPECT_EQ(documents.value(), (std::vector<std::string>{"HFB1", ""}));
}

TEST(WireGolden, RequestDecodesToTheCanonicalRequest) {
  const auto request = server::DeriveRequest::decode(kRequest);
  ASSERT_TRUE(request.ok()) << request.error().message;
  EXPECT_EQ(request.value().soname, "libsimm.so.1");
  EXPECT_EQ(request.value().probe_step_budget, 1000u);
  EXPECT_EQ(request.value().bundle, server::BundleKind::kRobustness);
  EXPECT_EQ(hex(request.value().encode()), hex(kRequest));
}

TEST(WireGolden, ResponseDecodesBack) {
  const auto response = server::DeriveResponse::decode(kResponse);
  ASSERT_TRUE(response.ok()) << response.error().message;
  EXPECT_EQ(response.value().error, "queue full");
  EXPECT_EQ(hex(response.value().encode(server::WireFormat::kBinary)), hex(kResponse));
}

TEST(WireGolden, CacheImageLoadsAndSavesBackIdentically) {
  const std::string path = ::testing::TempDir() + "healers_wire_golden_load.hsc";
  {
    std::ofstream out(path, std::ios::binary);
    out << kCacheImage;
  }
  const core::Toolkit fresh;
  std::size_t unknown = 1;
  const auto admitted = server::load_cache_file(fresh, path, &unknown);
  ASSERT_TRUE(admitted.ok()) << admitted.error().message;
  EXPECT_EQ(admitted.value(), 1u);
  EXPECT_EQ(unknown, 0u);
  EXPECT_EQ(fresh.surface_scope_for("libsimm.so.1"), (std::vector<std::string>{"exit", "frexp"}));
  ASSERT_TRUE(server::save_cache_file(fresh, path).ok());
  EXPECT_EQ(hex(read_file(path)), hex(kCacheImage));
  std::remove(path.c_str());
}

// --- a real derive's cache image -----------------------------------------------

TEST(WireGolden, DerivedCacheImageHashAndImport) {
  injector::InjectorConfig config;
  config.seed = 21;
  config.variants = 1;
  const core::Toolkit toolkit;
  ASSERT_TRUE(toolkit.derive_robust_api("libsimm.so.1", config).ok());
  ASSERT_TRUE(toolkit.derive_repair_policy("libsimm.so.1", config).ok());
  const std::string path = ::testing::TempDir() + "healers_wire_derived.hsc";
  ASSERT_TRUE(server::save_cache_file(toolkit, path).ok());
  EXPECT_EQ(fnv1a(read_file(path)), kDerivedImageHash);

  const core::Toolkit fresh;
  const auto admitted = server::load_cache_file(fresh, path);
  ASSERT_TRUE(admitted.ok()) << admitted.error().message;
  EXPECT_EQ(admitted.value(), 1u);
  ASSERT_TRUE(fresh.derive_robust_api("libsimm.so.1", config).ok());
  ASSERT_TRUE(fresh.derive_repair_policy("libsimm.so.1", config).ok());
  EXPECT_EQ(fresh.probes_executed(), 0u);
  ASSERT_TRUE(server::save_cache_file(fresh, path).ok());
  EXPECT_EQ(fnv1a(read_file(path)), kDerivedImageHash);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace healers

// --- allocation watch --------------------------------------------------------------

// While a decode is watched, the global allocator records its largest single
// request, so an inflated count or length shows up as a huge reservation.
namespace {
thread_local bool g_watching = false;
thread_local std::size_t g_largest_allocation = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_watching && size > g_largest_allocation) g_largest_allocation = size;
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
// Not inlined, so the compiler never pairs a new-expression with free().
[[gnu::noinline]] void operator delete(void* block) noexcept { std::free(block); }
[[gnu::noinline]] void operator delete(void* block, std::size_t /*size*/) noexcept {
  std::free(block);
}

namespace healers {
namespace {

// --- strict decoding -------------------------------------------------------------
// Bytes no encoder writes are errors, never normalised into a value that
// re-encodes differently.

// The golden bytes with one unique run replaced: a malformed twin.
std::string with(const std::string& golden, std::string_view run, std::string_view replacement) {
  const std::string from = bytes(run);
  const std::size_t at = golden.find(from);
  EXPECT_NE(at, std::string::npos) << run;
  EXPECT_EQ(golden.find(from, at + 1), std::string::npos) << run << " is not unique";
  return golden.substr(0, at) + bytes(replacement) + golden.substr(at + from.size());
}

TEST(WireStrict, ProfileErrnoKeysMustBeUniqueAndAscending) {
  const std::string duplicate = with(kProfile, "ffffffff 0200000000000000 16000000",
                                     "16000000 0200000000000000 16000000");
  const std::string unordered =
      with(kProfile, "ffffffff 0200000000000000 16000000 0100000000000000",
           "16000000 0100000000000000 ffffffff 0200000000000000");
  EXPECT_FALSE(fleet::decode_document(duplicate).ok());
  EXPECT_FALSE(fleet::decode_document(unordered).ok());
}

TEST(WireStrict, DossierPermAndFlagWordsMustFitTheirFields) {
  const std::string wide_perm =
      with(kDossier, "03000000 01000000 04000000 'heap'", "05010000 01000000 04000000 'heap'");
  const std::string chunk_bit = with(kDossier, "2000000000000000 03000000",
                                     "2000000000000000 07000000");
  const std::string region_bit =
      with(kDossier, "03000000 01000000 04000000 'heap'", "03000000 03000000 04000000 'heap'");
  for (const std::string& bad : {wide_perm, chunk_bit, region_bit}) {
    EXPECT_FALSE(fleet::record::decode<incident::Dossier>(bad).ok()) << hex(bad);
  }
}

TEST(WireStrict, CampaignSkippedAndCheckWordsRejectUnknownBits) {
  const std::string skipped_bit = with(kCampaign, "01000000 01000000 01000000 03000000 'int'",
                                       "03000000 01000000 01000000 03000000 'int'");
  const std::string check_bit =
      with(kCampaign, "03000000 07000000 01000000", "03000000 07020000 01000000");
  for (const std::string& bad : {skipped_bit, check_bit}) {
    EXPECT_FALSE(fleet::record::decode<injector::CampaignResult>(bad).ok()) << hex(bad);
  }
}

TEST(WireStrict, VariantsWordMustFitItsIntField) {
  // variants is an int: a word of 0x80000000 or more would read as a negative
  // count, which the XML twin of the same request refuses.
  for (const std::string_view word : {"00000080", "ffffffff"}) {
    const std::string request = with(kRequest, "0700000000000000 01000000",
                                     "0700000000000000 " + std::string(word));
    EXPECT_FALSE(server::DeriveRequest::decode(request).ok()) << hex(request);
    const std::string entry = with(kCampaignEntry, "645e0a806f167d7d 1500000000000000 01000000",
                                   "645e0a806f167d7d 1500000000000000 " + std::string(word));
    EXPECT_FALSE(fleet::record::decode<core::CachedCampaign>(entry).ok()) << hex(entry);
  }
  const auto widest = server::DeriveRequest::decode(
      with(kRequest, "0700000000000000 01000000", "0700000000000000 ffffff7f"));
  ASSERT_TRUE(widest.ok());
  EXPECT_EQ(widest.value().variants, std::numeric_limits<int>::max());
}

TEST(WireStrict, DeriveRequestCarriesNoBundleKind) {
  const std::string bundled = with(kRequest, "0004000000000000 00000000 01000000",
                                   "0004000000000000 01000000 01000000");
  EXPECT_FALSE(server::DeriveRequest::decode(bundled).ok());
}

// --- bounded mutation fuzz --------------------------------------------------------

// A std::string is the densest thing on the wire: 4 bytes of length decode
// into one sizeof(std::string) object. No single allocation a decode makes
// may exceed that ratio times the payload size, beyond room for the text of
// an error.
constexpr std::size_t kAllocationPerPayloadByte = sizeof(std::string) / 4;
constexpr std::size_t kErrorTextBytes = 128;

// Decodes a payload as T under the allocation watch; the value's encoding,
// or nullopt for a decode error.
template <class T>
std::optional<std::string> round_trip(std::string_view payload) {
  g_largest_allocation = 0;
  g_watching = true;
  auto value = fleet::record::decode<T>(payload);
  g_watching = false;
  EXPECT_LE(g_largest_allocation, kAllocationPerPayloadByte * payload.size() + kErrorTextBytes)
      << hex(payload);
  if (!value.ok()) return std::nullopt;
  return fleet::record::encode(value.value());
}

// One random mutation: a bit flip, a byte set, a truncation, an insertion,
// or an inflated count or length (a u32 that fits the payload, raised).
std::string mutate(std::string bytes, Rng& rng) {
  const std::size_t at = rng.below(bytes.size());
  switch (rng.below(5)) {
    case 0:
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.below(8)));
      break;
    case 1:
      bytes[at] = static_cast<char>(rng.below(256));
      break;
    case 2:
      bytes.resize(at);
      break;
    case 3:
      bytes.insert(at, rng.below(4) + 1, static_cast<char>(rng.below(256)));
      break;
    default: {
      std::vector<std::size_t> fields;
      for (std::size_t i = 0; i + 4 <= bytes.size(); ++i) {
        std::uint32_t value = 0;
        std::memcpy(&value, bytes.data() + i, 4);
        if (value <= bytes.size()) fields.push_back(i);
      }
      if (fields.empty()) break;
      const std::size_t field = fields[rng.below(fields.size())];
      const std::uint32_t inflated[] = {0xffffffffU, 0x7fffffffU,
                                        static_cast<std::uint32_t>(bytes.size()),
                                        static_cast<std::uint32_t>(bytes.size() / 4 + 1)};
      std::memcpy(bytes.data() + field, &inflated[rng.below(4)], 4);
    }
  }
  return bytes;
}

// Each record grown past its golden value: longer strings, more list
// elements, set options and the other branch of a conditional field.
void grow(profile::ProfileReport& r) {
  r.process += "-and-more";
  r.functions.push_back(r.functions.front());
  r.functions.back().symbol = "memmove";
  r.functions.front().errno_counts[34] = 5;
  r.global_errnos[34] = 5;
}
void grow(incident::Dossier& d) {
  d.detail += " and more";
  d.args.push_back("0x2020");
  d.trace.push_back(d.trace.front());
  d.heap.push_back(d.heap.front());
  d.regions.push_back(d.regions.front());
  d.repairs.push_back(d.repairs.front());
  d.heap_note = "chunk chain truncated";
}
void grow(debloat::SurfaceProfile& p) {
  p.executable += "-x";
  p.reachable_symbols.push_back("zlib");
  p.trapped_symbols.push_back("srand");
}
void grow(std::vector<std::string>& documents) {
  documents.front() += "-and-more";
  documents.push_back(std::string(64, 'x'));
}
void grow(injector::CampaignResult& c) {
  // exit's argument, which holds a range, goes first: the golden first spec
  // (frexp) has none and a longer verdict list.
  c.specs.insert(c.specs.begin(), c.specs.back());
  c.specs.front().args.front().verdicts.push_back({});
}
void grow(server::DeriveRequest& r) {
  r.endpoint = server::Endpoint::kBundle;
  r.bundle = server::BundleKind::kRepair;
  r.soname += ".larger";
}
void grow(server::DeriveResponse& r) {
  r.error += " and more";
  r.payload = std::string(64, 'p');
}
void grow(core::CachedCampaign& e) {
  e.key.soname += ".larger";
  grow(e.value);
}
void grow(lattice::SignatureProfile& p) {
  p.signature += " *";
  p.passes.fill(9);
}
void grow(core::CachedRepairPolicy& e) { e.key.soname += ".larger"; }
void grow(core::SurfaceScope& s) {
  s.executable += "-x";
  s.symbols.push_back("sin");
}

struct FuzzTarget {
  const char* magic;
  const std::string& golden;
  std::optional<std::string> (*round_trip)(std::string_view);
  // decode_into checks on one reused value (check_reuse below).
  void (*check_reuse)(const FuzzTarget&, Rng&);
  // Whether a decoded value must re-encode to the very bytes it came from.
  // HSRP1 nests XML, which the parser normalises, so there only a value's
  // encoding must decode back to itself.
  bool exact = true;
};

constexpr int kMutationsPerRecord = 4000;

// decode_into a value that held something else gives what a fresh decode
// gives: after a larger record of the same kind, after each failed decode,
// and for every mutant, which it must reject exactly when decode does.
template <class T>
void check_reuse(const FuzzTarget& target, Rng& rng) {
  namespace record = fleet::record;
  T value = record::decode<T>(target.golden).take();
  grow(value);
  const std::string larger = record::encode(value);
  ASSERT_TRUE(record::decode_into(larger, value).ok()) << target.magic;
  ASSERT_TRUE(record::decode_into(target.golden, value).ok()) << target.magic;
  EXPECT_EQ(hex(record::encode(value)), hex(target.golden)) << target.magic << " after larger";
  for (int i = 0; i < kMutationsPerRecord; ++i) {
    const std::string mutant = mutate(target.golden, rng);
    const auto fresh = record::decode<T>(mutant);
    const Status reused = record::decode_into(mutant, value);
    ASSERT_EQ(reused.ok(), fresh.ok()) << target.magic << " " << hex(mutant);
    if (reused.ok()) {
      EXPECT_EQ(record::encode(value), record::encode(fresh.value())) << target.magic;
      continue;
    }
    EXPECT_EQ(reused.error().message, fresh.error().message) << target.magic;
    ASSERT_TRUE(record::decode_into(target.golden, value).ok()) << target.magic;
    EXPECT_EQ(hex(record::encode(value)), hex(target.golden))
        << target.magic << " after a failed decode of " << hex(mutant);
  }
}

const FuzzTarget kFuzzTargets[] = {
    {"HFB1", kProfile, round_trip<profile::ProfileReport>, check_reuse<profile::ProfileReport>},
    {"HDB1", kDossier, round_trip<incident::Dossier>, check_reuse<incident::Dossier>},
    {"HSP1", kSurface, round_trip<debloat::SurfaceProfile>,
     check_reuse<debloat::SurfaceProfile>},
    {"HFDS1", kStream, round_trip<std::vector<std::string>>,
     check_reuse<std::vector<std::string>>},
    {"HCB1", kCampaign, round_trip<injector::CampaignResult>,
     check_reuse<injector::CampaignResult>},
    {"HRQ1", kRequest, round_trip<server::DeriveRequest>, check_reuse<server::DeriveRequest>},
    {"HRS1", kResponse, round_trip<server::DeriveResponse>, check_reuse<server::DeriveResponse>},
    {"HSCE1", kCampaignEntry, round_trip<core::CachedCampaign>,
     check_reuse<core::CachedCampaign>},
    {"HSIP1", kProfileEntry, round_trip<lattice::SignatureProfile>,
     check_reuse<lattice::SignatureProfile>},
    {"HSRP1", kRepairEntry, round_trip<core::CachedRepairPolicy>,
     check_reuse<core::CachedRepairPolicy>, false},
    {"HSSP1", kSurfaceEntry, round_trip<core::SurfaceScope>, check_reuse<core::SurfaceScope>},
};

TEST(WireFuzz, GoldenRecordsRoundTripExactly) {
  for (const FuzzTarget& target : kFuzzTargets) {
    EXPECT_EQ(target.round_trip(target.golden), target.golden) << target.magic;
  }
}

TEST(WireFuzz, EveryProperPrefixIsRejected) {
  for (const FuzzTarget& target : kFuzzTargets) {
    for (std::size_t len = 0; len < target.golden.size(); ++len) {
      EXPECT_FALSE(target.round_trip(std::string_view(target.golden).substr(0, len)))
          << target.magic << " prefix of " << len << " bytes decoded";
    }
  }
}

// Every mutant decodes to an error or to a value that re-encodes to exactly
// the mutant — never a crash, never a partial or normalised value.
TEST(WireFuzz, MutantsAreErrorsOrExactRoundTrips) {
  std::uint64_t seed = 2003;
  for (const FuzzTarget& target : kFuzzTargets) {
    Rng rng(seed++);
    int decoded = 0;
    for (int i = 0; i < kMutationsPerRecord; ++i) {
      const std::string mutant = mutate(target.golden, rng);
      const auto encoding = target.round_trip(mutant);
      if (!encoding) continue;
      ++decoded;
      if (target.exact) {
        EXPECT_EQ(hex(*encoding), hex(mutant)) << target.magic << " normalised a mutant";
      } else {
        EXPECT_EQ(target.round_trip(*encoding), encoding) << target.magic;
      }
    }
    EXPECT_GT(decoded, 0) << target.magic << ": no mutant decoded; the fuzz is too coarse";
  }
}

TEST(WireFuzz, DecodeIntoAReusedValueEqualsAFreshDecode) {
  std::uint64_t seed = 2003;
  for (const FuzzTarget& target : kFuzzTargets) {
    Rng rng(seed++);
    target.check_reuse(target, rng);
  }
}

// A derive request carries no bundle kind, so decoding one into a value that
// held a bundle request resets the kind to the default a fresh decode gives.
TEST(WireFuzz, DecodeIntoResetsTheBundleKindOfADeriveRequest) {
  server::DeriveRequest request = golden_request();
  request.endpoint = server::Endpoint::kBundle;
  request.bundle = server::BundleKind::kRepair;
  ASSERT_TRUE(fleet::record::decode_into(kRequest, request).ok());
  EXPECT_EQ(request.endpoint, server::Endpoint::kDerive);
  EXPECT_EQ(request.bundle, server::BundleKind::kRobustness);
}

// --- XML twins --------------------------------------------------------------------
// The seven XML decoders read every attribute through xml::AttrReader. Each
// twin's golden record serializes to one document. Every attribute in that
// document is listed with the kind of value it holds: each value its kind
// refuses is an error naming the element and the attribute, deleting a
// required attribute is an error, deleting an optional one decodes like the
// document that spells out its default, and repeating any attribute is a
// syntax error at the repeated name.

std::string xml_of(const profile::ProfileReport& r) { return xml::serialize(profile::to_xml(r)); }
std::string xml_of(const incident::Dossier& d) { return xml::serialize(d.to_xml()); }
std::string xml_of(const debloat::SurfaceProfile& p) { return p.to_xml(); }
std::string xml_of(const injector::CampaignResult& c) { return xml::serialize(c.to_xml()); }
std::string xml_of(const server::DeriveRequest& r) { return xml::serialize(r.to_xml()); }
std::string xml_of(const server::DeriveResponse& r) { return xml::serialize(r.to_xml()); }
std::string xml_of(const gen::RepairPolicy& p) { return xml::serialize(p.to_xml()); }

auto from_xml(std::string_view d, profile::ProfileReport*) { return profile::from_xml(d); }
auto from_xml(std::string_view d, incident::Dossier*) { return incident::from_xml(d); }
auto from_xml(std::string_view d, debloat::SurfaceProfile*) { return debloat::surface_from_xml(d); }
template <class R>
auto from_xml(std::string_view d, R*) { return R::from_xml(d); }

// A record's canonical form: its binary record (a repair policy has none),
// then its XML. Equal forms mean an equal record that serializes again to
// the same document.
template <class R>
std::string canonical(const R& value) {
  if constexpr (std::is_same_v<R, gen::RepairPolicy>) {
    return xml_of(value);
  } else {
    return fleet::record::encode(value) + xml_of(value);
  }
}

template <class R>
Result<std::string> decode_twin(std::string_view document) {
  auto value = from_xml(document, static_cast<R*>(nullptr));
  if (!value.ok()) return value.error();
  return canonical(value.value());
}

std::string error_of(const Result<std::string>& decoded) {
  return decoded.ok() ? "(decoded)" : decoded.error().message;
}

enum class Value {
  kText,      // any text
  kDerived,   // text or a number the encoder computes from other fields; kept only as checked
  kUnsigned,  // decimal digits
  kSigned,    // decimal, may start with '-', 64 bits
  kSignedInt, // decimal, may start with '-', 32 bits
  kHex,       // "0x" and hex digits
  kFlag,      // "0" or "1"
  kWord,      // one of an enum's words
};
constexpr bool kRequired = true;
constexpr bool kOptional = false;
constexpr std::string_view kPastU64 = "18446744073709551616";
constexpr std::string_view kPastInt = "2147483648";

// One attribute of a twin's golden document.
template <class R>
struct TwinAttr {
  std::string_view element;
  std::string_view key;
  Value value;
  bool required;
  // Optional: deleted, it decodes like the document with key="absent_as",
  // or, with `absent` set, like the golden record absent() changes. A
  // kDerived attribute decodes like the document itself.
  std::string_view absent_as = {};
  // kUnsigned: one past the field's maximum, when that is not 2^64.
  std::string_view past_max = kPastU64;
  void (*absent)(R&) = nullptr;
};

std::vector<std::string> refused(Value value, std::string_view now, std::string_view past_max) {
  const std::string word(now);
  switch (value) {
    case Value::kUnsigned: return {"x12", "1x", "-1", "+1", std::string(past_max), ""};
    case Value::kSigned:
      return {"x12", "1x", "+1", "9223372036854775808", "-9223372036854775809", ""};
    case Value::kSignedInt: return {"x12", "1x", "+1", "2147483648", "-2147483649", ""};
    case Value::kHex: return {"1010", "0x", "0xg", "0x-1", "-0x1", "0x10000000000000000", ""};
    case Value::kFlag: return {"x", "-1", "+1", "2", ""};
    case Value::kWord: return {"x", word + "x", word.substr(0, word.size() - 1), ""};
    case Value::kText:
    case Value::kDerived: return {};
  }
  return {};
}

// One attribute as serialized: ` key="value"` spans [begin, end) of the text.
struct Site {
  std::string element, key, value;
  std::size_t begin, end;
};

std::vector<Site> sites_of(const std::string& document) {
  std::vector<Site> out;
  std::string element;
  for (std::size_t i = document.find("?>") + 2; i + 1 < document.size(); ++i) {
    if (document[i] == '<' && document[i + 1] != '/') {
      element = document.substr(i + 1, document.find_first_of(" />", i) - i - 1);
    } else if (document.compare(i, 2, "=\"") == 0) {
      const std::size_t begin = document.rfind(' ', i);
      const std::size_t close = document.find('"', i + 2);
      out.push_back({element, document.substr(begin + 1, i - begin - 1),
                     document.substr(i + 2, close - i - 2), begin, close + 1});
      i = close;
    }
  }
  return out;
}

std::string with_value(const std::string& document, const Site& site, std::string_view value) {
  return document.substr(0, site.begin) + " " + site.key + "=\"" + std::string(value) + "\"" +
         document.substr(site.end);
}

std::string without(const std::string& document, const Site& site) {
  return document.substr(0, site.begin) + document.substr(site.end);
}

// "line L:C" of a byte offset, as the XML reader reports positions.
std::string position(const std::string& document, std::size_t offset) {
  const std::size_t line_start = document.rfind('\n', offset - 1);
  const std::size_t line = std::count(document.begin(), document.begin() + offset, '\n') + 1;
  const std::size_t column = line_start == std::string::npos ? offset + 1 : offset - line_start;
  return "line " + std::to_string(line) + ":" + std::to_string(column);
}

template <class R>
void check_twin(const R& golden, const std::vector<TwinAttr<R>>& attrs) {
  const std::string document = xml_of(golden);
  const auto decoded = decode_twin<R>(document);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(hex(decoded.value()), hex(canonical(golden))) << document;

  const std::vector<Site> sites = sites_of(document);
  ASSERT_FALSE(sites.empty());
  for (const Site& site : sites) {
    const std::string where = "<" + site.element + "> ";
    const auto attr = std::find_if(attrs.begin(), attrs.end(), [&site](const TwinAttr<R>& a) {
      return a.element == site.element && a.key == site.key;
    });
    if (attr == attrs.end()) {
      ADD_FAILURE() << where << site.key << " is not listed";
      continue;
    }
    for (const std::string& bad : refused(attr->value, site.value, attr->past_max)) {
      EXPECT_EQ(error_of(decode_twin<R>(with_value(document, site, bad))),
                where + "malformed attribute " + site.key + "=\"" + bad + "\"");
    }
    const std::string repeated = document.substr(0, site.end) +
                                 document.substr(site.begin, site.end - site.begin) +
                                 document.substr(site.end);
    EXPECT_EQ(error_of(decode_twin<R>(repeated)),
              position(document, site.end + 1) + ": duplicate attribute name")
        << where << site.key;
    const auto absent = decode_twin<R>(without(document, site));
    if (attr->required) {
      EXPECT_EQ(error_of(absent), where + "missing attribute " + site.key);
      continue;
    }
    ASSERT_TRUE(absent.ok()) << where << site.key << ": " << absent.error().message;
    std::string expected = canonical(golden);
    if (attr->absent != nullptr) {
      R changed = golden;
      attr->absent(changed);
      expected = canonical(changed);
    } else if (attr->value != Value::kDerived) {
      const auto spelled = decode_twin<R>(with_value(document, site, attr->absent_as));
      ASSERT_TRUE(spelled.ok()) << where << site.key << ": " << spelled.error().message;
      expected = spelled.value();
    }
    EXPECT_EQ(hex(absent.value()), hex(expected)) << where << "without " << site.key;
  }
}

TEST(XmlTwin, Profile) {
  using R = profile::ProfileReport;
  check_twin<R>(golden_profile(), {
      {"profile", "process", Value::kText, kOptional, ""},
      {"profile", "wrapper", Value::kText, kOptional, ""},
      {"profile", "total_calls", Value::kDerived, kOptional},
      {"profile", "total_cycles", Value::kDerived, kOptional},
      {"function", "name", Value::kText, kRequired},
      {"function", "calls", Value::kUnsigned, kRequired},
      {"function", "cycles", Value::kUnsigned, kRequired},
      {"function", "contained", Value::kUnsigned, kOptional, "0"},
      {"error", "errno", Value::kSignedInt, kRequired},
      {"error", "name", Value::kDerived, kOptional},
      {"error", "count", Value::kUnsigned, kRequired},
  });
}

TEST(XmlTwin, Dossier) {
  using R = incident::Dossier;
  check_twin<R>(golden_dossier(), {
      {"dossier", "process", Value::kText, kOptional, ""},
      {"dossier", "detector", Value::kWord, kRequired},
      {"dossier", "symbol", Value::kText, kOptional, ""},
      {"dossier", "seq", Value::kUnsigned, kRequired},
      {"dossier", "tick", Value::kUnsigned, kRequired},
      {"dossier", "cycles", Value::kUnsigned, kRequired},
      {"dossier", "fault_addr", Value::kHex, kRequired},
      {"arg", "value", Value::kText, kOptional, ""},
      {"event", "seq", Value::kUnsigned, kRequired},
      {"event", "symbol", Value::kText, kOptional, ""},
      {"event", "tick", Value::kUnsigned, kRequired},
      {"event", "cycles", Value::kUnsigned, kRequired},
      {"event", "argc", Value::kUnsigned, kRequired, {}, "4294967296"},
      {"event", "digest", Value::kHex, kRequired},
      {"chunk", "header", Value::kHex, kRequired},
      {"chunk", "user", Value::kHex, kRequired},
      {"chunk", "size", Value::kUnsigned, kRequired},
      {"chunk", "in_use", Value::kFlag, kRequired},
      {"chunk", "suspect", Value::kFlag, kOptional, "0"},
      {"region", "base", Value::kHex, kRequired},
      {"region", "size", Value::kUnsigned, kRequired},
      {"region", "perm", Value::kUnsigned, kRequired, {}, "256"},
      {"region", "kind", Value::kText, kOptional, ""},
      {"region", "label", Value::kText, kOptional, ""},
      {"region", "suspect", Value::kFlag, kOptional, "0"},
      {"repair", "seq", Value::kUnsigned, kRequired},
      {"repair", "tick", Value::kUnsigned, kRequired},
      {"repair", "action", Value::kWord, kRequired},
      {"repair", "symbol", Value::kText, kOptional, ""},
      {"repair", "addr", Value::kHex, kRequired},
      {"repair", "requested", Value::kUnsigned, kRequired},
      {"repair", "granted", Value::kUnsigned, kRequired},
      {"repair", "detail", Value::kText, kOptional, ""},
  });
}

TEST(XmlTwin, SurfaceProfile) {
  using R = debloat::SurfaceProfile;
  check_twin<R>(golden_surface(), {
      {"surface-profile", "host", Value::kText, kOptional, ""},
      {"surface-profile", "executable", Value::kText, kOptional, ""},
      {"surface-profile", "exported", Value::kUnsigned, kRequired},
      {"surface-profile", "reachable", Value::kUnsigned, kRequired},
      {"surface-profile", "touched", Value::kUnsigned, kRequired},
      {"surface-profile", "trapped", Value::kUnsigned, kRequired},
      {"surface-profile", "resident_pages", Value::kUnsigned, kRequired},
      {"surface-profile", "total_pages", Value::kUnsigned, kRequired},
      {"symbol", "name", Value::kText, kRequired},
  });
}

TEST(XmlTwin, Campaign) {
  using R = injector::CampaignResult;
  check_twin<R>(golden_campaign(), {
      {"campaign", "library", Value::kText, kOptional, ""},
      {"campaign", "seed", Value::kUnsigned, kRequired},
      {"robust-spec", "function", Value::kText, kRequired},
      {"robust-spec", "library", Value::kText, kOptional, ""},
      {"robust-spec", "probes", Value::kUnsigned, kRequired},
      {"robust-spec", "failures", Value::kUnsigned, kRequired},
      {"robust-spec", "crashes", Value::kUnsigned, kRequired},
      {"robust-spec", "hangs", Value::kUnsigned, kRequired},
      {"robust-spec", "aborts", Value::kUnsigned, kRequired},
      {"robust-spec", "skipped", Value::kWord, kOptional, {}, {},
       [](R& c) { c.specs[1].skipped_noreturn = false; }},
      {"arg", "index", Value::kUnsigned, kRequired, {}, kPastInt},
      {"arg", "ctype", Value::kText, kOptional, ""},
      {"arg", "class", Value::kWord, kOptional, "integral"},
      {"arg", "safe-type", Value::kDerived, kOptional},
      {"verdict", "type", Value::kWord, kRequired},
      {"verdict", "probes", Value::kUnsigned, kRequired, {}, kPastInt},
      {"verdict", "failures", Value::kUnsigned, kRequired, {}, kPastInt},
      {"verdict", "crashes", Value::kUnsigned, kRequired, {}, kPastInt},
      {"verdict", "hangs", Value::kUnsigned, kRequired, {}, kPastInt},
      {"verdict", "aborts", Value::kUnsigned, kRequired, {}, kPastInt},
      {"verdict", "first", Value::kText, kOptional, ""},
      {"checks", "nonnull", Value::kFlag, kOptional, "0"},
      {"checks", "mapped", Value::kFlag, kOptional, "0"},
      {"checks", "writable", Value::kFlag, kOptional, "0"},
      // A range has both ends or neither: alone, each end is required.
      {"checks", "range_lo", Value::kSigned, kRequired},
      {"checks", "range_hi", Value::kSigned, kRequired},
  });
}

TEST(XmlTwin, CampaignRangeHasBothEndsOrNeither) {
  injector::CampaignResult golden = golden_campaign();
  std::string document = xml_of(golden);
  for (const std::string_view end : {" range_lo=\"-5\"", " range_hi=\"5\""}) {
    document.erase(document.find(end), end.size());
  }
  golden.specs[1].args[0].checks.range.reset();
  const auto decoded = decode_twin<injector::CampaignResult>(document);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(hex(decoded.value()), hex(canonical(golden)));
}

TEST(XmlTwin, DeriveRequest) {
  using R = server::DeriveRequest;
  check_twin<R>(golden_request(), {
      {"derive-request", "endpoint", Value::kWord, kOptional, "derive"},
      {"derive-request", "soname", Value::kText, kRequired},
      {"derive-request", "seed", Value::kUnsigned, kOptional, "42"},
      {"derive-request", "variants", Value::kUnsigned, kOptional, "2", kPastInt},
      {"derive-request", "budget", Value::kUnsigned, kOptional, "2000000"},
      {"derive-request", "heap", Value::kUnsigned, kOptional, "262144"},
      {"derive-request", "stack", Value::kUnsigned, kOptional, "65536"},
      {"derive-request", "format", Value::kWord, kOptional, "xml"},
  });
}

TEST(XmlTwin, DeriveResponse) {
  using R = server::DeriveResponse;
  check_twin<R>(golden_response(), {
      {"derive-response", "status", Value::kWord, kOptional, "ok"},
      {"derive-response", "probes", Value::kUnsigned, kOptional, "0"},
  });
}

TEST(XmlTwin, RepairPolicy) {
  using R = gen::RepairPolicy;
  check_twin<R>(golden_policy(), {
      {"repair-policy", "library", Value::kText, kOptional, ""},
      {"repair-policy", "seed", Value::kUnsigned, kRequired},
      {"repair-policy", "rules", Value::kDerived, kOptional},
      {"function", "name", Value::kText, kOptional, ""},
      {"rule", "arg", Value::kUnsigned, kRequired, {}, kPastInt},
      {"rule", "action", Value::kWord, kRequired},
      {"rule", "provenance", Value::kText, kOptional, ""},
  });
}

// Values a lenient decoder used to read as something else: range_lo="zz" as
// 0, class="pointr" as integral, probes="x12" as 0, seed="-5" as 2^64-5, and
// clamp_arg="x" as no clamp.
TEST(XmlTwin, GarbledValuesAreErrors) {
  const auto garbled = [](const std::string& document, std::string_view from,
                          std::string_view to) {
    const std::size_t at = document.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return document.substr(0, at) + std::string(to) + document.substr(at + from.size());
  };
  const std::string campaign = xml_of(golden_campaign());
  const std::string policy = xml_of(golden_policy());
  const std::pair<std::string, std::string> cases[] = {
      {garbled(campaign, "range_lo=\"-5\"", "range_lo=\"zz\""),
       "<checks> malformed attribute range_lo=\"zz\""},
      {garbled(campaign, "class=\"pointer\"", "class=\"pointr\""),
       "<arg> malformed attribute class=\"pointr\""},
      {garbled(campaign, "probes=\"6\"", "probes=\"x12\""),
       "<robust-spec> malformed attribute probes=\"x12\""},
      {garbled(campaign, "seed=\"21\"", "seed=\"-5\""),
       "<campaign> malformed attribute seed=\"-5\""},
  };
  for (const auto& [document, error] : cases) {
    EXPECT_EQ(error_of(decode_twin<injector::CampaignResult>(document)), error);
  }
  const std::pair<std::string, std::string> policy_cases[] = {
      {garbled(policy, "seed=\"21\"", "seed=\"nope\""),
       "<repair-policy> malformed attribute seed=\"nope\""},
      {garbled(policy, "arg=\"1\"", "arg=\"-3\""), "<rule> malformed attribute arg=\"-3\""},
      {garbled(policy, "action=", "clamp_arg=\"x\" action="),
       "<rule> malformed attribute clamp_arg=\"x\""},
  };
  for (const auto& [document, error] : policy_cases) {
    EXPECT_EQ(error_of(decode_twin<gen::RepairPolicy>(document)), error);
  }
}

// --- verdicts pinned from the tree parser -------------------------------------
// Seeded single-byte mutations of each twin's golden document: at every
// position the byte deleted, and the byte replaced by three drawn from
// kMutantBytes. A mutant's verdict is "ok" and the hash of the canonical form
// it decodes to, or "error" and the error text. The verdicts were recorded
// with the tree parser (xml::parse building an xml::Node, then a decoder
// walking the tree) that the one-pass reader replaced. Each kind's verdicts
// are pinned by their FNV-1a digest, and a seeded sample of them is spelled
// out in full, so a failure names its mutation.

constexpr std::string_view kMutantBytes = "<>/=\"'&;? !-_x0a\t\n\xff";
constexpr int kReplacementsPerByte = 3;

struct VerdictKind {
  const char* name;
  std::string document;
  std::string (*verdict)(std::string_view);
  std::uint64_t digest;  // over the verdict lines, each ending in '\n'
};

template <class R>
std::string verdict_of(std::string_view document) {
  const auto decoded = decode_twin<R>(document);
  if (!decoded.ok()) return "error " + decoded.error().message;
  char hash[24];
  std::snprintf(hash, sizeof hash, "ok %016llx",
                static_cast<unsigned long long>(fnv1a(decoded.value())));
  return hash;
}

// One mutant: the byte at `at` deleted (byte < 0) or replaced.
struct Mutant {
  std::size_t at;
  int byte;
};

std::vector<Mutant> mutants_of(const std::string& document, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Mutant> out;
  for (std::size_t at = 0; at < document.size(); ++at) {
    out.push_back({at, -1});
    for (int i = 0; i < kReplacementsPerByte; ++i) {
      out.push_back({at, static_cast<unsigned char>(kMutantBytes[rng.below(kMutantBytes.size())])});
    }
  }
  return out;
}

std::string apply(const std::string& document, const Mutant& m) {
  std::string out = document;
  if (m.byte < 0) {
    out.erase(m.at, 1);
  } else {
    out[m.at] = static_cast<char>(m.byte);
  }
  return out;
}

// "<at> del" or "<at> x<byte in hex>".
std::string describe(const Mutant& m) {
  char text[32];
  if (m.byte < 0) {
    std::snprintf(text, sizeof text, "%zu del", m.at);
  } else {
    std::snprintf(text, sizeof text, "%zu x%02x", m.at, m.byte);
  }
  return text;
}

std::vector<VerdictKind> verdict_kinds() {
  return {
      {"profile", xml_of(golden_profile()), verdict_of<profile::ProfileReport>,
       0x4e68e5b4c14545c0ULL},
      {"dossier", xml_of(golden_dossier()), verdict_of<incident::Dossier>, 0x686a84bc305998b8ULL},
      {"surface-profile", xml_of(golden_surface()), verdict_of<debloat::SurfaceProfile>,
       0x43ff17ef4116f550ULL},
      {"campaign", xml_of(golden_campaign()), verdict_of<injector::CampaignResult>,
       0x28c4ae96bc8d5af9ULL},
      {"repair-policy", xml_of(golden_policy()), verdict_of<gen::RepairPolicy>,
       0x9533fee33088274aULL},
      {"derive-request", xml_of(golden_request()), verdict_of<server::DeriveRequest>,
       0xd3045b1f523ec5a3ULL},
      {"derive-response", xml_of(golden_response()), verdict_of<server::DeriveResponse>,
       0xb64dbbed9a0466b1ULL},
  };
}

struct PinnedVerdict {
  std::string_view kind, mutant, verdict;
};

const PinnedVerdict kPinnedSample[] = {
    {"profile", "325 x27",
     "error line 8:27: expected '=' after attribute name"},
    {"profile", "111 x30",
     "error line 2:75: expected '=' after attribute name"},
    {"profile", "191 x20",
     "error line 4:13: expected '=' after attribute name"},
    {"profile", "147 x61",
     "error <function> missing attribute calls"},
    {"profile", "158 del",
     "error <function> missing attribute cycles"},
    {"profile", "229 del",
     "error line 5:1: expected '>' after '/'"},
    {"profile", "99 x61",
     "ok fb599129b931c0de"},
    {"profile", "266 x0a",
     "ok fb599129b931c0de"},
    {"dossier", "345 x26",
     "error line 10:8: expected attribute name"},
    {"dossier", "631 x27",
     "error line 17:89: expected '=' after attribute name"},
    {"dossier", "1 x27",
     "error line 1:2: expected element name"},
    {"dossier", "136 x61",
     "error <dossier> missing attribute fault_addr"},
    {"dossier", "685 del",
     "ok e649c20c031dea6d"},
    {"dossier", "608 x21",
     "error <repair> malformed attribute action=\"substitute-!ounded\""},
    {"dossier", "395 x27",
     "error <chunk> malformed attribute size=\"3'\""},
    {"dossier", "683 x2d",
     "ok cc5b58400fc77e70"},
    {"surface-profile", "243 del",
     "ok e0e3c9bf808eef49"},
    {"surface-profile", "51 del",
     "error line 15:18: mismatched close tag </surface-profile> for <surface-proile>"},
    {"surface-profile", "148 x20",
     "error line 2:112: expected '=' after attribute name"},
    {"surface-profile", "357 x3f",
     "error line 11:9: mismatched close tag </touc> for <touched>"},
    {"surface-profile", "104 x5f",
     "error <surface-profile> missing attribute reachable"},
    {"surface-profile", "296 x3d",
     "ok e0e3c9bf808eef49"},
    {"surface-profile", "135 del",
     "ok e0e3c9bf808eef49"},
    {"surface-profile", "73 x5f",
     "ok 69d28497c9bc74fd"},
    {"campaign", "223 del",
     "ok c715ff2252a9ec49"},
    {"campaign", "202 x61",
     "error line 4:59: mismatched close tag </prototype> for <paototype>"},
    {"campaign", "141 x3c",
     "error line 3:60: expected '=' after attribute name"},
    {"campaign", "88 x22",
     "error line 3:6: expected attribute name"},
    {"campaign", "721 del",
     "error <arg> malformed attribute index=\"\""},
    {"campaign", "210 x27",
     "error line 4:15: expected attribute name"},
    {"campaign", "324 x78",
     "ok 3de15f04d71284f8"},
    {"campaign", "689 del",
     "ok f00482eb33ef9abd"},
    {"repair-policy", "132 x61",
     "ok afa3416af02236b0"},
    {"repair-policy", "43 del",
     "error line 6:16: mismatched close tag </repair-policy> for <repir-policy>"},
    {"repair-policy", "148 x3f",
     "error line 4:26: expected '=' after attribute name"},
    {"repair-policy", "124 xff",
     "ok 0100e1dc37950e7e"},
    {"repair-policy", "144 x61",
     "error <rule> missing attribute action"},
    {"repair-policy", "123 xff",
     "ok 0100e1dc37950e7e"},
    {"repair-policy", "50 x21",
     "error line 2:12: expected attribute name"},
    {"repair-policy", "180 x21",
     "error line 7:1: unterminated attribute value"},
    {"derive-request", "98 x61",
     "ok 20758033672e6cde"},
    {"derive-request", "164 x30",
     "error <derive-request> malformed attribute format=\"0inary\""},
    {"derive-request", "37 xff",
     "error line 3:1: expected '<'"},
    {"derive-request", "116 del",
     "ok 4f7adecb42077f42"},
    {"derive-request", "46 del",
     "error expected <derive-request>"},
    {"derive-request", "119 x3d",
     "error line 2:83: expected quoted attribute value"},
    {"derive-request", "149 x30",
     "error line 2:112: expected quoted attribute value"},
    {"derive-response", "80 x3e",
     "ok fa90b2d336cf7cd9"},
    {"derive-response", "15 del",
     "ok fa90b2d336cf7cd9"},
    {"derive-response", "23 x5f",
     "ok fa90b2d336cf7cd9"},
    {"derive-response", "112 x2f",
     "error line 4:3: mismatched close tag </> for <derive-response>"},
    {"derive-response", "18 del",
     "ok fa90b2d336cf7cd9"},
    {"derive-response", "30 x2f",
     "ok fa90b2d336cf7cd9"},
    {"derive-response", "48 x5f",
     "error line 4:18: mismatched close tag </derive-response> for <derive-r_sponse>"},
    {"derive-response", "94 x3b",
     "ok c0557c2b412b1c19"},
};

TEST(XmlVerdicts, MutantsKeepTheTreeParsersVerdicts) {
  std::map<std::string, std::string> verdicts;  // "<kind> <mutant>" -> verdict
  std::uint64_t seed = 2003;
  for (const VerdictKind& kind : verdict_kinds()) {
    std::string lines;
    for (const Mutant& m : mutants_of(kind.document, seed++)) {
      const std::string verdict = kind.verdict(apply(kind.document, m));
      verdicts[std::string(kind.name) + " " + describe(m)] = verdict;
      lines += describe(m) + " " + verdict + "\n";
    }
    EXPECT_EQ(fnv1a(lines), kind.digest)
        << kind.name << ": verdicts changed (digest 0x" << std::hex << fnv1a(lines) << ")";
  }
  for (const PinnedVerdict& pin : kPinnedSample) {
    EXPECT_EQ(verdicts[std::string(pin.kind) + " " + std::string(pin.mutant)], pin.verdict)
        << pin.kind << " mutant " << pin.mutant;
  }
}

// A decoder reads its element's children in one pass, in document order,
// but reports the error its sections would meet in their reading order: a
// profile's <function> rows before its <errors>, a dossier's <trace> before
// its <heap>, <regions> and <repairs>, a surface profile's lists in the
// order reachable, touched, trapped, and an <arg>'s verdicts before its
// <checks>. A second singleton is ignored, and unknown children are
// skipped but read.
TEST(XmlTwin, SectionsKeepTheirReadingOrder) {
  const auto profile_error = [](std::string_view document) {
    return error_of(decode_twin<profile::ProfileReport>(document));
  };
  EXPECT_EQ(profile_error(R"(<profile><errors><error errno="x" count="1"/></errors>)"
                          R"(<function name="f" calls="x" cycles="1"/></profile>)"),
            "<function> malformed attribute calls=\"x\"");
  EXPECT_EQ(profile_error(R"(<profile><errors><error errno="x" count="1"/></errors>)"
                          R"(<function name="f" calls="1" cycles="1"/></profile>)"),
            "<error> malformed attribute errno=\"x\"");
  EXPECT_EQ(profile_error(R"(<profile><function name="f" calls="x" cycles="1"/>)"
                          R"(<function name="g" calls="y" cycles="1"/></profile>)"),
            "<function> malformed attribute calls=\"x\"");
  // The second <errors> is not read; a <function> inside an unknown child is
  // not a row; an unknown child is still read, so its syntax errors count.
  const auto second = profile::from_xml(R"(<profile><errors/><errors><error errno="x"/></errors>)"
                                        R"(<junk><function name="f"/></junk></profile>)");
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_TRUE(second.value().functions.empty());
  EXPECT_TRUE(second.value().global_errnos.empty());
  EXPECT_EQ(profile_error("<profile><junk>&bogus;</junk></profile>"),
            "line 1:23: unknown entity &bogus;");

  const std::string root =
      R"(<dossier detector="heap-smash" seq="1" tick="1" cycles="1" fault_addr="0x0">)";
  EXPECT_EQ(error_of(decode_twin<incident::Dossier>(
                root + R"(<repairs><repair seq="x"/></repairs>)"
                       R"(<regions><region base="1"/></regions>)"
                       R"(<trace><event seq="y"/></trace></dossier>)")),
            "<event> malformed attribute seq=\"y\"");
  EXPECT_EQ(error_of(decode_twin<incident::Dossier>(
                root + R"(<repairs><repair seq="x"/></repairs>)"
                       R"(<regions><region base="1"/></regions></dossier>)")),
            "<region> malformed attribute base=\"1\"");

  const std::string surface =
      R"(<surface-profile exported="1" reachable="1" touched="1" trapped="0" resident_pages="1")"
      R"( total_pages="1">)";
  EXPECT_EQ(error_of(decode_twin<debloat::SurfaceProfile>(
                surface + R"(<touched><symbol/></touched><reachable><symbol/></reachable>)"
                          R"(</surface-profile>)")),
            "<symbol> missing attribute name");
  EXPECT_EQ(error_of(decode_twin<debloat::SurfaceProfile>(
                surface + R"(<touched><symbol/></touched><trapped/></surface-profile>)")),
            "surface-profile: missing <reachable>");
  EXPECT_EQ(error_of(decode_twin<debloat::SurfaceProfile>(
                surface + R"(<touched><symbol/></touched><reachable/></surface-profile>)")),
            "<symbol> missing attribute name");

  EXPECT_EQ(error_of(decode_twin<injector::CampaignResult>(
                R"(<campaign seed="1"><robust-spec function="f" probes="0" failures="0")"
                R"( crashes="0" hangs="0" aborts="0"><arg index="1"><checks mapped="2"/>)"
                R"(<verdict type="null" probes="x"/></arg></robust-spec></campaign>)")),
            "<verdict> malformed attribute probes=\"x\"");
}

// The XML decoders refill a reused value in place: decoding into a value
// that held something else gives what a fresh decode gives, after a larger
// record of the same kind, after each failed decode, and for every mutant of
// the golden document, which it must reject exactly when a fresh decode does
// and with the same error.
auto xml_into(xml::Reader& in, profile::ProfileReport& r) { return profile::from_xml(in, r); }
auto xml_into(xml::Reader& in, incident::Dossier& d) { return incident::from_xml(in, d); }
auto xml_into(xml::Reader& in, debloat::SurfaceProfile& p) {
  return debloat::surface_from_xml(in, p);
}
template <class R>
auto xml_into(xml::Reader& in, R& r) { return R::from_xml(in, r); }

void grow(gen::RepairPolicy& p) {
  p.library += ".larger";
  p.functions.push_back(p.functions.front());
  p.functions.front().rules.push_back(p.functions.front().rules.front());
  p.functions.front().rules.front().clamp_arg = 3;
  p.functions.front().rules.front().append = true;
}

template <class R>
Status decode_reused(std::string_view document, R& value) {
  xml::Reader in(document);
  return in.finish(xml_into(in, value));
}

template <class R>
void check_xml_reuse(const R& golden, std::uint64_t seed) {
  const std::string document = xml_of(golden);
  R value = golden;
  grow(value);
  const std::string larger = xml_of(value);
  ASSERT_TRUE(decode_reused(larger, value).ok());
  ASSERT_TRUE(decode_reused(document, value).ok());
  EXPECT_EQ(hex(canonical(value)), hex(canonical(golden))) << "after larger";
  for (const Mutant& m : mutants_of(document, seed)) {
    const std::string mutant = apply(document, m);
    const auto fresh = decode_twin<R>(mutant);
    const Status reused = decode_reused(mutant, value);
    ASSERT_EQ(reused.ok(), fresh.ok()) << describe(m);
    if (reused.ok()) {
      EXPECT_EQ(hex(canonical(value)), hex(fresh.value())) << describe(m);
      continue;
    }
    EXPECT_EQ(reused.error().message, fresh.error().message) << describe(m);
    ASSERT_TRUE(decode_reused(document, value).ok());
    EXPECT_EQ(hex(canonical(value)), hex(canonical(golden))) << "after " << describe(m);
  }
}

TEST(XmlTwin, DecodeIntoAReusedValueEqualsAFreshDecode) {
  check_xml_reuse(golden_profile(), 1);
  check_xml_reuse(golden_dossier(), 2);
  check_xml_reuse(golden_surface(), 3);
  check_xml_reuse(golden_campaign(), 4);
  check_xml_reuse(golden_policy(), 5);
  check_xml_reuse(golden_request(), 6);
  check_xml_reuse(golden_response(), 7);
}

}  // namespace
}  // namespace healers
