// Tests for the subsumption lattice (typelattice/subsume.hpp) and the
// pruned campaign engine built on it:
//
//   - the dominance relation is a strict partial order (irreflexive,
//     antisymmetric, transitively closed, never cross-class) and every test
//     type is totally ordered by hostility within its class;
//   - case_count / scalar_cases agree with the live ValueFactory, so an
//     implied verdict is guaranteed to carry what execution would have;
//   - the full-catalog differential: pruned campaigns produce byte-identical
//     XML to --no-prune at every jobs value and both reset modes, while
//     executing at most 60% of the unpruned probe count;
//   - cross-campaign implication learning: profiles round-trip through the
//     HSIP1 cache-entry codec, and a warm store prunes strictly more than a
//     cold one on a related signature set.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "injector/injector.hpp"
#include "linker/process.hpp"
#include "server/spec_cache.hpp"
#include "support/rng.hpp"
#include "testbed.hpp"
#include "typelattice/subsume.hpp"
#include "typelattice/testtype.hpp"
#include "xml/xml.hpp"

namespace healers::lattice {
namespace {

using parser::TypeClass;

std::vector<TestTypeId> all_ids() {
  std::vector<TestTypeId> ids;
  for (std::size_t i = 0; i < kTestTypeCount; ++i) ids.push_back(static_cast<TestTypeId>(i));
  return ids;
}

// The class a test type belongs to, derived from the canonical enumeration
// (deliberately independent of any class table inside subsume.cpp).
TypeClass class_of(TestTypeId id) {
  for (const TypeClass cls : {TypeClass::kPointer, TypeClass::kIntegral, TypeClass::kFloating}) {
    for (const TestTypeId member : test_types_for(cls)) {
      if (member == id) return cls;
    }
  }
  return TypeClass::kVoid;
}

TEST(SubsumeLattice, TableIsConsistent) { EXPECT_EQ(ImplicationIndex::validate(), ""); }

TEST(SubsumeLattice, DominanceIsAStrictPartialOrder) {
  const ImplicationIndex& index = ImplicationIndex::instance();
  const auto ids = all_ids();
  for (const TestTypeId a : ids) {
    EXPECT_FALSE(index.subsumes(a, a)) << to_string(a) << " subsumes itself";
    for (const TestTypeId b : ids) {
      if (index.subsumes(a, b)) {
        EXPECT_FALSE(index.subsumes(b, a))
            << to_string(a) << " and " << to_string(b) << " subsume each other";
        EXPECT_EQ(class_of(a), class_of(b))
            << to_string(a) << " -> " << to_string(b) << " crosses classes";
      }
      for (const TestTypeId c : ids) {
        if (index.subsumes(a, b) && index.subsumes(b, c)) {
          EXPECT_TRUE(index.subsumes(a, c))
              << to_string(a) << " -> " << to_string(b) << " -> " << to_string(c)
              << " is not closed";
        }
      }
    }
  }
}

TEST(SubsumeLattice, EveryTypeIsTotallyOrderedWithinItsClass) {
  const ImplicationIndex& index = ImplicationIndex::instance();
  for (const TypeClass cls : {TypeClass::kPointer, TypeClass::kIntegral, TypeClass::kFloating}) {
    const std::vector<TestTypeId>& types = test_types_for(cls);
    std::vector<bool> rank_seen(types.size(), false);
    for (std::size_t k = 0; k < types.size(); ++k) {
      EXPECT_EQ(index.canonical_rank(types[k]), k);
      const std::size_t rank = index.hostility_rank(types[k]);
      ASSERT_LT(rank, types.size()) << to_string(types[k]) << " rank out of range";
      EXPECT_FALSE(rank_seen[rank]) << "duplicate hostility rank in class";
      rank_seen[rank] = true;
    }
  }
}

TEST(SubsumeLattice, ImpliedPassMatchesClosureAndReach) {
  const ImplicationIndex& index = ImplicationIndex::instance();
  for (const TestTypeId id : all_ids()) {
    const std::vector<TestTypeId>& implied = index.implied_pass(id);
    EXPECT_EQ(index.reach(id), implied.size());
    for (const TestTypeId safe : implied) EXPECT_TRUE(index.subsumes(id, safe));
    // Canonical order within the list (the synthesis order is deterministic).
    for (std::size_t i = 1; i < implied.size(); ++i) {
      EXPECT_LT(index.canonical_rank(implied[i - 1]), index.canonical_rank(implied[i]));
    }
  }
}

// case_count must agree with the live factory for every type and variants
// value, and scalar_cases must be the exact enumeration cases_of performs —
// otherwise a synthesized verdict would not be byte-identical to execution.
TEST(SubsumeLattice, CaseCountMatchesLiveFactoryEnumeration) {
  linker::LibraryCatalog catalog;
  catalog.install(&testbed::libsimc());
  catalog.install(&testbed::libsimio());
  catalog.install(&testbed::libsimm());
  for (const int variants : {1, 2, 3}) {
    linker::Process bed("case-count-testbed");
    for (const std::string& soname : catalog.sonames()) {
      bed.load_library(catalog.find(soname));
    }
    for (const TestTypeId id : all_ids()) {
      Rng rng(0x5eedu + static_cast<std::uint64_t>(id));
      ValueFactory factory(bed, rng);
      const auto cases = factory.cases_of(id, variants);
      EXPECT_EQ(cases.size(), case_count(id, variants))
          << to_string(id) << " variants=" << variants;
      if (!is_scalar_type(id)) continue;
      Rng replay(0x5eedu + static_cast<std::uint64_t>(id));
      const auto pure = scalar_cases(id, variants, replay);
      ASSERT_EQ(pure.size(), cases.size());
      for (std::size_t i = 0; i < cases.size(); ++i) {
        EXPECT_EQ(pure[i].note, cases[i].note);
        const bool both_nan = std::isnan(pure[i].value.as_double()) &&
                              std::isnan(cases[i].value.as_double());
        EXPECT_TRUE(both_nan || pure[i].value == cases[i].value) << to_string(id) << " case " << i;
      }
    }
  }
}

TEST(ImplicationProfiles, SignatureEncodesClassAndAnnotationShape) {
  EXPECT_EQ(ImplicationProfileStore::signature(TypeClass::kPointer, nullptr), "pointer");
  EXPECT_EQ(ImplicationProfileStore::signature(TypeClass::kFloating, nullptr), "floating");
  parser::ArgAnnotation note;
  note.nonnull = true;
  note.cstring = true;
  EXPECT_EQ(ImplicationProfileStore::signature(TypeClass::kPointer, &note),
            "pointer|cstring,nonnull");
  note = {};
  note.range.emplace(1, 9);
  EXPECT_EQ(ImplicationProfileStore::signature(TypeClass::kIntegral, &note), "integral|range");
}

TEST(ImplicationProfiles, StoreLearnsVotesAndMerges) {
  ImplicationProfileStore store;
  EXPECT_FALSE(store.lookup("pointer").has_value());
  store.learn("pointer", TestTypeId::kNull, /*passed=*/false);
  store.learn("pointer", TestTypeId::kValidCString, /*passed=*/true);
  store.learn("pointer", TestTypeId::kValidCString, /*passed=*/true);
  store.learn("pointer", TestTypeId::kValidCString, /*passed=*/false);
  const auto profile = store.lookup("pointer");
  ASSERT_TRUE(profile.has_value());
  EXPECT_FALSE(profile->predicts_pass(TestTypeId::kNull));
  EXPECT_TRUE(profile->predicts_pass(TestTypeId::kValidCString));
  EXPECT_FALSE(profile->predicts_pass(TestTypeId::kWildPtr)) << "unseen types predict fail";
  EXPECT_TRUE(profile->seen(TestTypeId::kNull));
  EXPECT_FALSE(profile->seen(TestTypeId::kWildPtr));

  // Merge-add: importing the export into a second store doubles nothing and
  // importing twice doubles every tally (a tally, not a snapshot).
  ImplicationProfileStore other;
  other.import_profiles(store.export_profiles());
  other.import_profiles(store.export_profiles());
  const auto doubled = other.lookup("pointer");
  ASSERT_TRUE(doubled.has_value());
  EXPECT_EQ(doubled->passes[static_cast<std::size_t>(TestTypeId::kValidCString)], 4u);
  EXPECT_EQ(doubled->fails[static_cast<std::size_t>(TestTypeId::kValidCString)], 2u);
}

TEST(ImplicationProfiles, ProfileEntryCodecRoundTripsAndRejectsGarbage) {
  ImplicationProfileStore store;
  store.learn("integral|range", TestTypeId::kIntMax, true, 3);
  store.learn("integral|range", TestTypeId::kZero, false, 2);
  const auto exported = store.export_profiles();
  ASSERT_EQ(exported.size(), 1u);

  const std::string payload = fleet::record::encode(exported[0]);
  const auto decoded = fleet::record::decode<SignatureProfile>(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().signature, "integral|range");
  EXPECT_EQ(decoded.value().passes, exported[0].passes);
  EXPECT_EQ(decoded.value().fails, exported[0].fails);

  EXPECT_FALSE(fleet::record::decode<SignatureProfile>(payload.substr(0, payload.size() / 2)).ok());
  EXPECT_FALSE(fleet::record::decode<SignatureProfile>("HSCE1 not a profile").ok());
}

// --- the full-catalog differential -------------------------------------------

struct DifferentialFixture : ::testing::Test {
  linker::LibraryCatalog catalog;

  DifferentialFixture() {
    catalog.install(&testbed::libsimc());
    catalog.install(&testbed::libsimio());
    catalog.install(&testbed::libsimm());
  }

  static injector::InjectorConfig base_config() {
    injector::InjectorConfig config;
    config.seed = 2003;
    config.variants = 1;
    return config;
  }

  std::vector<const simlib::SharedLibrary*> libraries() const {
    return {&testbed::libsimm(), &testbed::libsimio(), &testbed::libsimc()};
  }

  // Runs the whole catalog, one injector per library, all sharing `store`
  // (null = each injector keeps its private store). Returns the serialized
  // campaign XML per library and accumulates executed/implied counts.
  std::vector<std::string> run_catalog(const injector::InjectorConfig& config,
                                       std::shared_ptr<ImplicationProfileStore> store,
                                       std::uint64_t* executed, std::uint64_t* implied) {
    std::vector<std::string> xmls;
    for (const simlib::SharedLibrary* lib : libraries()) {
      injector::FaultInjector injector(catalog, config);
      if (store != nullptr) injector.set_profile_store(store);
      auto campaign = injector.run_campaign(*lib);
      EXPECT_TRUE(campaign.ok()) << (campaign.ok() ? "" : campaign.error().message);
      xmls.push_back(xml::serialize(campaign.value().to_xml()));
      if (executed != nullptr) *executed += injector.probes_executed();
      if (implied != nullptr) *implied += injector.probes_implied();
    }
    return xmls;
  }
};

// The acceptance differential: pruning must change nothing but the probe
// count. Derived specs, weakest safe types and campaign XML are compared
// byte-for-byte against --no-prune across jobs 1/4/16 and both reset modes,
// and the pruned walk must execute at most 60% of the unpruned probes.
TEST_F(DifferentialFixture, PrunedCampaignsAreByteIdenticalAndExecuteAtMost60Percent) {
  injector::InjectorConfig reference_config = base_config();
  reference_config.prune = false;
  std::uint64_t executed_unpruned = 0;
  const std::vector<std::string> reference =
      run_catalog(reference_config, nullptr, &executed_unpruned, nullptr);
  ASSERT_GT(executed_unpruned, 0u);

  // Cold shared-store pass at jobs=1: the ratio the pruning exists to win.
  injector::InjectorConfig pruned_config = base_config();
  std::uint64_t executed_pruned = 0;
  std::uint64_t implied_pruned = 0;
  auto store = std::make_shared<ImplicationProfileStore>();
  const std::vector<std::string> pruned =
      run_catalog(pruned_config, store, &executed_pruned, &implied_pruned);
  EXPECT_EQ(pruned, reference) << "pruning changed campaign bytes";
  EXPECT_GT(implied_pruned, 0u);
  EXPECT_LE(executed_pruned * 100, executed_unpruned * 60)
      << "pruned walk executed " << executed_pruned << " of " << executed_unpruned
      << " unpruned probes";

  // Every jobs value and both reset modes reduce to the same bytes.
  for (const int jobs : {1, 4, 16}) {
    for (const bool snapshot_reset : {true, false}) {
      injector::InjectorConfig config = base_config();
      config.jobs = jobs;
      config.snapshot_reset = snapshot_reset;
      const std::vector<std::string> matrix = run_catalog(config, nullptr, nullptr, nullptr);
      EXPECT_EQ(matrix, reference)
          << "jobs=" << jobs << " reset=" << (snapshot_reset ? "fork" : "fresh");
    }
  }
}

// Cross-campaign learning: a store warmed by the whole catalog must let a
// repeat campaign over related signatures skip strictly more probes than the
// cold walk did.
// EXPERIMENTS.md's pruning table: each campaign in a fresh injector, as
// `healers derive <lib> --seed 2003 --stats [--no-prune]` runs it.
TEST_F(DifferentialFixture, PrunedWalkExecutesTheQuotedProbeCounts) {
  struct Row {
    const simlib::SharedLibrary* lib;
    std::uint64_t probes;
    std::uint64_t failures;
    std::uint64_t executed_pruned;
  };
  for (const Row& row : {Row{&testbed::libsimc(), 1570, 604, 906},
                         Row{&testbed::libsimio(), 490, 280, 330}}) {
    for (const bool prune : {false, true}) {
      injector::InjectorConfig config = base_config();
      config.prune = prune;
      injector::FaultInjector injector(catalog, config);
      const auto campaign = injector.run_campaign(*row.lib);
      ASSERT_TRUE(campaign.ok()) << row.lib->soname();
      EXPECT_EQ(campaign.value().total_probes(), row.probes) << row.lib->soname();
      EXPECT_EQ(campaign.value().total_failures(), row.failures) << row.lib->soname();
      EXPECT_EQ(injector.probes_executed(), prune ? row.executed_pruned : row.probes)
          << row.lib->soname() << (prune ? " pruned" : " unpruned");
    }
  }
}

TEST_F(DifferentialFixture, WarmProfileStorePrunesStrictlyMoreThanCold) {
  const injector::InjectorConfig config = base_config();

  std::uint64_t cold_executed = 0;
  {
    injector::FaultInjector cold(catalog, config);
    ASSERT_TRUE(cold.run_campaign(testbed::libsimc()).ok());
    cold_executed = cold.probes_executed();
  }

  // Warm the store on the full catalog, then replay the same campaign
  // through a fresh injector that only shares the learned profiles.
  auto store = std::make_shared<ImplicationProfileStore>();
  (void)run_catalog(config, store, nullptr, nullptr);
  auto warmed = std::make_shared<ImplicationProfileStore>();
  warmed->import_profiles(store->export_profiles());

  injector::FaultInjector warm(catalog, config);
  warm.set_profile_store(warmed);
  auto campaign = warm.run_campaign(testbed::libsimc());
  ASSERT_TRUE(campaign.ok());
  EXPECT_LT(warm.probes_executed(), cold_executed)
      << "warm store failed to prune more than the cold walk";
  EXPECT_GT(campaign.value().engine.args_warm_ordered, 0u);
  EXPECT_GT(campaign.value().engine.warm_start_ratio(), 0.5);
}

}  // namespace
}  // namespace healers::lattice
