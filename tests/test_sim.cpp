// Virtual-time fleet simulator tests (ISSUE 7): the discrete-event engine,
// the traffic models, and the FleetSim end-to-end determinism guarantees —
// byte-identical global summaries across --jobs 1/4/16 and any sim shard
// count, collector drop accounting under every shard/worker combination
// the sim can produce, and shed responses actually delivered under bursts.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "core/toolkit.hpp"
#include "server/derive_server.hpp"
#include "server/protocol.hpp"
#include "sim/engine.hpp"
#include "sim/fleet_sim.hpp"
#include "sim/traffic.hpp"

namespace healers::sim {
namespace {

// One toolkit for every test in this binary: the campaign memo makes the
// sim's derive requests cost one real campaign per unique key, total.
const core::Toolkit& shared_toolkit() {
  static core::Toolkit* toolkit = new core::Toolkit();
  return *toolkit;
}

// A small fleet that still hits every traffic model and emits derive
// requests within the run.
SimConfig small_config() {
  SimConfig config;
  config.hosts = 400;
  config.virtual_seconds = 30;
  config.seed = 7;
  config.traffic = TrafficModel::kMixed;
  config.shards = 4;
  config.jobs = 1;
  return config;
}

// --- engine ----------------------------------------------------------------

TEST(SimEngine, EventQueuePopsInTimeThenHostOrder) {
  EventQueue queue;
  // Pushed in scrambled order, including a time tie broken by host index.
  const std::array<Event, 6> events = {Event{50, 2}, Event{10, 9}, Event{50, 1},
                                       Event{5, 4},  Event{99, 0}, Event{10, 3}};
  for (const Event& event : events) queue.push(event);
  ASSERT_EQ(queue.size(), events.size());

  const std::array<Event, 6> expected = {Event{5, 4},  Event{10, 3}, Event{10, 9},
                                         Event{50, 1}, Event{50, 2}, Event{99, 0}};
  for (const Event& want : expected) {
    EXPECT_EQ(queue.top(), want);
    EXPECT_EQ(queue.pop(), want);
  }
  EXPECT_TRUE(queue.empty());
}

// --- traffic models --------------------------------------------------------

TEST(SimTraffic, ModelNamesRoundTrip) {
  for (const auto model :
       {TrafficModel::kSteady, TrafficModel::kDiurnal, TrafficModel::kBurst,
        TrafficModel::kStraggler, TrafficModel::kMixed}) {
    const auto parsed = traffic_model_from_name(to_string(model));
    ASSERT_TRUE(parsed.ok()) << to_string(model);
    EXPECT_EQ(parsed.value(), model);
  }
  // The flag spelling has no hyphen; both forms parse.
  EXPECT_EQ(traffic_model_from_name("crashloop").value(), TrafficModel::kCrashLoop);
  EXPECT_EQ(traffic_model_from_name("crash-loop").value(), TrafficModel::kCrashLoop);
  EXPECT_FALSE(traffic_model_from_name("tsunami").ok());
}

TEST(SimTraffic, MixedResolvesToFixedFleetShares) {
  std::array<std::uint64_t, kConcreteModels> counts{};
  constexpr std::uint32_t kHosts = 2000;
  for (std::uint32_t host = 0; host < kHosts; ++host) {
    const TrafficModel model = resolve_model(TrafficModel::kMixed, host);
    ASSERT_NE(model, TrafficModel::kMixed);
    ++counts[static_cast<std::size_t>(model)];
  }
  EXPECT_EQ(counts[static_cast<std::size_t>(TrafficModel::kSteady)], kHosts * 11 / 20);
  EXPECT_EQ(counts[static_cast<std::size_t>(TrafficModel::kDiurnal)], kHosts * 4 / 20);
  EXPECT_EQ(counts[static_cast<std::size_t>(TrafficModel::kBurst)], kHosts * 2 / 20);
  EXPECT_EQ(counts[static_cast<std::size_t>(TrafficModel::kStraggler)], kHosts * 2 / 20);
  EXPECT_EQ(counts[static_cast<std::size_t>(TrafficModel::kCrashLoop)], kHosts / 20);
  // Concrete models resolve to themselves.
  EXPECT_EQ(resolve_model(TrafficModel::kBurst, 123), TrafficModel::kBurst);
}

TEST(SimTraffic, HostScheduleIsAPureFunctionOfSeedAndIndex) {
  // Two tasks with the same (seed, index) replay the same schedule...
  HostTask a(2003, 42, TrafficModel::kMixed);
  HostTask b(2003, 42, TrafficModel::kMixed);
  EXPECT_EQ(initial_delay(a), initial_delay(b));
  VirtualTime now = 0;
  for (int i = 0; i < 64; ++i) {
    const StepPlan pa = step(a, now);
    const StepPlan pb = step(b, now);
    EXPECT_EQ(pa.next_delay, pb.next_delay);
    EXPECT_EQ(pa.profile_docs, pb.profile_docs);
    EXPECT_EQ(pa.dossier, pb.dossier);
    EXPECT_EQ(pa.derive, pb.derive);
    a.emissions += pa.profile_docs;
    b.emissions += pb.profile_docs;
    now += std::max<VirtualTime>(pa.next_delay, 1);
  }
  // ...and a neighboring host does not (splitmix seeding decorrelates them).
  HostTask c(2003, 43, TrafficModel::kSteady);
  HostTask d(2003, 42, TrafficModel::kSteady);
  EXPECT_NE(step(c, 0).next_delay, step(d, 0).next_delay);
}

TEST(SimTraffic, EveryModelKeepsScheduling) {
  for (const auto model :
       {TrafficModel::kSteady, TrafficModel::kDiurnal, TrafficModel::kBurst,
        TrafficModel::kStraggler, TrafficModel::kCrashLoop}) {
    HostTask host(1, 0, model);
    VirtualTime now = initial_delay(host);
    for (int i = 0; i < 200; ++i) {
      const StepPlan plan = step(host, now);
      EXPECT_GT(plan.next_delay, 0u) << to_string(model);
      EXPECT_TRUE(plan.profile_docs > 0 || plan.dossier || plan.derive) << to_string(model);
      host.emissions += plan.profile_docs;
      now += plan.next_delay;
    }
  }
}

// --- end-to-end determinism (satellite: jobs 1/4/16 byte-identical) --------

TEST(FleetSimTest, GlobalSummaryByteIdenticalAcrossJobsAndShards) {
  std::string reference;
  for (const unsigned jobs : {1u, 4u, 16u}) {
    for (const unsigned shards : {1u, 4u}) {
      SimConfig config = small_config();
      config.jobs = jobs;
      config.shards = shards;
      FleetSim simulation(shared_toolkit(), config);
      const SimStats stats = simulation.run();
      EXPECT_GT(stats.emissions, 0u);
      EXPECT_GT(stats.derive_requests, 0u);  // the summary must cover the serve path
      const std::string summary = simulation.render_global_summary();
      if (reference.empty()) {
        reference = summary;
      } else {
        EXPECT_EQ(summary, reference) << "jobs=" << jobs << " shards=" << shards;
      }
    }
  }
}

TEST(FleetSimTest, SeedChangesTheSummary) {
  SimConfig config = small_config();
  FleetSim a(shared_toolkit(), config);
  a.run();
  config.seed = config.seed + 1;
  FleetSim b(shared_toolkit(), config);
  b.run();
  EXPECT_NE(a.render_global_summary(), b.render_global_summary());
}

TEST(FleetSimTest, TrafficFlagShapesTheEmissions) {
  SimConfig config = small_config();
  config.hosts = 100;
  config.traffic = TrafficModel::kSteady;
  FleetSim steady(shared_toolkit(), config);
  const SimStats steady_stats = steady.run();
  EXPECT_GT(steady_stats.profile_docs, 0u);
  EXPECT_EQ(steady_stats.dossier_docs, 0u);  // only crash-loop hosts crash

  config.traffic = TrafficModel::kCrashLoop;
  FleetSim crashing(shared_toolkit(), config);
  const SimStats crash_stats = crashing.run();
  EXPECT_GT(crash_stats.dossier_docs, 0u);
  EXPECT_GT(crash_stats.derive_requests, 0u);
  // The dossiers really traveled the collector pipe.
  EXPECT_FALSE(crashing.collector().snapshot().dossiers.empty());
}

// --- satellite: collector drop accounting under every sim-produced shape ---

TEST(FleetSimTest, DropAccountingIdentityAcrossCollectorConfigs) {
  for (const unsigned shards : {1u, 3u}) {
    for (const unsigned workers : {1u, 4u}) {
      SimConfig config = small_config();
      config.hosts = 240;
      config.virtual_seconds = 20;
      config.collector.shards = shards;
      config.collector.workers = workers;
      config.collector.queue_capacity = 8;  // force the overflow path
      FleetSim simulation(shared_toolkit(), config);
      const SimStats stats = simulation.run();
      const auto& collector = simulation.collector();

      const std::string what =
          "shards=" + std::to_string(shards) + " workers=" + std::to_string(workers);
      // Every emitted document reached submit()...
      EXPECT_EQ(collector.submitted(), stats.profile_docs + stats.dossier_docs) << what;
      // ...and every submitted document is accounted exactly once:
      // dropped + ingested == emitted, with nothing pending at quiescence.
      EXPECT_EQ(collector.submitted(), collector.aggregated() + collector.malformed() +
                                           collector.dropped() + collector.pending())
          << what;
      EXPECT_EQ(collector.malformed(), 0u) << collector.first_error();
      EXPECT_EQ(collector.pending(), 0u) << what;
      EXPECT_GT(collector.dropped(), 0u) << what;  // the capacity squeeze worked
    }
  }
}

// --- satellite: shed responses actually delivered under burst --------------

TEST(FleetSimTest, BurstShedsAreCountedAndDelivered) {
  SimConfig config = small_config();
  config.hosts = 120;
  config.virtual_seconds = 20;
  config.traffic = TrafficModel::kCrashLoop;  // derive-heavy traffic
  config.server.shards = 1;
  config.server.queue_capacity = 1;  // every same-window pair sheds
  FleetSim simulation(shared_toolkit(), config);
  const SimStats stats = simulation.run();
  const auto server_stats = simulation.server().stats();

  EXPECT_GT(server_stats.shed, 0u);
  // Counted sheds == tickets that actually received a kShed response; no
  // request ends the run unanswered or double-counted.
  EXPECT_EQ(stats.responses_shed, server_stats.shed);
  EXPECT_EQ(stats.responses_ok + stats.responses_error + stats.responses_shed,
            stats.derive_requests);
  EXPECT_EQ(server_stats.submitted, stats.derive_requests);
  EXPECT_EQ(server_stats.submitted,
            server_stats.answered + server_stats.shed + server_stats.pending);
  EXPECT_EQ(server_stats.pending, 0u);
  EXPECT_EQ(stats.responses_error, 0u);
}

// EXPERIMENTS.md's F7 overload row (bench_f7_fleet_sim's BM_SimOverload):
// 100k crash-loop hosts against 2 collector shards of 2048 and a derive
// queue of 64 drop and shed exact, counted shares of their traffic.
TEST(FleetSimTest, OverloadDropAndShedCounts) {
  SimConfig config;
  config.hosts = 100'000;
  config.virtual_seconds = 60;
  config.seed = 2003;
  config.traffic = TrafficModel::kCrashLoop;
  config.collector.shards = 2;
  config.collector.queue_capacity = 2048;
  config.server.queue_capacity = 64;
  FleetSim simulation(shared_toolkit(), config);
  const SimStats stats = simulation.run();
  EXPECT_EQ(simulation.collector().submitted(), 1318930u);
  EXPECT_EQ(simulation.collector().dropped(), 1073170u);  // 81.4%
  EXPECT_EQ(stats.derive_requests, 133575u);
  EXPECT_EQ(stats.responses_shed, 125895u);  // 94.3%
}

// --- take_response ---------------------------------------------------------

TEST(FleetSimTest, TakeResponseRetiresTheTicket) {
  server::DeriveServer server(shared_toolkit(), {});
  const auto ticket = server.submit("not a request");
  server.drain();
  ASSERT_NE(server.response(ticket), nullptr);

  const auto taken = server.take_response(ticket);
  ASSERT_NE(taken, nullptr);
  // The blob survives the table erase; the ticket itself is retired.
  const auto decoded = server::DeriveResponse::decode(*taken);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().status, server::ResponseStatus::kError);
  EXPECT_EQ(server.response(ticket), nullptr);
  EXPECT_EQ(server.take_response(ticket), nullptr);
  EXPECT_EQ(server.take_response(9999), nullptr);  // never-issued ticket
}

}  // namespace
}  // namespace healers::sim
