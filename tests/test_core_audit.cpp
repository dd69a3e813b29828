// ProtocolAuditor tests: clean runs audit clean, and every invariant the
// auditor knows about actually fires on a deliberately corrupted run.
#include <gtest/gtest.h>

#include <string>

#include "common/expect.h"
#include "core/audit.h"
#include "sim_test_utils.h"

namespace loadex::core {
namespace {

using test::CoreHarness;

bool hasViolation(const ProtocolAuditor& a, const std::string& needle) {
  for (const auto& v : a.violations())
    if (v.find(needle) != std::string::npos) return true;
  return false;
}

MechanismConfig tinyThreshold() {
  MechanismConfig cfg;
  cfg.threshold = LoadMetrics{1.0, 1.0};
  return cfg;
}

/// Fig. 1-shaped scenario: loads, then two selections with the real
/// delegated work shipped to the chosen slaves (the shared replay core).
void runFig1Scenario(CoreHarness& h) {
  harness::Script s;
  s.nprocs = 3;
  s.loads = {{0.1, 0, {50.0, 0.0}}, {0.1, 1, {50.0, 0.0}},
             {0.1, 2, {10.0, 0.0}}};
  s.selections = {{2.0, 0, 100.0}, {3.0, 1, 100.0}};
  const harness::SimReplay replay(h, s);
  h.run();
}

// ---------------------------------------------------------------------------
// Positive: clean runs audit clean, for all three mechanisms.
// ---------------------------------------------------------------------------

class AuditCleanRun : public ::testing::TestWithParam<MechanismKind> {};

TEST_P(AuditCleanRun, Fig1ScenarioAuditsClean) {
  CoreHarness h(3, GetParam(), tinyThreshold());
  h.attachAuditor();
  runFig1Scenario(h);
  h.finishAudit();  // throws on any violation
  EXPECT_TRUE(h.auditor->clean());
  EXPECT_GT(h.auditor->eventsObserved(), 0);
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, AuditCleanRun,
                         ::testing::Values(MechanismKind::kNaive,
                                           MechanismKind::kIncrement,
                                           MechanismKind::kSnapshot),
                         [](const auto& info) {
                           return std::string(mechanismKindName(info.param));
                         });

TEST(Audit, ConcurrentSnapshotsAuditClean) {
  AuditorConfig acfg;
  acfg.check_reservations = false;  // reservations without shipped work
  CoreHarness h(5, MechanismKind::kSnapshot);
  h.attachAuditor(acfg);
  for (Rank r : {3, 1, 0}) {
    h.at(1.0, [&h, r] {
      h.mechs.at(r).requestView([&h, r](const LoadView&) {
        h.mechs.at(r).commitSelection({{4, LoadMetrics{10.0, 0.0}}});
      });
    });
  }
  h.run();
  h.finishAudit();
}

// ---------------------------------------------------------------------------
// Negative: each invariant fires on a deliberately corrupted run.
// ---------------------------------------------------------------------------

/// Drop every state message from rank 0 to rank 1 around t = 0.1.
sim::WorldConfig oneLinkBlackout() {
  sim::WorldConfig wcfg;
  wcfg.network.faults.blackouts.push_back(
      LinkBlackout{0, 1, 0.05, 0.2});
  return wcfg;
}

TEST(Audit, LostDeltaBreaksIncrementConservation) {
  CoreHarness h(3, MechanismKind::kIncrement, tinyThreshold(),
                oneLinkBlackout());
  auto& a = h.attachAuditor();
  h.at(0.1, [&] { h.mechs.at(0).addLocalLoad({100.0, 0.0}); });
  h.run();
  a.finish();
  EXPECT_TRUE(hasViolation(a, "increment conservation broken"));
  EXPECT_TRUE(hasViolation(a, "never delivered"));  // FIFO end-of-run check
  EXPECT_THROW(a.expectClean(), ContractViolation);
}

TEST(Audit, LostUpdateBreaksNaiveCoherence) {
  CoreHarness h(3, MechanismKind::kNaive, tinyThreshold(), oneLinkBlackout());
  auto& a = h.attachAuditor();
  h.at(0.1, [&] { h.mechs.at(0).addLocalLoad({100.0, 0.0}); });
  h.run();
  a.finish();
  EXPECT_TRUE(hasViolation(a, "naive coherence broken"));
}

TEST(Audit, MessageLossModeTolerisesTheSameRun) {
  AuditorConfig acfg;
  acfg.allow_message_loss = true;
  CoreHarness h(3, MechanismKind::kIncrement, tinyThreshold(),
                oneLinkBlackout());
  auto& a = h.attachAuditor(acfg);
  h.at(0.1, [&] { h.mechs.at(0).addLocalLoad({100.0, 0.0}); });
  h.run();
  a.finish();
  EXPECT_TRUE(a.clean()) << a.violations().front();
}

TEST(Audit, DuplicateDeliveryIsDetected) {
  sim::WorldConfig wcfg;
  wcfg.network.faults.duplicate_prob = 1.0;
  CoreHarness h(2, MechanismKind::kIncrement, tinyThreshold(), wcfg);
  auto& a = h.attachAuditor();
  h.at(0.1, [&] { h.mechs.at(0).addLocalLoad({100.0, 0.0}); });
  h.run();
  a.finish();
  EXPECT_TRUE(hasViolation(a, "duplicate"));
}

TEST(Audit, UnmatchedReservationIsDetected) {
  CoreHarness h(3, MechanismKind::kIncrement, tinyThreshold());
  auto& a = h.attachAuditor();
  h.at(1.0, [&] {
    h.mechs.at(0).requestView([&](const LoadView&) {
      // Reserve 50 units on rank 1 but never ship the actual work.
      h.mechs.at(0).commitSelection({{1, LoadMetrics{50.0, 0.0}}});
    });
  });
  h.run();
  a.finish();
  EXPECT_TRUE(hasViolation(a, "reservation accounting broken"));
}

TEST(Audit, DelegatedWorkWithoutReservationIsDetected) {
  CoreHarness h(2, MechanismKind::kIncrement, tinyThreshold());
  auto& a = h.attachAuditor();
  h.at(1.0, [&] {
    // Work claiming to be master-delegated arrives with no reservation.
    test::sendWork(h.world.process(0), 1, 30.0, LoadMetrics{30.0, 0.0},
                   /*is_slave_delegated=*/true);
  });
  h.run();
  a.finish();
  EXPECT_TRUE(hasViolation(a, "exceeding its outstanding reservation"));
}

TEST(Audit, CrashedResponderBreaksSnapshotTermination) {
  sim::WorldConfig wcfg;
  wcfg.process_faults.push_back(
      {1, 0.05, ProcessFaultEvent::Kind::kCrash});
  AuditorConfig acfg;
  acfg.allow_crashes = true;  // the crash itself is scripted, hence legal
  CoreHarness h(2, MechanismKind::kSnapshot, MechanismConfig{}, wcfg);
  auto& a = h.attachAuditor(acfg);
  bool completed = false;
  h.at(0.1, [&] {
    h.mechs.at(0).requestView([&](const LoadView&) {
      completed = true;
      h.mechs.at(0).commitSelection({});
    });
  });
  h.run();
  a.finish();
  // The unhardened protocol freezes forever on a crashed responder — the
  // auditor reports the initiator's snapshot as never terminated.
  EXPECT_FALSE(completed);
  EXPECT_TRUE(hasViolation(a, "snapshot termination broken"));
}

TEST(Audit, SendToCrashedRankIsDetected) {
  sim::WorldConfig wcfg;
  wcfg.process_faults.push_back(
      {2, 0.05, ProcessFaultEvent::Kind::kCrash});
  CoreHarness h(3, MechanismKind::kIncrement, tinyThreshold(), wcfg);
  auto& a = h.attachAuditor();
  h.at(0.1, [&] { h.mechs.at(0).addLocalLoad({100.0, 0.0}); });
  h.run();
  a.finish();
  EXPECT_TRUE(hasViolation(a, "to crashed rank 2"));
}

TEST(Audit, ForgedSnapshotAnswerTripsRecordingConsistency) {
  AuditorConfig acfg;
  acfg.check_fifo = false;  // direct hook calls have no matching delivery
  CoreHarness h(3, MechanismKind::kSnapshot);
  auto& a = h.attachAuditor(acfg);
  // Rank 1 "answers" a request rank 0 never started, with a load that is
  // not its recorded state.
  SnpPayload forged;
  forged.request = 42;
  forged.state = LoadMetrics{123.0, 0.0};
  a.onStateSend(h.mechs.at(1), /*dst=*/0, StateTag::kSnp,
                SnpPayload::sizeBytes(), &forged);
  EXPECT_TRUE(hasViolation(a, "but its load is"));
  EXPECT_TRUE(hasViolation(a, "named request 0"));
}

TEST(Audit, NonMonotonicSnapshotRequestIdIsDetected) {
  AuditorConfig acfg;
  acfg.check_fifo = false;
  CoreHarness h(2, MechanismKind::kSnapshot);
  auto& a = h.attachAuditor(acfg);
  StartSnpPayload start;
  start.request = 5;
  EndSnpPayload end;
  a.onStateSend(h.mechs.at(0), 1, StateTag::kStartSnp,
                StartSnpPayload::sizeBytes(), &start);
  EXPECT_TRUE(a.clean());
  a.onStateSend(h.mechs.at(0), 1, StateTag::kEndSnp, EndSnpPayload::sizeBytes(),
                &end);
  // A *new* broadcast must use a strictly larger request id.
  a.onStateSend(h.mechs.at(0), 1, StateTag::kStartSnp,
                StartSnpPayload::sizeBytes(), &start);
  EXPECT_TRUE(hasViolation(a, "not greater than"));
}

TEST(Audit, FailFastThrowsAtTheViolatingEvent) {
  AuditorConfig acfg;
  acfg.fail_fast = true;
  CoreHarness h(2, MechanismKind::kIncrement, tinyThreshold());
  h.attachAuditor(acfg);
  h.at(1.0, [&] {
    test::sendWork(h.world.process(0), 1, 30.0, LoadMetrics{30.0, 0.0},
                   /*is_slave_delegated=*/true);
  });
  EXPECT_THROW(h.run(), ContractViolation);
}

TEST(Audit, DetachStopsObservation) {
  CoreHarness h(2, MechanismKind::kIncrement, tinyThreshold());
  auto& a = h.attachAuditor();
  h.mechs.at(0).addLocalLoad({5.0, 0.0});
  const auto seen = a.eventsObserved();
  EXPECT_GT(seen, 0);
  a.detach();
  h.mechs.at(0).addLocalLoad({5.0, 0.0});
  EXPECT_EQ(a.eventsObserved(), seen);
}

}  // namespace
}  // namespace loadex::core
