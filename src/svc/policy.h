// Dispatch policies of the service workload.
//
// PolicyKind enumerates everything the bench compares: four cheap
// reference policies implemented right here, plus the paper's three load
// information exchange mechanisms (those dispatch through the Mechanism
// seam — requestView / leastLoadedSlave / commitSelection — not through
// DispatchPolicy; see svc::Dispatcher). policyKindName and makePolicy
// switch over every enumerator without a default:, so -Werror=switch makes
// a policy that is not wired everywhere a build error.
//
// The reference policies:
//   random            — uniform over alive servers; the no-information
//                       floor every mechanism must beat.
//   round-robin       — cyclic over alive servers; no load information,
//                       but perfect dispersion.
//   shortest-queue    — oracle: dispatch to the server with the least
//                       outstanding work, read from the ledger's live
//                       board (instantaneous global knowledge — the
//                       upper bound no message protocol can reach).
//   stale-shortest-queue — shortest-queue over a board snapshot refreshed
//                       every `refresh_s`; the textbook stale-information
//                       pathology (it herds onto a stale minimum and may
//                       even dispatch to a server that crashed since the
//                       snapshot), giving the mechanisms a calibrated
//                       "how stale is too stale" yardstick.
//
// Liveness: random, round-robin and the oracle skip crashed servers (a
// liveness oracle is the usual baseline assumption); only the stale
// variant acts on an outdated alive bit — deliberately.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/mechanism.h"

namespace loadex::svc {

enum class PolicyKind {
  kRandom,
  kRoundRobin,
  kShortestQueue,
  kStaleShortestQueue,
  kNaive,
  kIncrement,
  kSnapshot,
};

const char* policyKindName(PolicyKind kind);
PolicyKind parsePolicyKind(const std::string& name);

/// All seven kinds, in enum order (bench / demo iteration).
const std::vector<PolicyKind>& allPolicyKinds();

/// True for the kinds that dispatch through a core::Mechanism.
bool policyUsesMechanism(PolicyKind kind);

/// The mechanism behind a mechanism-backed kind; hard-fails otherwise.
core::MechanismKind mechanismKindOf(PolicyKind kind);

/// What one server looks like to a dispatch decision.
struct ServerStat {
  double outstanding_work = 0.0;  ///< dispatched and not yet finished
  bool alive = true;
};

/// Decision input. `servers` is indexed by rank; the dispatcher's own
/// rank is present but must not be chosen (alive = false there).
struct DispatchContext {
  const std::vector<ServerStat>* servers = nullptr;
  Rank self = kNoRank;
  SimTime now = 0.0;
};

/// A reference dispatch policy. Stateful (round-robin cursor, stale
/// snapshot) and rank-0-confined: choose() is only ever called from the
/// dispatcher's execution context.
class DispatchPolicy {
 public:
  virtual ~DispatchPolicy() = default;

  /// Pick a destination server, or kNoRank when no candidate is eligible
  /// (the request is then dropped with cause kNoCandidate).
  virtual Rank choose(const DispatchContext& ctx, Rng& rng) = 0;

  /// Age of the information the last choose() acted on (seconds); 0 for
  /// policies using live state.
  virtual double lastInfoAge() const { return 0.0; }
};

/// Build a reference policy; returns nullptr for the mechanism-backed
/// kinds (the ServiceApp routes those through the Mechanism seam).
/// `refresh_s` is the stale-shortest-queue snapshot period.
std::unique_ptr<DispatchPolicy> makePolicy(PolicyKind kind, double refresh_s);

}  // namespace loadex::svc
