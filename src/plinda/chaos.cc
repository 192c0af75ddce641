#include "plinda/chaos.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "util/random.h"

namespace fpdm::plinda {

namespace {

/// Exponential deviate with the given mean (inverse-CDF; NextDouble() is in
/// [0, 1) so the argument of log stays in (0, 1]).
double Exponential(util::Rng* rng, double mean) {
  return -mean * std::log(1.0 - rng->NextDouble());
}

struct Outage {
  double start = 0;
  double end = 0;
  int machine = -1;
  bool retreat = false;
};

}  // namespace

int FaultPlan::server_crashes() const {
  int count = 0;
  for (const FaultEvent& event : events) {
    if (event.kind == FaultEvent::Kind::kServerCrash) ++count;
  }
  return count;
}

int FaultPlan::machine_failures() const {
  int count = 0;
  for (const FaultEvent& event : events) {
    if (event.kind == FaultEvent::Kind::kMachineCrash ||
        event.kind == FaultEvent::Kind::kMachineRetreat) {
      ++count;
    }
  }
  return count;
}

std::string ToString(const FaultEvent& event) {
  const char* kind = "?";
  switch (event.kind) {
    case FaultEvent::Kind::kMachineCrash:
      kind = "CRASH";
      break;
    case FaultEvent::Kind::kMachineRetreat:
      kind = "RETREAT";
      break;
    case FaultEvent::Kind::kMachineRecover:
      kind = "RECOVER";
      break;
    case FaultEvent::Kind::kServerCrash:
      kind = "SERVER_CRASH";
      break;
    case FaultEvent::Kind::kServerRecover:
      kind = "SERVER_RECOVER";
      break;
  }
  const char* torn = event.torn_tail ? " (torn WAL tail)" : "";
  char buf[112];
  if (event.machine >= 0) {
    std::snprintf(buf, sizeof(buf), "[t=%8.2f] %-14s machine %d", event.time,
                  kind, event.machine);
  } else {
    std::snprintf(buf, sizeof(buf), "[t=%8.2f] %-14s tuple-space server%s",
                  event.time, kind, torn);
  }
  return buf;
}

std::string ToString(const FaultPlan& plan) {
  std::string out;
  for (const FaultEvent& event : plan.events) {
    out += ToString(event);
    out += '\n';
  }
  return out;
}

FaultPlan GenerateFaultPlan(int num_machines, const ChaosOptions& options) {
  assert(num_machines > 0);
  util::Rng rng(options.seed);
  FaultPlan plan;

  std::vector<bool> spared(static_cast<size_t>(num_machines), false);
  for (int m : options.spared_machines) {
    if (m >= 0 && m < num_machines) spared[static_cast<size_t>(m)] = true;
  }
  int num_unspared = 0;
  for (int m = 0; m < num_machines; ++m) {
    if (!spared[static_cast<size_t>(m)]) ++num_unspared;
  }

  // Candidate outages, machine by machine (ascending index keeps the draw
  // order, and so the plan, deterministic).
  std::vector<Outage> candidates;
  if (options.machine_mttf > 0) {
    for (int m = 0; m < num_machines; ++m) {
      if (spared[static_cast<size_t>(m)]) continue;
      double t = options.start_time + Exponential(&rng, options.machine_mttf);
      while (t < options.horizon) {
        Outage outage;
        outage.start = t;
        outage.end = t + Exponential(&rng, options.machine_mttr);
        outage.machine = m;
        outage.retreat = rng.NextBool(options.retreat_probability);
        candidates.push_back(outage);
        t = outage.end + Exponential(&rng, options.machine_mttf);
      }
    }
  }

  // Cap concurrent downtime. With spared machines there is always somewhere
  // to respawn, so the cap only binds when nothing is spared (then at least
  // one machine must stay up for the simulation to make progress).
  int cap = options.max_concurrent_down;
  if (cap <= 0) {
    cap = options.spared_machines.empty() ? num_machines - 1 : num_unspared;
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Outage& a, const Outage& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.machine < b.machine;
            });
  std::vector<Outage> accepted;
  for (const Outage& candidate : candidates) {
    int overlapping = 0;
    for (const Outage& other : accepted) {
      if (other.end > candidate.start && other.start < candidate.end) {
        ++overlapping;
      }
    }
    if (overlapping >= cap) continue;  // would exceed the concurrency budget
    accepted.push_back(candidate);
  }

  for (const Outage& outage : accepted) {
    plan.events.push_back(FaultEvent{outage.retreat
                                         ? FaultEvent::Kind::kMachineRetreat
                                         : FaultEvent::Kind::kMachineCrash,
                                     outage.start, outage.machine});
    plan.events.push_back(
        FaultEvent{FaultEvent::Kind::kMachineRecover, outage.end, outage.machine});
  }

  // Tuple-space-server crashes. Recovery is always scheduled (even past the
  // horizon) so clients never stall forever.
  if (options.server_mttf > 0) {
    double t = options.start_time + Exponential(&rng, options.server_mttf);
    int crashes = 0;
    while (t < options.horizon && crashes < options.max_server_failures) {
      const double recover = t + Exponential(&rng, options.server_mttr);
      // Drawn even when the probability is 0 so enabling torn tails does
      // not reshuffle the time sequence of an existing seed.
      const bool torn = rng.NextBool(options.torn_tail_probability);
      plan.events.push_back(
          FaultEvent{FaultEvent::Kind::kServerCrash, t, -1, torn});
      plan.events.push_back(
          FaultEvent{FaultEvent::Kind::kServerRecover, recover, -1});
      ++crashes;
      t = recover + Exponential(&rng, options.server_mttf);
    }
  }

  std::sort(plan.events.begin(), plan.events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.machine != b.machine) return a.machine < b.machine;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  return plan;
}

void InstallFaultPlan(Runtime* runtime, const FaultPlan& plan) {
  for (const FaultEvent& event : plan.events) {
    switch (event.kind) {
      case FaultEvent::Kind::kMachineCrash:
      case FaultEvent::Kind::kMachineRetreat:
        runtime->ScheduleFailure(event.machine, event.time);
        break;
      case FaultEvent::Kind::kMachineRecover:
        runtime->ScheduleRecovery(event.machine, event.time);
        break;
      case FaultEvent::Kind::kServerCrash:
        runtime->ScheduleServerFailure(event.time, event.torn_tail);
        break;
      case FaultEvent::Kind::kServerRecover:
        runtime->ScheduleServerRecovery(event.time);
        break;
    }
  }
}

bool FailsMachine(int machine,
                  const std::vector<std::pair<int, double>>& failures,
                  const FaultPlan& plan) {
  for (const auto& failure : failures) {
    if (failure.first == machine) return true;
  }
  for (const FaultEvent& event : plan.events) {
    if ((event.kind == FaultEvent::Kind::kMachineCrash ||
         event.kind == FaultEvent::Kind::kMachineRetreat) &&
        event.machine == machine) {
      return true;
    }
  }
  return false;
}

}  // namespace fpdm::plinda
