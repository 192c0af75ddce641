#ifndef FPDM_PLINDA_CHAOS_H_
#define FPDM_PLINDA_CHAOS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "plinda/runtime.h"

namespace fpdm::plinda {

/// Knobs of the seeded fault-injection (chaos) generator. Times are virtual
/// seconds; failure gaps and downtimes are exponentially distributed
/// (MTTF/MTTR), matching the Piranha workstation-availability model the
/// paper's NOW assumes (Chapters 2, 7).
struct ChaosOptions {
  uint64_t seed = 1;

  /// Events are generated in [start_time, horizon). Recoveries may land
  /// beyond the horizon (downtimes are never truncated), so nothing stays
  /// down forever.
  double start_time = 5.0;
  double horizon = 300.0;

  /// Mean virtual time between failures of one machine, and mean downtime.
  /// machine_mttf <= 0 disables machine faults.
  double machine_mttf = 100.0;
  double machine_mttr = 30.0;

  /// Fraction of machine failures that are Piranha "retreats" (the owner
  /// reclaims the workstation) rather than crashes. Both kill the machine's
  /// processes; the distinction labels the plan for reporting.
  double retreat_probability = 0.5;

  /// Machines never failed by the plan. Defaults to machine 0: the miners'
  /// masters run there, and (unlike the workers) they do not commit
  /// continuations, so the drivers refuse a plan that fails it (see
  /// FailsMachine). An empty list puts every machine in play.
  std::vector<int> spared_machines = {0};

  /// Upper bound on machines down at the same instant. Non-positive means
  /// "all but one non-spared machine", so some machine is always up and
  /// killed processes can respawn.
  int max_concurrent_down = 0;

  /// Tuple-space-server failures: mean time to the next crash (<= 0
  /// disables them), mean downtime, and a cap on crashes per plan.
  double server_mttf = 0;
  double server_mttr = 20.0;
  int max_server_failures = 1;

  /// Fraction of server crashes whose on-disk image has a torn final WAL
  /// append (the crash landed mid-write). Recovery must detect the damaged
  /// record by checksum and replay only the intact prefix. kDistributed
  /// only; the simulator ignores the flag.
  double torn_tail_probability = 0;
};

/// One scheduled fault. Machine events carry the machine index; server
/// events use machine = -1.
struct FaultEvent {
  enum class Kind {
    kMachineCrash,
    kMachineRetreat,
    kMachineRecover,
    kServerCrash,
    kServerRecover,
  };
  Kind kind = Kind::kMachineCrash;
  double time = 0;
  int machine = -1;
  /// kServerCrash only: the crash tears the server's final WAL append
  /// (see ChaosOptions::torn_tail_probability).
  bool torn_tail = false;
};

/// A reproducible schedule of machine and server faults, sorted by time.
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  /// Number of server crashes in the plan.
  int server_crashes() const;
  /// Number of machine crash/retreat events in the plan.
  int machine_failures() const;
};

/// Human-readable renderings for logs and chaos-test failure messages.
std::string ToString(const FaultEvent& event);
std::string ToString(const FaultPlan& plan);

/// Draws a fault plan for a NOW of `num_machines` machines. Deterministic:
/// the same options (including seed) always produce the same plan, so a
/// chaos run is bit-for-bit reproducible.
FaultPlan GenerateFaultPlan(int num_machines, const ChaosOptions& options);

/// Installs every event of the plan into the runtime
/// (ScheduleFailure/ScheduleRecovery/ScheduleServerFailure/...).
void InstallFaultPlan(Runtime* runtime, const FaultPlan& plan);

/// True if `failures` ((machine, time) pairs) or a crash or retreat event of
/// `plan` fails `machine`. The mining drivers refuse to run when this holds
/// for machine 0, where their masters run (DESIGN.md, "Fault model",
/// Masters).
bool FailsMachine(int machine,
                  const std::vector<std::pair<int, double>>& failures,
                  const FaultPlan& plan);

}  // namespace fpdm::plinda

#endif  // FPDM_PLINDA_CHAOS_H_
