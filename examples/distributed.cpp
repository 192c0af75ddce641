// Distributed-mode demo: the same task-farm program runs three times —
// under the virtual-time simulator, in ExecutionMode::kDistributed (every
// worker a forked OS process, the tuple space a separate server process
// behind a Unix-domain socket), and distributed again with a worker
// SIGKILLed mid-transaction plus a tuple-space-server crash mid-run. The
// transaction + continuation machinery and the server's checkpoint +
// write-ahead log recovery make all three produce the identical answer.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "plinda/runtime.h"

namespace {

using namespace fpdm::plinda;

constexpr int kChunks = 12;
constexpr int kWorkers = 3;

struct RunOutcome {
  bool ok = false;
  int64_t total = 0;
  RuntimeStats stats;
};

// Sums 1..kChunks*100 chunk by chunk. Workers fold one chunk per
// transaction and commit a per-worker progress continuation, so a killed
// worker's respawned incarnation redoes only its uncommitted chunk.
RunOutcome RunSum(const RuntimeOptions& options, bool kill_things) {
  Runtime runtime(kWorkers, options);
  if (kill_things) {
    // Wall-clock faults: machine 1 dies 50ms in (its worker is asleep
    // inside a task transaction; the supervisor respawns it immediately on
    // an up machine), then the server dies and recovers from checkpoint +
    // log while the respawned worker is still mid-chunks.
    runtime.ScheduleFailure(1, 0.05);
    runtime.ScheduleRecovery(1, 0.15);
    runtime.ScheduleServerFailure(0.10);
    runtime.ScheduleServerRecovery(0.20);
  }

  for (int c = 0; c < kChunks; ++c) {
    runtime.space().Out(MakeTuple("task", c));
  }

  for (int w = 0; w < kWorkers; ++w) {
    runtime.SpawnOn("worker-" + std::to_string(w), w, [](ProcessContext& ctx) {
      int64_t done = 0;
      Tuple cont;
      if (ctx.XRecover(&cont)) done = GetInt(cont, 0);
      while (done < kChunks / kWorkers) {
        ctx.XStart();
        Tuple task;
        ctx.In(MakeTemplate(A("task"), F(ValueType::kInt)), &task);
        const int64_t chunk = GetInt(task, 1);
        // Wall-clock dwell inside the transaction so the scheduled faults
        // land mid-task; Compute() advances virtual time / work only.
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        ctx.Compute(25.0);
        int64_t sum = 0;
        for (int i = 1; i <= 100; ++i) sum += chunk * 100 + i;
        ctx.Out(MakeTuple("sum", chunk, sum));
        ++done;
        ctx.XCommit(MakeTuple(done));
      }
    });
  }

  RunOutcome outcome;
  outcome.ok = runtime.Run();
  if (!runtime.diagnostic().empty()) {
    std::printf("diagnostic:\n%s", runtime.diagnostic().c_str());
  }
  Tuple reply;
  while (runtime.space().TryIn(
      MakeTemplate(A("sum"), F(ValueType::kInt), F(ValueType::kInt)),
      &reply)) {
    outcome.total += GetInt(reply, 2);
  }
  outcome.stats = runtime.stats();
  return outcome;
}

// stdout is the same on every run. How many checkpoints the server takes,
// and how many log entries a restarted server replays, depend on where the
// wall-clock crash lands among the logged ops, so those counts go to
// stderr.
void PrintRow(const char* label, const RunOutcome& outcome) {
  std::printf("%-28s ok=%d total=%lld kills=%llu respawns=%llu "
              "server_crashes=%llu\n",
              label, outcome.ok ? 1 : 0, (long long)outcome.total,
              (unsigned long long)outcome.stats.processes_killed,
              (unsigned long long)outcome.stats.processes_respawned,
              (unsigned long long)outcome.stats.server_failures);
  std::fprintf(stderr, "%-28s checkpoints=%llu replayed=%llu\n", label,
               (unsigned long long)outcome.stats.server_checkpoints,
               (unsigned long long)outcome.stats.server_ops_replayed);
}

}  // namespace

int main() {
  RuntimeOptions simulated;  // defaults: kSimulated

  RuntimeOptions distributed;
  distributed.mode = ExecutionMode::kDistributed;
  distributed.distributed_checkpoint_ops = 8;

  const RunOutcome sim = RunSum(simulated, /*kill_things=*/false);
  const RunOutcome dist = RunSum(distributed, /*kill_things=*/false);
  const RunOutcome chaotic = RunSum(distributed, /*kill_things=*/true);

  PrintRow("simulated", sim);
  PrintRow("distributed", dist);
  PrintRow("distributed + SIGKILLs", chaotic);

  const bool identical = sim.ok && dist.ok && chaotic.ok &&
                         sim.total == dist.total &&
                         sim.total == chaotic.total;
  std::printf("\nresults identical across modes and faults: %s\n",
              identical ? "yes" : "NO (bug!)");
  return identical ? 0 : 1;
}
