// Fault tolerance of ExecutionMode::kDistributed: SIGKILLing real worker
// processes mid-transaction and SIGKILLing the tuple-space server process
// mid-run must not lose or duplicate work. Workers sleep inside their task
// transactions so the scheduled wall-clock faults land mid-task
// deterministically; the PLinda transaction + continuation machinery then
// has to deliver exactly-once task effects through the recovery.

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arm/problem.h"
#include "core/parallel.h"
#include "gtest/gtest.h"
#include "plinda/chaos.h"
#include "plinda/runtime.h"
#include "plinda/tuple.h"

namespace fpdm {
namespace {

using plinda::A;
using plinda::ExecutionMode;
using plinda::F;
using plinda::GetInt;
using plinda::MakeTemplate;
using plinda::MakeTuple;
using plinda::ProcessContext;
using plinda::Runtime;
using plinda::RuntimeOptions;
using plinda::Tuple;
using plinda::ValueType;

constexpr int kNumTasks = 10;

RuntimeOptions DistOptions() {
  RuntimeOptions options;
  options.mode = ExecutionMode::kDistributed;
  options.distributed_checkpoint_ops = 8;  // several checkpoints per run
  return options;
}

// One worker consumes kNumTasks ("task", i) tuples, one per transaction,
// sleeping ~20ms inside each so the run spans a deterministic wall-clock
// window. Progress is committed as a continuation, so a respawned
// incarnation resumes exactly where the last commit left off.
void TaskLoop(ProcessContext& ctx) {
  int64_t done = 0;
  Tuple cont;
  if (ctx.XRecover(&cont)) done = GetInt(cont, 1);
  while (done < kNumTasks) {
    ctx.XStart();
    Tuple task;
    ctx.In(MakeTemplate(A("task"), F(ValueType::kInt)), &task);
    ctx.Out(MakeTuple("res", GetInt(task, 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ctx.Compute(1.0);
    ++done;
    ctx.XCommit(MakeTuple("progress", done));
  }
}

// Drains the ("res", i) tuples and checks every task produced its result
// exactly once — no losses, no duplicates — regardless of the faults.
void ExpectExactlyOnceResults(Runtime& runtime) {
  std::multiset<int64_t> results;
  Tuple tuple;
  while (runtime.space().TryIn(MakeTemplate(A("res"), F(ValueType::kInt)),
                               &tuple)) {
    results.insert(GetInt(tuple, 1));
  }
  ASSERT_EQ(results.size(), static_cast<size_t>(kNumTasks));
  for (int64_t i = 0; i < kNumTasks; ++i) {
    EXPECT_EQ(results.count(i), 1u) << "task " << i;
  }
}

TEST(DistributedChaosTest, WorkerKilledMidTransactionIsRespawned) {
  Runtime runtime(2, DistOptions());
  // ~200ms of work on machine 1; the kill at 80ms lands mid-transaction
  // (the worker sleeps inside it), the recovery at 150ms respawns. The
  // margin leaves room for the worker's own fork+connect+recover preamble
  // under sanitizers — the fault clock already excludes server boot.
  runtime.ScheduleFailure(1, 0.08);
  runtime.ScheduleRecovery(1, 0.15);
  for (int64_t i = 0; i < kNumTasks; ++i) {
    runtime.space().Out(MakeTuple("task", i));
  }
  runtime.SpawnOn("worker", 1, TaskLoop);
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
  EXPECT_GE(runtime.stats().processes_killed, 1u);
  EXPECT_GE(runtime.stats().processes_respawned, 1u);
  ExpectExactlyOnceResults(runtime);
  // The aborted transaction's removal was rolled back server-side.
  EXPECT_GE(runtime.stats().transactions_aborted, 1u);
}

TEST(DistributedChaosTest, ServerKilledMidRunRecoversFromCheckpointAndLog) {
  Runtime runtime(1, DistOptions());
  // The server dies at 40ms — mid-run, past several logged operations —
  // and restarts at 100ms from its checkpoint + log. The worker's calls
  // stall, reconnect, and resend; dedup makes the retries exactly-once.
  runtime.ScheduleServerFailure(0.04);
  runtime.ScheduleServerRecovery(0.10);
  for (int64_t i = 0; i < kNumTasks; ++i) {
    runtime.space().Out(MakeTuple("task", i));
  }
  runtime.SpawnOn("worker", 0, TaskLoop);
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
  EXPECT_EQ(runtime.stats().server_failures, 1u);
  EXPECT_GE(runtime.stats().server_checkpoints, 1u);
  EXPECT_GT(runtime.stats().server_downtime, 0.0);
  ExpectExactlyOnceResults(runtime);
}

// Like TaskLoop, but after each commit the worker publishes a three-tuple
// result group through the write-coalescing path, so the group travels as
// ONE kBatch frame (a single WAL record server-side). A server kill landing
// mid-flush forces a reconnect + resend; the dedup window must make the
// whole group apply exactly once — never a partial group, never twice.
void BatchyTaskLoop(ProcessContext& ctx) {
  int64_t done = 0;
  Tuple cont;
  if (ctx.XRecover(&cont)) done = GetInt(cont, 1);
  while (done < kNumTasks) {
    ctx.XStart();
    Tuple task;
    ctx.In(MakeTemplate(A("task"), F(ValueType::kInt)), &task);
    const int64_t id = GetInt(task, 1);
    ctx.Out(MakeTuple("res", id));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ctx.Compute(1.0);
    ++done;
    ctx.XCommit(MakeTuple("progress", done));
    for (int64_t part = 0; part < 3; ++part) {
      ctx.Out(MakeTuple("part", id, part));
    }
  }
}

TEST(DistributedChaosTest, MidBatchServerKillAppliesWholeBatchOnceOrNotAtAll) {
  // 22 seeded fault plans spread server kills across the whole run window,
  // so some land while a worker's coalesced frames are mid-flight.
  for (uint64_t seed = 1; seed <= 22; ++seed) {
    plinda::ChaosOptions chaos;
    chaos.seed = seed;
    chaos.start_time = 0.02;
    chaos.horizon = 0.25;
    chaos.machine_mttf = 0;  // server faults only: workers stay alive, so
                             // every out (txn or batched) is exactly-once
    chaos.server_mttf = 0.07;
    chaos.server_mttr = 0.05;
    chaos.max_server_failures = 2;
    const plinda::FaultPlan plan = plinda::GenerateFaultPlan(1, chaos);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + ToString(plan));

    Runtime runtime(1, DistOptions());
    plinda::InstallFaultPlan(&runtime, plan);
    for (int64_t i = 0; i < kNumTasks; ++i) {
      runtime.space().Out(MakeTuple("task", i));
    }
    runtime.SpawnOn("worker", 0, BatchyTaskLoop);
    ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
    ExpectExactlyOnceResults(runtime);
    // Every task's three-part group survived intact: 3 parts per task,
    // each exactly once.
    std::multiset<std::pair<int64_t, int64_t>> parts;
    Tuple tuple;
    while (runtime.space().TryIn(
        MakeTemplate(A("part"), F(ValueType::kInt), F(ValueType::kInt)),
        &tuple)) {
      parts.insert({GetInt(tuple, 1), GetInt(tuple, 2)});
    }
    ASSERT_EQ(parts.size(), static_cast<size_t>(kNumTasks * 3));
    for (int64_t i = 0; i < kNumTasks; ++i) {
      for (int64_t part = 0; part < 3; ++part) {
        EXPECT_EQ(parts.count({i, part}), 1u)
            << "task " << i << " part " << part;
      }
    }
  }
}

// Formal-first task consumption: the tasks are seeded under kNumTasks
// DISTINCT bucket keys ("t0", "t1", ...), and the worker's template leads
// with a formal, so every In matches across buckets — the server's
// oldest-first scan over the whole space, not a single-bucket lookup.
void FormalFirstTaskLoop(ProcessContext& ctx) {
  int64_t done = 0;
  Tuple cont;
  if (ctx.XRecover(&cont)) done = GetInt(cont, 1);
  while (done < kNumTasks) {
    ctx.XStart();
    Tuple task;
    ctx.In(MakeTemplate(F(ValueType::kString), F(ValueType::kInt),
                        F(ValueType::kInt)),
           &task);
    ctx.Out(MakeTuple("res", GetInt(task, 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ctx.Compute(1.0);
    ++done;
    ctx.XCommit(MakeTuple("progress", done));
  }
}

void SeedFormalFirstTasks(Runtime& runtime) {
  for (int64_t i = 0; i < kNumTasks; ++i) {
    runtime.space().Out(
        MakeTuple("t" + std::to_string(i), i, static_cast<int64_t>(0)));
  }
}

TEST(DistributedChaosTest, BlockingFormalFirstInWakesOnOutsToOtherBuckets) {
  // The consumer starts before any task exists, so each formal-first In
  // parks server-side; the producer then publishes tasks one at a time,
  // each under a new bucket key. Every out must wake the parked in, whose
  // template names no bucket, and each task must be taken exactly once.
  Runtime runtime(1, DistOptions());
  runtime.SpawnOn("producer", 0, [](ProcessContext& ctx) {
    for (int64_t i = 0; i < kNumTasks; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ctx.Out(MakeTuple("t" + std::to_string(i), i, static_cast<int64_t>(0)));
    }
  });
  runtime.SpawnOn("consumer", 0, [](ProcessContext& ctx) {
    for (int64_t i = 0; i < kNumTasks; ++i) {
      Tuple task;
      ctx.In(MakeTemplate(F(ValueType::kString), F(ValueType::kInt),
                          F(ValueType::kInt)),
             &task);
      ctx.Out(MakeTuple("res", GetInt(task, 1)));
    }
  });
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
  ExpectExactlyOnceResults(runtime);
}

TEST(DistributedChaosTest, ServerKilledMidFormalFirstInRecoversExactlyOnce) {
  // 22 seeded fault plans killing the server while a worker runs
  // formal-first transactions. Whatever the kill interrupts — the
  // cross-bucket take, the commit, or the deferred frames riding with the
  // next in — recovery from the WAL + checkpoint plus client resend/dedup
  // must deliver every task's effects exactly once.
  uint64_t total_kills = 0;
  for (uint64_t seed = 1; seed <= 22; ++seed) {
    plinda::ChaosOptions chaos;
    chaos.seed = seed;
    chaos.start_time = 0.02;
    chaos.horizon = 0.25;
    chaos.machine_mttf = 0;  // server faults only
    chaos.server_mttf = 0.07;
    chaos.server_mttr = 0.05;
    chaos.max_server_failures = 2;
    const plinda::FaultPlan plan = plinda::GenerateFaultPlan(1, chaos);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + ToString(plan));

    Runtime runtime(1, DistOptions());
    plinda::InstallFaultPlan(&runtime, plan);
    SeedFormalFirstTasks(runtime);
    runtime.SpawnOn("worker", 0, FormalFirstTaskLoop);
    ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
    ExpectExactlyOnceResults(runtime);
    total_kills += runtime.stats().server_failures;
  }
  // The plans must actually have exercised kills: 12 of their crashes
  // fall before 0.10 s, and no run can end before then (10 tasks x 10 ms),
  // so at least those land.
  EXPECT_GE(total_kills, 12u);
}

// Two-bucket transactions: each task destructively claims TWO tuples under
// DIFFERENT bucket keys ("t<i>" then "u<i>") inside one transaction, so a
// crash-abort or a replay has two removals to restore or redo together.
void TwoInTaskLoop(ProcessContext& ctx) {
  int64_t done = 0;
  Tuple cont;
  if (ctx.XRecover(&cont)) done = GetInt(cont, 1);
  while (done < kNumTasks) {
    ctx.XStart();
    Tuple a;
    ctx.In(MakeTemplate(A("t" + std::to_string(done)), F(ValueType::kInt)),
           &a);
    Tuple b;
    ctx.In(MakeTemplate(A("u" + std::to_string(done)), F(ValueType::kInt)),
           &b);
    ctx.Out(MakeTuple("res", GetInt(a, 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ctx.Compute(1.0);
    ++done;
    ctx.XCommit(MakeTuple("progress", done));
  }
}

void SeedTwoInTasks(Runtime& runtime) {
  for (int64_t i = 0; i < kNumTasks; ++i) {
    runtime.space().Out(MakeTuple("t" + std::to_string(i), i));
    runtime.space().Out(MakeTuple("u" + std::to_string(i), i));
  }
}

TEST(DistributedChaosTest, TwoInTxnSurvivesKillsAndTornWalTailsExactlyOnce) {
  // 22 seeded fault plans over two-bucket transactions; half of the
  // scheduled SIGKILLs also tear the server's final WAL append, so
  // recovery must discard the torn record by checksum and replay the
  // intact prefix. Whatever the kills interrupt, the results stay
  // exactly-once.
  uint64_t total_kills = 0;
  for (uint64_t seed = 1; seed <= 22; ++seed) {
    plinda::ChaosOptions chaos;
    chaos.seed = seed;
    chaos.start_time = 0.02;
    chaos.horizon = 0.25;
    chaos.machine_mttf = 0;  // server faults only
    chaos.server_mttf = 0.07;
    chaos.server_mttr = 0.05;
    chaos.max_server_failures = 2;
    chaos.torn_tail_probability = 0.5;
    const plinda::FaultPlan plan = plinda::GenerateFaultPlan(1, chaos);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + ToString(plan));

    Runtime runtime(1, DistOptions());
    plinda::InstallFaultPlan(&runtime, plan);
    SeedTwoInTasks(runtime);
    runtime.SpawnOn("worker", 0, TwoInTaskLoop);
    ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
    ExpectExactlyOnceResults(runtime);
    total_kills += runtime.stats().server_failures;
  }
  // 12 of the plans' crashes fall before 0.10 s, and no run can end
  // before then (10 tasks x 10 ms), so at least those land.
  EXPECT_GE(total_kills, 12u);
}

TEST(DistributedChaosTest, FatalServerExitFailsRunWithServerDead) {
  // A server whose WAL stops accepting appends mid-run _exits(1) rather
  // than acknowledge mutations it cannot make durable. Restarting it would
  // hit the same wall, so the supervisor must fail the run with a
  // structured kServerDead error instead of spinning until the deadlock
  // timeout. wal_fail_after = 25 lands past boot + task seeding, inside
  // the worker's task loop.
  RuntimeOptions options = DistOptions();
  options.distributed_wal_fail_after = 25;
  Runtime runtime(1, options);
  for (int64_t i = 0; i < kNumTasks; ++i) {
    runtime.space().Out(MakeTuple("task", i));
  }
  runtime.SpawnOn("worker", 0, TaskLoop);
  EXPECT_FALSE(runtime.Run());
  bool saw_server_dead = false;
  for (const plinda::RuntimeError& error : runtime.errors()) {
    saw_server_dead |=
        error.code == plinda::RuntimeError::Code::kServerDead;
  }
  EXPECT_TRUE(saw_server_dead) << runtime.diagnostic();
}

TEST(DistributedChaosTest, MinerSurvivesWorkerKillWithIdenticalResults) {
  arm::BasketConfig config;
  config.num_transactions = 200;
  config.num_items = 22;
  config.avg_transaction_size = 6;
  config.patterns = {{{1, 4, 7}, 0.3}, {{2, 5}, 0.4}};
  const arm::ItemsetProblem problem(arm::GenerateBaskets(config),
                                    /*min_support=*/18);

  core::ParallelOptions reference;
  reference.strategy = core::Strategy::kLoadBalanced;
  reference.execution_mode = ExecutionMode::kSimulated;
  reference.num_workers = 4;
  const core::ParallelResult sim = core::MineParallel(problem, reference);
  ASSERT_TRUE(sim.ok);

  core::ParallelOptions faulty = reference;
  faulty.execution_mode = ExecutionMode::kDistributed;
  // Wall-clock kill early in the run; worker 1's open task transaction
  // rolls back and the worker respawns on an up machine. Whether the kill
  // lands mid-task or after the run's tail is timing-dependent — the
  // result may never be.
  faulty.failures = {{1, 0.01}};
  const core::ParallelResult dist = core::MineParallel(problem, faulty);
  ASSERT_TRUE(dist.ok);

  EXPECT_EQ(sim.mining.patterns_tested, dist.mining.patterns_tested);
  EXPECT_EQ(sim.mining.total_task_cost, dist.mining.total_task_cost);
  ASSERT_EQ(sim.mining.good_patterns.size(), dist.mining.good_patterns.size());
  for (size_t i = 0; i < sim.mining.good_patterns.size(); ++i) {
    EXPECT_EQ(sim.mining.good_patterns[i].pattern.key,
              dist.mining.good_patterns[i].pattern.key)
        << i;
    EXPECT_EQ(sim.mining.good_patterns[i].goodness,
              dist.mining.good_patterns[i].goodness)
        << i;
  }
}

}  // namespace
}  // namespace fpdm
