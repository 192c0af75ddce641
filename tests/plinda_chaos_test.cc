#include "plinda/chaos.h"

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "plinda/runtime.h"
#include "plinda/tuple.h"

namespace fpdm::plinda {
namespace {

// ---------------------------------------------------------------------------
// Fault-plan generator
// ---------------------------------------------------------------------------

ChaosOptions BusyOptions(uint64_t seed) {
  ChaosOptions opts;
  opts.seed = seed;
  opts.start_time = 5.0;
  opts.horizon = 400.0;
  opts.machine_mttf = 60.0;
  opts.machine_mttr = 15.0;
  opts.server_mttf = 150.0;
  opts.server_mttr = 20.0;
  opts.max_server_failures = 2;
  return opts;
}

TEST(FaultPlanTest, SameSeedSamePlan) {
  const FaultPlan a = GenerateFaultPlan(5, BusyOptions(42));
  const FaultPlan b = GenerateFaultPlan(5, BusyOptions(42));
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << i;
    EXPECT_EQ(a.events[i].time, b.events[i].time) << i;  // bit-for-bit
    EXPECT_EQ(a.events[i].machine, b.events[i].machine) << i;
  }
  EXPECT_EQ(ToString(a), ToString(b));
  EXPECT_FALSE(a.empty());
}

TEST(FaultPlanTest, DifferentSeedsDiffer) {
  const FaultPlan a = GenerateFaultPlan(5, BusyOptions(1));
  const FaultPlan b = GenerateFaultPlan(5, BusyOptions(2));
  EXPECT_NE(ToString(a), ToString(b));
}

TEST(FaultPlanTest, SparedMachinesNeverFail) {
  ChaosOptions opts = BusyOptions(7);
  opts.spared_machines = {0, 2};
  const FaultPlan plan = GenerateFaultPlan(4, opts);
  EXPECT_GT(plan.machine_failures(), 0);
  for (const FaultEvent& event : plan.events) {
    if (event.machine < 0) continue;  // server event
    EXPECT_NE(event.machine, 0) << ToString(event);
    EXPECT_NE(event.machine, 2) << ToString(event);
  }
}

TEST(FaultPlanTest, EventsSortedByTime) {
  const FaultPlan plan = GenerateFaultPlan(6, BusyOptions(11));
  for (size_t i = 1; i < plan.events.size(); ++i) {
    EXPECT_LE(plan.events[i - 1].time, plan.events[i].time) << i;
  }
}

// Replays the plan keeping a "which machines are down" set: crashes must hit
// up machines, recoveries down machines, and concurrency must respect the cap.
TEST(FaultPlanTest, OutagesWellFormedAndCapped) {
  ChaosOptions opts = BusyOptions(13);
  opts.machine_mttf = 30.0;  // lots of pressure on the cap
  opts.max_concurrent_down = 2;
  const FaultPlan plan = GenerateFaultPlan(6, opts);
  ASSERT_GT(plan.machine_failures(), 0);
  std::set<int> down;
  bool server_down = false;
  for (const FaultEvent& event : plan.events) {
    switch (event.kind) {
      case FaultEvent::Kind::kMachineCrash:
      case FaultEvent::Kind::kMachineRetreat:
        EXPECT_EQ(down.count(event.machine), 0u) << ToString(event);
        down.insert(event.machine);
        EXPECT_LE(down.size(), 2u) << ToString(event);
        break;
      case FaultEvent::Kind::kMachineRecover:
        EXPECT_EQ(down.count(event.machine), 1u) << ToString(event);
        down.erase(event.machine);
        break;
      case FaultEvent::Kind::kServerCrash:
        EXPECT_FALSE(server_down) << ToString(event);
        server_down = true;
        break;
      case FaultEvent::Kind::kServerRecover:
        EXPECT_TRUE(server_down) << ToString(event);
        server_down = false;
        break;
    }
  }
  EXPECT_TRUE(down.empty()) << "every outage must end";
  EXPECT_FALSE(server_down) << "server recovery is always scheduled";
}

TEST(FaultPlanTest, DefaultCapLeavesAMachineUp) {
  // No spared machines, no explicit cap: all-but-one may be down at once,
  // never the whole network.
  ChaosOptions opts = BusyOptions(17);
  opts.spared_machines.clear();
  opts.machine_mttf = 10.0;
  opts.machine_mttr = 50.0;
  opts.server_mttf = 0;
  const int kMachines = 3;
  const FaultPlan plan = GenerateFaultPlan(kMachines, opts);
  std::set<int> down;
  for (const FaultEvent& event : plan.events) {
    if (event.kind == FaultEvent::Kind::kMachineRecover) {
      down.erase(event.machine);
    } else {
      down.insert(event.machine);
      EXPECT_LT(static_cast<int>(down.size()), kMachines) << ToString(event);
    }
  }
}

TEST(FaultPlanTest, ServerCrashCountCapped) {
  ChaosOptions opts = BusyOptions(19);
  opts.machine_mttf = 0;
  opts.server_mttf = 20.0;  // would crash many times if uncapped
  opts.max_server_failures = 2;
  const FaultPlan plan = GenerateFaultPlan(4, opts);
  EXPECT_EQ(plan.machine_failures(), 0);
  EXPECT_GE(plan.server_crashes(), 1);
  EXPECT_LE(plan.server_crashes(), 2);
}

TEST(FaultPlanTest, DisabledGeneratorsYieldEmptyPlan) {
  ChaosOptions opts;
  opts.machine_mttf = 0;
  opts.server_mttf = 0;
  EXPECT_TRUE(GenerateFaultPlan(4, opts).empty());
}

// Every event of the plan with its time bit-exact (hexfloat), so a pinned
// rendering catches any drift in the generator's draws.
std::string ExactRendering(const FaultPlan& plan) {
  std::string out;
  for (const FaultEvent& event : plan.events) {
    char time[40];
    std::snprintf(time, sizeof(time), " %a\n", event.time);
    out += ToString(event) + time;
  }
  return out;
}

// The server-kill options of distributed_chaos_test.cc.
ChaosOptions ServerKillOptions(uint64_t seed) {
  ChaosOptions chaos;
  chaos.seed = seed;
  chaos.start_time = 0.02;
  chaos.horizon = 0.25;
  chaos.machine_mttf = 0;
  chaos.server_mttf = 0.07;
  chaos.server_mttr = 0.05;
  chaos.max_server_failures = 2;
  return chaos;
}

// chaos_soak_test.cc's ScaledChaos.
ChaosOptions SoakOptions(uint64_t seed, double t) {
  ChaosOptions chaos;
  chaos.seed = seed;
  chaos.start_time = 0.05 * t;
  chaos.horizon = 0.6 * t;
  chaos.machine_mttf = t / 3;
  chaos.machine_mttr = t / 10;
  chaos.server_mttf = 0.3 * t;
  chaos.server_mttr = t / 20;
  chaos.max_server_failures = 1;
  return chaos;
}

TEST(FaultPlanTest, ChaosSuitePlansArePinned) {
  // The plans the chaos suites and examples/chaos draw, pinned to the
  // generator output they have always had: a change to the draw sequence
  // would silently move every seed those runs exercise. One FNV-1a hash
  // per option set over the bit-exact rendering of all its seeds (the
  // failure message prints the rendering); the example's plan verbatim.
  std::string kills, torn;
  for (uint64_t seed = 1; seed <= 22; ++seed) {
    kills += ExactRendering(GenerateFaultPlan(1, ServerKillOptions(seed)));
    ChaosOptions t = ServerKillOptions(seed);
    t.torn_tail_probability = 0.5;
    torn += ExactRendering(GenerateFaultPlan(1, t));
  }
  EXPECT_EQ(Fnv1a64(kills), 0xc4b8fd2ea01e751dull) << kills;
  EXPECT_EQ(Fnv1a64(torn), 0x0b94c89255d37349ull) << torn;

  // The soak's time scales are its failure-free simulated completion
  // times: Apriori on 4 machines, NyuMiner-CV on 3.
  std::string apriori, nyuminer;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    apriori += ExactRendering(
        GenerateFaultPlan(4, SoakOptions(seed, 0x1.f79f428f5c28p+15)));
  }
  for (uint64_t seed = 101; seed <= 110; ++seed) {
    nyuminer += ExactRendering(
        GenerateFaultPlan(3, SoakOptions(seed, 0x1.024ed916872b1p+6)));
  }
  EXPECT_EQ(Fnv1a64(apriori), 0x82f8a3127bb1b782ull) << apriori;
  EXPECT_EQ(Fnv1a64(nyuminer), 0x8129d14f449718efull) << nyuminer;

  // examples/chaos: seed 5 on 3 machines, scaled to its failure-free
  // completion time q.
  const double q = 0x1.9a7ae147ae148p+6;
  ChaosOptions example;
  example.seed = 5;
  example.start_time = 10.0;
  example.horizon = 0.8 * q;
  example.machine_mttf = q / 2;
  example.machine_mttr = q / 8;
  example.server_mttf = q / 3;
  example.server_mttr = q / 10;
  EXPECT_EQ(
      ExactRendering(GenerateFaultPlan(3, example)),
      "[t=   25.40] SERVER_CRASH   tuple-space server 0x1.966e12886224ep+4\n"
      "[t=   27.46] CRASH          machine 1 0x1.b755f8dd0a91dp+4\n"
      "[t=   30.32] SERVER_RECOVER tuple-space server 0x1.e52b672cc2adp+4\n"
      "[t=   39.28] RECOVER        machine 1 0x1.3a3bb8b4f8729p+5\n"
      "[t=   47.31] CRASH          machine 2 0x1.7a7aa5b84ad25p+5\n"
      "[t=   67.00] RECOVER        machine 2 0x1.0bfedc39f6492p+6\n");
}

TEST(FaultPlanTest, ToStringRendersEveryKind) {
  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultEvent::Kind::kMachineCrash, 1.0, 2});
  plan.events.push_back(FaultEvent{FaultEvent::Kind::kMachineRetreat, 2.0, 3});
  plan.events.push_back(FaultEvent{FaultEvent::Kind::kMachineRecover, 3.0, 2});
  plan.events.push_back(FaultEvent{FaultEvent::Kind::kServerCrash, 4.0, -1});
  plan.events.push_back(FaultEvent{FaultEvent::Kind::kServerRecover, 5.0, -1});
  const std::string text = ToString(plan);
  EXPECT_NE(text.find("CRASH"), std::string::npos);
  EXPECT_NE(text.find("RETREAT"), std::string::npos);
  EXPECT_NE(text.find("RECOVER"), std::string::npos);
  EXPECT_NE(text.find("SERVER_CRASH"), std::string::npos);
  EXPECT_NE(text.find("SERVER_RECOVER"), std::string::npos);
  EXPECT_NE(text.find("machine 2"), std::string::npos);
  EXPECT_NE(text.find("tuple-space server"), std::string::npos);
}

// ---------------------------------------------------------------------------
// InstallFaultPlan end-to-end: machine faults drive kill + respawn
// ---------------------------------------------------------------------------

TEST(InstallFaultPlanTest, MachineCrashKillsAndRespawns) {
  Runtime rt(2);
  FaultPlan plan;
  plan.events.push_back(FaultEvent{FaultEvent::Kind::kMachineCrash, 2.0, 1});
  plan.events.push_back(FaultEvent{FaultEvent::Kind::kMachineRecover, 30.0, 1});
  InstallFaultPlan(&rt, plan);

  int final_incarnation = -1;
  rt.SpawnOn("victim", 1, [&](ProcessContext& ctx) {
    Tuple cont;
    ctx.XRecover(&cont);  // restartable body
    ctx.Compute(5.0);     // killed at t=2 on the first incarnation
    final_incarnation = ctx.incarnation();
  });
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(final_incarnation, 1);
  EXPECT_EQ(rt.stats().processes_killed, 1u);
  EXPECT_EQ(rt.stats().processes_respawned, 1u);

  bool saw_killed = false, saw_respawned = false, saw_machine_failed = false;
  for (const TraceEvent& event : rt.trace()) {
    saw_killed |= event.kind == TraceEvent::Kind::kKilled;
    saw_respawned |= event.kind == TraceEvent::Kind::kRespawned;
    saw_machine_failed |= event.kind == TraceEvent::Kind::kMachineFailed;
  }
  EXPECT_TRUE(saw_killed);
  EXPECT_TRUE(saw_respawned);
  EXPECT_TRUE(saw_machine_failed);
}

// ---------------------------------------------------------------------------
// Tuple-space-server failure model
// ---------------------------------------------------------------------------

TEST(ServerFailureTest, RecoveryRebuildsExactSpaceContents) {
  Runtime rt(1);
  rt.ScheduleServerFailure(5.0);
  rt.ScheduleServerRecovery(9.0);
  rt.Spawn("worker", [&](ProcessContext& ctx) {
    ctx.Out(MakeTuple("t", 1));
    ctx.Out(MakeTuple("t", 2));
    Tuple got;
    ctx.In(MakeTemplate(A("t"), A(int64_t{1})), &got);  // logged removal
    ctx.Compute(10.0);  // rides across the crash + recovery
    ctx.Out(MakeTuple("t", 3));
  });
  ASSERT_TRUE(rt.Run());

  // Recovery = checkpoint + replayed log: (t,1) stays consumed, (t,2)
  // survives, (t,3) lands after recovery — and FIFO order is preserved.
  Tuple t;
  Template q = MakeTemplate(A("t"), F(ValueType::kInt));
  ASSERT_TRUE(rt.space().TryIn(q, &t));
  EXPECT_EQ(GetInt(t, 1), 2);
  ASSERT_TRUE(rt.space().TryIn(q, &t));
  EXPECT_EQ(GetInt(t, 1), 3);
  EXPECT_TRUE(rt.space().empty());

  const RuntimeStats& stats = rt.stats();
  EXPECT_EQ(stats.server_failures, 1u);
  EXPECT_EQ(stats.server_ops_replayed, 3u);  // two outs + one removal
  EXPECT_GE(stats.server_checkpoints, 2u);   // initial + post-recovery
  EXPECT_DOUBLE_EQ(stats.server_downtime, 4.0);

  bool saw_failed = false, saw_recovered = false;
  for (const TraceEvent& event : rt.trace()) {
    saw_failed |= event.kind == TraceEvent::Kind::kServerFailed;
    saw_recovered |= event.kind == TraceEvent::Kind::kServerRecovered;
  }
  EXPECT_TRUE(saw_failed);
  EXPECT_TRUE(saw_recovered);
}

TEST(ServerFailureTest, PreSeededTuplesSurviveViaInitialCheckpoint) {
  Runtime rt(1);
  rt.space().Out(MakeTuple("seed", 7));
  rt.ScheduleServerFailure(2.0);
  rt.ScheduleServerRecovery(4.0);
  rt.Spawn("idler", [](ProcessContext& ctx) { ctx.Compute(6.0); });
  ASSERT_TRUE(rt.Run());
  Tuple t;
  ASSERT_TRUE(rt.space().TryIn(MakeTemplate(A("seed"), F(ValueType::kInt)), &t));
  EXPECT_EQ(GetInt(t, 1), 7);
}

TEST(ServerFailureTest, OpsStallUntilRecoveryPlusRestartDelay) {
  RuntimeOptions opts;
  opts.server_restart_delay = 2.0;
  Runtime rt(1, opts);
  rt.ScheduleServerFailure(1.0);
  rt.ScheduleServerRecovery(8.0);
  double out_done = 0;
  rt.Spawn("stalled", [&](ProcessContext& ctx) {
    ctx.Compute(2.0);            // t = 2, server already down
    ctx.Out(MakeTuple("x", 1));  // must stall
    out_done = ctx.Now();
  });
  ASSERT_TRUE(rt.Run());
  EXPECT_GE(out_done, 10.0);  // recovery (8) + restart delay (2)
  EXPECT_LT(out_done, 10.5);
}

TEST(ServerFailureTest, PeriodicCheckpointsFollowTheInterval) {
  RuntimeOptions opts;
  opts.server_checkpoint_interval = 1.0;
  Runtime rt(1, opts);
  rt.ScheduleServerFailure(1000.0);  // never fires; enables protection
  rt.Spawn("producer", [](ProcessContext& ctx) {
    for (int i = 0; i < 5; ++i) {
      ctx.Compute(2.0);
      ctx.Out(MakeTuple("tick", i));
    }
  });
  ASSERT_TRUE(rt.Run());
  // ~10 virtual seconds of mutations at a 1-second interval: the lazy
  // checkpointer must have taken every due boundary (plus the initial one).
  EXPECT_GE(rt.stats().server_checkpoints, 9u);
  uint64_t traced = 0;
  for (const TraceEvent& event : rt.trace()) {
    if (event.kind == TraceEvent::Kind::kServerCheckpoint) ++traced;
  }
  EXPECT_EQ(traced, rt.stats().server_checkpoints);
}

TEST(ServerFailureTest, AbortWhileServerDownRestoresTupleAfterRecovery) {
  Runtime rt(2);
  rt.set_auto_respawn(false);
  rt.space().Out(MakeTuple("t", 1));
  rt.ScheduleServerFailure(3.0);
  rt.ScheduleServerRecovery(8.0);
  rt.ScheduleFailure(1, 5.0);  // kills the victim while the server is down
  rt.SpawnOn("victim", 1, [](ProcessContext& ctx) {
    ctx.XStart();
    Tuple got;
    ctx.In(MakeTemplate(A("t"), F(ValueType::kInt)), &got);
    ctx.Compute(10.0);  // dies here; abort must re-publish (t, 1)
    ctx.XCommit();
  });
  int64_t collected = 0;
  rt.SpawnOn("collector", 0, [&](ProcessContext& ctx) {
    ctx.Compute(11.0);  // well past recovery + restart delay
    Tuple got;
    ctx.In(MakeTemplate(A("t"), F(ValueType::kInt)), &got);
    collected = GetInt(got, 1);
  });
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(collected, 1);
  EXPECT_EQ(rt.stats().transactions_aborted, 1u);
  EXPECT_EQ(rt.stats().processes_killed, 1u);
}

TEST(ServerFailureTest, DeadlockDiagnosticReportsServerDown) {
  Runtime rt(1);
  rt.ScheduleServerFailure(1.0);  // no recovery ever scheduled
  rt.Spawn("stalled", [](ProcessContext& ctx) {
    ctx.Compute(2.0);
    ctx.Out(MakeTuple("x", 1));  // stalls forever
  });
  EXPECT_FALSE(rt.Run());
  EXPECT_TRUE(rt.deadlocked());
  const std::string& diag = rt.diagnostic();
  EXPECT_NE(diag.find("stalled"), std::string::npos) << diag;
  EXPECT_NE(diag.find("tuple-space server recovery"), std::string::npos) << diag;
  EXPECT_NE(diag.find("no recovery is scheduled"), std::string::npos) << diag;
}

// ---------------------------------------------------------------------------
// Structured protocol errors (formerly asserts)
// ---------------------------------------------------------------------------

TEST(ProtocolErrorTest, XCommitWithoutXStart) {
  Runtime rt(1);
  rt.Spawn("bad", [](ProcessContext& ctx) { ctx.XCommit(); });
  bool other_finished = false;
  rt.Spawn("good", [&](ProcessContext& ctx) {
    ctx.Compute(1.0);
    other_finished = true;
  });
  EXPECT_FALSE(rt.Run());
  EXPECT_FALSE(rt.deadlocked());
  EXPECT_TRUE(other_finished) << "an erroring process must not stop others";
  ASSERT_EQ(rt.errors().size(), 1u);
  const RuntimeError& error = rt.errors()[0];
  EXPECT_EQ(error.code, RuntimeError::Code::kXCommitWithoutXStart);
  EXPECT_EQ(error.process, "bad");
  // The offender terminates without counting (or respawning) as a failure.
  EXPECT_EQ(rt.stats().processes_killed, 0u);
  EXPECT_EQ(rt.stats().processes_respawned, 0u);
  bool saw_error_event = false;
  for (const TraceEvent& event : rt.trace()) {
    saw_error_event |= event.kind == TraceEvent::Kind::kError;
  }
  EXPECT_TRUE(saw_error_event);
  EXPECT_NE(rt.diagnostic().find("xcommit without xstart"), std::string::npos)
      << rt.diagnostic();
}

TEST(ProtocolErrorTest, NestedXStart) {
  Runtime rt(1);
  rt.Spawn("nester", [](ProcessContext& ctx) {
    ctx.XStart();
    ctx.XStart();
    ctx.XCommit();
  });
  EXPECT_FALSE(rt.Run());
  ASSERT_EQ(rt.errors().size(), 1u);
  EXPECT_EQ(rt.errors()[0].code, RuntimeError::Code::kNestedXStart);
}

TEST(ProtocolErrorTest, XRecoverInsideTransaction) {
  Runtime rt(1);
  rt.Spawn("mixed", [](ProcessContext& ctx) {
    ctx.XStart();
    Tuple cont;
    ctx.XRecover(&cont);
    ctx.XCommit();
  });
  EXPECT_FALSE(rt.Run());
  ASSERT_EQ(rt.errors().size(), 1u);
  EXPECT_EQ(rt.errors()[0].code,
            RuntimeError::Code::kXRecoverInsideTransaction);
}

TEST(ProtocolErrorTest, OpenTransactionRolledBackOnError) {
  // Tuples removed inside the failed process's open transaction must be
  // restored, exactly as on a machine crash.
  Runtime rt(1);
  rt.space().Out(MakeTuple("t", 1));
  rt.Spawn("bad", [](ProcessContext& ctx) {
    ctx.XStart();
    Tuple got;
    ctx.In(MakeTemplate(A("t"), F(ValueType::kInt)), &got);
    ctx.XStart();  // protocol error: tuple must be restored
  });
  EXPECT_FALSE(rt.Run());
  EXPECT_EQ(rt.space().CountMatches(MakeTemplate(A("t"), F(ValueType::kInt))),
            1u);
  EXPECT_EQ(rt.stats().transactions_aborted, 1u);
}

// ---------------------------------------------------------------------------
// ToString coverage: every TraceEvent kind and every RuntimeError code
// ---------------------------------------------------------------------------

TEST(ToStringTest, TraceEventAllKinds) {
  struct Case {
    TraceEvent::Kind kind;
    const char* label;
  };
  const Case kProcessCases[] = {
      {TraceEvent::Kind::kSpawned, "SPAWNED"},
      {TraceEvent::Kind::kDone, "DONE"},
      {TraceEvent::Kind::kKilled, "KILLED"},
      {TraceEvent::Kind::kRespawned, "RESPAWNED"},
      {TraceEvent::Kind::kError, "ERROR"},
  };
  for (const Case& c : kProcessCases) {
    TraceEvent event;
    event.kind = c.kind;
    event.time = 1.5;
    event.pid = 3;
    event.machine = 2;
    event.process = "proc-x";
    const std::string text = ToString(event);
    EXPECT_NE(text.find(c.label), std::string::npos) << text;
    EXPECT_NE(text.find("proc-x"), std::string::npos) << text;
    EXPECT_NE(text.find("machine 2"), std::string::npos) << text;
  }

  const Case kMachineCases[] = {
      {TraceEvent::Kind::kMachineFailed, "MACHINE_FAILED"},
      {TraceEvent::Kind::kMachineRecovered, "MACHINE_RECOVERED"},
  };
  for (const Case& c : kMachineCases) {
    TraceEvent event;
    event.kind = c.kind;
    event.machine = 4;
    const std::string text = ToString(event);
    EXPECT_NE(text.find(c.label), std::string::npos) << text;
    EXPECT_NE(text.find("machine 4"), std::string::npos) << text;
  }

  const Case kServerCases[] = {
      {TraceEvent::Kind::kServerFailed, "SERVER_FAILED"},
      {TraceEvent::Kind::kServerRecovered, "SERVER_RECOVERED"},
      {TraceEvent::Kind::kServerCheckpoint, "SERVER_CHECKPOINT"},
  };
  for (const Case& c : kServerCases) {
    TraceEvent event;
    event.kind = c.kind;  // pid = machine = -1: the server itself
    const std::string text = ToString(event);
    EXPECT_NE(text.find(c.label), std::string::npos) << text;
    EXPECT_NE(text.find("tuple-space server"), std::string::npos) << text;
  }
}

TEST(ToStringTest, RuntimeErrorAllCodes) {
  struct Case {
    RuntimeError::Code code;
    const char* label;
  };
  const Case kCases[] = {
      {RuntimeError::Code::kXCommitWithoutXStart, "xcommit without xstart"},
      {RuntimeError::Code::kNestedXStart, "nested xstart"},
      {RuntimeError::Code::kXRecoverInsideTransaction,
       "xrecover inside an open transaction"},
      {RuntimeError::Code::kNoMachineAvailable,
       "spawn requested while every machine is down"},
      {RuntimeError::Code::kFaultInjectionUnsupported,
       "fault injection is unsupported in kRealParallel mode"},
      {RuntimeError::Code::kWireProtocolError,
       "tuple-space server wire protocol failure"},
      {RuntimeError::Code::kDistributedSpawnUnsupported,
       "spawn from a running process is unsupported in kDistributed mode"},
      {RuntimeError::Code::kServerDead,
       "tuple-space server exited fatally and cannot be restarted"},
      {RuntimeError::Code::kBadSocketPath,
       "server socket path exceeds the sun_path limit"},
  };
  for (const Case& c : kCases) {
    RuntimeError error;
    error.code = c.code;
    error.time = 2.5;
    error.pid = 1;
    error.process = "offender";
    const std::string text = ToString(error);
    EXPECT_NE(text.find(c.label), std::string::npos) << text;
    EXPECT_NE(text.find("offender"), std::string::npos) << text;
  }
  RuntimeError with_detail;
  with_detail.detail = "extra context";
  EXPECT_NE(ToString(with_detail).find("extra context"), std::string::npos);
}

}  // namespace
}  // namespace fpdm::plinda
