// Conformance of the PLinda process layer: one table of small programs,
// each run on the simulator, kRealParallel and kDistributed. Run()'s result,
// the final space and the error codes must agree across the three backends,
// and each row pins what they must agree on. Programs record what their ops
// returned as tuples, so a forked kDistributed worker reports it too.

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "plinda/runtime.h"
#include "plinda/tuple.h"

namespace fpdm::plinda {
namespace {

const char* ModeName(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kSimulated:
      return "kSimulated";
    case ExecutionMode::kRealParallel:
      return "kRealParallel";
    case ExecutionMode::kDistributed:
      return "kDistributed";
  }
  return "?";
}

/// A program: tuples seeded before Run(), and process bodies spawned in
/// order on one machine.
struct Program {
  std::vector<Tuple> seed;
  std::vector<ProcessFn> bodies;
};

/// What one backend's run of a program left behind.
struct Outcome {
  std::string mode;
  bool ok = false;
  bool deadlocked = false;
  std::vector<std::string> space;  // every tuple, rendered and sorted
  std::vector<RuntimeError::Code> codes;
  uint64_t aborted = 0;
  std::string diagnostic;
};

std::vector<std::string> Rendered(const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  for (const Tuple& tuple : tuples) out.push_back(ToString(tuple));
  std::sort(out.begin(), out.end());
  return out;
}

Outcome RunIn(ExecutionMode mode, const Program& program) {
  RuntimeOptions options;
  options.mode = mode;
  Runtime runtime(1, options);
  for (const Tuple& tuple : program.seed) runtime.space().Out(tuple);
  for (size_t i = 0; i < program.bodies.size(); ++i) {
    runtime.Spawn("p" + std::to_string(i), program.bodies[i]);
  }
  Outcome outcome;
  outcome.mode = ModeName(mode);
  outcome.ok = runtime.Run();
  outcome.deadlocked = runtime.deadlocked();
  outcome.space = Rendered(runtime.space().TakeAllInOrder());
  for (const RuntimeError& error : runtime.errors()) {
    outcome.codes.push_back(error.code);
  }
  outcome.aborted = runtime.stats().transactions_aborted;
  outcome.diagnostic = runtime.diagnostic();
  return outcome;
}

/// Runs `program` in the three backends, checks that they agree with the
/// simulator, and returns the three outcomes for the row's own checks.
std::vector<Outcome> RunEverywhere(const Program& program) {
  std::vector<Outcome> outcomes;
  outcomes.push_back(RunIn(ExecutionMode::kSimulated, program));
  outcomes.push_back(RunIn(ExecutionMode::kRealParallel, program));
  outcomes.push_back(RunIn(ExecutionMode::kDistributed, program));
  const Outcome& sim = outcomes[0];
  for (size_t i = 1; i < outcomes.size(); ++i) {
    const Outcome& other = outcomes[i];
    SCOPED_TRACE(other.mode + " vs kSimulated");
    EXPECT_EQ(other.ok, sim.ok) << other.diagnostic;
    EXPECT_EQ(other.deadlocked, sim.deadlocked);
    EXPECT_EQ(other.space, sim.space);
    EXPECT_EQ(other.codes, sim.codes);
    EXPECT_EQ(other.aborted, sim.aborted);
  }
  return outcomes;
}

Template IntTemplate(const std::string& head) {
  return MakeTemplate(A(head), F(ValueType::kInt));
}

TEST(ProcessSemanticsTest, TransactionSeesItsOwnOuts) {
  Program program;
  program.bodies.push_back([](ProcessContext& ctx) {
    ctx.XStart();
    ctx.Out(MakeTuple("own", int64_t{1}));
    ctx.Out(MakeTuple("own", int64_t{2}));
    Tuple read;
    Tuple taken;
    ctx.Rd(IntTemplate("own"), &read);
    ctx.In(IntTemplate("own"), &taken);
    ctx.XCommit();
    ctx.Out(MakeTuple("saw", GetInt(read, 1), GetInt(taken, 1)));
  });
  const Tuple left = MakeTuple("own", int64_t{2});
  const Tuple saw = MakeTuple("saw", int64_t{1}, int64_t{1});
  for (const Outcome& outcome : RunEverywhere(program)) {
    SCOPED_TRACE(outcome.mode);
    EXPECT_TRUE(outcome.ok) << outcome.diagnostic;
    EXPECT_EQ(outcome.space, Rendered({left, saw}));
  }
}

TEST(ProcessSemanticsTest, RdLeavesTheTupleInPlace) {
  Program program;
  program.seed.push_back(MakeTuple("t", int64_t{5}));
  program.bodies.push_back([](ProcessContext& ctx) {
    Tuple read;
    ctx.Rd(IntTemplate("t"), &read);
    ctx.Out(MakeTuple("read", GetInt(read, 1)));
  });
  const Tuple read = MakeTuple("read", int64_t{5});
  for (const Outcome& outcome : RunEverywhere(program)) {
    SCOPED_TRACE(outcome.mode);
    EXPECT_TRUE(outcome.ok) << outcome.diagnostic;
    EXPECT_EQ(outcome.space, Rendered({read, program.seed[0]}));
  }
}

TEST(ProcessSemanticsTest, InpAndRdpMissWithoutBlocking) {
  Program program;
  program.seed.push_back(MakeTuple("t", int64_t{1}));
  program.bodies.push_back([](ProcessContext& ctx) {
    Tuple tuple;
    const int64_t rdp_miss = ctx.Rdp(IntTemplate("none"), &tuple);
    const int64_t inp_miss = ctx.Inp(IntTemplate("none"), &tuple);
    const int64_t rdp_hit = ctx.Rdp(IntTemplate("t"), &tuple);
    const int64_t inp_hit = ctx.Inp(IntTemplate("t"), &tuple);
    const int64_t inp_gone = ctx.Inp(IntTemplate("t"), &tuple);
    ctx.Out(MakeTuple("misses", rdp_miss, inp_miss, inp_gone));
    ctx.Out(MakeTuple("hits", rdp_hit, inp_hit));
  });
  const Tuple misses = MakeTuple("misses", int64_t{0}, int64_t{0}, int64_t{0});
  const Tuple hits = MakeTuple("hits", int64_t{1}, int64_t{1});
  for (const Outcome& outcome : RunEverywhere(program)) {
    SCOPED_TRACE(outcome.mode);
    EXPECT_TRUE(outcome.ok) << outcome.diagnostic;
    EXPECT_EQ(outcome.space, Rendered({misses, hits}));
  }
}

/// Records what a drain returned: ("got", position, value) per tuple.
void RecordDrain(ProcessContext& ctx, const std::vector<Tuple>& drained) {
  for (size_t i = 0; i < drained.size(); ++i) {
    ctx.Out(MakeTuple("got", static_cast<int64_t>(i), GetInt(drained[i], 1)));
  }
}

TEST(ProcessSemanticsTest, InAllTakesEveryMatchOldestFirstAndLeavesTheRest) {
  Program program;
  program.seed = {MakeTuple("r", int64_t{1}), MakeTuple("r", int64_t{2}),
                  MakeTuple("other", int64_t{9}), MakeTuple("r", int64_t{3})};
  program.bodies.push_back([](ProcessContext& ctx) {
    std::vector<Tuple> drained;
    ctx.InAll(IntTemplate("r"), &drained);
    RecordDrain(ctx, drained);
  });
  const std::vector<Tuple> expected = {
      MakeTuple("other", int64_t{9}), MakeTuple("got", int64_t{0}, int64_t{1}),
      MakeTuple("got", int64_t{1}, int64_t{2}),
      MakeTuple("got", int64_t{2}, int64_t{3})};
  for (const Outcome& outcome : RunEverywhere(program)) {
    SCOPED_TRACE(outcome.mode);
    EXPECT_TRUE(outcome.ok) << outcome.diagnostic;
    EXPECT_EQ(outcome.space, Rendered(expected));
  }
}

TEST(ProcessSemanticsTest, InAllSeesTheTransactionsOwnOutsFirst) {
  // The own matching outs are taken, in order, and the space's match stays.
  Program program;
  program.seed.push_back(MakeTuple("r", int64_t{3}));
  program.bodies.push_back([](ProcessContext& ctx) {
    ctx.XStart();
    ctx.Out(MakeTuple("r", int64_t{1}));
    ctx.Out(MakeTuple("x", int64_t{1}));
    ctx.Out(MakeTuple("r", int64_t{2}));
    std::vector<Tuple> drained;
    ctx.InAll(IntTemplate("r"), &drained);
    ctx.XCommit();
    RecordDrain(ctx, drained);
  });
  const std::vector<Tuple> expected = {
      MakeTuple("r", int64_t{3}), MakeTuple("x", int64_t{1}),
      MakeTuple("got", int64_t{0}, int64_t{1}),
      MakeTuple("got", int64_t{1}, int64_t{2})};
  for (const Outcome& outcome : RunEverywhere(program)) {
    SCOPED_TRACE(outcome.mode);
    EXPECT_TRUE(outcome.ok) << outcome.diagnostic;
    EXPECT_EQ(outcome.space, Rendered(expected));
  }
}

TEST(ProcessSemanticsTest, EndingWithADrainsTransactionOpenRestoresEveryTuple) {
  // The body returns cleanly only after draining all three tuples, so a
  // short drain fails the run with its size in the diagnostic.
  Program program;
  program.seed = {MakeTuple("r", int64_t{1}), MakeTuple("r", int64_t{2}),
                  MakeTuple("r", int64_t{3})};
  program.bodies.push_back([](ProcessContext& ctx) {
    ctx.XStart();
    std::vector<Tuple> drained;
    ctx.InAll(IntTemplate("r"), &drained);
    if (drained.size() != 3) {
      throw std::runtime_error("drained " + std::to_string(drained.size()));
    }
  });
  for (const Outcome& outcome : RunEverywhere(program)) {
    SCOPED_TRACE(outcome.mode);
    EXPECT_TRUE(outcome.ok) << outcome.diagnostic;
    EXPECT_EQ(outcome.space, Rendered(program.seed));
    EXPECT_EQ(outcome.aborted, 1u);
  }
}

TEST(ProcessSemanticsTest, CommitPublishesTheBufferedOuts) {
  // p0 holds its transaction open until p1 has looked for its out; p1 then
  // blocks until the commit publishes it.
  Program program;
  program.bodies.push_back([](ProcessContext& ctx) {
    ctx.XStart();
    ctx.Out(MakeTuple("p", int64_t{1}));
    Tuple checked;
    ctx.In(IntTemplate("checked"), &checked);
    ctx.XCommit();
    ctx.Out(MakeTuple("before_commit", GetInt(checked, 1)));
  });
  program.bodies.push_back([](ProcessContext& ctx) {
    Tuple tuple;
    const int64_t visible = ctx.Rdp(IntTemplate("p"), &tuple);
    ctx.Out(MakeTuple("checked", visible));
    ctx.In(IntTemplate("p"), &tuple);
    ctx.Out(MakeTuple("after_commit", GetInt(tuple, 1)));
  });
  const Tuple before = MakeTuple("before_commit", int64_t{0});
  const Tuple after = MakeTuple("after_commit", int64_t{1});
  for (const Outcome& outcome : RunEverywhere(program)) {
    SCOPED_TRACE(outcome.mode);
    EXPECT_TRUE(outcome.ok) << outcome.diagnostic;
    EXPECT_EQ(outcome.space, Rendered({before, after}));
  }
}

TEST(ProcessSemanticsTest, XRecoverReadsTheLastCommittedContinuationAgain) {
  Program program;
  program.bodies.push_back([](ProcessContext& ctx) {
    auto recover = [&ctx] {
      Tuple cont;
      return ctx.XRecover(&cont) ? GetInt(cont, 1) : int64_t{-1};
    };
    const int64_t before = recover();
    ctx.XStart();
    ctx.XCommit(MakeTuple("cont", int64_t{7}));
    ctx.XStart();
    ctx.XCommit(MakeTuple("cont", int64_t{8}));
    ctx.XStart();
    ctx.XCommit();  // no continuation: the last one stays
    const int64_t first = recover();
    const int64_t second = recover();
    ctx.Out(MakeTuple("recovered", before, first, second));
  });
  const Tuple recovered =
      MakeTuple("recovered", int64_t{-1}, int64_t{8}, int64_t{8});
  for (const Outcome& outcome : RunEverywhere(program)) {
    SCOPED_TRACE(outcome.mode);
    EXPECT_TRUE(outcome.ok) << outcome.diagnostic;
    EXPECT_EQ(outcome.space, Rendered({recovered}));
  }
}

TEST(ProcessSemanticsTest, NowAdvancesWithTheProcess) {
  // The simulator's clock moves with Compute, the others' with the sleep.
  Program program;
  program.bodies.push_back([](ProcessContext& ctx) {
    const double before = ctx.Now();
    ctx.Compute(0.02);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int64_t advanced = ctx.Now() > before;
    ctx.Out(MakeTuple("advanced", advanced));
  });
  const Tuple advanced = MakeTuple("advanced", int64_t{1});
  for (const Outcome& outcome : RunEverywhere(program)) {
    SCOPED_TRACE(outcome.mode);
    EXPECT_TRUE(outcome.ok) << outcome.diagnostic;
    EXPECT_EQ(outcome.space, Rendered({advanced}));
  }
}

TEST(ProcessSemanticsTest, CleanReturnWithAnOpenTransactionRestoresItsIns) {
  Program program;
  program.seed.push_back(MakeTuple("t", int64_t{1}));
  program.bodies.push_back([](ProcessContext& ctx) {
    ctx.XStart();
    Tuple tuple;
    ctx.In(IntTemplate("t"), &tuple);
    ctx.Out(MakeTuple("unpublished", int64_t{1}));
  });
  for (const Outcome& outcome : RunEverywhere(program)) {
    SCOPED_TRACE(outcome.mode);
    EXPECT_TRUE(outcome.ok) << outcome.diagnostic;
    EXPECT_EQ(outcome.space, Rendered(program.seed));
    EXPECT_EQ(outcome.aborted, 1u);
  }
}

/// One misuse after `XStart; In(t)`, next to a bystander process: the
/// offender fails with `code`, its open transaction (if the misuse leaves
/// one) rolls back, and the bystander still finishes.
void CheckMisuse(RuntimeError::Code code) {
  Program program;
  program.seed.push_back(MakeTuple("t", int64_t{1}));
  program.bodies.push_back([code](ProcessContext& ctx) {
    ctx.XStart();
    Tuple tuple;
    ctx.In(IntTemplate("t"), &tuple);
    if (code == RuntimeError::Code::kNestedXStart) {
      ctx.XStart();
    } else if (code == RuntimeError::Code::kXRecoverInsideTransaction) {
      ctx.XRecover(&tuple);
    } else {
      ctx.XCommit();
      ctx.XCommit();
    }
    ctx.Out(MakeTuple("unreachable", int64_t{1}));
  });
  program.bodies.push_back([](ProcessContext& ctx) {
    ctx.Out(MakeTuple("bystander", int64_t{1}));
  });
  // xcommit without xstart leaves no transaction: its first commit took "t".
  const bool txn_open = code != RuntimeError::Code::kXCommitWithoutXStart;
  std::vector<Tuple> expected = {MakeTuple("bystander", int64_t{1})};
  if (txn_open) expected.push_back(program.seed[0]);
  for (const Outcome& outcome : RunEverywhere(program)) {
    SCOPED_TRACE(outcome.mode);
    EXPECT_FALSE(outcome.ok);
    EXPECT_FALSE(outcome.deadlocked);
    ASSERT_EQ(outcome.codes.size(), 1u) << outcome.diagnostic;
    EXPECT_EQ(outcome.codes[0], code);
    EXPECT_EQ(outcome.space, Rendered(expected));
    EXPECT_EQ(outcome.aborted, txn_open ? 1u : 0u);
  }
}

TEST(ProcessSemanticsTest, NestedXStartFailsAndRollsBack) {
  CheckMisuse(RuntimeError::Code::kNestedXStart);
}

TEST(ProcessSemanticsTest, XRecoverInsideTransactionFailsAndRollsBack) {
  CheckMisuse(RuntimeError::Code::kXRecoverInsideTransaction);
}

TEST(ProcessSemanticsTest, XCommitWithoutXStartFails) {
  CheckMisuse(RuntimeError::Code::kXCommitWithoutXStart);
}

TEST(ProcessSemanticsTest, UncaughtExceptionFailsTheProcessAndRollsBack) {
  Program program;
  program.seed.push_back(MakeTuple("t", int64_t{1}));
  program.bodies.push_back([](ProcessContext& ctx) {
    ctx.XStart();
    Tuple tuple;
    ctx.In(IntTemplate("t"), &tuple);
    throw std::runtime_error("boom");
  });
  for (const Outcome& outcome : RunEverywhere(program)) {
    SCOPED_TRACE(outcome.mode);
    EXPECT_FALSE(outcome.ok);
    ASSERT_EQ(outcome.codes.size(), 1u) << outcome.diagnostic;
    EXPECT_EQ(outcome.codes[0], RuntimeError::Code::kWireProtocolError);
    EXPECT_NE(outcome.diagnostic.find("boom"), std::string::npos)
        << outcome.diagnostic;
    EXPECT_EQ(outcome.space, Rendered(program.seed));
    EXPECT_EQ(outcome.aborted, 1u);
  }
}

TEST(ProcessSemanticsTest, DeadlockIsDetectedAndNamesTheBlockedTemplate) {
  Program program;
  program.bodies.push_back([](ProcessContext& ctx) {
    ctx.Out(MakeTuple("a", int64_t{1}));
    Tuple tuple;
    ctx.In(IntTemplate("never"), &tuple);
  });
  const Tuple published = MakeTuple("a", int64_t{1});
  const std::string blocked =
      "p0 (pid 0, machine 0) blocked on in " + ToString(IntTemplate("never"));
  for (const Outcome& outcome : RunEverywhere(program)) {
    SCOPED_TRACE(outcome.mode);
    EXPECT_FALSE(outcome.ok);
    EXPECT_TRUE(outcome.deadlocked);
    EXPECT_TRUE(outcome.codes.empty());
    EXPECT_EQ(outcome.space, Rendered({published}));
    EXPECT_NE(outcome.diagnostic.find(blocked), std::string::npos)
        << outcome.diagnostic;
  }
}

/// The killed-twice program: one machine runs 12 steps, each committing its
/// result with ("cont", step) as the continuation. The machine fails at
/// 0.20 s and 0.30 s and recovers at 0.25 s and 0.35 s, so the second
/// failure lands while the respawned incarnation waits between its XRecover
/// and its first commit. The simulator runs the schedule in virtual time,
/// kDistributed in wall time. Returns the steps' results, sorted.
std::vector<int64_t> RunStepsKilledTwice(ExecutionMode mode) {
  RuntimeOptions options;
  options.mode = mode;
  // Virtual time passes only in Compute, as wall time passes in sleeps.
  options.tuple_op_latency = 0;
  options.txn_latency = 0;
  options.spawn_delay = 0;
  Runtime runtime(1, options);
  const bool simulated = mode == ExecutionMode::kSimulated;
  runtime.Spawn("stepper", [simulated](ProcessContext& ctx) {
    auto wait = [&](double seconds) {
      if (simulated) {
        ctx.Compute(seconds);
      } else {
        std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
      }
    };
    int64_t next = 0;
    Tuple cont;
    if (ctx.XRecover(&cont)) next = GetInt(cont, 1) + 1;
    wait(0.1);
    for (int64_t step = next; step < 12; ++step) {
      wait(0.02);
      ctx.XStart();
      ctx.Out(MakeTuple("result", step));
      ctx.XCommit(MakeTuple("cont", step));
    }
  });
  runtime.ScheduleFailure(0, 0.20);
  runtime.ScheduleRecovery(0, 0.25);
  runtime.ScheduleFailure(0, 0.30);
  runtime.ScheduleRecovery(0, 0.35);
  EXPECT_TRUE(runtime.Run()) << runtime.diagnostic();
  EXPECT_EQ(runtime.stats().processes_killed, 2u);
  std::vector<int64_t> results;
  Tuple tuple;
  while (runtime.space().TryIn(IntTemplate("result"), &tuple)) {
    results.push_back(GetInt(tuple, 1));
  }
  std::sort(results.begin(), results.end());
  return results;
}

// A worker killed twice between two commits resumes from the same
// continuation both times, so every step's result appears exactly once.
TEST(ProcessSemanticsTest, ContinuationSurvivesTwoKillsBetweenCommits) {
  std::vector<int64_t> once(12);
  for (int64_t step = 0; step < 12; ++step) once[step] = step;
  EXPECT_EQ(RunStepsKilledTwice(ExecutionMode::kSimulated), once);
  EXPECT_EQ(RunStepsKilledTwice(ExecutionMode::kDistributed), once);
}

}  // namespace
}  // namespace fpdm::plinda
