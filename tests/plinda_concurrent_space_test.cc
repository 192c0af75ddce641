// Tests for the thread-safe concurrent tuple space and the kRealParallel
// runtime backend. This file is part of fpdm_plinda_tests, so every tier-1
// run also executes it under ThreadSanitizer (see run_tsan.cmake): the
// concurrent stress tests double as the race detectors for the concurrent
// space and the real-mode op paths.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "plinda/concurrent_space.h"
#include "plinda/runtime.h"
#include "plinda/tuple.h"

namespace fpdm::plinda {
namespace {

Template WorkTemplate() {
  return MakeTemplate(A("work"), F(ValueType::kInt));
}

// Formal string first field: may match a tuple of any bucket of arity 2.
Template AnyPairTemplate() {
  return MakeTemplate(F(ValueType::kString), F(ValueType::kInt));
}

TEST(ConcurrentSpaceTest, FifoWithinBucket) {
  ConcurrentTupleSpace space;
  space.Out(MakeTuple("work", int64_t{1}));
  space.Out(MakeTuple("work", int64_t{2}));
  Tuple t;
  ASSERT_TRUE(space.TryIn(WorkTemplate(), &t));
  EXPECT_EQ(GetInt(t, 1), 1);
  ASSERT_TRUE(space.TryIn(WorkTemplate(), &t));
  EXPECT_EQ(GetInt(t, 1), 2);
  EXPECT_FALSE(space.TryIn(WorkTemplate(), &t));
  EXPECT_EQ(space.size(), 0u);
}

TEST(ConcurrentSpaceTest, FormalFirstMatchingPicksOldestAcrossBuckets) {
  ConcurrentTupleSpace space;
  space.Out(MakeTuple("alpha", int64_t{1}));  // oldest, one bucket
  space.Out(MakeTuple("beta", int64_t{2}));   // newer, another bucket
  Tuple t;
  ASSERT_TRUE(space.TryRd(AnyPairTemplate(), &t));
  EXPECT_EQ(GetString(t, 0), "alpha");
  ASSERT_TRUE(space.TryIn(AnyPairTemplate(), &t));
  EXPECT_EQ(GetString(t, 0), "alpha");
  ASSERT_TRUE(space.TryIn(AnyPairTemplate(), &t));
  EXPECT_EQ(GetString(t, 0), "beta");
  EXPECT_EQ(space.size(), 0u);
}

TEST(ConcurrentSpaceTest, TryRdDoesNotRemove) {
  ConcurrentTupleSpace space;
  space.Out(MakeTuple("work", int64_t{7}));
  Tuple t;
  ASSERT_TRUE(space.TryRd(WorkTemplate(), &t));
  EXPECT_EQ(space.size(), 1u);
  ASSERT_TRUE(space.TryIn(WorkTemplate(), &t));
  EXPECT_EQ(space.size(), 0u);
}

TEST(ConcurrentSpaceTest, CloseWakesBlockedWaiters) {
  ConcurrentTupleSpace space;
  std::atomic<int> woken{0};
  std::vector<std::thread> waiters;
  // One actual-first waiter, one formal-first waiter.
  waiters.emplace_back([&] {
    Tuple t;
    EXPECT_FALSE(space.WaitIn(WorkTemplate(), &t, /*remove=*/true));
    ++woken;
  });
  waiters.emplace_back([&] {
    Tuple t;
    EXPECT_FALSE(space.WaitIn(AnyPairTemplate(), &t, /*remove=*/false));
    ++woken;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  space.Close();
  for (auto& thread : waiters) thread.join();
  EXPECT_EQ(woken.load(), 2);
  // After close, blocking calls return false immediately.
  Tuple t;
  EXPECT_FALSE(space.WaitIn(WorkTemplate(), &t, true));
}

// The space moves in and back out with its sequence numbers: tuples seeded
// before the hand-over stay older than tuples added after it.
TEST(ConcurrentSpaceTest, HandOverByMovePreservesOutOrder) {
  TupleSpace seeded;
  for (int i = 0; i < 5; ++i) {
    seeded.Out(MakeTuple("k" + std::to_string(i % 3), int64_t{i}));
  }
  ConcurrentTupleSpace space(std::move(seeded));
  for (int i = 5; i < 10; ++i) {
    space.Out(MakeTuple("k" + std::to_string(i % 3), int64_t{i}));
  }
  TupleSpace back = space.TakeSpace();
  EXPECT_EQ(space.size(), 0u);
  std::vector<Tuple> all = back.TakeAllInOrder();
  ASSERT_EQ(all.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(GetInt(all[static_cast<size_t>(i)], 1), i);
  }
}

// The wake rule behind stalled(): an out marks only the parked waiters whose
// template it matches, and a marked waiter stops counting as stalled as
// soon as the out returns, before the waiter itself runs.
TEST(ConcurrentSpaceTest, OutMarksOnlyMatchingWaiters) {
  ConcurrentTupleSpace space;
  Tuple got;
  std::thread waiter([&] {
    EXPECT_TRUE(space.WaitIn(MakeTemplate(A("a"), F(ValueType::kInt)), &got,
                             /*remove=*/true));
  });
  while (space.stalled() != 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  space.Out(MakeTuple("b", int64_t{1}));
  EXPECT_EQ(space.stalled(), 1u);
  space.Out(MakeTuple("a", int64_t{2}));
  EXPECT_EQ(space.stalled(), 0u);
  waiter.join();
  EXPECT_EQ(ToString(got), ToString(MakeTuple("a", int64_t{2})));
  EXPECT_EQ(space.size(), 1u);
}

// Concurrent stress: producers publish into many buckets while consumers
// drain through both actual-first templates (one bucket each) and
// formal-first templates (every bucket of the arity). Every tuple must be
// consumed exactly once.
TEST(ConcurrentSpaceTest, ConcurrentProducersAndMixedConsumers) {
  constexpr int kProducers = 4;
  constexpr int kConsumersFast = 3;
  constexpr int kConsumersSlow = 2;
  constexpr int kPerProducer = 500;
  constexpr int kTotal = kProducers * kPerProducer;

  ConcurrentTupleSpace space;
  std::atomic<int> consumed{0};
  std::atomic<long long> value_sum{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int j = 0; j < kPerProducer; ++j) {
        const int value = p * kPerProducer + j;
        // Several distinct string keys spread the load across buckets.
        space.Out(MakeTuple("work" + std::to_string(value % 7),
                            int64_t{value}));
      }
    });
  }
  auto consume = [&](const Template& tmpl) {
    Tuple t;
    while (space.WaitIn(tmpl, &t, /*remove=*/true)) {
      value_sum.fetch_add(GetInt(t, 1));
      ++consumed;
    }
  };
  for (int c = 0; c < kConsumersFast; ++c) {
    const std::string key = "work" + std::to_string(c % 7);
    threads.emplace_back(
        [&, key] { consume(MakeTemplate(A(key), F(ValueType::kInt))); });
  }
  for (int c = 0; c < kConsumersSlow; ++c) {
    threads.emplace_back([&] { consume(AnyPairTemplate()); });
  }

  // The formal-first consumers can drain every bucket, so all tuples get
  // consumed; close once the space is empty to release the waiters.
  while (consumed.load() < kTotal) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  space.Close();
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(consumed.load(), kTotal);
  EXPECT_EQ(value_sum.load(),
            static_cast<long long>(kTotal) * (kTotal - 1) / 2);
  EXPECT_EQ(space.size(), 0u);
}

// --- kRealParallel runtime backend ---------------------------------------

RuntimeOptions RealOptions() {
  RuntimeOptions options;
  options.mode = ExecutionMode::kRealParallel;
  return options;
}

Template TaskTemplate() {
  return MakeTemplate(A("task"), F(ValueType::kInt));
}

TEST(RealParallelRuntimeTest, WorkersDrainTasksThroughTransactions) {
  constexpr int kWorkers = 4;
  constexpr int kTasks = 200;
  Runtime runtime(kWorkers, RealOptions());
  for (int i = 0; i < kTasks; ++i) {
    runtime.space().Out(MakeTuple("task", int64_t{i}));
  }
  for (int w = 0; w < kWorkers; ++w) {
    runtime.space().Out(MakeTuple("task", int64_t{-1}));
  }
  for (int w = 0; w < kWorkers; ++w) {
    runtime.Spawn("worker-" + std::to_string(w), [](ProcessContext& ctx) {
      for (;;) {
        ctx.XStart();
        Tuple task;
        ctx.In(TaskTemplate(), &task);
        const int64_t i = GetInt(task, 1);
        if (i < 0) {
          ctx.XCommit();
          return;
        }
        ctx.Compute(1.0);
        ctx.Out(MakeTuple("done", i, i * 2));
        ctx.XCommit();
      }
    });
  }
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
  EXPECT_FALSE(runtime.deadlocked());
  EXPECT_GE(runtime.wall_time(), 0.0);
  EXPECT_EQ(runtime.CompletionTime(), runtime.wall_time());
  Template done = MakeTemplate(A("done"), F(ValueType::kInt),
                               F(ValueType::kInt));
  EXPECT_EQ(runtime.space().CountMatches(done), static_cast<size_t>(kTasks));
  EXPECT_EQ(runtime.stats().transactions_committed,
            static_cast<uint64_t>(kTasks + kWorkers));
  EXPECT_EQ(runtime.stats().total_work, static_cast<double>(kTasks));
}

TEST(RealParallelRuntimeTest, DeadlockIsDetectedAndDiagnosed) {
  Runtime runtime(2, RealOptions());
  runtime.Spawn("stuck-a", [](ProcessContext& ctx) {
    Tuple t;
    ctx.In(MakeTemplate(A("never"), F(ValueType::kInt)), &t);
  });
  runtime.Spawn("stuck-b", [](ProcessContext& ctx) {
    Tuple t;
    ctx.Rd(MakeTemplate(F(ValueType::kString)), &t);  // formal-first waiter
  });
  EXPECT_FALSE(runtime.Run());
  EXPECT_TRUE(runtime.deadlocked());
  EXPECT_NE(runtime.diagnostic().find("stuck-a"), std::string::npos);
  EXPECT_NE(runtime.diagnostic().find("blocked"), std::string::npos);
  EXPECT_EQ(runtime.stats().processes_killed, 2u);
}

TEST(RealParallelRuntimeTest, FaultInjectionIsRejected) {
  Runtime runtime(2, RealOptions());
  runtime.ScheduleFailure(1, 5.0);
  runtime.Spawn("worker", [](ProcessContext& ctx) { ctx.Compute(1.0); });
  EXPECT_FALSE(runtime.Run());
  ASSERT_EQ(runtime.errors().size(), 1u);
  EXPECT_EQ(runtime.errors()[0].code,
            RuntimeError::Code::kFaultInjectionUnsupported);
  EXPECT_NE(runtime.diagnostic().find("fault injection"), std::string::npos);
}

TEST(RealParallelRuntimeTest, ProtocolErrorAbortsAndRestoresTransactionIns) {
  Runtime runtime(2, RealOptions());
  runtime.space().Out(MakeTuple("abortable", int64_t{42}));
  runtime.Spawn("aborter", [](ProcessContext& ctx) {
    ctx.XStart();
    Tuple t;
    ctx.In(MakeTemplate(A("abortable"), F(ValueType::kInt)), &t);
    ctx.XStart();  // nested: protocol error unwinds and aborts the txn
  });
  EXPECT_FALSE(runtime.Run());
  ASSERT_EQ(runtime.errors().size(), 1u);
  EXPECT_EQ(runtime.errors()[0].code, RuntimeError::Code::kNestedXStart);
  // The abort restored the removed tuple.
  EXPECT_EQ(runtime.space().CountMatches(
                MakeTemplate(A("abortable"), F(ValueType::kInt))),
            1u);
  EXPECT_EQ(runtime.stats().transactions_aborted, 1u);
}

TEST(RealParallelRuntimeTest, ContinuationsRoundTrip) {
  Runtime runtime(1, RealOptions());
  std::atomic<bool> recovered{false};
  runtime.Spawn("committer", [&](ProcessContext& ctx) {
    Tuple ignored;
    EXPECT_FALSE(ctx.XRecover(&ignored));  // fresh process: no continuation
    ctx.XStart();
    ctx.XCommit(MakeTuple("state", int64_t{7}));
    Tuple cont;
    ASSERT_TRUE(ctx.XRecover(&cont));
    EXPECT_EQ(GetString(cont, 0), "state");
    EXPECT_EQ(GetInt(cont, 1), 7);
    recovered = true;
  });
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
  EXPECT_TRUE(recovered.load());
}

TEST(RealParallelRuntimeTest, FormalFirstBlockingRdSeesLatePublish) {
  Runtime runtime(2, RealOptions());
  std::atomic<bool> got{false};
  runtime.Spawn("reader", [&](ProcessContext& ctx) {
    Tuple t;
    ctx.Rd(MakeTemplate(F(ValueType::kString), F(ValueType::kInt)), &t);
    EXPECT_EQ(GetString(t, 0), "late");
    got = true;
  });
  runtime.Spawn("writer", [](ProcessContext& ctx) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ctx.Out(MakeTuple("late", int64_t{1}));
  });
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
  EXPECT_TRUE(got.load());
}

// A spawned child runs at once, and the spawn itself is no tuple op: the
// out and the in are the only two, as the simulator counts them.
TEST(RealParallelRuntimeTest, DynamicSpawnCountsTupleOpsLikeTheSimulator) {
  auto tuple_ops = [](ExecutionMode mode) {
    RuntimeOptions options;
    options.mode = mode;
    Runtime runtime(2, options);
    runtime.Spawn("parent", [](ProcessContext& ctx) {
      ctx.Spawn("child", [](ProcessContext& cctx) {
        cctx.Out(MakeTuple("child_done", int64_t{1}));
      });
      Tuple t;
      ctx.In(MakeTemplate(A("child_done"), F(ValueType::kInt)), &t);
    });
    EXPECT_TRUE(runtime.Run()) << runtime.diagnostic();
    return runtime.stats().tuple_ops;
  };
  const uint64_t simulated = tuple_ops(ExecutionMode::kSimulated);
  EXPECT_EQ(simulated, 2u);
  EXPECT_EQ(tuple_ops(ExecutionMode::kRealParallel), simulated);
}

// Transactions committing and aborting concurrently: workers drain tasks
// while aborters repeatedly die mid-transaction; every abortable tuple must
// be restored and every task still processed exactly once.
TEST(RealParallelRuntimeTest, ConcurrentCommitsAndAborts) {
  constexpr int kWorkers = 3;
  constexpr int kAborters = 2;
  constexpr int kTasks = 120;
  Runtime runtime(kWorkers + kAborters, RealOptions());
  for (int i = 0; i < kTasks; ++i) {
    runtime.space().Out(MakeTuple("task", int64_t{i}));
  }
  for (int w = 0; w < kWorkers; ++w) {
    runtime.space().Out(MakeTuple("task", int64_t{-1}));
  }
  for (int a = 0; a < kAborters; ++a) {
    runtime.space().Out(MakeTuple("abortable", int64_t{a}));
  }
  for (int w = 0; w < kWorkers; ++w) {
    runtime.Spawn("worker-" + std::to_string(w), [](ProcessContext& ctx) {
      for (;;) {
        ctx.XStart();
        Tuple task;
        ctx.In(TaskTemplate(), &task);
        if (GetInt(task, 1) < 0) {
          ctx.XCommit();
          return;
        }
        ctx.Out(MakeTuple("done", GetInt(task, 1)));
        ctx.XCommit();
      }
    });
  }
  for (int a = 0; a < kAborters; ++a) {
    runtime.Spawn("aborter-" + std::to_string(a), [](ProcessContext& ctx) {
      ctx.XStart();
      Tuple t;
      ctx.In(MakeTemplate(A("abortable"), F(ValueType::kInt)), &t);
      ctx.XStart();  // protocol error: transaction aborts, tuple restored
    });
  }
  EXPECT_FALSE(runtime.Run());  // aborters report protocol errors
  EXPECT_EQ(runtime.errors().size(), static_cast<size_t>(kAborters));
  EXPECT_EQ(runtime.space().CountMatches(
                MakeTemplate(A("done"), F(ValueType::kInt))),
            static_cast<size_t>(kTasks));
  EXPECT_EQ(runtime.space().CountMatches(
                MakeTemplate(A("abortable"), F(ValueType::kInt))),
            static_cast<size_t>(kAborters));
  EXPECT_EQ(runtime.stats().transactions_aborted,
            static_cast<uint64_t>(kAborters));
}

}  // namespace
}  // namespace fpdm::plinda
