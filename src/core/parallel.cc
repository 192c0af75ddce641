#include "core/parallel.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "core/traversal.h"

namespace fpdm::core {

namespace {

using plinda::A;
using plinda::F;
using plinda::GetDouble;
using plinda::GetInt;
using plinda::GetString;
using plinda::MakeTemplate;
using plinda::MakeTuple;
using plinda::ProcessContext;
using plinda::Tuple;
using plinda::ValueType;

// Task modes shipped in the mode field of ("task", key, length, mode):
//  kEvaluate — PLED style: evaluate goodness, report, let the master expand.
//  kExpand   — load-balanced E-tree: evaluate, out child tasks yourself.
//  kSubtree  — optimistic: traverse the whole subtree locally.
constexpr int64_t kEvaluate = 0;
constexpr int64_t kExpand = 1;
constexpr int64_t kSubtree = 2;

// Counters shared between the processes and the driver. In kRealParallel
// mode the workers run concurrently, so the per-evaluation records are
// mutex-guarded; task costs are recorded per pattern and summed in a
// canonical (sorted) order by the driver, so total_task_cost is bit-identical
// regardless of the order the evaluations actually ran in.
struct SharedState {
  std::mutex mu;
  std::vector<std::pair<std::string, double>> task_costs;  // (key, cost)
  std::vector<GoodPattern> master_good;  // found by master-side expansion
  /// kDistributed: the processes are forked, so writes to this struct are
  /// lost. Costs and master-found patterns travel as ("cost", key, cost) /
  /// ("good", ...) tuples instead, out'ed inside the task transactions so
  /// they stay exactly-once under faults; the driver harvests them from the
  /// drained space after Run().
  bool dist = false;
};

Tuple TaskTuple(const Pattern& pattern, int64_t mode) {
  return MakeTuple("task", pattern.key, pattern.length, mode);
}

Tuple PoisonTuple() { return MakeTuple("task", "", -1, int64_t{0}); }

plinda::Template TaskTemplate() {
  return MakeTemplate(A("task"), F(ValueType::kString), F(ValueType::kInt),
                      F(ValueType::kInt));
}

plinda::Template ReportTemplate() {
  return MakeTemplate(A("report"), F(ValueType::kString), F(ValueType::kInt),
                      F(ValueType::kDouble), F(ValueType::kInt));
}

// Evaluates one pattern on the worker: advances the virtual clock by the
// task cost, outs a ("good", ...) tuple when the pattern qualifies, and
// returns the goodness.
double EvaluateOnWorker(ProcessContext& ctx, const MiningProblem& problem,
                        const Pattern& pattern, double seconds_per_work_unit,
                        SharedState* shared) {
  ctx.Compute(problem.TaskCost(pattern) * seconds_per_work_unit);
  const double goodness = problem.Goodness(pattern);
  if (shared->dist) {
    ctx.Out(MakeTuple("cost", pattern.key, problem.TaskCost(pattern)));
  } else {
    std::lock_guard<std::mutex> lock(shared->mu);
    shared->task_costs.emplace_back(pattern.key, problem.TaskCost(pattern));
  }
  if (problem.IsGood(pattern, goodness)) {
    ctx.Out(MakeTuple("good", pattern.key, pattern.length, goodness));
  }
  return goodness;
}

// The unified worker template (figures 3.5, 4.5, 4.7 of the paper collapse
// into one body parameterized by the task mode). Every task is processed
// inside one transaction, so a machine failure rolls the task tuple back
// into the space and the respawned worker (or any other) redoes it
// exactly once.
void WorkerBody(ProcessContext& ctx, const MiningProblem& problem,
                double seconds_per_work_unit, SharedState* shared) {
  for (;;) {
    ctx.XStart();
    Tuple task;
    ctx.In(TaskTemplate(), &task);
    const int64_t length = GetInt(task, 2);
    if (length < 0) {  // poison task
      ctx.XCommit();
      return;
    }
    Pattern pattern{GetString(task, 1), static_cast<int>(length)};
    const int64_t mode = GetInt(task, 3);
    switch (mode) {
      case kEvaluate: {
        double goodness =
            EvaluateOnWorker(ctx, problem, pattern, seconds_per_work_unit, shared);
        ctx.Out(MakeTuple("report", pattern.key, pattern.length, goodness,
                          int64_t{0}));
        break;
      }
      case kExpand: {
        double goodness =
            EvaluateOnWorker(ctx, problem, pattern, seconds_per_work_unit, shared);
        std::vector<Pattern> children;
        if (problem.IsGood(pattern, goodness)) {
          children = problem.ChildPatterns(pattern);
        }
        // The report goes out before the child tasks. Every backend
        // publishes a commit's outs at once (kRealParallel under one lock
        // through ConcurrentTupleSpace::OutBatch), so no descendant's report
        // can appear before this one, and FIFO matching alone makes the
        // master consume a parent's report first. The order is kept because
        // it costs nothing.
        ctx.Out(MakeTuple("report", pattern.key, pattern.length, goodness,
                          static_cast<int64_t>(children.size())));
        for (const Pattern& child : children) {
          ctx.Out(TaskTuple(child, kExpand));
        }
        break;
      }
      case kSubtree: {
        // Depth-first over the whole subtree, all inside this transaction.
        std::vector<Pattern> stack = {pattern};
        double root_goodness = 0;
        bool first = true;
        while (!stack.empty()) {
          Pattern node = std::move(stack.back());
          stack.pop_back();
          double goodness =
              EvaluateOnWorker(ctx, problem, node, seconds_per_work_unit, shared);
          if (first) {
            root_goodness = goodness;
            first = false;
          }
          if (problem.IsGood(node, goodness)) {
            for (Pattern& child : problem.ChildPatterns(node)) {
              stack.push_back(std::move(child));
            }
          }
        }
        ctx.Out(MakeTuple("report", pattern.key, pattern.length, root_goodness,
                          int64_t{0}));
        break;
      }
      default:
        assert(false && "unknown task mode");
    }
    ctx.XCommit();
  }
}

// Master-side expansion of the levels below `emit_level` (adaptive master,
// §4.3.2): the master evaluates those patterns itself, then returns the
// frontier to be emitted as tasks.
std::vector<Pattern> ExpandLocally(ProcessContext& ctx,
                                   const MiningProblem& problem, int emit_level,
                                   double seconds_per_work_unit,
                                   SharedState* shared) {
  std::vector<Pattern> frontier = problem.RootPatterns();
  for (int level = 1; level < emit_level; ++level) {
    std::vector<Pattern> next;
    for (const Pattern& pattern : frontier) {
      ctx.Compute(problem.TaskCost(pattern) * seconds_per_work_unit);
      const double goodness = problem.Goodness(pattern);
      if (shared->dist) {
        ctx.Out(MakeTuple("cost", pattern.key, problem.TaskCost(pattern)));
      } else {
        std::lock_guard<std::mutex> lock(shared->mu);
        shared->task_costs.emplace_back(pattern.key, problem.TaskCost(pattern));
      }
      if (problem.IsGood(pattern, goodness)) {
        if (shared->dist) {
          ctx.Out(MakeTuple("good", pattern.key, pattern.length, goodness));
        } else {
          shared->master_good.push_back(GoodPattern{pattern, goodness});
        }
        for (Pattern& child : problem.ChildPatterns(pattern)) {
          next.push_back(std::move(child));
        }
      }
    }
    frontier = std::move(next);
  }
  return frontier;
}

// Master for the optimistic and load-balanced strategies. Termination uses
// task counting: `active` is the number of task tuples not yet fully
// accounted for; each report retires one task and announces `spawned` new
// ones. This is observationally equivalent to the paper's sibling-pruning
// termination() and needs no extra tuples. Each transaction drains every
// waiting report (InAll), so one round trip and one commit retire them all;
// the simulator bills the drain what one transaction per report costs.
void EtreeMaster(ProcessContext& ctx, const MiningProblem& problem,
                 const ParallelOptions& options, int64_t mode,
                 SharedState* shared) {
  ctx.XStart();
  std::vector<Pattern> frontier = ExpandLocally(
      ctx, problem, options.initial_level, options.seconds_per_work_unit,
      shared);
  int64_t active = 0;
  for (const Pattern& pattern : frontier) {
    ctx.Out(TaskTuple(pattern, mode));
    ++active;
  }
  ctx.XCommit();
  std::vector<Tuple> reports;
  while (active > 0) {
    ctx.XStart();
    ctx.InAll(ReportTemplate(), &reports);
    for (const Tuple& report : reports) active += GetInt(report, 4) - 1;
    ctx.XCommit();
  }
  ctx.XStart();
  for (int w = 0; w < options.num_workers; ++w) ctx.Out(PoisonTuple());
  ctx.XCommit();
}

// Master for PLED and the PLED->PLET hybrid. Maintains the E-dag visiting
// rule: a pattern is emitted only when all its immediate subpatterns are
// known good. In hybrid mode, children deeper than hybrid_switch_level are
// handed to the load-balanced protocol instead. It takes one report per
// transaction: a drained batch would publish the tasks its verdicts release
// only at the batch's commit.
void PledMaster(ProcessContext& ctx, const MiningProblem& problem,
                const ParallelOptions& options, bool hybrid,
                SharedState* /*shared*/) {
  std::map<std::string, bool> verdict;
  std::vector<Pattern> pending;
  int64_t active = 0;

  auto emit = [&](const Pattern& pattern, int64_t mode) {
    ctx.Out(TaskTuple(pattern, mode));
    ++active;
  };

  // A pending pattern becomes a task when all its immediate subpatterns are
  // known good; it is dropped as soon as any is known bad. Patterns whose
  // subpatterns were never evaluated (pruned earlier) simply stay pending
  // until the run ends — they are exactly the patterns an E-dag traversal
  // never visits.
  auto flush_pending = [&] {
    std::vector<Pattern> keep;
    for (Pattern& candidate : pending) {
      bool all_good = true;
      bool undecided = false;
      for (const Pattern& sub : problem.ImmediateSubpatterns(candidate)) {
        if (sub.length == 0) continue;
        auto it = verdict.find(sub.key);
        if (it == verdict.end()) {
          undecided = true;
        } else if (!it->second) {
          all_good = false;
          break;
        }
      }
      if (!all_good) continue;  // drop: a subpattern is bad
      if (undecided) {
        keep.push_back(std::move(candidate));
        continue;
      }
      emit(candidate, kEvaluate);
    }
    pending = std::move(keep);
  };

  ctx.XStart();
  for (const Pattern& root : problem.RootPatterns()) emit(root, kEvaluate);
  ctx.XCommit();

  while (active > 0) {
    ctx.XStart();
    Tuple report;
    ctx.In(ReportTemplate(), &report);
    active += GetInt(report, 4) - 1;
    Pattern pattern{GetString(report, 1), static_cast<int>(GetInt(report, 2))};
    const double goodness = GetDouble(report, 3);
    // Load-balanced (kExpand) tasks in hybrid mode manage their own
    // expansion; their reports only participate in termination counting.
    const bool pled_task = !hybrid || pattern.length <= options.hybrid_switch_level;
    if (pled_task) {
      const bool good = problem.IsGood(pattern, goodness);
      verdict[pattern.key] = good;
      if (good) {
        for (Pattern& child : problem.ChildPatterns(pattern)) {
          if (hybrid && child.length > options.hybrid_switch_level) {
            emit(child, kExpand);  // hand over to the E-tree protocol
          } else {
            pending.push_back(std::move(child));
          }
        }
      }
      flush_pending();
    }
    ctx.XCommit();
  }

  ctx.XStart();
  for (int w = 0; w < options.num_workers; ++w) ctx.Out(PoisonTuple());
  ctx.XCommit();
}

}  // namespace

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kPled:
      return "PLED";
    case Strategy::kOptimistic:
      return "optimistic";
    case Strategy::kLoadBalanced:
      return "load-balanced";
    case Strategy::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

ParallelResult MineParallel(const MiningProblem& problem,
                            const ParallelOptions& options) {
  // The master keeps its state in locals and never XRecovers, so a
  // respawned master would start over (DESIGN.md, "Fault model", Masters).
  if (plinda::FailsMachine(0, options.failures, options.fault_plan)) {
    return ParallelResult{};
  }
  ParallelOptions opts = options;
  assert(opts.num_workers >= 1);
  if (opts.adaptive_master && (opts.strategy == Strategy::kOptimistic ||
                               opts.strategy == Strategy::kLoadBalanced)) {
    opts.initial_level = opts.num_workers >= opts.adaptive_threshold ? 2 : 1;
  }

  opts.runtime.mode = opts.execution_mode;
  plinda::Runtime runtime(opts.num_workers, opts.runtime);
  for (const auto& [machine, time] : opts.failures) {
    runtime.ScheduleFailure(machine, time);
  }
  plinda::InstallFaultPlan(&runtime, opts.fault_plan);

  auto shared = std::make_unique<SharedState>();
  shared->dist = opts.execution_mode == plinda::ExecutionMode::kDistributed;
  SharedState* shared_ptr = shared.get();

  // Master on machine 0 (shared with worker 0 — it mostly blocks on in).
  switch (opts.strategy) {
    case Strategy::kPled:
      runtime.SpawnOn("master", 0, [&problem, opts, shared_ptr](ProcessContext& ctx) {
        PledMaster(ctx, problem, opts, /*hybrid=*/false, shared_ptr);
      });
      break;
    case Strategy::kHybrid:
      runtime.SpawnOn("master", 0, [&problem, opts, shared_ptr](ProcessContext& ctx) {
        PledMaster(ctx, problem, opts, /*hybrid=*/true, shared_ptr);
      });
      break;
    case Strategy::kOptimistic:
      runtime.SpawnOn("master", 0, [&problem, opts, shared_ptr](ProcessContext& ctx) {
        EtreeMaster(ctx, problem, opts, kSubtree, shared_ptr);
      });
      break;
    case Strategy::kLoadBalanced:
      runtime.SpawnOn("master", 0, [&problem, opts, shared_ptr](ProcessContext& ctx) {
        EtreeMaster(ctx, problem, opts, kExpand, shared_ptr);
      });
      break;
  }
  for (int w = 0; w < opts.num_workers; ++w) {
    const double spw = opts.seconds_per_work_unit;
    runtime.SpawnOn("worker-" + std::to_string(w), w,
                    [&problem, spw, shared_ptr](ProcessContext& ctx) {
                      WorkerBody(ctx, problem, spw, shared_ptr);
                    });
  }

  ParallelResult result;
  result.ok = runtime.Run();
  result.completion_time = runtime.CompletionTime();
  result.wall_time = runtime.wall_time();
  result.stats = runtime.stats();
  result.num_workers = opts.num_workers;

  // Harvest: good patterns published by workers live in the tuple space;
  // those found by master-side expansion are in shared state.
  plinda::Template good_template =
      MakeTemplate(A("good"), F(ValueType::kString), F(ValueType::kInt),
                   F(ValueType::kDouble));
  Tuple tuple;
  while (runtime.space().TryIn(good_template, &tuple)) {
    result.mining.good_patterns.push_back(
        GoodPattern{Pattern{GetString(tuple, 1), static_cast<int>(GetInt(tuple, 2))},
                    GetDouble(tuple, 3)});
  }
  for (const GoodPattern& gp : shared->master_good) {
    result.mining.good_patterns.push_back(gp);
  }
  SortGoodPatterns(&result.mining.good_patterns);
  if (shared->dist) {
    // Cost records come back through the space (the forked workers cannot
    // write the shared vectors).
    plinda::Template cost_template =
        MakeTemplate(A("cost"), F(ValueType::kString), F(ValueType::kDouble));
    while (runtime.space().TryIn(cost_template, &tuple)) {
      shared->task_costs.emplace_back(GetString(tuple, 1), GetDouble(tuple, 2));
    }
  }
  // Sum task costs in canonical (sorted) order, not evaluation order, so the
  // floating-point total is bit-identical across execution modes and runs.
  std::sort(shared->task_costs.begin(), shared->task_costs.end());
  if (!shared->dist) {
    // In-process records are written outside the task transaction, so a
    // task that a fault aborted and a worker redid recorded its patterns
    // twice: count each pattern once. kDistributed's cost tuples commit
    // with their task, so each counts — a duplicate there is a commit that
    // applied twice.
    shared->task_costs.erase(
        std::unique(shared->task_costs.begin(), shared->task_costs.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first;
                    }),
        shared->task_costs.end());
  }
  result.mining.patterns_tested = shared->task_costs.size();
  double total_cost = 0;
  for (const auto& [key, cost] : shared->task_costs) total_cost += cost;
  result.mining.total_task_cost = total_cost;
  return result;
}

}  // namespace fpdm::core
