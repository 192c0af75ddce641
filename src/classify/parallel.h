#ifndef FPDM_CLASSIFY_PARALLEL_H_
#define FPDM_CLASSIFY_PARALLEL_H_

#include "classify/c45.h"
#include "classify/nyuminer.h"
#include "plinda/chaos.h"
#include "plinda/runtime.h"

namespace fpdm::classify {

/// Execution options for the PLinda data-parallel classifiers (Chapter 6).
/// Each worker runs on its own simulated workstation (the master shares
/// machine 0 with worker 0, as in Chapter 4).
struct ParallelExecOptions {
  int num_workers = 2;
  /// Execution backend: deterministic virtual-time simulator (default),
  /// real multicore threads (kRealParallel), or forked OS processes talking
  /// to a tuple-space server process (kDistributed). The trained model is
  /// bit-identical in all modes; fault injection (`failures` /
  /// `fault_plan`) needs the simulator or kDistributed — distributed fault
  /// times are wall seconds since Run().
  plinda::ExecutionMode execution_mode = plinda::ExecutionMode::kSimulated;
  /// Virtual seconds per unit of splitter work; calibrated by the benches
  /// so 1-worker runs land near the paper's sequential times (Tables
  /// 6.1-6.3).
  double seconds_per_work_unit = 1e-6;
  plinda::RuntimeOptions runtime;
  /// Machine failures to inject: (machine, virtual time). Machine 0 hosts
  /// the master, which cannot survive its death: a run that fails machine 0
  /// returns ok = false without running (DESIGN.md, "Fault model",
  /// Masters).
  std::vector<std::pair<int, double>> failures;
  /// Seeded chaos schedule (machine and tuple-space-server faults) applied
  /// on top of `failures`; see plinda/chaos.h. Keep machine 0 spared, as
  /// `failures` must: the master (and worker 0) run there.
  plinda::FaultPlan fault_plan;
};

/// Result of a parallel tree-building run.
struct ParallelTreeResult {
  DecisionTree tree;
  bool ok = false;
  double completion_time = 0;
  /// Elapsed wall seconds of the run (both modes).
  double wall_time = 0;
  /// Splitter work units across all processes. Each fold or trial counts
  /// once, even when a fault aborted it and a worker redid it; the work
  /// lost to faults shows in RuntimeStats::total_work instead.
  double total_work = 0;
  plinda::RuntimeStats stats;
};

/// Parallel NyuMiner-CV (§6.1.1, Figures 6.1/6.2): the master grows the
/// main tree while workers grow the V auxiliary trees (one fold per task)
/// and return per-alpha error vectors; the master cross-validates and
/// prunes. Produces exactly the same tree as TrainNyuMinerCV with the same
/// options.
ParallelTreeResult ParallelNyuMinerCV(const Dataset& data,
                                      const std::vector<int>& rows,
                                      const NyuMinerOptions& options,
                                      const ParallelExecOptions& exec);

/// Parallel C4.5 (§6.2.1): each windowing trial is a task; the master keeps
/// the tree with the fewest training errors. Produces the same tree as
/// TrainC45Windowed with the same options.
ParallelTreeResult ParallelC45(const Dataset& data,
                               const std::vector<int>& rows,
                               const C45Options& options,
                               const ParallelExecOptions& exec);

/// Result of a parallel NyuMiner-RS run.
struct ParallelRsResult {
  RsModel model;
  bool ok = false;
  double completion_time = 0;
  /// Elapsed wall seconds of the run (both modes).
  double wall_time = 0;
  /// Splitter work units, each trial counted once (see ParallelTreeResult).
  double total_work = 0;
  plinda::RuntimeStats stats;
};

/// Parallel NyuMiner-RS (§6.2.2): each multiple-incremental-sampling trial
/// (alternate tree) is a task; the master unions the rules. Produces the
/// same model as TrainNyuMinerRS with the same options.
ParallelRsResult ParallelNyuMinerRS(const Dataset& data,
                                    const std::vector<int>& rows,
                                    const NyuMinerOptions& options,
                                    const ParallelExecOptions& exec);

}  // namespace fpdm::classify

#endif  // FPDM_CLASSIFY_PARALLEL_H_
