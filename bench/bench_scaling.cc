// Wall-clock scaling benchmarks of ExecutionMode::kRealParallel: the same
// mining programs the virtual-time benches simulate, executed for real on
// OS threads against the in-process tuple space, swept over worker counts.
// On a multicore host the 4-worker rows run >2x faster than the 1-worker
// rows (the acceptance curve of the real backend); on a single-core host
// the sweep still runs and documents the flat curve. Emit JSON with
//   bench_scaling --benchmark_format=json
// (tools/run_benches.sh writes BENCH_scaling.json at the repo root).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "arm/problem.h"
#include "plinda/net/client.h"
#include "plinda/net/server.h"
#include "plinda/net/supervisor.h"
#include "plinda/runtime.h"
#include "plinda/tuple.h"
#include "classify/parallel.h"
#include "core/parallel.h"
#include "core/traversal.h"
#include "data/benchmarks.h"
#include "seqmine/generator.h"
#include "seqmine/problem.h"

namespace {

using namespace fpdm;

// Shared counters: elapsed wall seconds reported by the runtime itself,
// cores visible to the process (to interpret flat curves on small hosts),
// and the tuple operations the run made.
void FillCounters(benchmark::State& state, double wall_time, uint64_t ops) {
  state.counters["wall_time_s"] = wall_time;
  state.counters["hw_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
  state.counters["tuple_ops"] = static_cast<double>(ops);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

// The sequential program on a problem: core::EtreeTraversal, with no
// runtime and no tuple space. Returns its wall seconds.
double TimeSequential(const core::MiningProblem& problem) {
  const auto start = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(core::EtreeTraversal(problem).patterns_tested);
  return SecondsSince(start);
}

// The paper's efficiency (Figs 4.8, 4.9): sequential time over workers
// times parallel time.
void SetEfficiency(benchmark::State& state, double sequential_s,
                   int workers, double parallel_s) {
  state.counters["efficiency"] = sequential_s / (workers * parallel_s);
}

// Frequent-itemset mining (§2.2) on 600 baskets over 30 items with three
// planted itemsets: the problem of every Apriori row. The problem keeps no
// memo, so every iteration may reuse one.
arm::ItemsetProblem AprioriProblem() {
  arm::BasketConfig config;
  config.num_transactions = 600;
  config.num_items = 30;
  config.avg_transaction_size = 8;
  config.patterns = {{{1, 4, 7}, 0.25}, {{2, 5, 9, 12}, 0.2}, {{3, 8}, 0.3}};
  return arm::ItemsetProblem(arm::GenerateBaskets(config),
                             /*min_support=*/40);
}

// The sequential Apriori program as a row of its own: the baseline of the
// Apriori rows below.
void BM_ScalingAprioriSequential(benchmark::State& state) {
  const arm::ItemsetProblem problem = AprioriProblem();
  core::MiningResult result;
  for (auto _ : state) {
    result = core::EtreeTraversal(problem);
    benchmark::DoNotOptimize(result.good_patterns.size());
  }
  state.counters["hw_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
  state.counters["patterns_tested"] =
      static_cast<double>(result.patterns_tested);
}
BENCHMARK(BM_ScalingAprioriSequential)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Runs `options` on the Apriori problem once per iteration, with the
// sequential program timed next to every run (outside the timed region), so
// the efficiency compares the two under the same host load.
core::ParallelResult RunApriori(benchmark::State& state,
                                const core::ParallelOptions& options) {
  const arm::ItemsetProblem problem = AprioriProblem();
  core::ParallelResult result;
  double sequential_s = 0;
  double parallel_s = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sequential_s += TimeSequential(problem);
    state.ResumeTiming();
    const auto start = std::chrono::steady_clock::now();
    result = core::MineParallel(problem, options);
    parallel_s += SecondsSince(start);
    if (!result.ok) state.SkipWithError("parallel run failed");
    benchmark::DoNotOptimize(result.mining.good_patterns.size());
  }
  FillCounters(state, result.wall_time, result.stats.tuple_ops);
  state.counters["patterns_tested"] =
      static_cast<double>(result.mining.patterns_tested);
  SetEfficiency(state, sequential_s, options.num_workers, parallel_s);
  return result;
}

// Apriori under the load-balanced E-tree strategy in kRealParallel: workers
// pull one itemset task at a time and push children back, so the
// support-counting work spreads across however many cores are available.
void BM_ScalingApriori(benchmark::State& state) {
  core::ParallelOptions options;
  options.strategy = core::Strategy::kLoadBalanced;
  options.execution_mode = plinda::ExecutionMode::kRealParallel;
  options.num_workers = static_cast<int>(state.range(0));
  RunApriori(state, options);
}
BENCHMARK(BM_ScalingApriori)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Sequence motif discovery (§4.2) on 16 proteins of 50-70 letters with
// two planted motifs, at one mutation. A task counts one segment's
// occurrences with the bit-parallel matcher, which takes microseconds, so
// the per-task protocol outweighs the matching. The problem
// memoizes Goodness and TaskCost, so each iteration mines a fresh one —
// built, and the previous one destroyed, outside the timed region — or
// every iteration after the first would time a warm memo.
std::vector<std::string> SeqmineSequences() {
  seqmine::ProteinSetConfig config;
  config.num_sequences = 16;
  config.min_length = 50;
  config.max_length = 70;
  config.seed = 321;
  config.planted = {{"MKWVTFISLLFL", 9, 0.0}, {"HKSEVAHRFK", 7, 0.0}};
  return seqmine::GenerateProteinSet(config);
}

const seqmine::SequenceMiningConfig kSeqmineMining{
    /*min_length=*/4, /*min_occurrence=*/6, /*max_mutations=*/1};

// The sequential program's wall seconds on a fresh (cold-memo) problem.
double TimeSequentialSeqmine(const std::vector<std::string>& sequences) {
  const seqmine::SequenceMiningProblem problem(sequences, kSeqmineMining);
  return TimeSequential(problem);
}

// The sequential program as a row of its own: the baseline of the parallel
// rows below.
void BM_ScalingSeqmineSequential(benchmark::State& state) {
  const std::vector<std::string> sequences = SeqmineSequences();
  std::optional<seqmine::SequenceMiningProblem> problem;
  core::MiningResult result;
  for (auto _ : state) {
    state.PauseTiming();
    problem.emplace(sequences, kSeqmineMining);
    state.ResumeTiming();
    result = core::EtreeTraversal(*problem);
    benchmark::DoNotOptimize(result.good_patterns.size());
  }
  state.counters["hw_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
  state.counters["patterns_tested"] =
      static_cast<double>(result.patterns_tested);
}
BENCHMARK(BM_ScalingSeqmineSequential)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ScalingSeqmine(benchmark::State& state) {
  const std::vector<std::string> sequences = SeqmineSequences();
  core::ParallelOptions options;
  options.strategy = core::Strategy::kLoadBalanced;
  options.execution_mode = plinda::ExecutionMode::kRealParallel;
  options.num_workers = static_cast<int>(state.range(0));
  core::ParallelResult result;
  std::optional<seqmine::SequenceMiningProblem> problem;
  double sequential_s = 0;
  double parallel_s = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // The sequential program runs next to every parallel run, so the
    // efficiency compares the two under the same host load.
    sequential_s += TimeSequentialSeqmine(sequences);
    problem.emplace(sequences, kSeqmineMining);
    state.ResumeTiming();
    const auto start = std::chrono::steady_clock::now();
    result = core::MineParallel(*problem, options);
    parallel_s += SecondsSince(start);
    if (!result.ok) state.SkipWithError("parallel run failed");
    benchmark::DoNotOptimize(result.mining.good_patterns.size());
  }
  FillCounters(state, result.wall_time, result.stats.tuple_ops);
  state.counters["patterns_tested"] =
      static_cast<double>(result.mining.patterns_tested);
  SetEfficiency(state, sequential_s, options.num_workers, parallel_s);
}
BENCHMARK(BM_ScalingSeqmine)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Wire-traffic counters of a distributed run: round trips and bytes summed
// across every worker plus the supervisor's control connection, kBatch
// frames applied server-side, and the mean sub-ops those frames carried.
// rpc_calls against tuple_ops is what write coalescing and deferred
// transaction frames save.
void FillWireCounters(benchmark::State& state,
                      const plinda::RuntimeStats& stats) {
  state.counters["rpc_calls"] = static_cast<double>(stats.rpc_calls);
  state.counters["bytes_on_wire"] = static_cast<double>(stats.bytes_on_wire);
  state.counters["batch_frames"] = static_cast<double>(stats.batch_frames);
  state.counters["tuples_per_batch"] =
      stats.batch_frames == 0
          ? 0.0
          : static_cast<double>(stats.batched_tuple_ops) /
                static_cast<double>(stats.batch_frames);
  // Group-commit WAL observability: durable groups and the bytes they
  // covered. Without wal_sync (the default) every append is its own group.
  state.counters["wal_group_commits"] =
      static_cast<double>(stats.wal_group_commits);
  state.counters["wal_synced_bytes"] =
      static_cast<double>(stats.wal_synced_bytes);
  // The server's transport-level observability: read/write/accept
  // syscalls on the data path and payload bytes moved.
  state.counters["transport_syscalls"] =
      static_cast<double>(stats.transport_syscalls);
  state.counters["transport_bytes"] =
      static_cast<double>(stats.transport_bytes);
}

// The same Apriori workload in ExecutionMode::kDistributed: every worker
// is a forked OS process and the tuple space is a separate server process
// behind a Unix-domain socket, so this row prices the wire protocol + WAL
// against the in-process space of BM_ScalingApriori. Iterations are
// pinned: each one forks a server and a full worker fleet, so letting the
// harness auto-scale the count would make the bench needlessly slow. Arg 0
// sweeps the worker fleet against the one server.
void BM_ScalingDistributedApriori(benchmark::State& state) {
  core::ParallelOptions options;
  options.strategy = core::Strategy::kLoadBalanced;
  options.execution_mode = plinda::ExecutionMode::kDistributed;
  options.num_workers = static_cast<int>(state.range(0));
  const core::ParallelResult result = RunApriori(state, options);
  FillWireCounters(state, result.stats);
  state.counters["server_checkpoints"] =
      static_cast<double>(result.stats.server_checkpoints);
}
BENCHMARK(BM_ScalingDistributedApriori)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Iterations(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Saturating multi-client server hot path: N client threads hammer the
// server, each flushing pipelined 32-out + 32-take bursts — one wire round
// trip per burst. Rows sweep the client count; the 8-client row is
// the single serve loop under load. p99 burst latency (µs) rides along so a
// throughput change bought with a latency collapse shows up.
void BM_ServerSaturation(benchmark::State& state) {
  using namespace plinda;
  const int clients = static_cast<int>(state.range(0));
  constexpr int kBurst = 32;   // outs per burst, and then as many takes
  constexpr int kRounds = 48;  // bursts per client per iteration
  const std::string dir = net::MakeStateDir();
  net::SpaceServerOptions sopts;
  const std::string endpoint = dir + "/space.sock";
  sopts.endpoint = endpoint;
  sopts.state_dir = dir + "/state";
  const pid_t server_pid = net::ForkServerProcess(sopts);
  if (server_pid <= 0 || !net::WaitForEndpoint(endpoint, 10.0)) {
    state.SkipWithError("server start failed");
    return;
  }
  std::vector<double> latencies_us;
  int32_t pid_base = 0;  // fresh pids per iteration: a reused pid would
                         // trip the server's stale-sequence dedup check
  for (auto _ : state) {
    std::vector<std::thread> fleet;
    std::vector<std::vector<double>> lat(static_cast<size_t>(clients));
    std::atomic<bool> failed{false};
    for (int c = 0; c < clients; ++c) {
      fleet.emplace_back([&, c] {
        net::RemoteSpaceOptions copts;
        copts.endpoint = endpoint;
        copts.pid = pid_base + c + 1;
        net::RemoteTupleSpace client(copts);
        if (!client.Connect()) {
          failed = true;
          return;
        }
        const std::string key = "w" + std::to_string(c);
        const Template query = MakeTemplate(A(key), F(ValueType::kInt));
        auto& samples = lat[static_cast<size_t>(c)];
        samples.reserve(kRounds);
        for (int r = 0; r < kRounds && !failed.load(); ++r) {
          const auto t0 = std::chrono::steady_clock::now();
          for (int i = 0; i < kBurst; ++i) client.BatchOut(MakeTuple(key, i));
          for (int i = 0; i < kBurst; ++i) {
            client.BatchIn(query, /*remove=*/true);
          }
          if (client.Flush() != net::RemoteTupleSpace::CallStatus::kOk) {
            failed = true;
            break;
          }
          samples.push_back(std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
        }
        client.Bye();
      });
    }
    for (std::thread& t : fleet) t.join();
    pid_base += clients;
    if (failed.load()) {
      state.SkipWithError("client run failed");
      break;
    }
    for (const auto& v : lat) {
      latencies_us.insert(latencies_us.end(), v.begin(), v.end());
    }
  }
  {  // group-commit WAL counters straight from the server's STATS
    net::RemoteSpaceOptions copts;
    copts.endpoint = endpoint;
    copts.pid = -1;  // control connection
    net::RemoteTupleSpace ctl(copts);
    net::Reply stats;
    if (ctl.Connect() &&
        ctl.Stats(&stats) == net::RemoteTupleSpace::CallStatus::kOk) {
      state.counters["wal_group_commits"] =
          static_cast<double>(stats.wal_group_commits);
      state.counters["wal_synced_bytes"] =
          static_cast<double>(stats.wal_synced_bytes);
      state.counters["transport_syscalls"] =
          static_cast<double>(stats.transport_syscalls);
      state.counters["transport_bytes"] =
          static_cast<double>(stats.transport_bytes);
    }
    ctl.Bye();
  }
  net::KillProcess(server_pid);
  net::ExitInfo info;
  net::WaitForExit(server_pid, 5.0, &info);
  net::RemoveTree(dir);
  state.SetItemsProcessed(state.iterations() * clients * kRounds * kBurst * 2);
  std::sort(latencies_us.begin(), latencies_us.end());
  state.counters["p99_burst_us"] =
      latencies_us.empty()
          ? 0.0
          : latencies_us[std::min(latencies_us.size() - 1,
                                  latencies_us.size() * 99 / 100)];
  state.counters["clients"] = static_cast<double>(clients);
}

BENCHMARK(BM_ServerSaturation)
    ->Arg(1)
    ->Arg(8)
    ->Iterations(3)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// NyuMiner-CV (§6.1.1): one auxiliary tree per fold, grown concurrently by
// the workers while the master grows the main tree.
void BM_ScalingNyuMinerCV(benchmark::State& state) {
  data::BenchmarkSpec spec = data::SpecByName("diabetes");
  spec.rows = 800;
  const classify::Dataset data = data::GenerateBenchmark(spec);
  classify::NyuMinerOptions options;
  options.cv_folds = 8;
  options.seed = 123;
  classify::ParallelExecOptions exec;
  exec.execution_mode = plinda::ExecutionMode::kRealParallel;
  exec.num_workers = static_cast<int>(state.range(0));
  classify::ParallelTreeResult result;
  for (auto _ : state) {
    result = classify::ParallelNyuMinerCV(data, data.AllRows(), options, exec);
    if (!result.ok) state.SkipWithError("parallel run failed");
    benchmark::DoNotOptimize(result.tree.num_nodes());
  }
  FillCounters(state, result.wall_time, result.stats.tuple_ops);
  state.counters["tree_nodes"] = static_cast<double>(result.tree.num_nodes());
}
BENCHMARK(BM_ScalingNyuMinerCV)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Stamp the core count into the benchmark context so a JSON consumer can
  // tell a flat scaling curve on a 1-core host from a regression on a big
  // one without re-deriving it from per-row counters.
  benchmark::AddCustomContext(
      "hardware_concurrency",
      std::to_string(std::thread::hardware_concurrency()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
