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
#include <fstream>
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

// Frequent-itemset mining (§2.2) under the load-balanced E-tree strategy:
// workers pull one itemset task at a time and push children back, so the
// support-counting work spreads across however many cores are available.
void BM_ScalingApriori(benchmark::State& state) {
  arm::BasketConfig config;
  config.num_transactions = 600;
  config.num_items = 30;
  config.avg_transaction_size = 8;
  config.patterns = {{{1, 4, 7}, 0.25}, {{2, 5, 9, 12}, 0.2}, {{3, 8}, 0.3}};
  const arm::ItemsetProblem problem(arm::GenerateBaskets(config),
                                    /*min_support=*/40);
  core::ParallelOptions options;
  options.strategy = core::Strategy::kLoadBalanced;
  options.execution_mode = plinda::ExecutionMode::kRealParallel;
  options.num_workers = static_cast<int>(state.range(0));
  core::ParallelResult result;
  for (auto _ : state) {
    result = core::MineParallel(problem, options);
    if (!result.ok) state.SkipWithError("parallel run failed");
    benchmark::DoNotOptimize(result.mining.good_patterns.size());
  }
  FillCounters(state, result.wall_time, result.stats.tuple_ops);
  state.counters["patterns_tested"] =
      static_cast<double>(result.mining.patterns_tested);
}
BENCHMARK(BM_ScalingApriori)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Sequence motif discovery (§4.2): the per-task motif-matching DP is the
// dominant cost and runs concurrently on the worker threads. The problem
// memoizes Goodness and TaskCost, so each iteration mines a fresh one —
// built, and the previous one destroyed, outside the timed region — or
// every iteration after the first would time a warm memo.
void BM_ScalingSeqmine(benchmark::State& state) {
  seqmine::ProteinSetConfig config;
  config.num_sequences = 16;
  config.min_length = 50;
  config.max_length = 70;
  config.seed = 321;
  config.planted = {{"MKWVTFISLLFL", 9, 0.0}, {"HKSEVAHRFK", 7, 0.0}};
  const std::vector<std::string> sequences =
      seqmine::GenerateProteinSet(config);
  seqmine::SequenceMiningConfig mining;
  mining.min_length = 4;
  mining.min_occurrence = 6;
  mining.max_mutations = 1;
  core::ParallelOptions options;
  options.strategy = core::Strategy::kLoadBalanced;
  options.execution_mode = plinda::ExecutionMode::kRealParallel;
  options.num_workers = static_cast<int>(state.range(0));
  core::ParallelResult result;
  std::optional<seqmine::SequenceMiningProblem> problem;
  for (auto _ : state) {
    state.PauseTiming();
    problem.emplace(sequences, mining);
    state.ResumeTiming();
    result = core::MineParallel(*problem, options);
    if (!result.ok) state.SkipWithError("parallel run failed");
    benchmark::DoNotOptimize(result.mining.good_patterns.size());
  }
  FillCounters(state, result.wall_time, result.stats.tuple_ops);
  state.counters["patterns_tested"] =
      static_cast<double>(result.mining.patterns_tested);
}
BENCHMARK(BM_ScalingSeqmine)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The same Apriori workload in ExecutionMode::kDistributed: every worker
// is a forked OS process and the tuple space is a separate server process
// behind a Unix-domain socket, so this row prices the wire protocol + WAL
// against the in-process space of BM_ScalingApriori. Iterations are
// pinned: each one forks a server and a full worker fleet, so letting the
// harness auto-scale the count would make the bench needlessly slow.
arm::ItemsetProblem DistributedAprioriProblem() {
  arm::BasketConfig config;
  config.num_transactions = 600;
  config.num_items = 30;
  config.avg_transaction_size = 8;
  config.patterns = {{{1, 4, 7}, 0.25}, {{2, 5, 9, 12}, 0.2}, {{3, 8}, 0.3}};
  return arm::ItemsetProblem(arm::GenerateBaskets(config),
                             /*min_support=*/40);
}

// Wire-traffic counters of a distributed run: round trips and bytes summed
// across every worker plus the supervisor's control connection, kBatch
// frames applied server-side, and the mean sub-ops those frames carried.
// rpc_calls is the number batching exists to shrink — compare the batched
// and unbatched rows at the same worker count.
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
  // 2PC observability: commits that spanned shard servers and the PREPARE
  // votes they logged. Single-server rows must report 0 for both — those
  // commits take the coordinator-only fast path with no prepare round.
  state.counters["txn_prepares"] =
      static_cast<double>(stats.dist_txn_prepares);
  state.counters["txn_cross_server"] =
      static_cast<double>(stats.dist_txn_cross_server);
  // Group-commit WAL observability: durable groups and the bytes they
  // covered, summed over the shard servers. Without wal_sync (the default)
  // every append is its own group.
  state.counters["wal_group_commits"] =
      static_cast<double>(stats.wal_group_commits);
  state.counters["wal_synced_bytes"] =
      static_cast<double>(stats.wal_synced_bytes);
  // Transport-level observability, summed across the shard servers:
  // read/write/accept syscalls on the data path and payload bytes moved.
  state.counters["transport_syscalls"] =
      static_cast<double>(stats.transport_syscalls);
  state.counters["transport_bytes"] =
      static_cast<double>(stats.transport_bytes);
}

void RunScalingDistributedApriori(benchmark::State& state, bool batching,
                                  int servers) {
  const arm::ItemsetProblem problem = DistributedAprioriProblem();
  core::ParallelOptions options;
  options.strategy = core::Strategy::kLoadBalanced;
  options.execution_mode = plinda::ExecutionMode::kDistributed;
  options.num_workers = static_cast<int>(state.range(0));
  options.runtime.distributed_batching = batching;
  options.runtime.distributed_servers = servers;
  core::ParallelResult result;
  for (auto _ : state) {
    result = core::MineParallel(problem, options);
    if (!result.ok) state.SkipWithError("distributed run failed");
    benchmark::DoNotOptimize(result.mining.good_patterns.size());
  }
  FillCounters(state, result.wall_time, result.stats.tuple_ops);
  FillWireCounters(state, result.stats);
  state.counters["patterns_tested"] =
      static_cast<double>(result.mining.patterns_tested);
  state.counters["server_checkpoints"] =
      static_cast<double>(result.stats.server_checkpoints);
  // Multi-server placement observability: formal-first all-shard ops and
  // the pipelined gather rounds they cost. rounds_per_scatter ≈ 1 (not N)
  // is the scatter legs riding as one writev + one pipelined gather.
  state.counters["servers"] = static_cast<double>(servers);
  state.counters["scatter_ops"] =
      static_cast<double>(result.stats.dist_scatter_ops);
  state.counters["rounds_per_scatter"] =
      result.stats.dist_scatter_ops == 0
          ? 0.0
          : static_cast<double>(result.stats.dist_scatter_rounds) /
                static_cast<double>(result.stats.dist_scatter_ops);
}

// Arg 0 sweeps the worker fleet against one server; arg 1 then sweeps the
// shard-server count at the largest fleet — each server's single serve
// loop is the ceiling the 2- and 4-server rows exist to lift.
void BM_ScalingDistributedApriori(benchmark::State& state) {
  RunScalingDistributedApriori(state, /*batching=*/true,
                               static_cast<int>(state.range(1)));
}
BENCHMARK(BM_ScalingDistributedApriori)
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({4, 4})
    ->Iterations(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The identical workload with write coalescing and frame deferral off —
// every call is its own round trip, as before the batching layer. The
// rpc_calls ratio against BM_ScalingDistributedApriori at the same worker
// count is the protocol-level win, decoupled from wall-clock noise.
void BM_ScalingDistributedAprioriUnbatched(benchmark::State& state) {
  RunScalingDistributedApriori(state, /*batching=*/false, /*servers=*/1);
}
BENCHMARK(BM_ScalingDistributedAprioriUnbatched)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Iterations(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The formal-first all-shard slow path in isolation: the miners route
// every op to a single bucket, so this bench is what actually prices the
// scatter/gather — a consumer draining tuples spread over many distinct
// buckets with a formal-first template. Every in probes ALL shard servers;
// rounds_per_scatter ≈ 1 across the server sweep shows the N legs ride as
// one pipelined gather, not N serial round trips.
void BM_ScatterGatherDistributed(benchmark::State& state) {
  const int servers = static_cast<int>(state.range(0));
  constexpr int64_t kTasks = 32;
  plinda::RuntimeStats stats;
  for (auto _ : state) {
    plinda::RuntimeOptions options;
    options.mode = plinda::ExecutionMode::kDistributed;
    options.distributed_servers = servers;
    plinda::Runtime runtime(1, options);
    for (int64_t i = 0; i < kTasks; ++i) {
      runtime.space().Out(plinda::MakeTuple("t" + std::to_string(i), i));
    }
    runtime.SpawnOn("consumer", 0, [](plinda::ProcessContext& ctx) {
      for (int64_t i = 0; i < kTasks; ++i) {
        plinda::Tuple t;
        ctx.In(plinda::MakeTemplate(plinda::F(plinda::ValueType::kString),
                                    plinda::F(plinda::ValueType::kInt)),
               &t);
      }
    });
    if (!runtime.Run()) state.SkipWithError("scatter run failed");
    stats = runtime.stats();
    benchmark::DoNotOptimize(stats.tuple_ops);
  }
  state.counters["servers"] = static_cast<double>(servers);
  state.counters["scatter_ops"] = static_cast<double>(stats.dist_scatter_ops);
  state.counters["rounds_per_scatter"] =
      stats.dist_scatter_ops == 0
          ? 0.0
          : static_cast<double>(stats.dist_scatter_rounds) /
                static_cast<double>(stats.dist_scatter_ops);
  state.counters["rpc_calls"] = static_cast<double>(stats.rpc_calls);
}
BENCHMARK(BM_ScatterGatherDistributed)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Iterations(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Saturating multi-client server hot path: N client threads hammer ONE
// shard server, each flushing pipelined 32-out + 32-take bursts — one wire
// round trip per burst. Rows sweep the client count; the 8-client row is
// the single serve loop under load. p99 burst latency (µs) rides along so a
// throughput change bought with a latency collapse shows up.
enum class SaturationTransport { kUnix, kTcp };

void ServerSaturationImpl(benchmark::State& state,
                          SaturationTransport transport) {
  using namespace plinda;
  const bool tcp = transport == SaturationTransport::kTcp;
  const int clients = static_cast<int>(state.range(0));
  constexpr int kBurst = 32;   // outs per burst, and then as many takes
  constexpr int kRounds = 48;  // bursts per client per iteration
  const std::string dir = net::MakeStateDir();
  net::SpaceServerOptions sopts;
  std::string endpoint = dir + "/space.sock";
  sopts.endpoint = tcp ? "tcp:127.0.0.1:0" : endpoint;
  if (tcp) sopts.resolved_endpoint_file = dir + "/endpoint";
  sopts.state_dir = dir + "/state";
  const pid_t server_pid = net::ForkServerProcess(sopts);
  if (server_pid <= 0) {
    state.SkipWithError("server start failed");
    return;
  }
  if (tcp) {
    // The server binds port 0 and publishes the kernel-assigned port
    // through the resolved-endpoint file.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    endpoint.clear();
    while (endpoint.empty() && std::chrono::steady_clock::now() < deadline) {
      std::ifstream in(sopts.resolved_endpoint_file);
      std::getline(in, endpoint);
      if (endpoint.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    if (endpoint.empty() || !net::WaitForEndpoint(endpoint, 10.0)) {
      state.SkipWithError("server start failed");
      return;
    }
  } else if (!net::WaitForEndpoint(endpoint, 10.0)) {
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

void BM_ServerSaturation(benchmark::State& state) {
  ServerSaturationImpl(state, SaturationTransport::kUnix);
}
BENCHMARK(BM_ServerSaturation)
    ->Arg(1)
    ->Arg(8)
    ->Iterations(3)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The transport axis: the same saturation workload over loopback TCP. The
// delta against the matching BM_ServerSaturation rows is pure transport
// cost; the 8-client row doubles as the multi-client TCP soak.
void BM_ServerSaturationTcp(benchmark::State& state) {
  ServerSaturationImpl(state, SaturationTransport::kTcp);
}
BENCHMARK(BM_ServerSaturationTcp)
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
