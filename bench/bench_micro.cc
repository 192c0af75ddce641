// Micro-benchmarks (google-benchmark) of the performance-critical
// primitives: tuple-space matching, the wire protocol (unbatched vs
// batched round trips against a live server process), GST construction,
// exact and bit-parallel approximate motif matching, the optimal sub-K-ary
// split DP, one Apriori pass, and tree edit distance with cuts.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "arm/apriori.h"
#include "arm/problem.h"
#include "classify/split.h"
#include "data/benchmarks.h"
#include "plinda/net/client.h"
#include "plinda/net/server.h"
#include "plinda/net/supervisor.h"
#include "plinda/tuple_space.h"
#include "seqmine/generator.h"
#include "seqmine/motif.h"
#include "seqmine/suffix_tree.h"
#include "treemine/edit_distance.h"
#include "treemine/problem.h"
#include "util/random.h"

namespace {

using namespace fpdm;

void BM_TupleSpaceOutIn(benchmark::State& state) {
  using namespace plinda;
  for (auto _ : state) {
    TupleSpace space;
    for (int i = 0; i < 1000; ++i) space.Out(MakeTuple("task", i));
    Tuple t;
    Template q = MakeTemplate(A("task"), F(ValueType::kInt));
    while (space.TryIn(q, &t)) {
    }
    benchmark::DoNotOptimize(space.size());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_TupleSpaceOutIn);

void BM_TupleSpaceMatchMiss(benchmark::State& state) {
  using namespace plinda;
  TupleSpace space;
  for (int i = 0; i < 1000; ++i) space.Out(MakeTuple("task", i));
  Template q = MakeTemplate(A("other"), F(ValueType::kInt));
  for (auto _ : state) {
    Tuple t;
    benchmark::DoNotOptimize(space.TryRd(q, &t));
  }
}
BENCHMARK(BM_TupleSpaceMatchMiss);

// Wire-protocol round-trip amortization: 256 outs + 256 takes per
// iteration against a live tuple-space server process over a Unix socket.
// The unbatched variant pays one RPC round trip per operation (512 per
// iteration, the PR-3 behavior); the batched variant coalesces the same
// 512 sub-ops into two kBatch frames flushed in one round trip each. The
// items/s ratio between the two rows is the headline batching win.
class WireBench {
 public:
  WireBench() {
    dir_ = plinda::net::MakeStateDir();
    sopts_.endpoint = dir_ + "/space.sock";
    sopts_.state_dir = dir_ + "/state";
    server_pid_ = plinda::net::ForkServerProcess(sopts_);
    plinda::net::WaitForEndpoint(sopts_.endpoint, 10.0);
    plinda::net::RemoteSpaceOptions copts;
    copts.endpoint = sopts_.endpoint;
    copts.pid = 1;
    client_ = std::make_unique<plinda::net::RemoteTupleSpace>(copts);
    ok_ = client_->Connect();
  }

  ~WireBench() {
    if (client_ != nullptr) client_->Bye();
    if (server_pid_ > 0) {
      plinda::net::KillProcess(server_pid_);
      plinda::net::ExitInfo info;
      plinda::net::WaitForExit(server_pid_, 5.0, &info);
    }
    plinda::net::RemoveTree(dir_);
  }

  bool ok() const { return ok_; }
  plinda::net::RemoteTupleSpace& client() { return *client_; }

  void FillCounters(benchmark::State& state) {
    state.counters["rpc_round_trips"] =
        static_cast<double>(client_->rpc_round_trips());
    state.counters["bytes_on_wire"] = static_cast<double>(
        client_->bytes_sent() + client_->bytes_received());
    state.counters["batch_frames"] =
        static_cast<double>(client_->batch_frames_sent());
    // Transport-level observability: I/O syscalls and payload bytes on the
    // client side plus the server's own count from STATS.
    uint64_t syscalls = client_->transport_syscalls();
    uint64_t bytes = client_->transport_bytes();
    plinda::net::Reply stats;
    if (client_->Stats(&stats) ==
        plinda::net::RemoteTupleSpace::CallStatus::kOk) {
      syscalls += stats.transport_syscalls;
      bytes += stats.transport_bytes;
    }
    state.counters["transport_syscalls"] = static_cast<double>(syscalls);
    state.counters["transport_bytes"] = static_cast<double>(bytes);
  }

 private:
  std::string dir_;
  plinda::net::SpaceServerOptions sopts_;
  pid_t server_pid_ = -1;
  std::unique_ptr<plinda::net::RemoteTupleSpace> client_;
  bool ok_ = false;
};

constexpr int kWireOps = 256;

void BM_WireUnbatchedOutIn(benchmark::State& state) {
  using namespace plinda;
  WireBench bench;
  if (!bench.ok()) {
    state.SkipWithError("server connect failed");
    return;
  }
  const Template query = MakeTemplate(A("w"), F(ValueType::kInt));
  for (auto _ : state) {
    for (int i = 0; i < kWireOps; ++i) {
      bench.client().Out(MakeTuple("w", i));
    }
    Tuple t;
    for (int i = 0; i < kWireOps; ++i) {
      bench.client().In(query, /*blocking=*/false, /*remove=*/true, &t);
    }
  }
  state.SetItemsProcessed(state.iterations() * kWireOps * 2);
  bench.FillCounters(state);
}
BENCHMARK(BM_WireUnbatchedOutIn)->UseRealTime();

void BM_WireBatchedOutIn(benchmark::State& state) {
  using namespace plinda;
  WireBench bench;
  if (!bench.ok()) {
    state.SkipWithError("server connect failed");
    return;
  }
  const Template query = MakeTemplate(A("w"), F(ValueType::kInt));
  for (auto _ : state) {
    for (int i = 0; i < kWireOps; ++i) {
      bench.client().BatchOut(MakeTuple("w", i));
    }
    for (int i = 0; i < kWireOps; ++i) {
      bench.client().BatchIn(query, /*remove=*/true);
    }
    if (bench.client().Flush() != net::RemoteTupleSpace::CallStatus::kOk) {
      state.SkipWithError("flush failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * kWireOps * 2);
  bench.FillCounters(state);
}
BENCHMARK(BM_WireBatchedOutIn)->UseRealTime();

// Single-op latency: one unbatched Out and one unbatched take per
// iteration, each a full request/reply round trip, so real_time/2 is the
// per-op wire latency in microseconds. Batching can't hide anything here.
void BM_WirePingPong(benchmark::State& state) {
  using namespace plinda;
  WireBench bench;
  if (!bench.ok()) {
    state.SkipWithError("server connect failed");
    return;
  }
  const Template query = MakeTemplate(A("p"), F(ValueType::kInt));
  Tuple t;
  for (auto _ : state) {
    bench.client().Out(MakeTuple("p", 1));
    bench.client().In(query, /*blocking=*/false, /*remove=*/true, &t);
  }
  state.SetItemsProcessed(state.iterations() * 2);
  bench.FillCounters(state);
}
// The /unix suffix keeps the row's committed name, so its baseline gates.
BENCHMARK(BM_WirePingPong)
    ->Name("BM_WirePingPong/unix")
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_SuffixTreeBuild(benchmark::State& state) {
  seqmine::ProteinSetConfig config = seqmine::CyclinsLikeConfig();
  std::vector<std::string> seqs = seqmine::GenerateProteinSet(config);
  for (auto _ : state) {
    seqmine::GeneralizedSuffixTree gst(seqs);
    benchmark::DoNotOptimize(gst.node_count());
  }
}
BENCHMARK(BM_SuffixTreeBuild);

void BM_MotifMatchExact(benchmark::State& state) {
  std::vector<std::string> seqs =
      seqmine::GenerateProteinSet(seqmine::CyclinsLikeConfig());
  seqmine::Motif motif{{"ACDEFGHIKLMN"}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        seqmine::OccurrenceNumber(motif, seqs, 0, nullptr));
  }
}
BENCHMARK(BM_MotifMatchExact);

// Approximate matching within range(0) mutations. The motif occurs in no
// sequence, so every sequence is scanned to its end.
void BM_MotifMatchApprox(benchmark::State& state) {
  std::vector<std::string> seqs =
      seqmine::GenerateProteinSet(seqmine::CyclinsLikeConfig());
  seqmine::Motif motif{{"ACDEFGHIKLMN"}};
  const int mutations = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        seqmine::OccurrenceNumber(motif, seqs, mutations, nullptr));
  }
}
BENCHMARK(BM_MotifMatchApprox)->Arg(1)->Arg(4);

// The same with a motif planted in the set: a sequence that holds it is
// scanned only up to the first place where it ends within the budget.
void BM_MotifMatchApproxPlanted(benchmark::State& state) {
  const seqmine::ProteinSetConfig config = seqmine::CyclinsLikeConfig();
  std::vector<std::string> seqs = seqmine::GenerateProteinSet(config);
  seqmine::Motif motif{{config.planted[0].motif}};
  const int mutations = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        seqmine::OccurrenceNumber(motif, seqs, mutations, nullptr));
  }
}
BENCHMARK(BM_MotifMatchApproxPlanted)->Arg(2);

void BM_OptimalSplitDp(benchmark::State& state) {
  const int baskets = static_cast<int>(state.range(0));
  util::Rng rng(3);
  std::vector<classify::Basket> value_baskets;
  for (int i = 0; i < baskets; ++i) {
    classify::Basket b;
    b.lo = b.hi = i;
    for (int c = 0; c < 6; ++c) {
      b.counts.push_back(static_cast<double>(rng.NextBounded(20)));
    }
    value_baskets.push_back(std::move(b));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(classify::OptimalOrderedPartition(
        value_baskets, 4, classify::GiniImpurity, nullptr));
  }
}
BENCHMARK(BM_OptimalSplitDp)->Arg(16)->Arg(48);

void BM_NyuSplitterOnSatimage(benchmark::State& state) {
  data::BenchmarkSpec spec = data::SpecByName("satimage");
  spec.rows = 1000;
  classify::Dataset dataset = data::GenerateBenchmark(spec);
  classify::Splitter splitter =
      classify::MakeNyuSplitter(classify::NyuSplitterOptions{});
  std::vector<int> rows = dataset.AllRows();
  for (auto _ : state) {
    benchmark::DoNotOptimize(splitter(dataset, rows, nullptr));
  }
}
BENCHMARK(BM_NyuSplitterOnSatimage);

void BM_AprioriPass(benchmark::State& state) {
  arm::BasketConfig config;
  config.num_transactions = 1000;
  config.num_items = 40;
  config.patterns = {{{1, 5, 9}, 0.3}, {{2, 11}, 0.4}};
  arm::TransactionDb db = arm::GenerateBaskets(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(arm::Apriori(db, 120, nullptr));
  }
}
BENCHMARK(BM_AprioriPass);

void BM_TreeCutDistance(benchmark::State& state) {
  treemine::RnaForestConfig config;
  config.num_trees = 1;
  config.min_nodes = 25;
  config.max_nodes = 25;
  treemine::OrderedTree text = treemine::GenerateRnaForest(config)[0];
  treemine::OrderedTree motif = treemine::OrderedTree::Parse("M(B(H)I(H))");
  for (auto _ : state) {
    benchmark::DoNotOptimize(treemine::MinCutDistance(motif, text, nullptr));
  }
}
BENCHMARK(BM_TreeCutDistance);

}  // namespace

BENCHMARK_MAIN();
