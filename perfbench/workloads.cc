#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "arm/problem.h"
#include "core/parallel.h"
#include "core/traversal.h"
#include "plinda/net/client.h"
#include "plinda/net/server.h"
#include "plinda/net/supervisor.h"
#include "plinda/tuple.h"
#include "seqmine/generator.h"
#include "seqmine/problem.h"
#include "util/random.h"

namespace perfbench {

namespace {

using namespace fpdm;
namespace net = plinda::net;
using plinda::A;
using plinda::F;
using plinda::MakeTemplate;
using plinda::MakeTuple;
using plinda::ValueType;
using CallStatus = net::RemoteTupleSpace::CallStatus;

// --- metrics -------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload prints every metric of its mode, so the sets are fixed
// here and must match BENCHMARK.json. A layer a workload never exercises
// reads 0 (motif-real's net.*, for instance). On server-mix a "job" is one
// client round: a write burst plus its run of reads.
constexpr MetricDef kEndToEnd[] = {
    {"job_s", "s"},
    {"job_cpu_s", "s"},
    {"ops_per_s", "1/s"},
    {"success_share", "share"},
    {"setup_s", "s"},
    {"rss_peak_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"arm.goodness_s", "s/job"},
    {"arm.goodness_calls", "count/job"},
    {"arm.children_s", "s/job"},
    {"seqmine.goodness_s", "s/job"},
    {"seqmine.goodness_calls", "count/job"},
    {"seqmine.children_s", "s/job"},
    {"core.seq_s", "s/job"},
    {"core.patterns_tested", "count/job"},
    {"core.busy_share", "share"},
    {"plinda.tuple_ops", "count/job"},
    {"plinda.ops_per_task", "ops/task"},
    {"plinda.txn_commits", "count/job"},
    {"plinda.txn_aborts", "count/job"},
    {"plinda.cross_shard_ops", "count/job"},
    {"net.client.rpc_calls", "count/job"},
    {"net.client.ops_per_rpc", "ops/rpc"},
    {"net.client.tuples_per_batch", "tuples/batch"},
    {"net.client.bytes_per_op", "B/op"},
    {"net.client.syscalls_per_op", "syscalls/op"},
    {"net.client.write_us", "us/burst"},
    {"net.client.write_p50_us", "us/burst"},
    {"net.client.write_p99_us", "us/burst"},
    {"net.client.read_us", "us/op"},
    {"net.client.count_us", "us/op"},
    {"net.client.read_p50_us", "us/op"},
    {"net.client.read_p99_us", "us/op"},
    {"net.client.connect_s", "s/conn"},
    {"net.server.wal_group_commits", "count/job"},
    {"net.server.wal_bytes_per_write", "B/write"},
    {"net.server.checkpoints", "count/job"},
    {"net.server.syscalls_per_op", "syscalls/op"},
    {"net.server.state_lock_waits", "count/job"},
    {"net.server.stripe_conflicts", "count/job"},
    {"net.supervisor.fork_s", "s/fork"},
    {"trace.overhead_s", "s/job"},
    {"failed_share", "share"},
};

class Metrics {
 public:
  explicit Metrics(bool per_layer) {
    if (per_layer) {
      for (const MetricDef& def : kPerLayer) list_.push_back({def.name, 0, def.unit});
    } else {
      for (const MetricDef& def : kEndToEnd) list_.push_back({def.name, 0, def.unit});
    }
  }

  void Set(const std::string& name, double value) {
    for (Metric& metric : list_) {
      if (metric.name == name) {
        metric.value = std::isfinite(value) ? value : 0;
        return;
      }
    }
    std::fprintf(stderr, "perfbench: metric %s is not in the schema\n",
                 name.c_str());
    std::abort();
  }

  std::vector<Metric> Take() { return std::move(list_); }

 private:
  std::vector<Metric> list_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The 99th percentile, lowered to the highest one that still has ten
// samples above it when the run is short (and the median below 21 samples).
double P99(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  size_t index = static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n))) - 1;
  index = std::min(index, n >= 21 ? n - 11 : n / 2);
  return v[index];
}

double SuccessShare(const Outcome& outcome) {
  return outcome.attempted == 0
             ? 0
             : 1.0 - static_cast<double>(outcome.failed) /
                         static_cast<double>(outcome.attempted);
}

// Peak resident set of this process or of any reaped child (the forked
// servers and workers), whichever is larger.
double PeakRssMb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

// User plus system CPU seconds of this process and its reaped children:
// the CPU a job costs, which waiting does not inflate.
double CpuSeconds() {
  auto seconds = [](const rusage& u) {
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
  };
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return seconds(self) + seconds(children);
}

Tracer::Totals TotalsOf(const Tracer* tracer, const char* name) {
  return tracer == nullptr ? Tracer::Totals{} : tracer->Get(name);
}

double MeanSpanSeconds(const Tracer& tracer, const char* name) {
  const Tracer::Totals totals = tracer.Get(name);
  return Ratio(totals.seconds, static_cast<double>(totals.count));
}

// The workloads measure the software cost of each layer, so they run where
// that cost is steady. On a 4-core shared virtual machine, each default
// below moved the same apriori-dist job between 0.25 s and 3.3 s from one
// run to the next, and motif-real by 2x, spreads no regression bound can
// hold:
//  - the default server thread count, min(4, cores);
//  - a checkpoint every 256 logged ops, each a snapshot file written and
//    renamed on the checkout's disk (no tmpfs: the benchmark writes only
//    inside its checkout);
//  - threads and processes spread over all cores, where every hand-off
//    waits for another virtual CPU to wake up, and the cores on offer
//    change with the neighbours' load.
// So servers use the single-threaded serve loop (plain WAL writes, no
// fdatasync) and never checkpoint within a run, and the benchmark pins
// itself, every thread it starts and every process it forks, to one CPU.
// Pinned and without checkpoints, six runs of apriori-dist read 0.32-0.39 s.
constexpr int kServerThreads = 1;
constexpr int kCheckpointOps = 1 << 30;
constexpr int kCpus = 1;

// Pins this process, and so every thread and process it starts afterwards,
// to the first CPU it may run on.
bool PinToOneCpu(std::string* error) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    *error = "sched_getaffinity failed";
    return false;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof one, &one) == 0) return true;
  }
  *error = "sched_setaffinity failed";
  return false;
}

// --- mining workloads ----------------------------------------------------

struct SpanNames {
  const char* goodness;
  const char* task_cost;
  const char* children;
};

// Traced-run decorator: one span around every Goodness, TaskCost and
// ChildPatterns call. TaskCost and Goodness share one memoized evaluation
// (seqmine runs the motif DP in whichever comes first), so the per-layer
// goodness time is the sum of both spans.
class TracedProblem final : public core::MiningProblem {
 public:
  TracedProblem(const core::MiningProblem& inner, Tracer* tracer,
                SpanNames names)
      : inner_(inner), tracer_(tracer), names_(names) {}

  std::vector<core::Pattern> RootPatterns() const override {
    return inner_.RootPatterns();
  }
  std::vector<core::Pattern> ChildPatterns(
      const core::Pattern& pattern) const override {
    Span span(tracer_, names_.children);
    return inner_.ChildPatterns(pattern);
  }
  std::vector<core::Pattern> ImmediateSubpatterns(
      const core::Pattern& pattern) const override {
    return inner_.ImmediateSubpatterns(pattern);
  }
  double Goodness(const core::Pattern& pattern) const override {
    Span span(tracer_, names_.goodness);
    return inner_.Goodness(pattern);
  }
  bool IsGood(const core::Pattern& pattern, double goodness) const override {
    return inner_.IsGood(pattern, goodness);
  }
  double TaskCost(const core::Pattern& pattern) const override {
    Span span(tracer_, names_.task_cost);
    return inner_.TaskCost(pattern);
  }

 private:
  const core::MiningProblem& inner_;
  Tracer* tracer_;
  SpanNames names_;
};

struct ProblemTotals {
  Tracer::Totals goodness;
  Tracer::Totals task_cost;
  Tracer::Totals children;

  static ProblemTotals Read(const Tracer* tracer, const SpanNames& names) {
    return {TotalsOf(tracer, names.goodness), TotalsOf(tracer, names.task_cost),
            TotalsOf(tracer, names.children)};
  }
};

struct MiningWorkload {
  const char* layer;  // prefix of the problem-layer metrics
  SpanNames spans;
  std::function<std::unique_ptr<core::MiningProblem>()> make;
  core::ParallelOptions options;
};

// The GenerateBaskets shape of bench_scaling's distributed Apriori rows,
// scaled to 1500 baskets so one job runs for about a second: microseconds
// of support counting per task, so wire, server and WAL set the time.
MiningWorkload AprioriDist(const Args& args) {
  MiningWorkload w;
  w.layer = "arm";
  w.spans = {"arm.goodness", "arm.task_cost", "arm.children"};
  const int baskets = args.tiny ? 200 : 1500;
  const uint64_t seed = args.seed;
  w.make = [baskets, seed] {
    arm::BasketConfig config;
    config.num_transactions = baskets;
    config.num_items = 30;
    config.avg_transaction_size = 8;
    config.patterns = {{{1, 4, 7}, 0.25}, {{2, 5, 9, 12}, 0.2}, {{3, 8}, 0.3}};
    // The baskets come from bench_scaling's generator seed and the run's
    // seed shuffles their order. Generated from the run's seed, pairs whose
    // support sits at the threshold changed the patterns tested by up to a
    // third between seeds, which alone spread job_s by 12-20%.
    arm::TransactionDb db = arm::GenerateBaskets(config);
    util::Rng rng(seed);
    rng.Shuffle(&db);
    // 40 of 600 baskets in the bench_scaling shape: keep the ratio.
    return std::make_unique<arm::ItemsetProblem>(std::move(db), baskets / 15);
  };
  w.options.strategy = core::Strategy::kLoadBalanced;
  w.options.execution_mode = plinda::ExecutionMode::kDistributed;
  w.options.num_workers = 3;
  w.options.runtime.distributed_server_threads = kServerThreads;
  w.options.runtime.distributed_checkpoint_ops = kCheckpointOps;
  w.options.runtime.distributed_wall_limit = 60;
  return w;
}

// The Chapter 4 motif E-tree on the cyclins-like protein set: the motif DP
// dominates and the tuple space is in-process, so net never runs. Three
// workers and the master hand tasks to each other through the sharded
// space on one CPU.
MiningWorkload MotifReal(const Args& args) {
  MiningWorkload w;
  w.layer = "seqmine";
  w.spans = {"seqmine.goodness", "seqmine.task_cost", "seqmine.children"};
  const bool tiny = args.tiny;
  const uint64_t seed = args.seed;
  w.make = [tiny, seed] {
    seqmine::ProteinSetConfig config = seqmine::CyclinsLikeConfig();
    config.seed = seed;
    seqmine::SequenceMiningConfig mining{/*min_length=*/14,
                                         /*min_occurrence=*/18,
                                         /*max_mutations=*/2};
    if (tiny) {
      config.num_sequences = 10;
      config.min_length = 30;
      config.max_length = 40;
      config.planted = {{config.planted[0].motif, 6, 0.0}};
      mining = {/*min_length=*/6, /*min_occurrence=*/5, /*max_mutations=*/1};
    }
    return std::make_unique<seqmine::SequenceMiningProblem>(
        seqmine::GenerateProteinSet(config), mining);
  };
  w.options.strategy = core::Strategy::kLoadBalanced;
  w.options.execution_mode = plinda::ExecutionMode::kRealParallel;
  w.options.num_workers = 3;
  return w;
}

struct Job {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  size_t patterns_tested = 0;
  plinda::RuntimeStats stats;
};

std::vector<double> Walls(const std::vector<Job>& jobs) {
  std::vector<double> walls;
  for (const Job& job : jobs) walls.push_back(job.wall_s);
  return walls;
}

// Field-wise sum of the counters the metrics read.
plinda::RuntimeStats SumStats(const std::vector<Job>& jobs) {
  plinda::RuntimeStats sum;
  for (const Job& job : jobs) {
    const plinda::RuntimeStats& s = job.stats;
    sum.tuple_ops += s.tuple_ops;
    sum.transactions_committed += s.transactions_committed;
    sum.transactions_aborted += s.transactions_aborted;
    sum.cross_shard_ops += s.cross_shard_ops;
    sum.rpc_calls += s.rpc_calls;
    sum.bytes_on_wire += s.bytes_on_wire;
    sum.batch_frames += s.batch_frames;
    sum.batched_tuple_ops += s.batched_tuple_ops;
    sum.server_checkpoints += s.server_checkpoints;
    sum.wal_group_commits += s.wal_group_commits;
    sum.wal_synced_bytes += s.wal_synced_bytes;
    sum.transport_syscalls += s.transport_syscalls;
    sum.state_lock_waits += s.state_lock_waits;
    sum.stripe_conflicts += s.stripe_conflicts;
  }
  return sum;
}

bool RunMining(const MiningWorkload& w, const Args& args, Tracer* tracer,
               Outcome* out) {
  const bool distributed =
      w.options.execution_mode == plinda::ExecutionMode::kDistributed;
  std::vector<double> setup_samples;

  // The sequential reference runs on an instance of its own, so no timed job
  // (and no forked worker) ever starts from its warm memo.
  core::MiningResult reference;
  double seq_s = 0;
  {
    const auto t0 = Clock::now();
    const std::unique_ptr<core::MiningProblem> problem = w.make();
    setup_samples.push_back(SecondsSince(t0));
    const TracedProblem traced(*problem, tracer, w.spans);
    const auto t1 = Clock::now();
    Span span(tracer, "core.seq");
    reference = core::EtreeTraversal(traced);
    seq_s = SecondsSince(t1);
  }
  const ProblemTotals reference_totals = ProblemTotals::Read(tracer, w.spans);
  const size_t reference_tested = reference.patterns_tested;
  if (args.wrong_reference) reference.patterns_tested += 1;

  int job_index = 0;
  auto run_job = [&](Tracer* job_tracer) {
    Span job_span(job_tracer, "bench.job");
    Job job;
    const auto t0 = Clock::now();
    std::unique_ptr<core::MiningProblem> problem;
    {
      Span span(job_tracer, "bench.setup");
      problem = w.make();
    }
    job.setup_s = SecondsSince(t0);
    setup_samples.push_back(job.setup_s);
    const TracedProblem traced(*problem, job_tracer, w.spans);
    core::ParallelOptions options = w.options;
    if (distributed) {
      // Caller-provided state dirs survive the run; each job gets its own
      // and removes it.
      options.runtime.distributed_dir =
          args.state_dir + "/job" + std::to_string(job_index);
    }
    ++job_index;
    core::ParallelResult result;
    const double cpu0 = CpuSeconds();
    const auto t1 = Clock::now();
    {
      Span span(job_tracer, "core.mine_parallel");
      result = job_tracer != nullptr ? core::MineParallel(traced, options)
                                     : core::MineParallel(*problem, options);
    }
    job.wall_s = SecondsSince(t1);
    job.cpu_s = CpuSeconds() - cpu0;
    if (distributed) net::RemoveTree(options.runtime.distributed_dir);
    job.patterns_tested = result.mining.patterns_tested;
    job.stats = result.stats;
    ++out->attempted;
    if (!result.ok ||
        result.mining.patterns_tested != reference.patterns_tested ||
        result.mining.good_patterns != reference.good_patterns) {
      ++out->failed;
      std::fprintf(stderr,
                   "perfbench: job %d disagrees with the reference (ok=%d, "
                   "tested %zu vs %zu, good %zu vs %zu)\n",
                   job_index, result.ok ? 1 : 0,
                   result.mining.patterns_tested, reference.patterns_tested,
                   result.mining.good_patterns.size(),
                   reference.good_patterns.size());
    }
    return job;
  };

  // The first job in a process runs markedly slower (page faults, lazy
  // binding, allocator growth): run it untimed, but still check it.
  run_job(nullptr);
  constexpr size_t kMinJobs = 3;
  // A traced run spends the first half untraced and the second half traced;
  // the difference of the two medians is the tracing overhead.
  const double window = tracer != nullptr ? args.seconds / 2 : args.seconds;
  std::vector<Job> untraced;
  std::vector<Job> traced;
  auto start = Clock::now();
  while (untraced.size() < kMinJobs || SecondsSince(start) < window) {
    untraced.push_back(run_job(nullptr));
  }
  if (tracer != nullptr) {
    start = Clock::now();
    while (traced.size() < kMinJobs || SecondsSince(start) < window) {
      traced.push_back(run_job(tracer));
    }
  }

  std::fprintf(stderr, "perfbench: job wall/cpu (s):");
  for (const Job& job : untraced) {
    std::fprintf(stderr, " %.3f/%.3f", job.wall_s, job.cpu_s);
  }
  std::fprintf(stderr, "\n");

  if (tracer == nullptr) {
    std::vector<double> cpu;
    std::vector<double> rate;
    for (const Job& job : untraced) {
      cpu.push_back(job.cpu_s);
      rate.push_back(Ratio(static_cast<double>(job.stats.tuple_ops), job.wall_s));
    }
    Metrics m(/*per_layer=*/false);
    m.Set("job_s", Median(Walls(untraced)));
    m.Set("job_cpu_s", Median(cpu));
    m.Set("ops_per_s", Median(rate));
    m.Set("success_share", SuccessShare(*out));
    m.Set("setup_s", Median(setup_samples));
    m.Set("rss_peak_mb", PeakRssMb());
    out->metrics = m.Take();
    return true;
  }

  const double jobs = static_cast<double>(traced.size());
  const double job_s = Median(Walls(traced));
  // The problem layer is read off the traced sequential reference, which
  // makes the same calls as one job. Forked kDistributed workers take their
  // spans with them, and the spans of worker threads sharing one CPU also
  // count the time others ran, so the jobs' own spans only feed the trace
  // file.
  const ProblemTotals& problem = reference_totals;
  const double goodness_s = problem.goodness.seconds + problem.task_cost.seconds;
  const std::string layer = w.layer;
  Metrics m(/*per_layer=*/true);
  m.Set(layer + ".goodness_s", goodness_s);
  m.Set(layer + ".goodness_calls", static_cast<double>(problem.goodness.count));
  m.Set(layer + ".children_s", problem.children.seconds);
  m.Set("core.seq_s", seq_s);
  m.Set("core.patterns_tested", static_cast<double>(reference_tested));
  m.Set("core.busy_share", Ratio(goodness_s, kCpus * job_s));

  const plinda::RuntimeStats sum = SumStats(traced);
  const double ops = static_cast<double>(sum.tuple_ops);
  double tested = 0;
  for (const Job& job : traced) tested += static_cast<double>(job.patterns_tested);
  m.Set("plinda.tuple_ops", ops / jobs);
  m.Set("plinda.ops_per_task", Ratio(ops, tested));
  m.Set("plinda.txn_commits", static_cast<double>(sum.transactions_committed) / jobs);
  m.Set("plinda.txn_aborts", static_cast<double>(sum.transactions_aborted) / jobs);
  m.Set("plinda.cross_shard_ops", static_cast<double>(sum.cross_shard_ops) / jobs);
  if (distributed) {
    // RuntimeStats carries no client-side syscall count, so
    // net.client.syscalls_per_op is measured on server-mix only.
    const double rpc = static_cast<double>(sum.rpc_calls);
    const double wal = static_cast<double>(sum.wal_group_commits);
    m.Set("net.client.rpc_calls", rpc / jobs);
    m.Set("net.client.ops_per_rpc", Ratio(ops, rpc));
    m.Set("net.client.tuples_per_batch",
          Ratio(static_cast<double>(sum.batched_tuple_ops),
                static_cast<double>(sum.batch_frames)));
    m.Set("net.client.bytes_per_op",
          Ratio(static_cast<double>(sum.bytes_on_wire), ops));
    m.Set("net.server.wal_group_commits", wal / jobs);
    m.Set("net.server.wal_bytes_per_write",
          Ratio(static_cast<double>(sum.wal_synced_bytes), wal));
    m.Set("net.server.checkpoints", static_cast<double>(sum.server_checkpoints) / jobs);
    m.Set("net.server.syscalls_per_op",
          Ratio(static_cast<double>(sum.transport_syscalls), ops));
    m.Set("net.server.state_lock_waits", static_cast<double>(sum.state_lock_waits) / jobs);
    m.Set("net.server.stripe_conflicts", static_cast<double>(sum.stripe_conflicts) / jobs);
  }
  m.Set("trace.overhead_s", job_s - Median(Walls(untraced)));
  m.Set("failed_share", 1.0 - SuccessShare(*out));
  out->metrics = m.Take();
  return true;
}

// --- server-mix ------------------------------------------------------------

// Three clients and the server share the pinned CPU.
constexpr int kMixClients = 3;
constexpr int kBurst = 32;          // outs per write burst, then as many takes
constexpr int kReadsPerRound = 8;   // alternating rdp and count
constexpr int64_t kTableSize = 4096;

struct ClientTally {
  std::vector<double> round_s;
  uint64_t ops = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rpc = 0;
  uint64_t bytes = 0;
  uint64_t syscalls = 0;
  uint64_t batch_frames = 0;
  uint64_t batched_ops = 0;

  void Add(const ClientTally& o) {
    round_s.insert(round_s.end(), o.round_s.begin(), o.round_s.end());
    ops += o.ops;
    attempted += o.attempted;
    failed += o.failed;
    rpc += o.rpc;
    bytes += o.bytes;
    syscalls += o.syscalls;
    batch_frames += o.batch_frames;
    batched_ops += o.batched_ops;
  }
};

struct MixPhase {
  double setup_s = 0;
  double window_s = 0;
  double cpu_s = 0;  // whole phase, the server reaped: set-up is under 1%
  ClientTally tally;
  net::Reply before;  // server STATS around the timed window
  net::Reply after;
};

// Kills and reaps the forked server and removes its state dir on every exit
// path of a phase.
struct ServerProcess {
  pid_t pid = -1;
  std::string dir;

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  explicit ServerProcess(std::string d) : dir(std::move(d)) {}
  ~ServerProcess() {
    if (pid > 0) {
      net::KillProcess(pid);
      net::ExitInfo info;
      net::WaitForExit(pid, 10.0, &info);
    }
    net::RemoveTree(dir);
  }
};

// One closed-loop client: a write burst (32 outs + 32 destructive ins on its
// own key, one Flush: logged and batched), then single synchronous reads on
// the shared table (unlogged bucket scans). Every reply is checked.
void MixClient(net::RemoteTupleSpace& client, int index, uint64_t seed,
               double seconds, bool wrong_reference, Tracer* tracer,
               ClientTally* tally) {
  util::Rng rng(seed);
  const int64_t skew = wrong_reference ? 1 : 0;
  const std::string key = "w" + std::to_string(index);
  const plinda::Template take = MakeTemplate(A(key), F(ValueType::kInt));
  const plinda::Template table = MakeTemplate(A("table"), F(ValueType::kInt));
  const uint64_t rpc0 = client.rpc_round_trips();
  const uint64_t bytes0 = client.transport_bytes();
  const uint64_t sys0 = client.transport_syscalls();
  const uint64_t frames0 = client.batch_frames_sent();
  const uint64_t batched0 = client.batched_ops_sent();
  std::vector<net::BatchItem> items;
  const auto start = Clock::now();
  while (SecondsSince(start) < seconds) {
    Span round(tracer, "bench.round");
    const auto round_start = Clock::now();
    {
      Span span(tracer, "net.client.write");
      bool queued = true;
      for (int64_t i = 0; i < kBurst; ++i) {
        queued &= client.BatchOut(MakeTuple(key, i)) == CallStatus::kOk;
      }
      for (int i = 0; i < kBurst; ++i) {
        queued &= client.BatchIn(take, /*remove=*/true) == CallStatus::kOk;
      }
      items.clear();
      const bool flushed = client.Flush(&items) == CallStatus::kOk;
      tally->ops += 2 * kBurst;
      tally->attempted += 2 * kBurst;
      if (!queued || !flushed || items.size() != 2 * kBurst) {
        tally->failed += 2 * kBurst;
      } else {
        for (int64_t i = 0; i < 2 * kBurst; ++i) {
          const net::BatchItem& item = items[static_cast<size_t>(i)];
          const bool ok =
              item.status == net::WireStatus::kOk &&
              (i < kBurst || (item.has_tuple &&
                              item.tuple == MakeTuple(key, i - kBurst + skew)));
          if (!ok) ++tally->failed;
        }
      }
    }
    for (int r = 0; r < kReadsPerRound; ++r) {
      bool ok = false;
      if (r % 2 == 0) {
        const int64_t k = static_cast<int64_t>(rng.NextBounded(kTableSize));
        Span span(tracer, "net.client.read");
        plinda::Tuple tuple;
        ok = client.In(MakeTemplate(A("table"), A(k)), /*blocking=*/false,
                       /*remove=*/false, &tuple) == CallStatus::kOk &&
             tuple == MakeTuple("table", k + skew);
      } else {
        Span span(tracer, "net.client.count");
        uint64_t count = 0;
        ok = client.Count(table, &count) == CallStatus::kOk &&
             count == static_cast<uint64_t>(kTableSize + skew);
      }
      ++tally->ops;
      ++tally->attempted;
      if (!ok) ++tally->failed;
    }
    tally->round_s.push_back(SecondsSince(round_start));
  }
  tally->rpc = client.rpc_round_trips() - rpc0;
  tally->bytes = client.transport_bytes() - bytes0;
  tally->syscalls = client.transport_syscalls() - sys0;
  tally->batch_frames = client.batch_frames_sent() - frames0;
  tally->batched_ops = client.batched_ops_sent() - batched0;
}

// Forks a server with the runtime's default options (bar the thread count
// and checkpoint interval, see kServerThreads), connects the clients
// and seeds the table (the measured set-up), then runs the clients for
// `seconds` between two STATS snapshots.
bool RunMixPhase(const Args& args, int phase_index, double seconds,
                 Tracer* tracer, MixPhase* phase, std::string* error) {
  const auto setup_start = Clock::now();
  ServerProcess server(args.state_dir + "/mix" + std::to_string(phase_index));
  std::error_code ec;
  std::filesystem::create_directories(server.dir, ec);
  if (ec) {
    *error = "cannot create " + server.dir + ": " + ec.message();
    return false;
  }
  net::SpaceServerOptions sopts;
  sopts.endpoint = server.dir + "/space.sock";
  sopts.state_dir = server.dir + "/state";
  sopts.threads = kServerThreads;
  sopts.checkpoint_every_ops = kCheckpointOps;
  {
    Span span(tracer, "net.supervisor.fork");
    server.pid = net::ForkServerProcess(sopts);
    if (server.pid <= 0 || !net::WaitForEndpoint(sopts.endpoint, 10.0)) {
      *error = "the tuple-space server did not start";
      return false;
    }
  }
  std::vector<std::unique_ptr<net::RemoteTupleSpace>> clients;
  for (int c = 0; c <= kMixClients; ++c) {
    net::RemoteSpaceOptions copts;
    copts.endpoint = sopts.endpoint;
    // The last connection is the control connection (pid -1) for STATS.
    copts.pid = c < kMixClients ? c + 1 : -1;
    copts.reconnect_timeout_s = 10.0;
    clients.push_back(std::make_unique<net::RemoteTupleSpace>(copts));
    Span span(tracer, "net.client.connect");
    if (!clients.back()->Connect()) {
      *error = "connect failed: " + clients.back()->last_error();
      return false;
    }
  }
  net::RemoteTupleSpace& control = *clients.back();
  {
    Span span(tracer, "bench.seed");
    for (int64_t i = 0; i < kTableSize; ++i) {
      clients[0]->BatchOut(MakeTuple("table", i));
    }
    uint64_t count = 0;
    if (clients[0]->Flush() != CallStatus::kOk ||
        clients[0]->Count(MakeTemplate(A("table"), F(ValueType::kInt)),
                          &count) != CallStatus::kOk ||
        count != static_cast<uint64_t>(kTableSize)) {
      *error = "seeding the table failed";
      return false;
    }
  }
  phase->setup_s = SecondsSince(setup_start);
  {
    Span span(tracer, "net.server.stats");
    if (control.Stats(&phase->before) != CallStatus::kOk) {
      *error = "STATS failed";
      return false;
    }
  }
  std::vector<ClientTally> tallies(kMixClients);
  const auto window_start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kMixClients; ++c) {
      const uint64_t seed = args.seed * 1000003 + static_cast<uint64_t>(phase_index * 16 + c);
      threads.emplace_back([&, c, seed] {
        MixClient(*clients[static_cast<size_t>(c)], c, seed, seconds,
                  args.wrong_reference, tracer,
                  &tallies[static_cast<size_t>(c)]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  phase->window_s = SecondsSince(window_start);
  {
    Span span(tracer, "net.server.stats");
    if (control.Stats(&phase->after) != CallStatus::kOk) {
      *error = "STATS failed";
      return false;
    }
  }
  for (const ClientTally& t : tallies) phase->tally.Add(t);
  for (auto& client : clients) client->Bye();
  return true;
}

bool RunServerMix(const Args& args, Tracer* tracer, Outcome* out,
                  std::string* error) {
  // Untraced: five phases, each against a freshly forked server, so set-up
  // is measured five times (WaitForEndpoint polls every 5 ms, so a single
  // set-up time jumps in 5 ms steps). Traced: an untraced phase, then a
  // traced one of equal length; their round medians give the tracing
  // overhead.
  const int phases = tracer != nullptr ? 2 : 5;
  std::vector<MixPhase> results(static_cast<size_t>(phases));
  for (int p = 0; p < phases; ++p) {
    Tracer* phase_tracer = tracer != nullptr && p == 1 ? tracer : nullptr;
    const double cpu0 = CpuSeconds();
    if (!RunMixPhase(args, p, args.seconds / phases, phase_tracer,
                     &results[static_cast<size_t>(p)], error)) {
      return false;
    }
    results[static_cast<size_t>(p)].cpu_s = CpuSeconds() - cpu0;
    out->attempted += results[static_cast<size_t>(p)].tally.attempted;
    out->failed += results[static_cast<size_t>(p)].tally.failed;
  }

  if (tracer == nullptr) {
    ClientTally all;
    double window = 0;
    double cpu = 0;
    std::vector<double> setups;
    for (const MixPhase& phase : results) {
      all.Add(phase.tally);
      window += phase.window_s;
      cpu += phase.cpu_s;
      setups.push_back(phase.setup_s);
    }
    Metrics m(/*per_layer=*/false);
    m.Set("job_s", Median(all.round_s));
    m.Set("job_cpu_s", Ratio(cpu, static_cast<double>(all.round_s.size())));
    m.Set("ops_per_s", Ratio(static_cast<double>(all.ops), window));
    m.Set("success_share", SuccessShare(*out));
    m.Set("setup_s", Median(setups));
    m.Set("rss_peak_mb", PeakRssMb());
    out->metrics = m.Take();
    return true;
  }

  const MixPhase& traced = results[1];
  const ClientTally& t = traced.tally;
  const double rounds = static_cast<double>(t.round_s.size());
  const double ops = static_cast<double>(t.ops);
  const double rpc = static_cast<double>(t.rpc);
  auto delta = [&](uint64_t net::Reply::*field) {
    return static_cast<double>(traced.after.*field - traced.before.*field);
  };
  std::vector<double> reads = tracer->Durations("net.client.read");
  const std::vector<double> counts = tracer->Durations("net.client.count");
  reads.insert(reads.end(), counts.begin(), counts.end());
  const double wal = delta(&net::Reply::wal_group_commits);

  Metrics m(/*per_layer=*/true);
  m.Set("net.client.rpc_calls", rpc / rounds);
  m.Set("net.client.ops_per_rpc", Ratio(ops, rpc));
  m.Set("net.client.tuples_per_batch",
        Ratio(static_cast<double>(t.batched_ops),
              static_cast<double>(t.batch_frames)));
  m.Set("net.client.bytes_per_op", Ratio(static_cast<double>(t.bytes), ops));
  m.Set("net.client.syscalls_per_op", Ratio(static_cast<double>(t.syscalls), ops));
  m.Set("net.client.write_us", 1e6 * MeanSpanSeconds(*tracer, "net.client.write"));
  m.Set("net.client.write_p50_us", Median(tracer->Durations("net.client.write")));
  m.Set("net.client.write_p99_us", P99(tracer->Durations("net.client.write")));
  m.Set("net.client.read_us", 1e6 * MeanSpanSeconds(*tracer, "net.client.read"));
  m.Set("net.client.count_us", 1e6 * MeanSpanSeconds(*tracer, "net.client.count"));
  m.Set("net.client.read_p50_us", Median(reads));
  m.Set("net.client.read_p99_us", P99(reads));
  m.Set("net.client.connect_s", MeanSpanSeconds(*tracer, "net.client.connect"));
  m.Set("net.server.wal_group_commits", wal / rounds);
  m.Set("net.server.wal_bytes_per_write",
        Ratio(delta(&net::Reply::wal_synced_bytes), wal));
  m.Set("net.server.checkpoints", delta(&net::Reply::checkpoints) / rounds);
  m.Set("net.server.syscalls_per_op",
        Ratio(delta(&net::Reply::transport_syscalls),
              delta(&net::Reply::tuple_ops)));
  m.Set("net.server.state_lock_waits", delta(&net::Reply::state_lock_waits) / rounds);
  m.Set("net.server.stripe_conflicts", delta(&net::Reply::stripe_conflicts) / rounds);
  m.Set("net.supervisor.fork_s", MeanSpanSeconds(*tracer, "net.supervisor.fork"));
  m.Set("trace.overhead_s", Median(t.round_s) - Median(results[0].tally.round_s));
  m.Set("failed_share", 1.0 - SuccessShare(*out));
  out->metrics = m.Take();
  return true;
}

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool RunWorkload(const Args& args, Tracer* tracer, Outcome* outcome,
                 std::string* error) {
  if (!PinToOneCpu(error)) return false;
  if (args.workload == "apriori-dist") {
    return RunMining(AprioriDist(args), args, tracer, outcome);
  }
  if (args.workload == "motif-real") {
    return RunMining(MotifReal(args), args, tracer, outcome);
  }
  if (args.workload == "server-mix") {
    return RunServerMix(args, tracer, outcome, error);
  }
  *error = "unknown workload " + args.workload;
  return false;
}

}  // namespace perfbench
