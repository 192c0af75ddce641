#ifndef FPDM_PLINDA_RUNTIME_H_
#define FPDM_PLINDA_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "plinda/concurrent_space.h"
#include "plinda/tuple.h"
#include "plinda/tuple_space.h"

namespace fpdm::plinda {

namespace net {
class RemoteTupleSpace;
}  // namespace net

class Runtime;
class ProcessContext;

/// A simulated PLinda process body. Called once per (re)incarnation of the
/// process; fault-tolerant programs call XRecover() first to resume from
/// their last committed continuation, exactly as in the paper's templates.
using ProcessFn = std::function<void(ProcessContext&)>;

/// How the runtime executes the PLinda processes.
enum class ExecutionMode {
  /// Deterministic virtual-time simulation: every process gets its own OS
  /// thread but a conservative scheduler admits exactly one at a time.
  /// Supports the full fault model (machine and tuple-space-server
  /// failures); bit-for-bit reproducible, including virtual times.
  kSimulated,
  /// Real parallel execution: all runnable processes run concurrently on
  /// their OS threads against the simulator's TupleSpace behind one mutex
  /// (ConcurrentTupleSpace), where an out wakes only the blocked in/rd
  /// calls it matches. Wall-clock fast; virtual time does not advance
  /// (Compute only accrues work statistics) and fault injection is
  /// unsupported — scheduling any fault makes Run() fail with
  /// RuntimeError::Code::kFaultInjectionUnsupported. Mining protocols whose
  /// results are scheduling-independent (all of core/ and classify/)
  /// produce bit-identical results in either mode.
  kRealParallel,
  /// Distributed execution: every process is a forked OS process talking to
  /// one tuple-space *server process* over a Unix-domain socket in
  /// distributed_dir (the wire protocol in plinda/net/), all on one host;
  /// the paper's LAN is modeled by kSimulated. Crossing the process boundary
  /// restores the fault model that kRealParallel gave up: ScheduleFailure()
  /// SIGKILLs the worker processes placed on the failed machine (respawned
  /// with XRecover-visible incarnations), and ScheduleServerFailure()
  /// SIGKILLs the server, which recovers from its on-disk checkpoint +
  /// operation log. Fault times are wall-clock seconds since Run().
  /// Deterministic mining protocols produce bit-identical results in all
  /// three modes.
  /// Restriction: ProcessContext::Spawn is unsupported (the process tree is
  /// fixed at Run(); all of core/ and classify/ spawn up front).
  kDistributed,
};

/// Runtime tuning knobs (virtual seconds; latencies apply to the simulated
/// mode only).
struct RuntimeOptions {
  /// Execution backend: the deterministic simulator, real threads
  /// (kRealParallel) or forked processes and a server (kDistributed).
  ExecutionMode mode = ExecutionMode::kSimulated;
  /// Cost of one tuple-space operation (out/in/rd/...): models the LAN round
  /// trip to the PLinda server.
  double tuple_op_latency = 0.02;
  /// Extra cost of xstart/xcommit bookkeeping.
  double txn_latency = 0.01;
  /// Delay before a (re)spawned process starts running (proc_eval + process
  /// start; also the failure-detection + restart delay after a crash).
  double spawn_delay = 2.0;
  /// Virtual seconds between periodic checkpoints of the tuple-space server
  /// (§2.4.6). Checkpoint + operation log are only maintained once a server
  /// failure has been scheduled, so failure-free runs pay nothing.
  double server_checkpoint_interval = 50.0;
  /// Extra delay between the server recovery event and stalled clients
  /// resuming (server restart + log replay time).
  double server_restart_delay = 2.0;
  /// Safety valve: abort the simulation after this many scheduler steps.
  uint64_t max_steps = 200'000'000;
  /// kDistributed: server checkpoints its space every this many logged
  /// operations (the knob behind RuntimeStats::server_checkpoints).
  int distributed_checkpoint_ops = 256;
  /// kDistributed: directory for the server socket + recovery state. Empty
  /// (default) creates a private mkdtemp directory, removed after Run();
  /// a caller-provided directory is kept.
  std::string distributed_dir;
  /// kDistributed: hard wall-clock ceiling on Run(); exceeded = deadlock.
  double distributed_wall_limit = 120.0;
  /// kDistributed: how long a worker's tuple-space call retries against an
  /// unreachable server before failing the run. Must comfortably cover a
  /// scheduled server failure + recovery gap.
  double distributed_reconnect_timeout = 20.0;
  /// kDistributed fault injection (0 = off), forwarded to the server: its
  /// Nth WAL append fails as if the disk rejected the write, so the server
  /// process exits fatally (exit code 1). The supervisor must fail the run
  /// with a structured kServerDead error.
  int distributed_wal_fail_after = 0;
  /// Ignored: the server runs one serve loop on one thread. Kept only so
  /// callers that still set it compile.
  int distributed_server_threads = 0;
};

/// One entry of the process-watch trace (the programmatic equivalent of
/// the PLinda runtime "Monitor" window of Chapter 7): a lifecycle event of
/// a simulated process or machine, stamped with virtual time (simulated
/// mode) or elapsed wall seconds (kRealParallel and kDistributed).
struct TraceEvent {
  enum class Kind {
    kSpawned,
    kDone,
    kKilled,
    kRespawned,
    kMachineFailed,
    kMachineRecovered,
    kServerFailed,      // tuple-space server crash (machine/pid = -1)
    kServerRecovered,   // server back up: checkpoint restored, log replayed
    kServerCheckpoint,  // periodic checkpoint of the tuple space taken
    kError,             // protocol misuse terminated the process
  };
  Kind kind = Kind::kSpawned;
  double time = 0;
  int pid = -1;          // -1 for machine and server events
  int machine = -1;      // -1 for server events
  std::string process;   // empty for machine and server events
};

/// Human-readable rendering of a trace event.
std::string ToString(const TraceEvent& event);

/// A structured runtime error: PLinda protocol misuse by a process body
/// (e.g. xcommit without xstart). Instead of asserting — which silently
/// corrupts state in release builds — the runtime records one of these,
/// terminates the offending process, and makes Run() return false.
struct RuntimeError {
  enum class Code {
    kXCommitWithoutXStart,
    kNestedXStart,
    kXRecoverInsideTransaction,
    kNoMachineAvailable,  // spawn requested while every machine is down
    /// A machine or server fault was scheduled on a kRealParallel runtime.
    /// The fault model needs the deterministic virtual-time scheduler (kill
    /// points, rollback, virtual respawn delays); run such experiments in
    /// kSimulated mode.
    kFaultInjectionUnsupported,
    /// kDistributed: the wire conversation with the tuple-space server broke
    /// beyond recovery (undecodable reply, or unreachable past the
    /// reconnect window). Detail carries the transport error. In every
    /// mode, also a process body that ended on an uncaught exception;
    /// detail then carries its what().
    kWireProtocolError,
    /// kDistributed: ProcessContext::Spawn was called (the distributed
    /// process tree is fixed before Run()).
    kDistributedSpawnUnsupported,
    /// kDistributed: the server process exited fatally (non-zero exit code,
    /// e.g. a WAL write failure) rather than dying by signal. A signal
    /// death is a crash the supervisor restarts; a fatal exit means the
    /// server refused to run, so retrying would spin until the deadlock
    /// timeout. Detail carries the exit code.
    kServerDead,
    /// kDistributed: the Unix-domain socket path for the server would not fit
    /// sockaddr_un::sun_path (typically a very long $TMPDIR). Point
    /// RuntimeOptions::distributed_dir somewhere shorter.
    kBadSocketPath,
  };
  Code code = Code::kXCommitWithoutXStart;
  double time = 0;
  int pid = -1;
  std::string process;
  std::string detail;
};

/// Human-readable rendering of a runtime error.
std::string ToString(const RuntimeError& error);

/// Aggregate counters exposed after Run().
struct RuntimeStats {
  uint64_t tuple_ops = 0;
  uint64_t transactions_committed = 0;
  uint64_t transactions_aborted = 0;
  uint64_t processes_killed = 0;
  uint64_t processes_respawned = 0;
  uint64_t scheduler_steps = 0;
  /// Tuple-space server failure model (§2.4.6).
  uint64_t server_failures = 0;
  uint64_t server_checkpoints = 0;
  /// Logged operations replayed on top of the last checkpoint at recovery.
  uint64_t server_ops_replayed = 0;
  /// Total virtual seconds the server was down (crash to recovery event).
  double server_downtime = 0;
  /// Sum over processes of Compute() work units actually performed
  /// (including work later lost to failures).
  double total_work = 0;
  /// Always 0: the kRealParallel space has no shards. Kept only because
  /// perfbench/ reads it.
  uint64_t cross_shard_ops = 0;
  /// kDistributed only: wire-level counters summed over every worker
  /// incarnation plus the supervisor's control connection. rpc_calls counts
  /// round trips (flushes that waited for replies), so
  /// tuple_ops / rpc_calls measures how well batching + pipelining amortize
  /// the per-request latency.
  uint64_t rpc_calls = 0;
  uint64_t bytes_on_wire = 0;  // sent + received
  uint64_t batch_frames = 0;   // kBatch records: batch frames and drains
  uint64_t batched_tuple_ops = 0;  // sub-ops and drained tuples they held
  /// kDistributed: durable WAL groups the server made and the WAL bytes
  /// those groups covered. Without wal_sync each append is its own group;
  /// with it each group is one fdatasync per serve-loop pass, so
  /// wal_synced_bytes / wal_group_commits measures how many bytes one sync
  /// coalesced.
  uint64_t wal_group_commits = 0;
  uint64_t wal_synced_bytes = 0;
  /// kDistributed: the server's transport-level I/O — syscalls spent moving
  /// bytes (read/write/sendmsg) and payload bytes moved. transport_syscalls
  /// / tuple ops is the per-op syscall cost of the server's socket I/O.
  uint64_t transport_syscalls = 0;
  uint64_t transport_bytes = 0;
  /// Always 0: the server runs one serve loop and takes no locks.
  /// Kept only because existing benchmark reports read them.
  uint64_t state_lock_waits = 0;
  uint64_t stripe_conflicts = 0;
};

/// A PLinda network of workstations, in one of three execution modes. One
/// process layer implements every ProcessContext op and how a process ends
/// for all three; each mode supplies only the primitives underneath.
///
/// **Simulated (default).** Each simulated process runs on its own OS
/// thread, but a conservative scheduler admits exactly one process at a
/// time — always the one with the smallest virtual clock — so execution is
/// sequential, single-core friendly, and bit-for-bit reproducible. Virtual
/// time advances through ProcessContext::Compute() (task work, divided by
/// the host machine's speed factor) and through tuple-space operations
/// (fixed latency).
///
/// Machine failures model a workstation owner returning (Piranha "retreat")
/// or a crash: every process on the machine is killed, its open transaction
/// is rolled back (tuples restored), and — PLinda's fault-tolerance
/// guarantee, §7.1 — the process is re-spawned on another up machine where
/// XRecover() returns the continuation of its last committed transaction.
/// Tuple-space-server failures (§2.4.6) lose the space's volatile memory
/// and recover it from a periodic checkpoint plus an operation log; see
/// ScheduleServerFailure and DESIGN.md "Fault model".
///
/// **Real-parallel (ExecutionMode::kRealParallel).** All processes run
/// concurrently against one thread-safe tuple space; wall-clock speed
/// scales with cores. Fault injection is unsupported in this mode
/// (Run() fails fast with kFaultInjectionUnsupported), virtual time does
/// not advance, and CompletionTime() returns elapsed wall seconds. A
/// deadlock (every live process blocked on an in/rd that nothing in the
/// space matches) is detected exactly, cancelled, and reported through
/// deadlocked()/diagnostic() like the simulator.
///
/// **Distributed (ExecutionMode::kDistributed).** Each process is a forked
/// OS process; the tuple space lives in one separate server process reached
/// over a Unix-domain socket (plinda/net/). Faults come back: scheduled
/// machine failures SIGKILL worker processes (auto-respawned with bumped
/// incarnations) and scheduled server failures SIGKILL the server, which
/// recovers from an on-disk checkpoint + operation log. Results and stats
/// drain back into space()/stats() exactly like real-parallel mode.
class Runtime {
 public:
  explicit Runtime(int num_machines, RuntimeOptions options = RuntimeOptions());
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Sets the relative speed of a machine (default 1.0; 2.0 = twice as fast).
  void SetMachineSpeed(int machine, double speed);

  /// Schedules machine failure/recovery at a virtual time. Failures kill all
  /// processes currently placed on the machine; the machine accepts no new
  /// processes until recovered. Simulated mode only: a kRealParallel Run()
  /// with any scheduled event fails with kFaultInjectionUnsupported.
  void ScheduleFailure(int machine, double time);
  void ScheduleRecovery(int machine, double time);

  /// Schedules a tuple-space-server crash / restart at a virtual time
  /// (§2.4.6 made real). While the server is down every tuple-space
  /// operation stalls; at the crash the in-memory space is lost, and the
  /// restart recovers it from the last periodic checkpoint plus an
  /// operation log replayed on top. Scheduling a failure enables the
  /// checkpoint+log machinery (see RuntimeOptions::server_checkpoint_interval).
  /// Open transactions survive client-side: their buffered outs publish on
  /// the recovered server at commit, and aborts restore their ins there.
  /// Simulated mode only (see ScheduleFailure) — plus kDistributed, where
  /// the crash is a real SIGKILL of the server process.
  /// torn_tail = true (kDistributed only): after the SIGKILL, the
  /// supervisor truncates the server's newest write-ahead-log file
  /// mid-record before the restart — modeling a crash that tore the final
  /// append. Recovery must detect the torn tail by checksum, discard it,
  /// and replay the intact prefix. The simulator ignores the flag.
  void ScheduleServerFailure(double time, bool torn_tail = false);
  void ScheduleServerRecovery(double time);

  /// If true (default), killed processes are automatically re-spawned on an
  /// up machine, as the PLinda server does.
  void set_auto_respawn(bool enabled) { auto_respawn_ = enabled; }

  /// Spawns a process before the simulation starts (on the least-loaded up
  /// machine, or a specific one). Returns the process id.
  int Spawn(const std::string& name, ProcessFn fn);
  int SpawnOn(const std::string& name, int machine, ProcessFn fn);

  /// Runs the program to completion. Returns true if every process
  /// finished; false on deadlock (some process blocked forever — usually a
  /// missing poison task), protocol error, or when max_steps is exceeded.
  bool Run();

  /// Virtual time at which the last process finished (simulated mode), or
  /// elapsed wall seconds of the run (kRealParallel and kDistributed).
  double CompletionTime() const { return completion_time_; }

  /// Elapsed wall seconds of the previous Run() (every mode).
  double wall_time() const { return wall_time_; }

  /// True if the previous Run() ended in deadlock.
  bool deadlocked() const { return deadlocked_; }

  /// Protocol-misuse errors recorded during the previous Run(). Non-empty
  /// errors also make Run() return false.
  const std::vector<RuntimeError>& errors() const { return errors_; }

  /// Human-readable post-mortem of a failed Run(): which processes are
  /// blocked on which templates (or on server recovery), which are awaiting
  /// an up machine, whether the server is down, and any protocol errors.
  /// Empty after a successful run.
  const std::string& diagnostic() const { return diagnostic_; }

  /// The tuple space. In real-parallel mode Run() moves it into the
  /// concurrent space while the processes run and moves it back when it
  /// returns, so pre-seeding tuples before Run() and harvesting results
  /// after Run() work identically in both modes.
  TupleSpace& space() { return space_; }
  const RuntimeStats& stats() const { return stats_; }
  int num_machines() const { return static_cast<int>(machines_.size()); }

  /// Process-watch trace: lifecycle events in virtual-time order. Enabled
  /// by default; disable for very long simulations.
  void set_trace_enabled(bool enabled) { trace_enabled_ = enabled; }
  const std::vector<TraceEvent>& trace() const { return trace_; }

 private:
  friend class ProcessContext;

  enum class ProcState { kReady, kBlocked, kDone, kDead };

  /// Why a kBlocked process is blocked, for the deadlock diagnostic.
  enum class BlockReason { kNone, kTemplate, kServer };

  /// How a process body ended (RunBody).
  enum class End { kDone, kKilled, kErrored };

  /// One op of one process and the backend primitives it runs on
  /// (runtime.cc).
  class Step;

  struct Proc {
    int id = 0;
    std::string name;
    ProcessFn fn;
    int machine = 0;
    double clock = 0;
    ProcState state = ProcState::kReady;
    bool granted = false;
    bool kill_requested = false;
    int incarnation = 0;
    std::condition_variable cv;

    BlockReason block_reason = BlockReason::kNone;
    Template blocked_tmpl;  // meaningful when block_reason == kTemplate
    bool blocked_remove = false;  // in/inp vs rd/rdp
    // Real mode: set, with the blocked_* fields above, when a deadlock
    // cancels the process out of a blocking in/rd. Written by the process's
    // own thread; the post-mortem reads them only after the join.
    bool real_blocked = false;

    // Open transaction state.
    bool txn_active = false;
    std::vector<Tuple> txn_outs;  // buffered until commit
    std::vector<Tuple> txn_ins;   // removed from space; restored on abort

    // Distributed mode (supervisor side): the worker's OS pid, or -1 when
    // no incarnation is currently running.
    long os_pid = -1;

    double work_done = 0;
  };

  struct Machine {
    double speed = 1.0;
    bool up = true;
  };

  struct Event {
    enum class Kind {
      kMachineFail,
      kMachineRecover,
      kServerFail,
      kServerRecover,
    };
    double time = 0;
    Kind kind = Kind::kMachineFail;
    int machine = -1;  // machine events only
    // kServerFail, kDistributed only: truncate the server's newest WAL file
    // mid-record before the restart (torn final append).
    bool torn_tail = false;
    bool operator<(const Event& other) const { return time < other.time; }
  };

  /// One entry of the tuple-space-server operation log: every mutation of
  /// the space since the last checkpoint, replayed in order at recovery.
  struct ServerLogEntry {
    bool removed = false;  // false: tuple was out'ed; true: tuple was in'ed
    Tuple tuple;
  };

  bool sim_mode() const { return options_.mode == ExecutionMode::kSimulated; }
  bool real_mode() const {
    return options_.mode == ExecutionMode::kRealParallel;
  }
  bool dist_mode() const {
    return options_.mode == ExecutionMode::kDistributed;
  }

  // --- scheduler internals (all require mu_ held) ---
  int PickMachineLocked() const;
  int SpawnLocked(const std::string& name, int machine, ProcessFn fn,
                  double start_clock);
  void StartThreadLocked(Proc* proc);
  void GrantLocked(Proc* proc, std::unique_lock<std::mutex>& lock);
  void ApplyEventLocked(const Event& event, std::unique_lock<std::mutex>& lock);
  void KillProcLocked(Proc* proc, double time, std::unique_lock<std::mutex>& lock);
  void RespawnLocked(Proc* proc, double time);
  void WakeBlockedLocked(double time);
  /// What each blocked process waits on, by pid ("in <template>", "rd
  /// <template>" or "tuple-space server recovery"): the simulator's and
  /// kRealParallel's feed for BuildDiagnosticLocked.
  std::vector<std::pair<int, std::string>> BlockedProcsLocked() const;
  /// Fills diagnostic_ from the blocked processes (kDistributed feeds the
  /// server's parked waiters), the processes awaiting a machine, the
  /// server's state and errors_.
  void BuildDiagnosticLocked(
      const std::vector<std::pair<int, std::string>>& blocked,
      bool wall_limited = false);

  // --- tuple-space server (all require mu_ held) ---
  /// Takes every periodic checkpoint due at or before `now` (the space only
  /// changes through the helpers below, so a lazily taken checkpoint equals
  /// the state at its boundary).
  void MaybeCheckpointLocked(double now);
  /// All server-side mutations of the space flow through these two helpers
  /// so the recovery log stays complete.
  void ServerOutLocked(double now, Tuple tuple);
  bool ServerTryInLocked(double now, const Template& tmpl, Tuple* result);
  /// Blocks the process until the server is up (throws if killed meanwhile).
  void WaitServerLocked(Proc* proc, std::unique_lock<std::mutex>& lock);

  // --- the process layer (every mode) ---
  /// Thread body of a simulated or kRealParallel process: its start gate,
  /// RunBody, and the bookkeeping of how it ended.
  void RunProcess(Proc* proc);
  /// Runs the process body, then aborts its open transaction, whatever
  /// ended the body: a return, a protocol error, an exception or a kill.
  /// The forked kDistributed worker runs it too.
  End RunBody(Proc* proc);
  void AbortTxn(Proc* proc);
  /// The one error recorder: appends to errors_ (a forked worker's own) and
  /// traces kError at the process's time.
  void RecordErrorLocked(const Proc* proc, RuntimeError::Code code,
                         std::string detail);
  /// The process's virtual clock in the simulator, else wall seconds since
  /// Run().
  double ProcTime(const Proc* proc) const;
  void Yield(Proc* proc, std::unique_lock<std::mutex>& lock);
  void OpOut(Proc* proc, Tuple tuple);
  bool OpIn(Proc* proc, const Template& tmpl, Tuple* result, bool blocking,
            bool remove);
  void OpInAll(Proc* proc, const Template& tmpl, std::vector<Tuple>* result);
  void OpXStart(Proc* proc);
  void OpXCommit(Proc* proc, bool has_continuation, Tuple continuation);
  bool OpXRecover(Proc* proc, Tuple* continuation);
  void OpCompute(Proc* proc, double work_units);
  int OpSpawn(Proc* proc, const std::string& name, ProcessFn fn);

  // --- real-parallel backend (ExecutionMode::kRealParallel) ---
  /// Driver: moves the seeded space into the concurrent space, releases
  /// every process thread, and waits for them to finish. It declares
  /// deadlock, under mu_ (which keeps OpSpawn out), once the space counts
  /// every live process as stalled. Then it joins and moves the space back.
  bool RunReal();
  /// Elapsed wall seconds since RunReal() released the processes (or since
  /// RunDistributed() forked them).
  double NowReal() const;

  // --- distributed backend (ExecutionMode::kDistributed) ---
  // Implemented in runtime_dist.cc. The parent process becomes the
  // supervisor: it forks the tuple-space server and one OS process per
  // Proc, applies scheduled faults with SIGKILL, respawns victims, watches
  // for deadlock via server STATUS polls, and drains results back into
  // space_ when every worker is done.
  bool RunDistributed();
  /// Body of a forked worker process: connects to the server, runs
  /// RunBody, reports work/error through a per-incarnation status file,
  /// and returns the child's exit code.
  int RunWorkerChild(Proc* proc);

  RuntimeOptions options_;
  std::vector<Machine> machines_;
  std::vector<std::unique_ptr<Proc>> procs_;
  std::vector<Event> events_;  // kept sorted by time
  size_t next_event_ = 0;      // cursor into events_ during Run()
  std::deque<Proc*> pending_respawns_;
  // Committed continuations live in the checkpoint-protected part of the
  // server (they are durable by §2.4.6), so they survive server crashes.
  std::map<int, Tuple> continuations_;  // by process id; survives respawn

  TupleSpace space_;
  RuntimeStats stats_;

  // Tuple-space server failure model. The checkpoint + operation log are
  // maintained only when a server failure has been scheduled.
  bool server_up_ = true;
  bool server_protected_ = false;
  double server_down_since_ = 0;
  std::string server_checkpoint_;
  double next_checkpoint_time_ = 0;
  std::vector<ServerLogEntry> server_log_;
  // Transaction aborts that happen while the server is down park their
  // tuple restorations here; they are applied right after log replay.
  std::vector<Tuple> deferred_restores_;

  std::vector<RuntimeError> errors_;
  std::string diagnostic_;

  void RecordLocked(TraceEvent::Kind kind, double time, const Proc* proc,
                    int machine);

  bool trace_enabled_ = true;
  std::vector<TraceEvent> trace_;

  std::mutex mu_;
  std::condition_variable sched_cv_;
  int active_pid_ = -1;  // process currently granted; -1 = scheduler
  bool shutdown_ = false;
  bool auto_respawn_ = true;
  bool deadlocked_ = false;
  double completion_time_ = 0;
  double wall_time_ = 0;

  // Real-parallel state. The concurrent space exists only during/after a
  // real-mode Run(); per-op counters are atomics so processes never
  // serialize on mu_ for bookkeeping. Lock order: mu_, then rspace_'s mutex.
  std::unique_ptr<ConcurrentTupleSpace> rspace_;
  bool started_real_ = false;  // start gate (guarded by mu_)
  std::chrono::steady_clock::time_point real_start_;
  std::atomic<uint64_t> real_tuple_ops_{0};
  std::atomic<uint64_t> real_commits_{0};
  std::atomic<uint64_t> real_aborts_{0};

  // Distributed state. dclient_ exists only inside a forked worker (its
  // connection to the server); the supervisor's control traffic uses a
  // client local to RunDistributed().
  std::unique_ptr<net::RemoteTupleSpace> dclient_;
  std::string dist_dir_;
  std::string dist_socket_;

  std::vector<std::thread> threads_;
};

/// The handle a process body uses to talk to the tuple space, manage
/// transactions, and advance virtual time. Mirrors the PLinda operations of
/// the paper's program templates.
class ProcessContext {
 public:
  /// Linda out: adds a tuple (buffered until xcommit inside a transaction).
  void Out(Tuple tuple);

  /// Blocking in: removes the oldest matching tuple, waiting if necessary.
  void In(const Template& tmpl, Tuple* result);

  /// Non-blocking in (inp). Returns false if nothing matches right now.
  bool Inp(const Template& tmpl, Tuple* result);

  /// Blocking in of every match (a drain): waits for the first match, then
  /// also removes every further match visible at that moment, and returns
  /// them all in *result, oldest first. Inside a transaction the removals
  /// roll back with it, and, as for In, the transaction's own outs come
  /// first: when any of them match, InAll takes just those and leaves the
  /// space alone. kDistributed takes at most one reply frame's worth
  /// (kMaxFramePayload). Each tuple counts as one tuple op. The simulator
  /// bills each tuple after the first one in plus one xcommit/xstart pair,
  /// so a drain costs the virtual time of taking the same tuples one
  /// transaction each.
  void InAll(const Template& tmpl, std::vector<Tuple>* result);

  /// Blocking / non-blocking read (rd / rdp): copies without removing.
  void Rd(const Template& tmpl, Tuple* result);
  bool Rdp(const Template& tmpl, Tuple* result);

  /// Transaction control (xstart / xcommit / xrecover). XCommit's optional
  /// tuple is the continuation: the live local variables a re-spawned
  /// incarnation retrieves with XRecover.
  void XStart();
  void XCommit();
  void XCommit(Tuple continuation);
  bool XRecover(Tuple* continuation);

  /// Performs `work_units` of computation in virtual time (divided by the
  /// host machine's speed). This is also a kill point: if the machine failed
  /// meanwhile, the process dies here and the work is lost. In real-parallel
  /// mode the units only accrue to RuntimeStats::total_work — the real work
  /// happens on the calling thread.
  void Compute(double work_units);

  /// Spawns another process (proc_eval). Returns the new process id.
  int Spawn(const std::string& name, ProcessFn fn);

  /// The process's clock: its virtual time in the simulator, else wall
  /// seconds since Run() started the processes. RuntimeError::time and
  /// TraceEvent::time read the same clock.
  double Now() const;
  int pid() const { return proc_->id; }
  int machine() const { return proc_->machine; }
  /// Incarnation counter: 0 for the first run, +1 per respawn.
  int incarnation() const { return proc_->incarnation; }

 private:
  friend class Runtime;
  ProcessContext(Runtime* runtime, Runtime::Proc* proc)
      : runtime_(runtime), proc_(proc) {}

  Runtime* runtime_;
  Runtime::Proc* proc_;
};

}  // namespace fpdm::plinda

#endif  // FPDM_PLINDA_RUNTIME_H_
