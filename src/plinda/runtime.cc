#include "plinda/runtime.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <exception>
#include <iterator>
#include <limits>
#include <utility>

// The kDistributed primitives call the worker's server connection.
#include "plinda/net/client.h"

namespace fpdm::plinda {

namespace {

using CallStatus = net::RemoteTupleSpace::CallStatus;

/// Internal control-flow type: thrown by an op when its process dies (a
/// machine failure in the simulator, a deadlock cancellation in the other
/// modes), caught only by Runtime::RunBody. This is the simulation of
/// asynchronous process death (see DESIGN.md) and never escapes the runtime.
struct ProcessKilledException {};

/// Sibling of ProcessKilledException for protocol misuse: the offending
/// process unwinds, a RuntimeError is recorded, and no respawn happens
/// (re-running a buggy program would fail the same way).
struct ProtocolErrorException {};

}  // namespace

std::string ToString(const TraceEvent& event) {
  const char* kind = "?";
  switch (event.kind) {
    case TraceEvent::Kind::kSpawned:
      kind = "SPAWNED";
      break;
    case TraceEvent::Kind::kDone:
      kind = "DONE";
      break;
    case TraceEvent::Kind::kKilled:
      kind = "KILLED";
      break;
    case TraceEvent::Kind::kRespawned:
      kind = "RESPAWNED";
      break;
    case TraceEvent::Kind::kMachineFailed:
      kind = "MACHINE_FAILED";
      break;
    case TraceEvent::Kind::kMachineRecovered:
      kind = "MACHINE_RECOVERED";
      break;
    case TraceEvent::Kind::kServerFailed:
      kind = "SERVER_FAILED";
      break;
    case TraceEvent::Kind::kServerRecovered:
      kind = "SERVER_RECOVERED";
      break;
    case TraceEvent::Kind::kServerCheckpoint:
      kind = "SERVER_CHECKPOINT";
      break;
    case TraceEvent::Kind::kError:
      kind = "ERROR";
      break;
  }
  char buf[160];
  if (event.pid >= 0) {
    std::snprintf(buf, sizeof(buf), "[t=%8.2f] %-17s %s (pid %d, machine %d)",
                  event.time, kind, event.process.c_str(), event.pid,
                  event.machine);
  } else if (event.machine >= 0) {
    std::snprintf(buf, sizeof(buf), "[t=%8.2f] %-17s machine %d", event.time,
                  kind, event.machine);
  } else {
    std::snprintf(buf, sizeof(buf), "[t=%8.2f] %-17s tuple-space server",
                  event.time, kind);
  }
  return buf;
}

std::string ToString(const RuntimeError& error) {
  const char* what = "?";
  switch (error.code) {
    case RuntimeError::Code::kXCommitWithoutXStart:
      what = "xcommit without xstart";
      break;
    case RuntimeError::Code::kNestedXStart:
      what = "nested xstart (transactions cannot nest)";
      break;
    case RuntimeError::Code::kXRecoverInsideTransaction:
      what = "xrecover inside an open transaction";
      break;
    case RuntimeError::Code::kNoMachineAvailable:
      what = "spawn requested while every machine is down";
      break;
    case RuntimeError::Code::kFaultInjectionUnsupported:
      what = "fault injection is unsupported in kRealParallel mode";
      break;
    case RuntimeError::Code::kWireProtocolError:
      what = "tuple-space server wire protocol failure";
      break;
    case RuntimeError::Code::kDistributedSpawnUnsupported:
      what = "spawn from a running process is unsupported in kDistributed mode";
      break;
    case RuntimeError::Code::kServerDead:
      what = "tuple-space server exited fatally and cannot be restarted";
      break;
    case RuntimeError::Code::kBadSocketPath:
      what = "server socket path exceeds the sun_path limit";
      break;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf), "[t=%8.2f] protocol error in %s (pid %d): %s%s%s",
                error.time, error.process.c_str(), error.pid, what,
                error.detail.empty() ? "" : " — ", error.detail.c_str());
  return buf;
}

void Runtime::RecordLocked(TraceEvent::Kind kind, double time,
                           const Proc* proc, int machine) {
  if (!trace_enabled_) return;
  TraceEvent event;
  event.kind = kind;
  event.time = time;
  if (proc != nullptr) {
    event.pid = proc->id;
    event.process = proc->name;
    event.machine = proc->machine;
  } else {
    event.machine = machine;
  }
  trace_.push_back(std::move(event));
}

Runtime::Runtime(int num_machines, RuntimeOptions options)
    : options_(options), machines_(static_cast<size_t>(num_machines)) {
  assert(num_machines > 0);
}

Runtime::~Runtime() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
    for (auto& proc : procs_) proc->cv.notify_all();
  }
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

void Runtime::SetMachineSpeed(int machine, double speed) {
  assert(machine >= 0 && machine < num_machines() && speed > 0);
  machines_[static_cast<size_t>(machine)].speed = speed;
}

void Runtime::ScheduleFailure(int machine, double time) {
  assert(machine >= 0 && machine < num_machines());
  events_.push_back(Event{time, Event::Kind::kMachineFail, machine});
}

void Runtime::ScheduleRecovery(int machine, double time) {
  assert(machine >= 0 && machine < num_machines());
  events_.push_back(Event{time, Event::Kind::kMachineRecover, machine});
}

void Runtime::ScheduleServerFailure(double time, bool torn_tail) {
  events_.push_back(Event{time, Event::Kind::kServerFail, -1, torn_tail});
  server_protected_ = true;  // start maintaining checkpoint + op log
}

void Runtime::ScheduleServerRecovery(double time) {
  events_.push_back(Event{time, Event::Kind::kServerRecover});
}

int Runtime::Spawn(const std::string& name, ProcessFn fn) {
  std::unique_lock<std::mutex> lock(mu_);
  int machine = PickMachineLocked();
  assert(machine >= 0);
  return SpawnLocked(name, machine, std::move(fn),
                     real_mode() || dist_mode() ? 0.0 : options_.spawn_delay);
}

int Runtime::SpawnOn(const std::string& name, int machine, ProcessFn fn) {
  std::unique_lock<std::mutex> lock(mu_);
  assert(machine >= 0 && machine < num_machines());
  return SpawnLocked(name, machine, std::move(fn),
                     real_mode() || dist_mode() ? 0.0 : options_.spawn_delay);
}

int Runtime::PickMachineLocked() const {
  std::vector<int> load(machines_.size(), 0);
  for (const auto& proc : procs_) {
    if (proc->state == ProcState::kReady || proc->state == ProcState::kBlocked) {
      ++load[static_cast<size_t>(proc->machine)];
    }
  }
  int best = -1;
  for (size_t m = 0; m < machines_.size(); ++m) {
    if (!machines_[m].up) continue;
    if (best < 0 || load[m] < load[static_cast<size_t>(best)]) {
      best = static_cast<int>(m);
    }
  }
  return best;
}

int Runtime::SpawnLocked(const std::string& name, int machine, ProcessFn fn,
                         double start_clock) {
  auto proc = std::make_unique<Proc>();
  proc->id = static_cast<int>(procs_.size());
  proc->name = name;
  proc->fn = std::move(fn);
  proc->machine = machine;
  proc->clock = start_clock;
  proc->state = ProcState::kReady;
  Proc* raw = proc.get();
  procs_.push_back(std::move(proc));
  RecordLocked(TraceEvent::Kind::kSpawned, start_clock, raw, raw->machine);
  // Distributed mode forks an OS process per Proc inside RunDistributed();
  // the parent must stay single-threaded so fork() is safe.
  if (!dist_mode()) StartThreadLocked(raw);
  return raw->id;
}

void Runtime::StartThreadLocked(Proc* proc) {
  threads_.emplace_back(&Runtime::RunProcess, this, proc);
}

bool Runtime::Run() {
  if (real_mode()) return RunReal();
  if (dist_mode()) return RunDistributed();
  const auto run_start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  std::stable_sort(events_.begin(), events_.end());
  next_event_ = 0;
  deadlocked_ = false;
  diagnostic_.clear();
  if (server_protected_) {
    // Initial checkpoint at t=0 covers tuples seeded before Run().
    server_checkpoint_ = space_.Checkpoint();
    server_log_.clear();
    ++stats_.server_checkpoints;
    RecordLocked(TraceEvent::Kind::kServerCheckpoint, 0.0, nullptr, -1);
    next_checkpoint_time_ = options_.server_checkpoint_interval;
  }
  for (;;) {
    if (++stats_.scheduler_steps > options_.max_steps) {
      deadlocked_ = true;
      break;
    }
    Proc* next = nullptr;
    for (auto& up : procs_) {
      Proc* p = up.get();
      if (p->state != ProcState::kReady) continue;
      if (next == nullptr || p->clock < next->clock ||
          (p->clock == next->clock && p->id < next->id)) {
        next = p;
      }
    }
    if (next == nullptr) {
      bool waiting = !pending_respawns_.empty();
      for (auto& up : procs_) {
        if (up->state == ProcState::kBlocked) waiting = true;
      }
      // Every process finished: the simulation is over and faults scheduled
      // beyond this point never happen.
      if (!waiting) break;
      // Someone is blocked or awaiting a machine: only a future event can
      // unstick them; with no events left this is a deadlock.
      if (next_event_ >= events_.size()) {
        deadlocked_ = true;
        break;
      }
    }
    const double horizon =
        next != nullptr ? next->clock : std::numeric_limits<double>::infinity();
    if (next_event_ < events_.size() && events_[next_event_].time <= horizon) {
      ApplyEventLocked(events_[next_event_], lock);
      ++next_event_;
      continue;
    }
    GrantLocked(next, lock);
  }
  if (deadlocked_ || !errors_.empty()) {
    BuildDiagnosticLocked(BlockedProcsLocked());
  }
  shutdown_ = true;
  for (auto& proc : procs_) proc->cv.notify_all();
  lock.unlock();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  wall_time_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             run_start)
                   .count();
  return !deadlocked_ && errors_.empty();
}

std::vector<std::pair<int, std::string>> Runtime::BlockedProcsLocked() const {
  std::vector<std::pair<int, std::string>> blocked;
  for (const auto& up : procs_) {
    const Proc* proc = up.get();
    // Real mode: deadlocked waiters were cancelled (state kDead) but keep
    // real_blocked + their template for exactly this post-mortem.
    if (proc->state != ProcState::kBlocked && !proc->real_blocked) continue;
    std::string waits_on = "tuple-space server recovery";
    if (proc->block_reason != BlockReason::kServer) {
      waits_on = proc->blocked_remove ? "in " : "rd ";
      waits_on += ToString(proc->blocked_tmpl);
    }
    blocked.emplace_back(proc->id, std::move(waits_on));
  }
  return blocked;
}

void Runtime::BuildDiagnosticLocked(
    const std::vector<std::pair<int, std::string>>& blocked,
    bool wall_limited) {
  std::string out;
  if (deadlocked_) {
    out += "deadlock: no process can make progress\n";
    for (const auto& [pid, waits_on] : blocked) {
      const Proc* proc = nullptr;
      if (pid >= 0 && pid < static_cast<int>(procs_.size())) {
        proc = procs_[static_cast<size_t>(pid)].get();
      }
      char head[128];
      std::snprintf(head, sizeof(head), "  %s (pid %d, machine %d) blocked on ",
                    proc != nullptr ? proc->name.c_str() : "?", pid,
                    proc != nullptr ? proc->machine : -1);
      out += head;
      out += waits_on;
      out += '\n';
    }
    for (const Proc* proc : pending_respawns_) {
      char line[128];
      std::snprintf(line, sizeof(line),
                    "  %s (pid %d) killed, awaiting an up machine\n",
                    proc->name.c_str(), proc->id);
      out += line;
    }
    if (!server_up_) {
      bool recovery_pending = false;
      for (size_t e = next_event_; e < events_.size(); ++e) {
        if (events_[e].kind == Event::Kind::kServerRecover) {
          recovery_pending = true;
        }
      }
      out += recovery_pending
                 ? "  tuple-space server is down (recovery still scheduled)\n"
                 : "  tuple-space server is down and no recovery is scheduled\n";
    }
    if (wall_limited) {
      out += "  wall-clock limit exceeded (distributed_wall_limit)\n";
    }
  }
  for (const RuntimeError& error : errors_) {
    out += "  " + ToString(error) + '\n';
  }
  diagnostic_ = std::move(out);
}

void Runtime::GrantLocked(Proc* proc, std::unique_lock<std::mutex>& lock) {
  active_pid_ = proc->id;
  proc->granted = true;
  proc->cv.notify_all();
  sched_cv_.wait(lock, [&] { return active_pid_ == -1; });
}

void Runtime::ApplyEventLocked(const Event& event,
                               std::unique_lock<std::mutex>& lock) {
  switch (event.kind) {
    case Event::Kind::kMachineFail: {
      Machine& machine = machines_[static_cast<size_t>(event.machine)];
      if (!machine.up) return;
      machine.up = false;
      RecordLocked(TraceEvent::Kind::kMachineFailed, event.time, nullptr,
                   event.machine);
      for (auto& up : procs_) {
        Proc* proc = up.get();
        if (proc->machine != event.machine) continue;
        if (proc->state != ProcState::kReady &&
            proc->state != ProcState::kBlocked) {
          continue;
        }
        KillProcLocked(proc, event.time, lock);
        if (auto_respawn_) RespawnLocked(proc, event.time);
      }
      return;
    }
    case Event::Kind::kMachineRecover: {
      Machine& machine = machines_[static_cast<size_t>(event.machine)];
      if (machine.up) return;
      machine.up = true;
      RecordLocked(TraceEvent::Kind::kMachineRecovered, event.time, nullptr,
                   event.machine);
      while (!pending_respawns_.empty()) {
        Proc* proc = pending_respawns_.front();
        pending_respawns_.pop_front();
        proc->machine = event.machine;
        proc->clock = event.time;  // RespawnLocked adds the spawn delay
        RespawnLocked(proc, event.time);
      }
      return;
    }
    case Event::Kind::kServerFail: {
      if (!server_up_) return;
      // Periodic checkpoints due before the crash cover the current state
      // (no mutation happened since, or they would already be taken).
      MaybeCheckpointLocked(event.time);
      server_up_ = false;
      server_down_since_ = event.time;
      ++stats_.server_failures;
      // The server's volatile memory is gone: recovery must rebuild the
      // space from checkpoint + log, not from this in-process object.
      space_.Clear();
      RecordLocked(TraceEvent::Kind::kServerFailed, event.time, nullptr, -1);
      return;
    }
    case Event::Kind::kServerRecover: {
      if (server_up_) return;
      // Rollback recovery (§2.4.6): last periodic checkpoint, then the
      // operation log, then restorations from transactions aborted while
      // the server was down.
      const bool restored = space_.Restore(server_checkpoint_);
      assert(restored && "server checkpoint must round-trip");
      (void)restored;
      for (const ServerLogEntry& entry : server_log_) {
        if (entry.removed) {
          space_.TryIn(ExactTemplate(entry.tuple), nullptr);
        } else {
          space_.Out(entry.tuple);
        }
      }
      stats_.server_ops_replayed += server_log_.size();
      for (Tuple& tuple : deferred_restores_) space_.Out(std::move(tuple));
      deferred_restores_.clear();
      // Fresh checkpoint of the recovered state; the replayed log is spent.
      server_checkpoint_ = space_.Checkpoint();
      server_log_.clear();
      ++stats_.server_checkpoints;
      next_checkpoint_time_ = event.time + options_.server_checkpoint_interval;
      server_up_ = true;
      stats_.server_downtime += event.time - server_down_since_;
      RecordLocked(TraceEvent::Kind::kServerRecovered, event.time, nullptr, -1);
      // Stalled clients resume after the restart delay; processes blocked on
      // templates also recheck (the recovered space may satisfy them).
      WakeBlockedLocked(event.time + options_.server_restart_delay);
      return;
    }
  }
}

void Runtime::MaybeCheckpointLocked(double now) {
  if (!server_protected_ || !server_up_) return;
  while (next_checkpoint_time_ <= now) {
    server_checkpoint_ = space_.Checkpoint();
    server_log_.clear();
    ++stats_.server_checkpoints;
    // Stamped at the boundary the checkpoint covers; taken lazily at the
    // first mutation past it, so trace times of checkpoint events may
    // precede the event that triggered them.
    RecordLocked(TraceEvent::Kind::kServerCheckpoint, next_checkpoint_time_,
                 nullptr, -1);
    next_checkpoint_time_ += options_.server_checkpoint_interval;
  }
}

void Runtime::ServerOutLocked(double now, Tuple tuple) {
  MaybeCheckpointLocked(now);
  if (server_protected_) {
    server_log_.push_back(ServerLogEntry{/*removed=*/false, tuple});
  }
  space_.Out(std::move(tuple));
}

bool Runtime::ServerTryInLocked(double now, const Template& tmpl,
                                Tuple* result) {
  MaybeCheckpointLocked(now);
  Tuple found;
  if (!space_.TryIn(tmpl, &found)) return false;
  if (server_protected_) {
    server_log_.push_back(ServerLogEntry{/*removed=*/true, found});
  }
  if (result != nullptr) *result = std::move(found);
  return true;
}

void Runtime::WaitServerLocked(Proc* proc, std::unique_lock<std::mutex>& lock) {
  while (!server_up_) {
    proc->state = ProcState::kBlocked;
    proc->block_reason = BlockReason::kServer;
    Yield(proc, lock);
  }
  proc->block_reason = BlockReason::kNone;
}

void Runtime::KillProcLocked(Proc* proc, double time,
                             std::unique_lock<std::mutex>& lock) {
  proc->kill_requested = true;
  proc->clock = time;
  RecordLocked(TraceEvent::Kind::kKilled, time, proc, proc->machine);
  // Wake the process thread so it can unwind; RunProcess marks it dead and
  // rolls back its open transaction.
  GrantLocked(proc, lock);
  assert(proc->state == ProcState::kDead);
}

void Runtime::RespawnLocked(Proc* proc, double time) {
  int machine = PickMachineLocked();
  if (machine < 0) {
    pending_respawns_.push_back(proc);
    return;
  }
  proc->machine = machine;
  proc->clock = time + options_.spawn_delay;
  proc->state = ProcState::kReady;
  proc->granted = false;
  proc->kill_requested = false;
  ++proc->incarnation;
  ++stats_.processes_respawned;
  RecordLocked(TraceEvent::Kind::kRespawned, proc->clock, proc, machine);
  StartThreadLocked(proc);
}

void Runtime::WakeBlockedLocked(double time) {
  for (auto& up : procs_) {
    Proc* proc = up.get();
    if (proc->state == ProcState::kBlocked) {
      proc->clock = std::max(proc->clock, time);
      proc->state = ProcState::kReady;
    }
  }
}

// --- the process layer: one body per op, and one end, for every mode ------

/// One op of one process, and the primitives its body runs on. The
/// simulator holds mu_ for the whole op, charges virtual time and ends the
/// op by yielding to the scheduler. kRealParallel calls the concurrent space
/// without mu_; kDistributed calls the worker's server connection.
class Runtime::Step {
 public:
  Step(Runtime* runtime, Proc* proc)
      : rt_(*runtime), proc_(proc), lock_(runtime->mu_, std::defer_lock) {
    if (rt_.sim_mode()) {
      lock_.lock();
    } else if (rt_.real_mode() && rt_.rspace_->closed()) {
      throw ProcessKilledException{};  // the deadlock watchdog cancelled it
    }
  }

  /// Takes mu_ unless the op holds it already (the simulator always does).
  void Lock() {
    if (!lock_.owns_lock()) lock_.lock();
  }

  /// Simulator: stalls while the tuple-space server is down.
  void WaitServer() {
    if (rt_.sim_mode()) rt_.WaitServerLocked(proc_, lock_);
  }

  /// Simulator: advances the virtual clock. A tuple op is counted here in
  /// the simulator and kRealParallel, and at the server in kDistributed.
  void Charge(double seconds, bool tuple_op) {
    if (rt_.sim_mode()) {
      proc_->clock += seconds;
      if (tuple_op) ++rt_.stats_.tuple_ops;
    } else if (rt_.real_mode() && tuple_op) {
      rt_.real_tuple_ops_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Simulator: ends the op, handing the turn back to the scheduler.
  void Yield() {
    if (rt_.sim_mode()) rt_.Yield(proc_, lock_);
  }

  /// Records a protocol error and terminates the process.
  [[noreturn]] void Fail(RuntimeError::Code code, std::string detail) {
    Lock();
    rt_.RecordErrorLocked(proc_, code, std::move(detail));
    throw ProtocolErrorException{};
  }

  /// kDistributed: maps a call's status to continue (true on kOk, false on
  /// kNotFound), kill (the run was cancelled) or a wire error.
  bool Wire(CallStatus status) {
    if (status == CallStatus::kOk) return true;
    if (status == CallStatus::kNotFound) return false;
    if (status == CallStatus::kCancelled) throw ProcessKilledException{};
    Fail(RuntimeError::Code::kWireProtocolError, rt_.dclient_->last_error());
  }

  /// Publishes one tuple outside a transaction.
  void Publish(Tuple tuple) {
    if (rt_.dist_mode()) {
      // Consecutive non-blocking outs coalesce: the tuple rides in a kBatch
      // frame flushed before the next blocking op, so a stream of outs
      // costs one round trip instead of one each. Failures of the deferred
      // frame surface here on a later out or at the next sync call.
      Wire(rt_.dclient_->BatchOut(tuple));
    } else if (rt_.real_mode()) {
      rt_.rspace_->Out(std::move(tuple));
    } else {
      rt_.ServerOutLocked(proc_->clock, std::move(tuple));
      rt_.WakeBlockedLocked(proc_->clock);
    }
  }

  /// Removes (`remove`) or reads a tuple matching `tmpl` into *found. A
  /// blocking call waits until one exists; a non-blocking one returns false
  /// when none does. With `more` (a drain: blocking and removing), also
  /// removes every further match visible with the first into *more, oldest
  /// first.
  bool Take(const Template& tmpl, Tuple* found, bool blocking, bool remove,
            std::vector<Tuple>* more = nullptr) {
    if (rt_.dist_mode()) {
      return Wire(rt_.dclient_->In(tmpl, blocking, remove, found, more));
    }
    if (rt_.real_mode()) {
      if (!blocking) {
        return remove ? rt_.rspace_->TryIn(tmpl, found)
                      : rt_.rspace_->TryRd(tmpl, found);
      }
      if (rt_.rspace_->WaitIn(tmpl, found, remove, more)) return true;
      // Space closed while we waited: deadlock cancellation. Record what
      // we waited for, for the post-mortem diagnostic.
      NoteBlocked(tmpl, remove);
      proc_->real_blocked = true;
      throw ProcessKilledException{};
    }
    for (;;) {
      if (remove ? rt_.ServerTryInLocked(proc_->clock, tmpl, found)
                 : rt_.space_.TryRd(tmpl, found)) {
        Tuple next;
        while (more != nullptr &&
               rt_.ServerTryInLocked(proc_->clock, tmpl, &next)) {
          more->push_back(std::move(next));
        }
        return true;
      }
      if (!blocking) return false;
      proc_->state = ProcState::kBlocked;
      NoteBlocked(tmpl, remove);
      Yield();  // woken when some commit/out publishes new tuples
      WaitServer();
    }
  }

  /// Publishes the transaction's buffered outs and stores its continuation.
  void Commit(bool has_continuation, Tuple continuation) {
    if (rt_.dist_mode()) {
      // The commit frame is deferred too. The caller's optimistic local
      // txn-clear is safe: if the deferred commit is later rejected
      // (cancelled run), the sticky deferred error unwinds this worker at
      // its next wire call, and if the worker crashes before the frame
      // flushes, the server's crash-abort on EOF rolls the transaction back
      // — either way the commit applied exactly once or not at all.
      Wire(rt_.dclient_->DeferXCommit(proc_->txn_outs, has_continuation,
                                      continuation));
      return;
    }
    if (rt_.real_mode()) {
      rt_.rspace_->OutBatch(std::move(proc_->txn_outs));
      rt_.real_commits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      const bool published = !proc_->txn_outs.empty();
      for (Tuple& tuple : proc_->txn_outs) {
        rt_.ServerOutLocked(proc_->clock, std::move(tuple));
      }
      ++rt_.stats_.transactions_committed;
      if (published) rt_.WakeBlockedLocked(proc_->clock);
    }
    if (has_continuation) {
      Lock();
      rt_.continuations_[proc_->id] = std::move(continuation);
    }
  }

  /// Reads the continuation of the process's last commit that carried one;
  /// the read never consumes it.
  bool Recover(Tuple* continuation) {
    if (rt_.dist_mode()) return Wire(rt_.dclient_->XRecover(continuation));
    Lock();
    auto it = rt_.continuations_.find(proc_->id);
    if (it == rt_.continuations_.end()) return false;
    if (continuation != nullptr) *continuation = it->second;
    return true;
  }

 private:
  void NoteBlocked(const Template& tmpl, bool remove) {
    proc_->block_reason = BlockReason::kTemplate;
    proc_->blocked_tmpl = tmpl;
    proc_->blocked_remove = remove;
  }

  Runtime& rt_;
  Proc* proc_;
  std::unique_lock<std::mutex> lock_;
};

void Runtime::RunProcess(Proc* proc) {
  bool started = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // The start gate: the simulator grants the process its first step;
    // kRealParallel releases every process at once.
    proc->cv.wait(lock, [&] {
      return shutdown_ || (real_mode() ? started_real_ : proc->granted);
    });
    started =
        real_mode() ? started_real_ : !proc->kill_requested && !shutdown_;
  }
  const End end = started ? RunBody(proc) : End::kKilled;
  std::unique_lock<std::mutex> lock(mu_);
  if (end == End::kDone) {
    proc->state = ProcState::kDone;
    completion_time_ = std::max(completion_time_, proc->clock);
    RecordLocked(TraceEvent::Kind::kDone, ProcTime(proc), proc, proc->machine);
  } else {
    // A killed process is the scheduler's to respawn. An errored one is
    // counted in errors_, not as a failure.
    proc->state = ProcState::kDead;
    if (end == End::kKilled) ++stats_.processes_killed;
  }
  proc->granted = false;
  if (active_pid_ == proc->id) active_pid_ = -1;
  sched_cv_.notify_all();
}

Runtime::End Runtime::RunBody(Proc* proc) {
  End end = End::kDone;
  try {
    ProcessContext ctx(this, proc);
    proc->fn(ctx);
    // kDistributed defers frames, typically the last commit. A clean return
    // sends them, and their failure ends the process like a failed op.
    if (dist_mode()) Step(this, proc).Wire(dclient_->Flush());
  } catch (const ProcessKilledException&) {
    end = End::kKilled;
  } catch (const ProtocolErrorException&) {
    end = End::kErrored;
  } catch (const std::exception& e) {
    const std::string detail =
        std::string("uncaught exception in process body: ") + e.what();
    std::lock_guard<std::mutex> lock(mu_);
    RecordErrorLocked(proc, RuntimeError::Code::kWireProtocolError, detail);
    end = End::kErrored;
  }
  AbortTxn(proc);
  return end;
}

void Runtime::AbortTxn(Proc* proc) {
  // Restore the tuples the transaction removed; drop its unpublished outs.
  if (dist_mode()) {
    // The server restores the ins it recorded. What the body's completed
    // ops deferred applies first: XAbort flushes it ahead of itself, and
    // Flush alone does outside a transaction. When the server does not
    // confirm, dropping the connection without a BYE makes it roll back
    // whatever is still open on its own.
    const CallStatus status =
        proc->txn_active ? dclient_->XAbort() : dclient_->Flush();
    if (status != CallStatus::kOk) dclient_->Abandon();
  } else if (!proc->txn_active) {
    return;
  } else if (sim_mode()) {
    // Restored tuples re-enter at the tail of the FIFO order, which is an
    // acceptable deviation (no template in this repo depends on the relative
    // order of a restored tuple). While the server is down the restorations
    // are parked and applied right after recovery's log replay.
    std::lock_guard<std::mutex> lock(mu_);
    const bool restored = !proc->txn_ins.empty();
    for (Tuple& tuple : proc->txn_ins) {
      if (server_up_) {
        ServerOutLocked(proc->clock, std::move(tuple));
      } else {
        deferred_restores_.push_back(std::move(tuple));
      }
    }
    ++stats_.transactions_aborted;
    if (restored && server_up_) WakeBlockedLocked(proc->clock);
  } else {
    rspace_->OutBatch(std::move(proc->txn_ins));
    real_aborts_.fetch_add(1, std::memory_order_relaxed);
  }
  proc->txn_ins.clear();
  proc->txn_outs.clear();
  proc->txn_active = false;
}

void Runtime::RecordErrorLocked(const Proc* proc, RuntimeError::Code code,
                                std::string detail) {
  RuntimeError error;
  error.code = code;
  error.time = ProcTime(proc);
  error.pid = proc->id;
  error.process = proc->name;
  error.detail = std::move(detail);
  RecordLocked(TraceEvent::Kind::kError, error.time, proc, proc->machine);
  errors_.push_back(std::move(error));
}

double Runtime::ProcTime(const Proc* proc) const {
  return sim_mode() ? proc->clock : NowReal();
}

void Runtime::Yield(Proc* proc, std::unique_lock<std::mutex>& lock) {
  proc->granted = false;
  active_pid_ = -1;
  sched_cv_.notify_all();
  proc->cv.wait(lock, [&] { return proc->granted || shutdown_; });
  if (proc->kill_requested || shutdown_) throw ProcessKilledException{};
}

void Runtime::OpOut(Proc* proc, Tuple tuple) {
  Step step(this, proc);
  step.WaitServer();
  step.Charge(options_.tuple_op_latency, /*tuple_op=*/true);
  if (proc->txn_active) {
    proc->txn_outs.push_back(std::move(tuple));
  } else {
    step.Publish(std::move(tuple));
  }
  step.Yield();
}

bool Runtime::OpIn(Proc* proc, const Template& tmpl, Tuple* result,
                   bool blocking, bool remove) {
  Step step(this, proc);
  step.Charge(options_.tuple_op_latency, /*tuple_op=*/true);
  step.WaitServer();
  // A transaction sees its own uncommitted outs.
  if (proc->txn_active) {
    for (auto it = proc->txn_outs.begin(); it != proc->txn_outs.end(); ++it) {
      if (Matches(tmpl, *it)) {
        if (result != nullptr) *result = *it;
        if (remove) proc->txn_outs.erase(it);
        step.Yield();
        return true;
      }
    }
  }
  Tuple found;
  const bool ok = step.Take(tmpl, &found, blocking, remove);
  if (ok) {
    if (remove && proc->txn_active) proc->txn_ins.push_back(found);
    if (result != nullptr) *result = std::move(found);
  }
  step.Yield();
  return ok;
}

void Runtime::OpInAll(Proc* proc, const Template& tmpl,
                      std::vector<Tuple>* result) {
  Step step(this, proc);
  step.Charge(options_.tuple_op_latency, /*tuple_op=*/true);
  step.WaitServer();
  std::vector<Tuple>& taken = *result;
  taken.clear();
  // A transaction's own matching outs come first, as in OpIn.
  std::vector<Tuple>& outs = proc->txn_outs;
  const auto own = std::stable_partition(
      outs.begin(), outs.end(),
      [&](const Tuple& tuple) { return !Matches(tmpl, tuple); });
  std::move(own, outs.end(), std::back_inserter(taken));
  outs.erase(own, outs.end());
  if (taken.empty()) {
    Tuple first;
    step.Take(tmpl, &first, /*blocking=*/true, /*remove=*/true, &taken);
    taken.insert(taken.begin(), std::move(first));
    if (proc->txn_active) {
      proc->txn_ins.insert(proc->txn_ins.end(), taken.begin(), taken.end());
    }
  }
  // What the paper's master paid for each report after the first: the
  // xcommit and xstart before its in, and the in, charged in that order so
  // the virtual clock adds up bit for bit as it did then.
  for (size_t i = 1; i < taken.size(); ++i) {
    step.Charge(options_.txn_latency, /*tuple_op=*/false);
    step.Charge(options_.txn_latency, /*tuple_op=*/false);
    step.Charge(options_.tuple_op_latency, /*tuple_op=*/true);
  }
  step.Yield();
}

void Runtime::OpXStart(Proc* proc) {
  Step step(this, proc);
  step.WaitServer();
  if (proc->txn_active) {
    step.Fail(RuntimeError::Code::kNestedXStart, "transaction already open");
  }
  step.Charge(options_.txn_latency, /*tuple_op=*/false);
  // kDistributed defers the xstart frame: it flushes (in order, one writev)
  // with the next blocking in/rd or commit, collapsing the steady-state
  // task loop [xcommit, xstart, blocking in] to one round trip.
  if (dist_mode()) step.Wire(dclient_->DeferXStart());
  proc->txn_active = true;
  step.Yield();
}

void Runtime::OpXCommit(Proc* proc, bool has_continuation, Tuple continuation) {
  Step step(this, proc);
  step.WaitServer();
  if (!proc->txn_active) {
    step.Fail(RuntimeError::Code::kXCommitWithoutXStart,
              "no transaction is open");
  }
  step.Charge(options_.txn_latency, /*tuple_op=*/false);
  step.Commit(has_continuation, std::move(continuation));
  proc->txn_outs.clear();
  proc->txn_ins.clear();
  proc->txn_active = false;
  step.Yield();
}

bool Runtime::OpXRecover(Proc* proc, Tuple* continuation) {
  Step step(this, proc);
  step.WaitServer();
  if (proc->txn_active) {
    step.Fail(RuntimeError::Code::kXRecoverInsideTransaction,
              "xrecover must run outside transactions");
  }
  step.Charge(options_.txn_latency, /*tuple_op=*/false);
  const bool found = step.Recover(continuation);
  step.Yield();
  return found;
}

void Runtime::OpCompute(Proc* proc, double work_units) {
  assert(work_units >= 0);
  // Outside the simulator the real work happens on the calling thread or
  // worker process, and the units only feed total_work when the run ends.
  // Also a kRealParallel cancellation point, so compute-heavy processes
  // notice a deadlock shutdown.
  Step step(this, proc);
  proc->work_done += work_units;
  if (sim_mode()) stats_.total_work += work_units;
  step.Charge(work_units / machines_[static_cast<size_t>(proc->machine)].speed,
              /*tuple_op=*/false);
  step.Yield();
}

int Runtime::OpSpawn(Proc* proc, const std::string& name, ProcessFn fn) {
  Step step(this, proc);
  const std::string where = "cannot place process \"" + name + "\"";
  if (dist_mode()) {
    step.Fail(RuntimeError::Code::kDistributedSpawnUnsupported, where);
  }
  step.Charge(options_.tuple_op_latency, /*tuple_op=*/false);
  step.Lock();
  const int machine = PickMachineLocked();
  if (machine < 0) step.Fail(RuntimeError::Code::kNoMachineAvailable, where);
  // A kRealParallel child passes its start gate at once.
  const double start =
      real_mode() ? NowReal() : proc->clock + options_.spawn_delay;
  const int id = SpawnLocked(name, machine, std::move(fn), start);
  step.Yield();
  return id;
}

// --- real-parallel backend (ExecutionMode::kRealParallel) ----------------

double Runtime::NowReal() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       real_start_)
      .count();
}

bool Runtime::RunReal() {
  std::unique_lock<std::mutex> lock(mu_);
  deadlocked_ = false;
  diagnostic_.clear();
  if (!events_.empty()) {
    // The fault model needs the deterministic virtual-time scheduler (kill
    // points, rollback replay, virtual respawn delays): fail fast instead of
    // silently ignoring the scheduled faults.
    RuntimeError error;
    error.code = RuntimeError::Code::kFaultInjectionUnsupported;
    error.detail =
        "scheduled machine/server faults require ExecutionMode::kSimulated";
    errors_.push_back(std::move(error));
    shutdown_ = true;
    for (auto& proc : procs_) proc->cv.notify_all();
    BuildDiagnosticLocked({});
    lock.unlock();
    for (auto& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
    return false;
  }

  rspace_ = std::make_unique<ConcurrentTupleSpace>(
      std::exchange(space_, TupleSpace()));
  real_start_ = std::chrono::steady_clock::now();
  started_real_ = true;
  for (auto& proc : procs_) proc->cv.notify_all();

  // Watchdog: waits for every process to finish. A stalled waiter has no
  // match in the space, and holding mu_ keeps OpSpawn from adding a
  // process, so once the space counts every live process as stalled none
  // can ever run again: cancel by closing the space, which unwinds the
  // waiters through ProcessKilledException.
  for (;;) {
    sched_cv_.wait_for(lock, std::chrono::milliseconds(20));
    size_t live = 0;
    for (auto& up : procs_) {
      if (up->state != ProcState::kDone && up->state != ProcState::kDead) {
        ++live;
      }
    }
    if (live == 0) break;
    if (!deadlocked_ && rspace_->stalled() >= live) {
      deadlocked_ = true;
      rspace_->Close();
    }
  }

  wall_time_ = NowReal();
  completion_time_ = wall_time_;
  shutdown_ = true;
  for (auto& proc : procs_) proc->cv.notify_all();
  lock.unlock();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  lock.lock();
  // Every process thread joined: the atomics and per-process counters are
  // final, and the concurrent space is quiescent.
  stats_.tuple_ops += real_tuple_ops_.exchange(0);
  stats_.transactions_committed += real_commits_.exchange(0);
  stats_.transactions_aborted += real_aborts_.exchange(0);
  for (auto& up : procs_) stats_.total_work += up->work_done;
  space_ = rspace_->TakeSpace();
  if (deadlocked_ || !errors_.empty()) {
    BuildDiagnosticLocked(BlockedProcsLocked());
  }
  return !deadlocked_ && errors_.empty();
}

// --- ProcessContext forwarding -------------------------------------------

void ProcessContext::Out(Tuple tuple) { runtime_->OpOut(proc_, std::move(tuple)); }

void ProcessContext::In(const Template& tmpl, Tuple* result) {
  runtime_->OpIn(proc_, tmpl, result, /*blocking=*/true, /*remove=*/true);
}

bool ProcessContext::Inp(const Template& tmpl, Tuple* result) {
  return runtime_->OpIn(proc_, tmpl, result, /*blocking=*/false,
                        /*remove=*/true);
}

void ProcessContext::InAll(const Template& tmpl, std::vector<Tuple>* result) {
  runtime_->OpInAll(proc_, tmpl, result);
}

void ProcessContext::Rd(const Template& tmpl, Tuple* result) {
  runtime_->OpIn(proc_, tmpl, result, /*blocking=*/true, /*remove=*/false);
}

bool ProcessContext::Rdp(const Template& tmpl, Tuple* result) {
  return runtime_->OpIn(proc_, tmpl, result, /*blocking=*/false,
                        /*remove=*/false);
}

void ProcessContext::XStart() { runtime_->OpXStart(proc_); }

void ProcessContext::XCommit() {
  runtime_->OpXCommit(proc_, /*has_continuation=*/false, Tuple());
}

void ProcessContext::XCommit(Tuple continuation) {
  runtime_->OpXCommit(proc_, /*has_continuation=*/true, std::move(continuation));
}

bool ProcessContext::XRecover(Tuple* continuation) {
  return runtime_->OpXRecover(proc_, continuation);
}

void ProcessContext::Compute(double work_units) {
  runtime_->OpCompute(proc_, work_units);
}

int ProcessContext::Spawn(const std::string& name, ProcessFn fn) {
  return runtime_->OpSpawn(proc_, name, std::move(fn));
}

double ProcessContext::Now() const { return runtime_->ProcTime(proc_); }

}  // namespace fpdm::plinda
