#ifndef FPDM_PLINDA_NET_CLIENT_H_
#define FPDM_PLINDA_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "plinda/net/wire.h"
#include "plinda/tuple.h"

namespace fpdm::plinda::net {

struct RemoteSpaceOptions {
  /// Server socket: "unix:<path>" or a bare path (see
  /// plinda/net/endpoint.h).
  std::string endpoint;
  /// PLinda process id this client speaks for; -1 for control connections
  /// (the runtime supervisor), which skip registration and sequencing.
  int32_t pid = -1;
  int32_t incarnation = 0;
  /// How long a call keeps retrying against an unreachable server before
  /// giving up. Covers server crash + checkpoint recovery + restart.
  double reconnect_timeout_s = 20.0;
  /// Initial retry interval. Each failed attempt doubles it (capped at
  /// kBackoffCap) so N workers whose connections died in lockstep don't
  /// hammer a server that is mid-recovery; a successful connect resets it.
  double reconnect_interval_s = 0.02;
};

/// Client side of the wire protocol: the tuple-space stub a distributed
/// worker process talks through.
///
/// Two traffic shapes share one connection:
///  - Synchronous calls (Out/In/...): one request, one reply, as before.
///  - Deferred frames: BatchOut coalesces consecutive non-blocking outs
///    into a single kBatch frame, and DeferXStart/DeferXCommit queue whole
///    transaction frames, none of which touch the wire until the next
///    synchronous call (or an explicit Flush). The flush writes every
///    queued frame plus the synchronous request in ONE writev and reads the
///    replies in order, so a worker's steady-state task loop
///    [xcommit, xstart, blocking in] costs one round trip instead of three.
///
/// Between public calls no bytes are ever in flight: every call returns
/// with the queue empty or untouched, which keeps the retry story simple.
///
/// Fault tolerance: when the server connection dies mid-flush, the client
/// reconnects (re-registering via HELLO with its incarnation) and resends
/// every frame that has not received its reply, with the original sequence
/// numbers; the server's (pid, seq) dedup window turns replayed frames into
/// their cached original replies, so effects stay exactly-once across
/// server crashes even with several frames in flight.
///
/// Deferred frames acknowledge optimistically: a non-kOk reply to one is
/// folded into a sticky deferred error that the next synchronous call
/// returns instead of its own status, so a failure surfaces before the
/// caller observes any later reply (the caller unwinds there).
class RemoteTupleSpace {
 public:
  enum class CallStatus {
    kOk,
    kNotFound,     // inp/rdp miss, xrecover without a continuation
    kCancelled,    // run cancelled (deadlock watchdog) — unwind
    kUnreachable,  // server gone past the reconnect window
    kWireError,    // protocol violation; detail in last_error()
    kPending       // PollStatus: the reply is not here yet
  };

  /// Exponential backoff ceiling for reconnect attempts (seconds).
  static constexpr double kBackoffCap = 0.25;

  explicit RemoteTupleSpace(RemoteSpaceOptions options);
  ~RemoteTupleSpace();

  RemoteTupleSpace(const RemoteTupleSpace&) = delete;
  RemoteTupleSpace& operator=(const RemoteTupleSpace&) = delete;

  /// Establishes the initial connection (retrying with backoff until the
  /// reconnect window closes — the server may still be binding its socket).
  bool Connect();

  /// Clean goodbye: flushes any deferred frames, then tells the server this
  /// client is exiting on purpose, so its disappearance is not treated as a
  /// crash. Best effort.
  void Bye();

  /// Closes the inherited descriptor without any protocol traffic. Used by
  /// freshly forked children to drop the parent's connection.
  void Abandon();

  // --- synchronous calls (flush anything deferred first) ------------------
  CallStatus Out(const Tuple& tuple);
  /// in/inp/rd/rdp. With `more` (a drain: blocking and removing only),
  /// also appends to *more every further match the server took with the
  /// first, oldest first, in the same round trip.
  CallStatus In(const Template& tmpl, bool blocking, bool remove,
                Tuple* result, std::vector<Tuple>* more = nullptr);
  CallStatus Count(const Template& tmpl, uint64_t* count);
  CallStatus XStart();
  CallStatus XCommit(const std::vector<Tuple>& outs, bool has_continuation,
                     const Tuple& continuation);
  CallStatus XAbort();
  CallStatus XRecover(Tuple* continuation);
  CallStatus TakeAll(std::vector<Tuple>* tuples);
  CallStatus Stats(Reply* reply);
  CallStatus Cancel();
  CallStatus Shutdown();

  // --- write coalescing ---------------------------------------------------
  /// Adds a non-blocking sub-op to the open coalescing batch. Nothing is
  /// sent; the batch rides in front of the next synchronous call (or
  /// Flush). Oversized batches are sealed into queued frames automatically,
  /// and a deep queue is flushed inline, so the returned status can report
  /// an earlier deferred failure — callers treat it like the status of a
  /// synchronous out.
  CallStatus BatchOut(const Tuple& tuple);
  CallStatus BatchIn(const Template& tmpl, bool remove);

  /// Sends the open batch + every deferred frame now and waits for the
  /// replies. `items` (optional) receives the per-sub-op results of the
  /// final sealed batch frame, in issue order.
  CallStatus Flush(std::vector<BatchItem>* items = nullptr);

  /// Queues a whole transaction frame behind the open batch; it is flushed
  /// (in order) with the next synchronous call. A non-kOk reply becomes the
  /// sticky deferred error described above.
  CallStatus DeferXStart();
  CallStatus DeferXCommit(const std::vector<Tuple>& outs,
                          bool has_continuation, const Tuple& continuation);

  // --- pipelined control-plane calls --------------------------------------
  /// Sends a STATUS request without waiting for the reply, so a supervisor
  /// event loop can overlap the poll round trip with its other work. Any
  /// other call on this client first drains the in-flight reply.
  CallStatus BeginStatus();
  /// Non-blocking check for the reply of the in-flight BeginStatus:
  /// kPending while it is still in flight, otherwise the decoded result.
  CallStatus PollStatus(Reply* reply);
  bool status_inflight() const { return status_inflight_; }

  /// End-of-run drain: pipelines STATS + TAKEALL as one round trip.
  CallStatus Harvest(Reply* stats, std::vector<Tuple>* tuples);


  // --- wire counters (for benchmarks and RuntimeStats) --------------------
  uint64_t rpc_round_trips() const { return rpc_round_trips_; }
  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }
  uint64_t batch_frames_sent() const { return batch_frames_sent_; }
  uint64_t batched_ops_sent() const { return batched_ops_sent_; }
  /// Transport-touching syscalls this client has made: sends, reads and
  /// polls on its socket. Framed bytes moved both directions are
  /// transport_bytes.
  uint64_t transport_syscalls() const { return transport_syscalls_; }
  uint64_t transport_bytes() const { return bytes_sent_ + bytes_received_; }

  const std::string& last_error() const { return last_error_; }

 private:
  /// A frame queued for the next flush. `capture == nullptr` marks a
  /// deferred frame (reply folded into the sticky deferred error);
  /// otherwise the reply is copied out and its status returned.
  struct PendingFrame {
    std::string framed;
    Reply* capture = nullptr;
  };

  CallStatus Call(Request& request, Reply* reply);
  /// The single wire-touching primitive: seals the open batch, appends the
  /// optional sync request, writes every queued frame in one writev, and
  /// reads one reply per frame in order, reconnecting and resending
  /// unreplied frames on transport failure.
  CallStatus SyncFlush(Request* sync, Reply* sync_reply,
                       std::vector<BatchItem>* items = nullptr);
  /// Moves the open coalescing batch into the queue as one kBatch frame.
  void SealBatch(Reply* capture);
  bool QueueFrame(Request& request, Reply* capture);
  /// Blocks until an in-flight BeginStatus reply arrives (discarded) or the
  /// transport fails; either way no status poll is in flight afterwards.
  void DrainStatus();
  bool EnsureConnected();
  /// Reads one reply frame. Returns false on transport failure (caller
  /// reconnects and retries); sets *wire_error on an undecodable reply
  /// (caller gives up — the stream is garbage).
  bool ReadReply(Reply* reply, bool* wire_error);
  void BackoffSleep();
  void CloseFd();

  RemoteSpaceOptions options_;
  int fd_ = -1;
  FrameReader reader_;
  uint64_t next_seq_ = 0;
  std::deque<PendingFrame> queued_;
  /// Structurally unusable endpoint (a retired scheme, a path that cannot
  /// fit sun_path): fatal, no point retrying. Detail in last_error_.
  bool endpoint_bad_ = false;
  std::vector<BatchOp> batch_;  // open coalescing batch
  size_t batch_bytes_ = 0;      // rough encoded-size estimate
  CallStatus deferred_error_ = CallStatus::kOk;
  bool status_inflight_ = false;
  double backoff_s_ = 0;
  uint64_t rpc_round_trips_ = 0;
  uint64_t frames_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
  uint64_t batch_frames_sent_ = 0;
  uint64_t batched_ops_sent_ = 0;
  uint64_t transport_syscalls_ = 0;
  std::string last_error_;
};

}  // namespace fpdm::plinda::net

#endif  // FPDM_PLINDA_NET_CLIENT_H_
