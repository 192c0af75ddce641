#ifndef FPDM_PLINDA_NET_SERVER_H_
#define FPDM_PLINDA_NET_SERVER_H_

#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "plinda/net/wire.h"
#include "plinda/tuple.h"
#include "plinda/tuple_space.h"

namespace fpdm::plinda::net {

struct SpaceServerOptions {
  /// Unix-domain socket the server listens on: "unix:<path>" or a bare
  /// path (see plinda/net/endpoint.h). The server binds it, replacing a
  /// stale socket file a crashed predecessor left, and removes it on a
  /// clean shutdown.
  std::string endpoint;
  /// If non-empty, ForkServerProcess redirects the child's stderr here
  /// (append mode — restarts share the file). CI keeps these files with the
  /// per-run state dirs so a red chaos seed is debuggable post-hoc.
  std::string stderr_file;
  /// Directory holding the checkpoint and write-ahead log. The server
  /// recovers from whatever it finds there, so restarting with the same
  /// state_dir resumes the crashed server's space exactly.
  std::string state_dir;
  /// Logged operations between checkpoints (bounds replay work).
  int checkpoint_every_ops = 256;
  /// Fault injection for the supervisor's fatal-exit path (0 = disabled):
  /// the Nth WAL append fails as if the disk rejected the write, so the
  /// server stops serving and Serve() returns 1. Unlike a SIGKILL this
  /// death is an *exit*, which the run supervisor must surface as a
  /// structured kServerDead error rather than retrying forever.
  int wal_fail_after = 0;
  /// Ignored: the server always runs one serve loop on one thread. Kept
  /// only so callers that still set it compile.
  int threads = 0;
  /// What an acknowledged op survives. false: every WAL entry is written
  /// with write(2) before it is applied or acknowledged, so it survives the
  /// death of the server process (the page cache outlives it), not of the
  /// machine. true: each serve-loop pass also makes one fdatasync covering
  /// all of its appends before its replies leave (group commit), and
  /// checkpoint rotation syncs the snapshot and the state
  /// directory, so acknowledged ops survive machine death too. The
  /// FPDM_WAL_SYNC environment variable overrides it (0 = false, any other
  /// number = true).
  bool wal_sync = false;
  /// Test hook: shrink SO_SNDBUF on accepted client fds to this many bytes
  /// (0 = leave the kernel default). Forces replies through many short
  /// writes to exercise the partial-flush cursor path.
  int sndbuf_bytes = 0;
};

/// The tuple-space server process of ExecutionMode::kDistributed: owns one
/// tuple space and serves the wire protocol on one endpoint.
///
/// Serve() is one epoll loop on one thread, like the paper's PLinda server.
/// Each pass (one epoll_wait) accepts connections, reads every readable
/// socket and handles each complete frame inline (so one connection's
/// frames apply in arrival order), then — with wal_sync — makes the pass's
/// WAL appends durable with one fdatasync, then flushes replies, and
/// finally drops dead connections and checkpoints. A reply queued after the
/// flush (a crash-abort in the drop phase waking a parked in) makes the
/// next epoll_wait return at once.
/// Matching is oldest-first across the whole space. Blocking in/rd requests
/// park in one FIFO list and are satisfied, oldest first, as soon as a
/// publish makes a match available.
///
/// Durability (DESIGN.md, "Fault model"): every mutating request is
/// appended to the log before it is applied, and acknowledged only after
/// the append (and, with wal_sync, the pass's fdatasync); a checksummed
/// checkpoint every `checkpoint_every_ops` logged entries bounds replay.
/// Retried requests are deduplicated by (pid, seq) so a client that resends
/// after a server crash gets the cached reply instead of a double-applied
/// op (exactly-once effects).
class SpaceServer {
 public:
  explicit SpaceServer(SpaceServerOptions options);
  ~SpaceServer();

  SpaceServer(const SpaceServer&) = delete;
  SpaceServer& operator=(const SpaceServer&) = delete;

  /// Recovers state, binds the socket, and serves until a SHUTDOWN request.
  /// Returns 0 on clean shutdown, nonzero on a fatal setup error (bad
  /// state_dir, unusable socket path, corrupt checkpoint) or when the
  /// write-ahead log stops accepting appends mid-run — the server exits
  /// rather than acknowledge mutations it cannot make durable.
  int Serve();

 private:
  /// Replies cached per client for dedup of retried requests. A pipelined
  /// client can have several sequenced frames in flight at once (a coalesced
  /// batch + deferred transaction frames + the sync call that flushed them),
  /// and after a server crash it resends every unreplied frame — so the
  /// dedup state must cover a window of recent seqs, not just the latest
  /// one. 16 comfortably exceeds the client's maximum flush depth (~4).
  static constexpr size_t kDedupWindow = 16;

  struct ClientState {
    int32_t incarnation = 0;
    uint64_t last_seq = 0;  // highest seq ever logged for this client
    /// (seq, encoded Reply payload) of the last kDedupWindow logged ops,
    /// newest at the back.
    std::deque<std::pair<uint64_t, std::string>> replies;
    bool txn_open = false;
    std::vector<Tuple> txn_ins;  // tuples to restore if the txn aborts
  };

  struct Conn {
    int fd = -1;
    FrameReader reader;
    std::string outbuf;
    size_t outbuf_sent = 0;  // flushed prefix of outbuf (no front-erase)
    bool epoll_out = false;  // EPOLLOUT currently armed for this fd
    int32_t pid = -1;  // set by HELLO; control connections stay -1
    int32_t incarnation = 0;
    /// A clean goodbye: dropping the connection does not crash-abort the
    /// client's open transaction.
    bool saw_bye = false;
    bool close_after_flush = false;  // drop once outbuf is fully flushed
  };

  struct Waiter {
    int fd = -1;  // connection the reply goes to
    int32_t pid = -1;
    uint64_t seq = 0;
    Template tmpl;
    bool remove = false;
    bool drain = false;  // kInDrain: take every match once one exists
  };

  // --- state recovery ----------------------------------------------------
  bool Recover();
  bool LoadSnapshot(const std::string& path);
  std::string EncodeSnapshot() const;
  bool TakeCheckpoint();
  /// Appends the entry to the write-ahead log. Returns false — and stops the
  /// server (wal_failed_) — when the entry cannot be made durable (log fd
  /// lost, short write, oversized entry): callers must not apply or
  /// acknowledge the mutation in that case, or a recovered server would
  /// disagree with what clients were told.
  bool AppendLog(const LogEntry& entry);
  /// wal_sync only: one fdatasync covering every append since the last one
  /// (the group commit of a serve-loop pass). Returns false once durability
  /// is lost; a failed fdatasync is never retried, because the kernel may
  /// already have dropped the dirty pages it failed to write.
  bool SyncWal();
  bool ReplayLog(const std::string& path);

  /// Applies a logged mutation to the space / client tables and returns the
  /// encoded reply payload the client got (or gets). Shared by the live
  /// path and crash replay so both produce identical state.
  std::string ApplyEntry(const LogEntry& entry);

  /// Records `encoded` in the client's dedup window and advances last_seq.
  void CacheReply(ClientState& client, uint64_t seq,
                  const std::string& encoded);

  /// Builds the batched reply (one item per effect, request order) and bumps
  /// the batch counters. Shared by the live path and replay so a retried
  /// kBatch gets a bit-identical cached reply.
  Reply BatchReplyFor(const LogEntry& entry);

  /// Live path of a kBatch record whose effects are already applied: appends
  /// it to the WAL, caches its reply in the client's dedup window and queues
  /// it on `conn`. False when the append failed (the server is stopping).
  bool LogBatch(Conn& conn, const LogEntry& entry);

  /// True when `pid` is a registered client with an open transaction.
  bool TxnOpen(int32_t pid) const;

  // --- request handling --------------------------------------------------
  /// Decodes one frame and applies it (or answers it with an error).
  void HandleFrame(Conn& conn, std::string_view payload);
  void HandleHello(Conn& conn, const Request& request);
  void HandleIn(Conn& conn, const Request& request);
  void HandleBatch(Conn& conn, const Request& request);
  /// A drain (kIn with kInDrain) that has a first match: removes every match
  /// of `tmpl` that fits one reply frame, oldest first, as one kBatch record
  /// of kTook effects under `seq`, and replies with its items. False when
  /// the WAL append failed.
  bool Drain(Conn& conn, int32_t pid, uint64_t seq, const Template& tmpl);
  /// Publish-side wakeup: scans the parked waiters in arrival order and
  /// satisfies those whose template now matches.
  void SatisfyWaiters();
  /// Parks a blocking in/rd at the back of waiters_.
  void ParkWaiter(Conn& conn, const Request& request);
  /// Queues a reply on conn.outbuf; the serve loop's flush phase sends it.
  void SendReply(Conn& conn, const Reply& reply);
  void SendEncoded(Conn& conn, const std::string& encoded_reply);
  void SendError(Conn& conn, const std::string& detail);
  /// Drops every connection in `fds` (EOF / error), then crash-aborts the
  /// open transactions of the vanished clients. Two phases on purpose: all
  /// dying connections and their parked waiters leave the tables before any
  /// abort republishes tuples, so a dead client can never consume them.
  void DropConns(const std::vector<int>& fds);

  /// Adds a tuple to the space and bumps publish_epoch_.
  void PublishTuple(Tuple tuple);

  /// Arms / disarms EPOLLOUT to match whether conn has unflushed output.
  void UpdateConnEvents(Conn& conn);

  SpaceServerOptions options_;  // wal_sync already resolved against the env
  TupleSpace space_;
  /// Parked blocking in/rd requests, oldest first.
  std::list<Waiter> waiters_;
  /// pid -> the continuation of its last commit that carried one.
  std::map<int32_t, Tuple> continuations_;
  std::map<int32_t, ClientState> clients_;
  /// unique_ptr so DropConns can detach a dying Conn from the map and
  /// still read it during the crash-abort phase.
  std::map<int, std::unique_ptr<Conn>> conns_;
  /// Connections with replies queued since the last flush phase.
  std::set<int> flush_request_;

  uint64_t epoch_ = 0;  // checkpoint epoch; the log file is log.<epoch>
  int log_fd_ = -1;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  std::string socket_path_;  // parsed from options_.endpoint by Serve()
  int ops_since_checkpoint_ = 0;
  bool cancelled_ = false;
  bool stop_ = false;
  bool wal_failed_ = false;  // durability lost: stop serving, exit nonzero
  std::string wal_frame_buf_;  // AppendLog frame reuse
  /// wal_sync: log bytes written since the last fdatasync.
  uint64_t wal_unsynced_bytes_ = 0;
  /// Durable WAL groups (one per append without wal_sync, one per
  /// fdatasync with it) and the log bytes they covered, reported in STATS.
  uint64_t wal_group_commits_ = 0;
  uint64_t wal_synced_bytes_ = 0;
  /// Transport-level I/O counters, reported in STATS.
  uint64_t transport_syscalls_ = 0;
  uint64_t transport_bytes_ = 0;

  uint64_t publish_epoch_ = 0;
  uint64_t tuple_ops_ = 0;
  uint64_t commits_ = 0;
  uint64_t aborts_ = 0;
  uint64_t checkpoints_ = 0;
  uint64_t ops_replayed_ = 0;
  uint64_t batch_frames_ = 0;  // kBatch records, frames and drains
  uint64_t batched_ops_ = 0;   // effects carried by those records
  int wal_appends_attempted_ = 0;  // wal_fail_after injection
};

}  // namespace fpdm::plinda::net

#endif  // FPDM_PLINDA_NET_SERVER_H_
