#ifndef FPDM_PLINDA_NET_WIRE_H_
#define FPDM_PLINDA_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "plinda/tuple.h"
#include "plinda/tuple_space.h"

/// Wire protocol of the distributed tuple-space server. Every message is a
/// frame: a u32 little-endian payload length followed by that many payload
/// bytes. The payload is an opcode byte plus an op-specific body. Tuples and
/// templates travel as length-prefixed strings of the textual encoding from
/// tuple.cc. All decode paths are bounds-checked and return errors instead
/// of reading past the buffer: a corrupt or adversarial stream yields a
/// structured failure, never undefined behavior.
namespace fpdm::plinda::net {

/// Upper bound on a single frame payload. Large enough for a full TAKEALL
/// reply of any workload we run; small enough to reject garbage lengths
/// from a corrupt stream before allocating.
inline constexpr size_t kMaxFramePayload = 16u << 20;

/// Appends the frame header + payload to `out`. Deliberately does not cap
/// the payload itself (tests feed oversized frames to FrameReader through
/// it); every sender enforces kMaxFramePayload before framing — the client
/// fails an oversized request with a structured error, and the server never
/// emits an oversized reply (SendEncoded substitutes a WireStatus::kError
/// reply) — so a frame the receiving FrameReader would reject as a corrupt
/// stream is never put on the wire.
void AppendFrame(std::string_view payload, std::string* out);

// --- low-level byte codec -------------------------------------------------
// Little-endian primitives shared by the request/reply/log encoders, the
// server's snapshot format, and the wire tests.

void PutU8(uint8_t v, std::string* out);
void PutU32(uint32_t v, std::string* out);
void PutU64(uint64_t v, std::string* out);
void PutI32(int32_t v, std::string* out);
void PutString(std::string_view s, std::string* out);
void PutTuple(const Tuple& tuple, std::string* out);
/// An upper bound on the bytes PutTuple appends for `tuple`, without
/// encoding it.
size_t EstimateTupleBytes(const Tuple& tuple);
void PutTemplate(const Template& tmpl, std::string* out);

/// Bounds-checked reader over an encoded buffer. Every Take* returns false
/// once the input is exhausted or malformed; callers bail out with a decode
/// error instead of reading past the end.
struct ByteReader {
  std::string_view data;
  size_t pos = 0;

  bool TakeU8(uint8_t* v);
  bool TakeU32(uint32_t* v);
  bool TakeU64(uint64_t* v);
  bool TakeI32(int32_t* v);
  bool TakeString(std::string* s);
  bool TakeTuple(Tuple* tuple);
  bool TakeTemplate(Template* tmpl);
  bool AtEnd() const { return pos == data.size(); }
};

/// Incremental frame extractor for a byte stream. Feed bytes as they arrive;
/// Next() yields complete frame payloads in order.
///
/// Two zero-copy paths avoid the per-read and per-frame copies of the
/// Feed()/Next() pair: WriteBuffer()/CommitWrite() let the caller read(2)
/// straight into the reassembly buffer, and NextView() hands out a view of
/// the frame payload in place. A NextView() view is valid only until the
/// next WriteBuffer/Feed/Next*/ call — parse it before pumping more bytes.
class FrameReader {
 public:
  enum class Result { kFrame, kNeedMore, kError };

  void Feed(const char* data, size_t n);
  /// Reserves `n` writable bytes at the tail of the reassembly buffer and
  /// returns a pointer to them (for a direct read(2) into the buffer).
  /// Follow with CommitWrite(m) for the m <= n bytes actually read.
  char* WriteBuffer(size_t n);
  void CommitWrite(size_t n);
  /// kFrame: `*payload` holds the next complete frame. kNeedMore: feed more
  /// bytes. kError: the stream is corrupt (oversized frame); the reader
  /// stays broken.
  Result Next(std::string* payload);
  /// Like Next() but yields a view into the reassembly buffer instead of
  /// copying the payload out.
  Result NextView(std::string_view* payload);
  const std::string& error() const { return error_; }

 private:
  Result PeekFrame(size_t* len);

  std::string buffer_;
  size_t pos_ = 0;
  size_t write_base_ = 0;
  std::string error_;
  bool broken_ = false;
};

enum class Op : uint8_t {
  kHello = 1,   // pid, incarnation — identifies the client process
  kOut = 2,     // tuple
  kIn = 3,      // template + flags: in/inp/rd/rdp, parked when blocking
  kXStart = 4,  // open a transaction
  kXCommit = 5, // atomically publish outs + optional continuation
  kXAbort = 6,  // roll back: restore tuples removed inside the transaction
  kXRecover = 7,// read this pid's last committed continuation, if any
  kCount = 8,   // count matching tuples
  // Drains every tuple in FIFO order (end-of-run harvest). Durable: the
  // server forces a checkpoint before acknowledging, so recovery never
  // resurrects harvested tuples. Not deduplicated (the harvesting control
  // connection is unsequenced): if the server crashes after committing the
  // checkpoint but before the reply arrives, a retry returns only tuples
  // published since — at-most-once delivery. The runtime harvests exactly
  // once, after all workers have exited and fault injection has ended, so
  // that window is outside the fault model.
  kTakeAll = 9,
  kStats = 10,  // server counters
  kStatus = 11, // parked-waiter snapshot for deadlock detection
  kCancel = 12, // cancel the run: parked + future blocking ops fail
  kShutdown = 13,
  kBye = 14,    // clean disconnect: suppress the crash-abort on EOF
  // N non-blocking sub-ops (out, inp/rdp) under one (pid, incarnation, seq):
  // one frame on the wire, one WAL record on the server, one batched reply.
  // The whole batch applies atomically — a retry after a server crash either
  // finds the single log record (cached batched reply) or nothing (fresh
  // re-apply); there is no half-applied state in between. Blocking sub-ops
  // are rejected with a structured error: a parked tail would need a second
  // WAL record under the same seq, which would break that argument — the
  // client pipelines a separate kIn frame behind the batch instead.
  kBatch = 15,
};

// kIn flags.
inline constexpr uint8_t kInRemove = 1;    // in/inp (vs rd/rdp)
inline constexpr uint8_t kInBlocking = 2;  // in/rd (vs inp/rdp)
// Drain (ProcessContext::InAll): once a first match exists, the server also
// removes every further match that fits one reply frame, logs them all as
// one kBatch record of kTook effects under the frame's seq, and replies with
// that record's items, oldest first. Valid only with kInRemove and
// kInBlocking, and never on a kBatch sub-op.
inline constexpr uint8_t kInDrain = 4;

/// One sub-operation of a kBatch request.
struct BatchOp {
  Op op = Op::kOut;   // kOut or kIn (non-blocking: inp/rdp)
  uint8_t flags = 0;  // kIn flags; kInBlocking is a protocol error here
  Tuple tuple;        // kOut
  Template tmpl;      // kIn
};

struct Request {
  Op op = Op::kHello;
  int32_t pid = -1;         // kHello
  int32_t incarnation = 0;  // kHello
  /// Per-client sequence number; the server deduplicates retried mutating
  /// requests by (pid, seq). 0 = unsequenced (control connections, kHello).
  uint64_t seq = 0;
  uint8_t flags = 0;         // kIn
  Template tmpl;             // kIn, kCount
  Tuple tuple;               // kOut
  std::vector<Tuple> outs;   // kXCommit
  bool has_continuation = false;
  Tuple continuation;        // kXCommit
  std::vector<BatchOp> batch;  // kBatch
};

std::string EncodeRequest(const Request& request);
bool DecodeRequest(std::string_view payload, Request* request,
                   std::string* error);

enum class WireStatus : uint8_t {
  kOk = 0,
  kNotFound = 1,   // inp/rdp miss, xrecover with no continuation
  kCancelled = 2,  // the run was cancelled (deadlock watchdog)
  kError = 3,      // protocol violation; detail in Reply::error
};

struct ParkedWaiter {
  int32_t pid = -1;
  bool remove = false;
  std::string tmpl_text;  // human-readable template, for diagnostics
};

/// Per-sub-op result inside a kBatch reply, in request order. kOk with no
/// tuple = out applied; kOk with a tuple = inp/rdp hit; kNotFound = miss.
/// A drain's reply carries one kOk item per tuple it took.
struct BatchItem {
  WireStatus status = WireStatus::kOk;
  bool has_tuple = false;
  Tuple tuple;
};

struct Reply {
  WireStatus status = WireStatus::kOk;
  bool has_tuple = false;
  Tuple tuple;                // kIn hit, kXRecover hit
  std::vector<Tuple> tuples;  // kTakeAll
  uint64_t count = 0;         // kCount
  // kStats counters.
  uint64_t tuple_ops = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t checkpoints = 0;
  uint64_t ops_replayed = 0;
  uint64_t batch_frames = 0;  // kBatch records applied: frames and drains
  uint64_t batched_ops = 0;   // effects carried by those records
  // kStatus.
  uint64_t publish_epoch = 0;
  std::vector<ParkedWaiter> parked;
  std::vector<BatchItem> items;  // kBatch, kIn with kInDrain
  std::string error;  // kError detail
  /// kStats: WAL group-commit observability — durable groups (one per
  /// append without wal_sync, one per fdatasync with it) and the log bytes
  /// those groups covered.
  uint64_t wal_group_commits = 0;
  uint64_t wal_synced_bytes = 0;
  /// kStats: transport-level I/O — syscalls the server spent moving bytes
  /// (read/write/sendmsg) and payload bytes moved.
  uint64_t transport_syscalls = 0;
  uint64_t transport_bytes = 0;
  /// kStats: two lock counters that always read 0 (the server takes no
  /// locks; they keep the wire layout).
  uint64_t state_lock_waits = 0;
  uint64_t stripe_conflicts = 0;
};

std::string EncodeReply(const Reply& reply);
/// Appends the encoded reply to `out` without building a temporary string.
void EncodeReplyInto(const Reply& reply, std::string* out);
bool DecodeReply(std::string_view payload, Reply* reply, std::string* error);

// --- Write-ahead log ------------------------------------------------------
//
// The server logs every state-mutating request (framed, same as the wire)
// before applying it; replay after a crash reproduces the space, the
// continuation table, and the per-client dedup state exactly. seq 0 marks
// server-initiated entries (crash-abort of a dead client's transaction).

enum class LogKind : uint8_t {
  kHello = 1,    // client (re)registered: abort its open txn, reset dedup
  kOut = 2,
  kIn = 3,       // a destructive in/inp removed `tuple`
  kXStart = 4,
  kCommit = 5,
  kAbort = 6,
  // 7 is retired: XRECOVER reads the continuation table and logs nothing.
  // A whole kBatch frame, or a whole drain (kIn with kInDrain), as ONE
  // record. The entry stores resolved per-sub-op *effects* (which tuple was
  // published / removed / read / missed), not the request, so replay
  // reproduces both the space mutation and the cached batched reply
  // bit-identically without re-running the matching.
  kBatch = 8,
};

/// Resolved effect of one kBatch sub-op (the LogKind::kBatch payload).
enum class BatchEffectKind : uint8_t {
  kPublished = 1,  // out: `tuple` was published
  kTook = 2,       // inp hit: `tuple` was removed (in_txn per effect)
  kRead = 3,       // rdp hit: `tuple` was read, space untouched
  kMiss = 4,       // inp/rdp miss: no mutation, kNotFound item
};

struct BatchEffect {
  BatchEffectKind kind = BatchEffectKind::kPublished;
  bool in_txn = false;  // kTook: removal happened inside a transaction
  Tuple tuple;          // empty for kMiss
};

struct LogEntry {
  LogKind kind = LogKind::kOut;
  int32_t pid = -1;
  int32_t incarnation = 0;
  uint64_t seq = 0;
  bool in_txn = false;      // kIn: removal happened inside a transaction
  Tuple tuple;              // kOut, kIn
  std::vector<Tuple> outs;  // kCommit
  bool has_continuation = false;
  Tuple continuation;       // kCommit
  std::vector<BatchEffect> effects;  // kBatch
};

std::string EncodeLogEntry(const LogEntry& entry);
/// Appends the encoded entry to `out` — lets the server reuse one encode
/// buffer across appends instead of allocating a string per mutation.
void EncodeLogEntryInto(const LogEntry& entry, std::string* out);
bool DecodeLogEntry(std::string_view payload, LogEntry* entry,
                    std::string* error);

}  // namespace fpdm::plinda::net

#endif  // FPDM_PLINDA_NET_WIRE_H_
