// Wire protocol and distributed tuple-space server tests: codec round
// trips, frame parsing against malformed/truncated/oversized input (a
// corrupt stream must yield a structured error, never undefined behavior),
// live client/server integration over a Unix-domain socket, server
// crash-recovery from checkpoint + log, and the kDistributed runtime
// backend end to end.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "plinda/net/client.h"
#include "plinda/net/endpoint.h"
#include "plinda/net/server.h"
#include "plinda/net/supervisor.h"
#include "plinda/net/wire.h"
#include "plinda/runtime.h"
#include "plinda/tuple.h"
#include "plinda/tuple_space.h"

namespace fpdm::plinda::net {
namespace {

// ---------------------------------------------------------------------------
// Bucket placement
// ---------------------------------------------------------------------------

// Bucket placement decides which server's WAL and checkpoint hold a tuple,
// so it must never move: these are the indices it has always computed.
TEST(PlacementTest, IndexIsPinnedAtTwoAndThreeServers) {
  auto expect_placed = [](size_t arity, const char* key, size_t of_two,
                          size_t of_three) {
    const BucketKeyView bucket{arity, key};
    EXPECT_EQ(PlacementIndex(bucket, 1), 0u) << arity << ':' << key;
    EXPECT_EQ(PlacementIndex(bucket, 2), of_two) << arity << ':' << key;
    EXPECT_EQ(PlacementIndex(bucket, 3), of_three) << arity << ':' << key;
  };
  expect_placed(0, "", 1, 1);
  expect_placed(2, "", 1, 1);
  expect_placed(2, "task", 0, 0);
  expect_placed(5, "report", 1, 2);
  expect_placed(3, "good", 0, 1);
  expect_placed(3, "cost", 0, 2);
  expect_placed(2, "k2", 1, 1);
}

// ---------------------------------------------------------------------------
// Codec round trips
// ---------------------------------------------------------------------------

Request SampleCommitRequest() {
  Request request;
  request.op = Op::kXCommit;
  request.pid = 7;
  request.incarnation = 2;
  request.seq = 41;
  request.outs = {MakeTuple("result", 3, 2.5), MakeTuple("done")};
  request.has_continuation = true;
  request.continuation = MakeTuple("cont", int64_t{9});
  return request;
}

TEST(WireCodecTest, RequestRoundTrip) {
  const Request request = SampleCommitRequest();
  std::string error;
  Request back;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(request), &back, &error)) << error;
  EXPECT_EQ(back.op, request.op);
  EXPECT_EQ(back.pid, request.pid);
  EXPECT_EQ(back.incarnation, request.incarnation);
  EXPECT_EQ(back.seq, request.seq);
  ASSERT_EQ(back.outs.size(), request.outs.size());
  EXPECT_EQ(back.outs[0], request.outs[0]);
  EXPECT_EQ(back.outs[1], request.outs[1]);
  ASSERT_TRUE(back.has_continuation);
  EXPECT_EQ(back.continuation, request.continuation);
}

TEST(WireCodecTest, InRequestRoundTrip) {
  Request request;
  request.op = Op::kIn;
  request.pid = 3;
  request.seq = 5;
  request.flags = kInRemove | kInBlocking;
  request.tmpl = MakeTemplate(A("task"), F(ValueType::kInt));
  std::string error;
  Request back;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(request), &back, &error)) << error;
  EXPECT_EQ(back.op, Op::kIn);
  EXPECT_EQ(back.flags, request.flags);
  EXPECT_TRUE(Matches(back.tmpl, MakeTuple("task", 12)));
  EXPECT_FALSE(Matches(back.tmpl, MakeTuple("task", 1.5)));
}

TEST(WireCodecTest, ReplyRoundTrip) {
  Reply reply;
  reply.status = WireStatus::kOk;
  reply.has_tuple = true;
  reply.tuple = MakeTuple("hit", 4);
  reply.tuples = {MakeTuple("a"), MakeTuple("b", 1.25)};
  reply.count = 17;
  reply.tuple_ops = 100;
  reply.commits = 5;
  reply.aborts = 2;
  reply.checkpoints = 3;
  reply.ops_replayed = 8;
  reply.publish_epoch = 99;
  reply.parked = {{2, true, "(\"task\", ?int)"}, {5, false, "(\"x\")"}};
  reply.wal_group_commits = 41;
  reply.wal_synced_bytes = 12345;
  reply.state_lock_waits = 7;
  reply.stripe_conflicts = 9;
  reply.error = "";
  std::string error;
  Reply back;
  ASSERT_TRUE(DecodeReply(EncodeReply(reply), &back, &error)) << error;
  EXPECT_EQ(back.status, reply.status);
  ASSERT_TRUE(back.has_tuple);
  EXPECT_EQ(back.tuple, reply.tuple);
  ASSERT_EQ(back.tuples.size(), 2u);
  EXPECT_EQ(back.tuples[1], reply.tuples[1]);
  EXPECT_EQ(back.count, reply.count);
  EXPECT_EQ(back.tuple_ops, reply.tuple_ops);
  EXPECT_EQ(back.publish_epoch, reply.publish_epoch);
  ASSERT_EQ(back.parked.size(), 2u);
  EXPECT_EQ(back.parked[0].pid, 2);
  EXPECT_TRUE(back.parked[0].remove);
  EXPECT_EQ(back.parked[0].tmpl_text, "(\"task\", ?int)");
  EXPECT_FALSE(back.parked[1].remove);
  EXPECT_EQ(back.wal_group_commits, 41u);
  EXPECT_EQ(back.wal_synced_bytes, 12345u);
  EXPECT_EQ(back.state_lock_waits, 7u);
  EXPECT_EQ(back.stripe_conflicts, 9u);
}

TEST(WireCodecTest, LogEntryRoundTrip) {
  LogEntry entry;
  entry.kind = LogKind::kCommit;
  entry.pid = 4;
  entry.incarnation = 1;
  entry.seq = 33;
  entry.in_txn = true;
  entry.tuple = MakeTuple("removed", 2);
  entry.outs = {MakeTuple("out", 1), MakeTuple("out", 2)};
  entry.has_continuation = true;
  entry.continuation = MakeTuple("cont", 3.5);
  std::string error;
  LogEntry back;
  ASSERT_TRUE(DecodeLogEntry(EncodeLogEntry(entry), &back, &error)) << error;
  EXPECT_EQ(back.kind, entry.kind);
  EXPECT_EQ(back.pid, entry.pid);
  EXPECT_EQ(back.seq, entry.seq);
  EXPECT_TRUE(back.in_txn);
  EXPECT_EQ(back.tuple, entry.tuple);
  ASSERT_EQ(back.outs.size(), 2u);
  EXPECT_EQ(back.outs[0], entry.outs[0]);
  ASSERT_TRUE(back.has_continuation);
  EXPECT_EQ(back.continuation, entry.continuation);
}

// ---------------------------------------------------------------------------
// Frame parsing: partial delivery, oversized frames
// ---------------------------------------------------------------------------

TEST(FrameReaderTest, PartialDeliveryYieldsFramesInOrder) {
  std::string stream;
  AppendFrame("first", &stream);
  AppendFrame("second", &stream);
  FrameReader reader;
  std::vector<std::string> frames;
  // Drip the stream one byte at a time; the reader must never yield a
  // partial frame and must yield both in order.
  for (char c : stream) {
    reader.Feed(&c, 1);
    std::string payload;
    while (reader.Next(&payload) == FrameReader::Result::kFrame) {
      frames.push_back(payload);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], "first");
  EXPECT_EQ(frames[1], "second");
  std::string payload;
  EXPECT_EQ(reader.Next(&payload), FrameReader::Result::kNeedMore);
}

TEST(FrameReaderTest, OversizedFrameIsAnErrorAndStaysBroken) {
  // Header advertising a payload over kMaxFramePayload: reject before
  // buffering, and stay broken for all later feeds.
  const uint32_t huge = static_cast<uint32_t>(kMaxFramePayload) + 1;
  std::string header;
  PutU32(huge, &header);
  FrameReader reader;
  reader.Feed(header.data(), header.size());
  std::string payload;
  EXPECT_EQ(reader.Next(&payload), FrameReader::Result::kError);
  EXPECT_FALSE(reader.error().empty());
  std::string good;
  AppendFrame("late", &good);
  reader.Feed(good.data(), good.size());
  EXPECT_EQ(reader.Next(&payload), FrameReader::Result::kError);
}

TEST(FrameReaderTest, EmptyPayloadFrame) {
  std::string stream;
  AppendFrame("", &stream);
  FrameReader reader;
  reader.Feed(stream.data(), stream.size());
  std::string payload;
  ASSERT_EQ(reader.Next(&payload), FrameReader::Result::kFrame);
  EXPECT_TRUE(payload.empty());
}

// ---------------------------------------------------------------------------
// Malformed-input fuzzing (deterministic). The decoders must return false
// on corrupt input — never crash, hang, or read out of bounds (the tier-1
// TSan job and the CI ASan leg watch the "never UB" half of that claim).
// ---------------------------------------------------------------------------

TEST(WireFuzzTest, EveryTruncationFailsCleanly) {
  const std::string encodings[] = {
      EncodeRequest(SampleCommitRequest()),
      EncodeReply([] {
        Reply reply;
        reply.has_tuple = true;
        reply.tuple = MakeTuple("t", 1, 2.5, "payload");
        reply.parked = {{1, true, "(\"x\")"}};
        return reply;
      }()),
      EncodeLogEntry([] {
        LogEntry entry;
        entry.kind = LogKind::kCommit;
        entry.outs = {MakeTuple("a", 1), MakeTuple("b")};
        return entry;
      }()),
  };
  std::string error;
  for (const std::string& full : encodings) {
    for (size_t len = 0; len < full.size(); ++len) {
      const std::string_view prefix(full.data(), len);
      Request request;
      Reply reply;
      LogEntry entry;
      // The decoders demand full consumption, so a strict prefix can never
      // decode successfully under any of them.
      EXPECT_FALSE(DecodeRequest(prefix, &request, &error)) << len;
      EXPECT_FALSE(DecodeReply(prefix, &reply, &error)) << len;
      EXPECT_FALSE(DecodeLogEntry(prefix, &entry, &error)) << len;
    }
  }
}

TEST(WireFuzzTest, RandomByteFlipsNeverCrashTheDecoders) {
  // Deterministic xorshift so failures reproduce bit-for-bit.
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const std::string seeds[] = {
      EncodeRequest(SampleCommitRequest()),
      EncodeReply([] {
        Reply reply;
        reply.tuples = {MakeTuple("a", 1), MakeTuple("b", 2.5)};
        reply.error = "detail";
        return reply;
      }()),
      EncodeLogEntry(LogEntry{}),
  };
  for (int round = 0; round < 400; ++round) {
    std::string mutated = seeds[next() % 3];
    const int flips = 1 + static_cast<int>(next() % 4);
    for (int f = 0; f < flips; ++f) {
      mutated[next() % mutated.size()] ^= static_cast<char>(next() & 0xff);
    }
    if (next() % 4 == 0) mutated.resize(next() % (mutated.size() + 1));
    std::string error;
    Request request;
    Reply reply;
    LogEntry entry;
    // Any outcome is legal except UB; decoding must terminate and leave the
    // reader bounds intact.
    DecodeRequest(mutated, &request, &error);
    DecodeReply(mutated, &reply, &error);
    DecodeLogEntry(mutated, &entry, &error);
    // And the framing layer must survive the same garbage as a payload.
    std::string stream;
    AppendFrame(mutated, &stream);
    FrameReader reader;
    reader.Feed(stream.data(), stream.size());
    std::string payload;
    ASSERT_EQ(reader.Next(&payload), FrameReader::Result::kFrame);
    EXPECT_EQ(payload, mutated);
  }
}

TEST(WireFuzzTest, GarbageStreamsNeverCrashTheFrameReader) {
  uint64_t state = 0xdeadbeefcafef00dull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 100; ++round) {
    std::string garbage(next() % 64, '\0');
    for (char& c : garbage) c = static_cast<char>(next() & 0xff);
    FrameReader reader;
    reader.Feed(garbage.data(), garbage.size());
    std::string payload;
    // Drain until the reader wants more bytes or declares the stream
    // corrupt; either way it must terminate.
    for (int i = 0; i < 128; ++i) {
      const FrameReader::Result result = reader.Next(&payload);
      if (result != FrameReader::Result::kFrame) break;
    }
  }
}

// ---------------------------------------------------------------------------
// Live client/server integration over a Unix-domain socket
// ---------------------------------------------------------------------------

class NetIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeStateDir();
    ASSERT_FALSE(dir_.empty());
    sopts_.endpoint = dir_ + "/space.sock";
    sopts_.state_dir = dir_ + "/state";
    sopts_.checkpoint_every_ops = 4;  // force checkpoints in short tests
    StartServer();
  }

  void TearDown() override {
    StopServer();
    RemoveTree(dir_);
  }

  void StartServer() {
    server_pid_ = ForkServerProcess(sopts_);
    ASSERT_GT(server_pid_, 0);
    ASSERT_TRUE(WaitForSocket(sopts_.endpoint, 10.0));
  }

  void StopServer() {
    if (server_pid_ <= 0) return;
    KillProcess(server_pid_);
    ExitInfo info;
    WaitForExit(server_pid_, 5.0, &info);
    server_pid_ = -1;
  }

  RemoteSpaceOptions ClientOptions(int32_t pid, int32_t incarnation = 0) {
    RemoteSpaceOptions opts;
    opts.endpoint = sopts_.endpoint;
    opts.pid = pid;
    opts.incarnation = incarnation;
    opts.reconnect_timeout_s = 10.0;
    return opts;
  }

  std::string dir_;
  SpaceServerOptions sopts_;
  pid_t server_pid_ = -1;
};

using CallStatus = RemoteTupleSpace::CallStatus;

// Minimal raw-socket client for protocol sequences RemoteTupleSpace cannot
// drive — e.g. abandoning a connection while a blocking in is still parked
// server-side (RemoteTupleSpace::In would sit waiting for the reply).
class RawClient {
 public:
  explicit RawClient(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
    }
  }
  ~RawClient() { Close(); }

  bool ok() const { return fd_ >= 0; }

  /// Abrupt disconnect with no BYE, as a SIGKILLed worker would leave.
  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool Send(const Request& request) { return SendAll({request}); }

  /// Sends every request in one write, so the server reads them together.
  bool SendAll(const std::vector<Request>& requests) {
    std::string framed;
    for (const Request& request : requests) {
      AppendFrame(EncodeRequest(request), &framed);
    }
    size_t off = 0;
    while (off < framed.size()) {
      const ssize_t w = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (w < 0) return false;
      off += static_cast<size_t>(w);
    }
    return true;
  }

  bool Receive(Reply* reply) {
    std::string payload;
    char buf[4096];
    for (;;) {
      const FrameReader::Result result = reader_.Next(&payload);
      if (result == FrameReader::Result::kFrame) break;
      if (result == FrameReader::Result::kError) return false;
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      reader_.Feed(buf, static_cast<size_t>(n));
    }
    std::string error;
    return DecodeReply(payload, reply, &error);
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

TEST_F(NetIntegrationTest, BasicOpsAndFifoOrder) {
  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect());
  ASSERT_EQ(client.Out(MakeTuple("task", 1)), CallStatus::kOk);
  ASSERT_EQ(client.Out(MakeTuple("task", 2)), CallStatus::kOk);
  ASSERT_EQ(client.Out(MakeTuple("other", 1.5)), CallStatus::kOk);

  uint64_t count = 0;
  ASSERT_EQ(client.Count(MakeTemplate(A("task"), F(ValueType::kInt)), &count),
            CallStatus::kOk);
  EXPECT_EQ(count, 2u);

  // rd copies without removing; in removes the *oldest* match (FIFO).
  Tuple tuple;
  ASSERT_EQ(client.In(MakeTemplate(A("task"), F(ValueType::kInt)),
                      /*blocking=*/false, /*remove=*/false, &tuple),
            CallStatus::kOk);
  EXPECT_EQ(GetInt(tuple, 1), 1);
  ASSERT_EQ(client.In(MakeTemplate(A("task"), F(ValueType::kInt)),
                      /*blocking=*/false, /*remove=*/true, &tuple),
            CallStatus::kOk);
  EXPECT_EQ(GetInt(tuple, 1), 1);
  ASSERT_EQ(client.In(MakeTemplate(A("task"), F(ValueType::kInt)),
                      /*blocking=*/false, /*remove=*/true, &tuple),
            CallStatus::kOk);
  EXPECT_EQ(GetInt(tuple, 1), 2);
  // inp / rdp on an empty match set report kNotFound, not an error.
  EXPECT_EQ(client.In(MakeTemplate(A("task"), F(ValueType::kInt)),
                      /*blocking=*/false, /*remove=*/true, &tuple),
            CallStatus::kNotFound);
  client.Bye();
}

TEST_F(NetIntegrationTest, FormalFirstMatchesAreOldestFirstAcrossTheSpace) {
  // Two tuples of one arity in different (arity, first-key) buckets, the
  // older one in the bucket a two-way PlacementIndex split puts second.
  // A formal-first template may match either bucket, and the server must
  // answer oldest-first across the whole space — the TupleSpace rule — not
  // bucket by bucket in hash order.
  auto key_in = [](size_t half) {
    for (int i = 0;; ++i) {
      const std::string key = "k" + std::to_string(i);
      if (PlacementIndex({2, key}, 2) == half) return key;
    }
  };
  const std::string older_key = key_in(1);
  const std::string newer_key = key_in(0);
  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect());
  ASSERT_EQ(client.Out(MakeTuple(older_key, 1)), CallStatus::kOk);
  ASSERT_EQ(client.Out(MakeTuple(newer_key, 2)), CallStatus::kOk);

  Tuple tuple;
  ASSERT_EQ(client.In(MakeTemplate(F(ValueType::kString), F(ValueType::kInt)),
                      /*blocking=*/false, /*remove=*/false, &tuple),
            CallStatus::kOk);
  EXPECT_EQ(ToString(tuple), ToString(MakeTuple(older_key, 1)));

  std::vector<Tuple> all;
  ASSERT_EQ(client.TakeAll(&all), CallStatus::kOk);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(ToString(all[0]), ToString(MakeTuple(older_key, 1)));
  EXPECT_EQ(ToString(all[1]), ToString(MakeTuple(newer_key, 2)));
  client.Bye();
}

TEST_F(NetIntegrationTest, TransactionCommitAbortAndContinuation) {
  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect());
  ASSERT_EQ(client.Out(MakeTuple("victim", 1)), CallStatus::kOk);

  // Abort restores the tuples the transaction removed.
  ASSERT_EQ(client.XStart(), CallStatus::kOk);
  Tuple tuple;
  ASSERT_EQ(client.In(MakeTemplate(A("victim"), F(ValueType::kInt)),
                      /*blocking=*/false, /*remove=*/true, &tuple),
            CallStatus::kOk);
  uint64_t count = 0;
  ASSERT_EQ(client.Count(MakeTemplate(A("victim"), F(ValueType::kInt)), &count),
            CallStatus::kOk);
  EXPECT_EQ(count, 0u);
  ASSERT_EQ(client.XAbort(), CallStatus::kOk);
  ASSERT_EQ(client.Count(MakeTemplate(A("victim"), F(ValueType::kInt)), &count),
            CallStatus::kOk);
  EXPECT_EQ(count, 1u);

  // Commit publishes the outs atomically and stores the continuation.
  ASSERT_EQ(client.XStart(), CallStatus::kOk);
  ASSERT_EQ(client.XCommit({MakeTuple("published", 7)}, true,
                           MakeTuple("cont", 42)),
            CallStatus::kOk);
  ASSERT_EQ(client.Count(MakeTemplate(A("published"), F(ValueType::kInt)),
                         &count),
            CallStatus::kOk);
  EXPECT_EQ(count, 1u);
  Tuple cont;
  ASSERT_EQ(client.XRecover(&cont), CallStatus::kOk);
  EXPECT_EQ(GetInt(cont, 1), 42);
  // A continuation is consumed by the recover that reads it.
  EXPECT_EQ(client.XRecover(&cont), CallStatus::kNotFound);
  client.Bye();
}

TEST_F(NetIntegrationTest, HigherIncarnationAbortsThePredecessorsTxn) {
  RemoteTupleSpace old_client(ClientOptions(7, 0));
  ASSERT_TRUE(old_client.Connect());
  ASSERT_EQ(old_client.Out(MakeTuple("shared", 1)), CallStatus::kOk);
  ASSERT_EQ(old_client.XStart(), CallStatus::kOk);
  Tuple tuple;
  ASSERT_EQ(old_client.In(MakeTemplate(A("shared"), F(ValueType::kInt)),
                          /*blocking=*/false, /*remove=*/true, &tuple),
            CallStatus::kOk);

  // The respawned incarnation registering is the server's signal that the
  // old one died: its open transaction rolls back, restoring the tuple.
  RemoteTupleSpace new_client(ClientOptions(7, 1));
  ASSERT_TRUE(new_client.Connect());
  uint64_t count = 0;
  ASSERT_EQ(new_client.Count(MakeTemplate(A("shared"), F(ValueType::kInt)),
                             &count),
            CallStatus::kOk);
  EXPECT_EQ(count, 1u);
  new_client.Bye();
  old_client.Abandon();
}

TEST_F(NetIntegrationTest, CrashAbortOnConnectionDropWithoutBye) {
  // A worker that vanishes without BYE (SIGKILL) must have its open
  // transaction rolled back by the server on EOF.
  RemoteTupleSpace ctl(ClientOptions(-1));
  ASSERT_TRUE(ctl.Connect());
  ASSERT_EQ(ctl.Out(MakeTuple("job", 5)), CallStatus::kOk);
  {
    RemoteTupleSpace victim(ClientOptions(2));
    ASSERT_TRUE(victim.Connect());
    ASSERT_EQ(victim.XStart(), CallStatus::kOk);
    Tuple tuple;
    ASSERT_EQ(victim.In(MakeTemplate(A("job"), F(ValueType::kInt)),
                        /*blocking=*/false, /*remove=*/true, &tuple),
              CallStatus::kOk);
    victim.Abandon();  // close the socket with no BYE, as a kill would
  }
  // Poll until the server notices the EOF and restores the tuple.
  uint64_t count = 0;
  for (int i = 0; i < 200 && count == 0; ++i) {
    ASSERT_EQ(ctl.Count(MakeTemplate(A("job"), F(ValueType::kInt)), &count),
              CallStatus::kOk);
    if (count == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_EQ(count, 1u);
  ctl.Bye();
}

TEST_F(NetIntegrationTest, BlockingInParksUntilAPublishArrives) {
  // The child parks on a blocking in; the parent publishes the match and
  // then waits for the child's reply tuple.
  const pid_t child = ForkChild([&] {
    RemoteTupleSpace worker(ClientOptions(2));
    if (!worker.Connect()) return 10;
    Tuple tuple;
    if (worker.In(MakeTemplate(A("ping"), F(ValueType::kInt)),
                  /*blocking=*/true, /*remove=*/true,
                  &tuple) != CallStatus::kOk) {
      return 11;
    }
    if (worker.Out(MakeTuple("pong", GetInt(tuple, 1) + 1)) !=
        CallStatus::kOk) {
      return 12;
    }
    worker.Bye();
    return 0;
  });
  ASSERT_GT(child, 0);

  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(client.Out(MakeTuple("ping", 41)), CallStatus::kOk);
  Tuple tuple;
  ASSERT_EQ(client.In(MakeTemplate(A("pong"), F(ValueType::kInt)),
                      /*blocking=*/true, /*remove=*/true, &tuple),
            CallStatus::kOk);
  EXPECT_EQ(GetInt(tuple, 1), 42);
  ExitInfo info;
  ASSERT_TRUE(WaitForExit(child, 10.0, &info));
  EXPECT_TRUE(info.exited);
  EXPECT_EQ(info.exit_code, 0);
  client.Bye();
}

TEST_F(NetIntegrationTest, CancelFailsParkedAndFutureBlockingOps) {
  const pid_t child = ForkChild([&] {
    RemoteTupleSpace worker(ClientOptions(3));
    if (!worker.Connect()) return 10;
    Tuple tuple;
    const CallStatus status =
        worker.In(MakeTemplate(A("never")), /*blocking=*/true,
                  /*remove=*/true, &tuple);
    return status == CallStatus::kCancelled ? 7 : 11;
  });
  ASSERT_GT(child, 0);

  RemoteTupleSpace ctl(ClientOptions(-1));
  ASSERT_TRUE(ctl.Connect());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(ctl.Cancel(), CallStatus::kOk);
  ExitInfo info;
  ASSERT_TRUE(WaitForExit(child, 10.0, &info));
  EXPECT_TRUE(info.exited);
  EXPECT_EQ(info.exit_code, 7);
  ctl.Bye();
}

TEST_F(NetIntegrationTest, ServerCrashRecoveryFromCheckpointAndLog) {
  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect());
  // Enough mutations to cross checkpoint_every_ops = 4, so recovery
  // exercises snapshot load + log replay, not just replay.
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(client.Out(MakeTuple("persist", i)), CallStatus::kOk);
  }
  Tuple tuple;
  ASSERT_EQ(client.In(MakeTemplate(A("persist"), A(int64_t{0})),
                      /*blocking=*/false, /*remove=*/true, &tuple),
            CallStatus::kOk);
  ASSERT_EQ(client.XStart(), CallStatus::kOk);
  ASSERT_EQ(client.XCommit({}, true, MakeTuple("cont", 5)), CallStatus::kOk);

  // SIGKILL the server (no cleanup runs), restart it on the same state
  // directory; the client's next call reconnects transparently.
  StopServer();
  StartServer();

  uint64_t count = 0;
  ASSERT_EQ(client.Count(MakeTemplate(A("persist"), F(ValueType::kInt)),
                         &count),
            CallStatus::kOk);
  EXPECT_EQ(count, 9u);  // tuple 0 stays consumed: no double-apply
  Tuple cont;
  ASSERT_EQ(client.XRecover(&cont), CallStatus::kOk);
  EXPECT_EQ(GetInt(cont, 1), 5);
  Reply stats;
  ASSERT_EQ(client.Stats(&stats), CallStatus::kOk);
  EXPECT_GT(stats.checkpoints + stats.ops_replayed, 0u);
  client.Bye();
}

/// The newest (highest-epoch) WAL file in a server state directory, or an
/// empty path when none exists.
std::filesystem::path NewestLogFile(const std::string& state_dir) {
  std::filesystem::path newest;
  long best = -1;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(state_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("log.", 0) != 0) continue;
    const long epoch = std::strtol(name.c_str() + 4, nullptr, 10);
    if (epoch > best) {
      best = epoch;
      newest = entry.path();
    }
  }
  return newest;
}

TEST_F(NetIntegrationTest, TornWalTailIsDiscardedOnRecovery) {
  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect());
  // 10 outs with checkpoint_every_ops = 4: the periodic checkpoints rotate
  // the log twice, leaving the live log with the newest outs only — the
  // final record on disk is the 10th out.
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(client.Out(MakeTuple("persist", i)), CallStatus::kOk);
  }
  StopServer();

  // Tear the final append: chop one byte off the newest log file, the image
  // a crash mid-write leaves. Recovery must detect the damaged record by
  // its checksum/length, discard it, and replay the intact prefix.
  const std::filesystem::path log = NewestLogFile(sopts_.state_dir);
  ASSERT_FALSE(log.empty());
  const uintmax_t size = std::filesystem::file_size(log);
  ASSERT_GT(size, 0u);
  std::filesystem::resize_file(log, size - 1);

  StartServer();
  uint64_t count = 0;
  ASSERT_EQ(client.Count(MakeTemplate(A("persist"), F(ValueType::kInt)),
                         &count),
            CallStatus::kOk);
  EXPECT_EQ(count, 9u);  // the torn record (out #10) is gone, nothing else
  // The recovered server keeps serving durably: new mutations land.
  ASSERT_EQ(client.Out(MakeTuple("persist", 10)), CallStatus::kOk);
  ASSERT_EQ(client.Count(MakeTemplate(A("persist"), F(ValueType::kInt)),
                         &count),
            CallStatus::kOk);
  EXPECT_EQ(count, 10u);
  client.Bye();
}

TEST_F(NetIntegrationTest, BitRottedWalTailIsDiscardedOnRecovery) {
  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect());
  // 2 outs only: with the HELLO record that is 3 log records, safely below
  // checkpoint_every_ops = 4 — the live log must not rotate away.
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(client.Out(MakeTuple("persist", i)), CallStatus::kOk);
  }
  StopServer();

  // Flip one bit inside the LAST record's payload: the framed length still
  // parses, so only the per-record checksum can expose the damage. (Only
  // the final record may legitimately be damaged — every earlier record was
  // complete on disk before its successor was appended.)
  const std::filesystem::path log = NewestLogFile(sopts_.state_dir);
  ASSERT_FALSE(log.empty());
  std::string raw;
  {
    std::ifstream in(log, std::ios::binary);
    raw.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  }
  // Walk the [u32 len][u64 hash][payload] framing to the last record.
  size_t off = 0;
  size_t last = 0;
  uint32_t last_len = 0;
  while (off + 12 <= raw.size()) {
    uint32_t len = 0;
    std::memcpy(&len, raw.data() + off, 4);
    if (off + 12 + len > raw.size()) break;
    last = off;
    last_len = len;
    off += 12 + len;
  }
  ASSERT_GT(last_len, 0u);
  raw[last + 12 + last_len / 2] ^= 0x20;
  {
    std::ofstream out(log, std::ios::binary | std::ios::trunc);
    out.write(raw.data(), static_cast<std::streamsize>(raw.size()));
  }

  StartServer();
  uint64_t count = 0;
  ASSERT_EQ(client.Count(MakeTemplate(A("persist"), F(ValueType::kInt)),
                         &count),
            CallStatus::kOk);
  EXPECT_EQ(count, 1u);  // the rotted record is discarded, the prefix kept
  client.Bye();
}

TEST_F(NetIntegrationTest, DeadClientsParkedWaiterCannotConsumeItsCrashAbort) {
  RemoteTupleSpace ctl(ClientOptions(-1));
  ASSERT_TRUE(ctl.Connect());
  ASSERT_EQ(ctl.Out(MakeTuple("job", 1)), CallStatus::kOk);

  // Raw protocol: register, open a transaction, remove the tuple inside it,
  // park a blocking in on the same template, then vanish without BYE. The
  // crash-abort republishes the tuple; the dead client's own parked waiter
  // must not consume it (that would log a durable removal whose reply goes
  // to a closed socket — the tuple would be lost to every live process).
  RawClient victim(sopts_.endpoint);
  ASSERT_TRUE(victim.ok());
  Reply reply;
  Request hello;
  hello.op = Op::kHello;
  hello.pid = 2;
  ASSERT_TRUE(victim.Send(hello));
  ASSERT_TRUE(victim.Receive(&reply));
  Request xstart;
  xstart.op = Op::kXStart;
  xstart.seq = 1;
  ASSERT_TRUE(victim.Send(xstart));
  ASSERT_TRUE(victim.Receive(&reply));
  Request take;
  take.op = Op::kIn;
  take.seq = 2;
  take.flags = kInRemove;
  take.tmpl = MakeTemplate(A("job"), F(ValueType::kInt));
  ASSERT_TRUE(victim.Send(take));
  ASSERT_TRUE(victim.Receive(&reply));
  ASSERT_TRUE(reply.has_tuple);
  Request park;
  park.op = Op::kIn;
  park.seq = 3;
  park.flags = kInRemove | kInBlocking;
  park.tmpl = MakeTemplate(A("job"), F(ValueType::kInt));
  ASSERT_TRUE(victim.Send(park));
  // No reply arrives: the in is parked. Give the server a moment to park
  // it, then die abruptly.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  victim.Close();

  uint64_t count = 0;
  for (int i = 0; i < 200 && count == 0; ++i) {
    ASSERT_EQ(ctl.Count(MakeTemplate(A("job"), F(ValueType::kInt)), &count),
              CallStatus::kOk);
    if (count == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_EQ(count, 1u);
  ctl.Bye();
}

TEST_F(NetIntegrationTest, ParkedCallOutlivingReconnectWindowSurvivesCrash) {
  // A blocking in may sit parked server-side far longer than the reconnect
  // window before the server crashes. The window must be anchored at the
  // transport failure, not at call entry — otherwise the call returns
  // kUnreachable without a single reconnect attempt.
  const pid_t child = ForkChild([&] {
    RemoteSpaceOptions opts = ClientOptions(2);
    opts.reconnect_timeout_s = 1.5;
    RemoteTupleSpace worker(opts);
    if (!worker.Connect()) return 10;
    Tuple tuple;
    if (worker.In(MakeTemplate(A("late"), F(ValueType::kInt)),
                  /*blocking=*/true, /*remove=*/true,
                  &tuple) != CallStatus::kOk) {
      return 11;
    }
    return GetInt(tuple, 1) == 9 ? 0 : 12;
  });
  ASSERT_GT(child, 0);

  // Let the child stay parked well past its 1.5s reconnect window, then
  // SIGKILL the server and restart it on the same state directory.
  std::this_thread::sleep_for(std::chrono::milliseconds(2500));
  StopServer();
  StartServer();

  RemoteTupleSpace ctl(ClientOptions(-1));
  ASSERT_TRUE(ctl.Connect());
  ASSERT_EQ(ctl.Out(MakeTuple("late", 9)), CallStatus::kOk);
  ExitInfo info;
  ASSERT_TRUE(WaitForExit(child, 15.0, &info));
  EXPECT_TRUE(info.exited);
  EXPECT_EQ(info.exit_code, 0);
  ctl.Bye();
}

TEST_F(NetIntegrationTest, TakeAllDrainSurvivesServerCrash) {
  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect());
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(client.Out(MakeTuple("res", i)), CallStatus::kOk);
  }
  RemoteTupleSpace ctl(ClientOptions(-1));
  ASSERT_TRUE(ctl.Connect());
  std::vector<Tuple> drained;
  ASSERT_EQ(ctl.TakeAll(&drained), CallStatus::kOk);
  EXPECT_EQ(drained.size(), 6u);

  // SIGKILL + restart on the same state directory: the acknowledged drain
  // must be durable — recovery must not resurrect harvested tuples.
  StopServer();
  StartServer();

  uint64_t count = 0;
  ASSERT_EQ(client.Count(MakeTemplate(A("res"), F(ValueType::kInt)), &count),
            CallStatus::kOk);
  EXPECT_EQ(count, 0u);
  std::vector<Tuple> again;
  ASSERT_EQ(ctl.TakeAll(&again), CallStatus::kOk);
  EXPECT_TRUE(again.empty());
  client.Bye();
  ctl.Bye();
}

TEST_F(NetIntegrationTest, OversizedTrafficFailsStructurallyNotAsCorruption) {
  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect());
  // A request over the frame cap must fail client-side with a structured
  // error, never reach the wire as what the server would treat as a
  // corrupt stream.
  const std::string huge(kMaxFramePayload + 1, 'x');
  EXPECT_EQ(client.Out(MakeTuple("big", huge)), CallStatus::kWireError);
  EXPECT_NE(client.last_error().find("frame payload limit"),
            std::string::npos)
      << client.last_error();

  // Tuples that fit individually but whose combined TAKEALL reply exceeds
  // the cap: the server must keep the tuples and answer a structured error
  // instead of emitting a frame the client's FrameReader rejects.
  const std::string chunk(6u << 20, 'y');
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(client.Out(MakeTuple("blob", i, chunk)), CallStatus::kOk);
  }
  RemoteTupleSpace ctl(ClientOptions(-1));
  ASSERT_TRUE(ctl.Connect());
  std::vector<Tuple> drained;
  EXPECT_EQ(ctl.TakeAll(&drained), CallStatus::kWireError);
  EXPECT_NE(ctl.last_error().find("frame payload limit"), std::string::npos)
      << ctl.last_error();
  uint64_t count = 0;
  ASSERT_EQ(client.Count(MakeTemplate(A("blob"), F(ValueType::kInt),
                                      F(ValueType::kString)),
                         &count),
            CallStatus::kOk);
  EXPECT_EQ(count, 3u);
  client.Bye();
  ctl.Bye();
}

// ---------------------------------------------------------------------------
// kBatch: codec round trips, fuzz, and batched/pipelined client traffic
// ---------------------------------------------------------------------------

Request SampleBatchRequest() {
  Request request;
  request.op = Op::kBatch;
  request.pid = 4;
  request.incarnation = 1;
  request.seq = 9;
  BatchOp out;
  out.op = Op::kOut;
  out.tuple = MakeTuple("a", 1, 2.5);
  BatchOp take;
  take.op = Op::kIn;
  take.flags = kInRemove;
  take.tmpl = MakeTemplate(A("a"), F(ValueType::kInt), F(ValueType::kDouble));
  request.batch = {out, take};
  return request;
}

Reply SampleBatchReply() {
  Reply reply;
  reply.status = WireStatus::kOk;
  reply.batch_frames = 3;
  reply.batched_ops = 12;
  BatchItem published;  // out applied: kOk, no tuple
  BatchItem hit;
  hit.has_tuple = true;
  hit.tuple = MakeTuple("hit", 2);
  BatchItem miss;
  miss.status = WireStatus::kNotFound;
  reply.items = {published, hit, miss};
  return reply;
}

LogEntry SampleBatchLogEntry() {
  LogEntry entry;
  entry.kind = LogKind::kBatch;
  entry.pid = 2;
  entry.incarnation = 3;
  entry.seq = 17;
  BatchEffect published;
  published.kind = BatchEffectKind::kPublished;
  published.tuple = MakeTuple("pub", 1);
  BatchEffect took;
  took.kind = BatchEffectKind::kTook;
  took.in_txn = true;
  took.tuple = MakeTuple("gone", 2.5);
  BatchEffect read;
  read.kind = BatchEffectKind::kRead;
  read.tuple = MakeTuple("seen", "s");
  BatchEffect miss;
  miss.kind = BatchEffectKind::kMiss;
  entry.effects = {published, took, read, miss};
  return entry;
}

TEST(WireCodecTest, BatchRequestRoundTrip) {
  const Request request = SampleBatchRequest();
  std::string error;
  Request back;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(request), &back, &error)) << error;
  EXPECT_EQ(back.op, Op::kBatch);
  EXPECT_EQ(back.pid, request.pid);
  EXPECT_EQ(back.seq, request.seq);
  ASSERT_EQ(back.batch.size(), 2u);
  EXPECT_EQ(back.batch[0].op, Op::kOut);
  EXPECT_EQ(back.batch[0].tuple, request.batch[0].tuple);
  EXPECT_EQ(back.batch[1].op, Op::kIn);
  EXPECT_EQ(back.batch[1].flags, kInRemove);
  EXPECT_TRUE(Matches(back.batch[1].tmpl, MakeTuple("a", 7, 1.5)));
}

TEST(WireCodecTest, BatchReplyRoundTrip) {
  const Reply reply = SampleBatchReply();
  std::string error;
  Reply back;
  ASSERT_TRUE(DecodeReply(EncodeReply(reply), &back, &error)) << error;
  EXPECT_EQ(back.batch_frames, 3u);
  EXPECT_EQ(back.batched_ops, 12u);
  ASSERT_EQ(back.items.size(), 3u);
  EXPECT_EQ(back.items[0].status, WireStatus::kOk);
  EXPECT_FALSE(back.items[0].has_tuple);
  ASSERT_TRUE(back.items[1].has_tuple);
  EXPECT_EQ(back.items[1].tuple, reply.items[1].tuple);
  EXPECT_EQ(back.items[2].status, WireStatus::kNotFound);
}

TEST(WireCodecTest, BatchLogEntryRoundTrip) {
  const LogEntry entry = SampleBatchLogEntry();
  std::string error;
  LogEntry back;
  ASSERT_TRUE(DecodeLogEntry(EncodeLogEntry(entry), &back, &error)) << error;
  EXPECT_EQ(back.kind, LogKind::kBatch);
  EXPECT_EQ(back.seq, entry.seq);
  ASSERT_EQ(back.effects.size(), 4u);
  EXPECT_EQ(back.effects[0].kind, BatchEffectKind::kPublished);
  EXPECT_EQ(back.effects[0].tuple, entry.effects[0].tuple);
  EXPECT_EQ(back.effects[1].kind, BatchEffectKind::kTook);
  EXPECT_TRUE(back.effects[1].in_txn);
  EXPECT_EQ(back.effects[2].kind, BatchEffectKind::kRead);
  EXPECT_EQ(back.effects[3].kind, BatchEffectKind::kMiss);
}

TEST(WireFuzzTest, BatchFrameEveryTruncationFailsCleanly) {
  // Same contract as the non-batch truncation sweep: a strict prefix of a
  // valid kBatch encoding must decode to a structured error (false + a
  // non-empty message), never succeed or crash.
  const std::string encodings[] = {
      EncodeRequest(SampleBatchRequest()),
      EncodeReply(SampleBatchReply()),
      EncodeLogEntry(SampleBatchLogEntry()),
  };
  for (const std::string& full : encodings) {
    for (size_t len = 0; len < full.size(); ++len) {
      const std::string_view prefix(full.data(), len);
      std::string error;
      Request request;
      Reply reply;
      LogEntry entry;
      EXPECT_FALSE(DecodeRequest(prefix, &request, &error)) << len;
      EXPECT_FALSE(error.empty()) << len;
      error.clear();
      EXPECT_FALSE(DecodeReply(prefix, &reply, &error)) << len;
      EXPECT_FALSE(error.empty()) << len;
      error.clear();
      EXPECT_FALSE(DecodeLogEntry(prefix, &entry, &error)) << len;
      EXPECT_FALSE(error.empty()) << len;
    }
  }
}

TEST(WireFuzzTest, BatchFrameBitFlipsFailStructurallyOrDecode) {
  uint64_t state = 0x2545f4914f6cdd1dull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const std::string seeds[] = {
      EncodeRequest(SampleBatchRequest()),
      EncodeReply(SampleBatchReply()),
      EncodeLogEntry(SampleBatchLogEntry()),
  };
  for (int round = 0; round < 600; ++round) {
    std::string mutated = seeds[next() % 3];
    const int flips = 1 + static_cast<int>(next() % 3);
    for (int f = 0; f < flips; ++f) {
      mutated[next() % mutated.size()] ^=
          static_cast<char>(1u << (next() % 8));
    }
    std::string error;
    Request request;
    Reply reply;
    LogEntry entry;
    // A flip may happen to produce another valid encoding; what it must
    // never produce is a decoder that fails without an error message (or
    // crashes — the sanitizer legs watch that half).
    if (!DecodeRequest(mutated, &request, &error)) {
      EXPECT_FALSE(error.empty());
    }
    error.clear();
    if (!DecodeReply(mutated, &reply, &error)) {
      EXPECT_FALSE(error.empty());
    }
    error.clear();
    if (!DecodeLogEntry(mutated, &entry, &error)) {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST_F(NetIntegrationTest, BatchedOpsApplyInOrderWithPerOpResults) {
  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect());
  const uint64_t before = client.rpc_round_trips();
  const Template query = MakeTemplate(A("t"), F(ValueType::kInt));
  ASSERT_EQ(client.BatchOut(MakeTuple("t", 1)), CallStatus::kOk);
  ASSERT_EQ(client.BatchOut(MakeTuple("t", 2)), CallStatus::kOk);
  // Sub-ops resolve sequentially server-side: the take sees the batch's own
  // outs and removes the oldest; the read then sees the survivor.
  ASSERT_EQ(client.BatchIn(query, /*remove=*/true), CallStatus::kOk);
  ASSERT_EQ(client.BatchIn(query, /*remove=*/false), CallStatus::kOk);
  ASSERT_EQ(client.BatchIn(MakeTemplate(A("absent")), /*remove=*/true),
            CallStatus::kOk);
  std::vector<BatchItem> items;
  ASSERT_EQ(client.Flush(&items), CallStatus::kOk);
  ASSERT_EQ(items.size(), 5u);
  EXPECT_EQ(items[0].status, WireStatus::kOk);
  EXPECT_FALSE(items[0].has_tuple);
  ASSERT_TRUE(items[2].has_tuple);
  EXPECT_EQ(GetInt(items[2].tuple, 1), 1);
  ASSERT_TRUE(items[3].has_tuple);
  EXPECT_EQ(GetInt(items[3].tuple, 1), 2);
  EXPECT_EQ(items[4].status, WireStatus::kNotFound);
  // The whole five-op batch cost one round trip.
  EXPECT_EQ(client.rpc_round_trips() - before, 1u);
  uint64_t count = 0;
  ASSERT_EQ(client.Count(query, &count), CallStatus::kOk);
  EXPECT_EQ(count, 1u);
  client.Bye();
}

TEST_F(NetIntegrationTest, DeferredTxnFramesRideWithTheNextBlockingCall) {
  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect());
  ASSERT_EQ(client.Out(MakeTuple("job", 5)), CallStatus::kOk);

  const uint64_t before = client.rpc_round_trips();
  // The worker steady state: [xcommit, xstart, blocking in] as one flush.
  ASSERT_EQ(client.DeferXStart(), CallStatus::kOk);
  Tuple task;
  ASSERT_EQ(client.In(MakeTemplate(A("job"), F(ValueType::kInt)),
                      /*blocking=*/true, /*remove=*/true, &task),
            CallStatus::kOk);
  EXPECT_EQ(GetInt(task, 1), 5);
  ASSERT_EQ(client.DeferXCommit({MakeTuple("res", 6)}, true,
                                MakeTuple("cont", 1)),
            CallStatus::kOk);
  ASSERT_EQ(client.DeferXStart(), CallStatus::kOk);
  ASSERT_EQ(client.In(MakeTemplate(A("res"), F(ValueType::kInt)),
                      /*blocking=*/true, /*remove=*/true, &task),
            CallStatus::kOk);
  EXPECT_EQ(GetInt(task, 1), 6);
  // Two flushes total: [xstart, in] and [xcommit, xstart, in].
  EXPECT_EQ(client.rpc_round_trips() - before, 2u);
  ASSERT_EQ(client.XAbort(), CallStatus::kOk);
  Tuple cont;
  ASSERT_EQ(client.XRecover(&cont), CallStatus::kOk);
  EXPECT_EQ(GetInt(cont, 1), 1);
  client.Bye();
}

TEST_F(NetIntegrationTest, QueuedFramesSurviveAServerRestartBeforeFlush) {
  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect());
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(client.BatchOut(MakeTuple("p", i)), CallStatus::kOk);
  }
  // Nothing has touched the wire yet; kill and restart the server, then
  // flush — the client reconnects and the batch applies exactly once.
  StopServer();
  StartServer();
  std::vector<BatchItem> items;
  ASSERT_EQ(client.Flush(&items), CallStatus::kOk);
  ASSERT_EQ(items.size(), 3u);
  uint64_t count = 0;
  ASSERT_EQ(client.Count(MakeTemplate(A("p"), F(ValueType::kInt)), &count),
            CallStatus::kOk);
  EXPECT_EQ(count, 3u);
  client.Bye();
}

TEST_F(NetIntegrationTest, BatchRetryIsServedFromTheDedupWindow) {
  RemoteTupleSpace ctl(ClientOptions(-1));
  ASSERT_TRUE(ctl.Connect());

  RawClient worker(sopts_.endpoint);
  ASSERT_TRUE(worker.ok());
  Reply reply;
  Request hello;
  hello.op = Op::kHello;
  hello.pid = 6;
  ASSERT_TRUE(worker.Send(hello));
  ASSERT_TRUE(worker.Receive(&reply));

  Request batch;
  batch.op = Op::kBatch;
  batch.pid = 6;
  batch.seq = 1;
  BatchOp out;
  out.op = Op::kOut;
  out.tuple = MakeTuple("d", 1);
  BatchOp take;
  take.op = Op::kIn;
  take.flags = kInRemove;
  take.tmpl = MakeTemplate(A("d"), F(ValueType::kInt));
  batch.batch = {out, take};
  ASSERT_TRUE(worker.Send(batch));
  Reply first;
  ASSERT_TRUE(worker.Receive(&first));
  ASSERT_EQ(first.status, WireStatus::kOk);
  ASSERT_EQ(first.items.size(), 2u);
  ASSERT_TRUE(first.items[1].has_tuple);

  // The identical frame again, as a post-crash resend would: the cached
  // reply comes back and the out is NOT re-applied.
  ASSERT_TRUE(worker.Send(batch));
  Reply second;
  ASSERT_TRUE(worker.Receive(&second));
  EXPECT_EQ(second.status, WireStatus::kOk);
  ASSERT_EQ(second.items.size(), 2u);
  EXPECT_TRUE(second.items[1].has_tuple);
  EXPECT_EQ(second.items[1].tuple, first.items[1].tuple);
  uint64_t count = 0;
  ASSERT_EQ(ctl.Count(MakeTemplate(A("d"), F(ValueType::kInt)), &count),
            CallStatus::kOk);
  EXPECT_EQ(count, 0u);
  ctl.Bye();
}

TEST_F(NetIntegrationTest, BlockingSubOpInABatchIsAStructuredError) {
  RawClient worker(sopts_.endpoint);
  ASSERT_TRUE(worker.ok());
  Reply reply;
  Request hello;
  hello.op = Op::kHello;
  hello.pid = 7;
  ASSERT_TRUE(worker.Send(hello));
  ASSERT_TRUE(worker.Receive(&reply));

  Request batch;
  batch.op = Op::kBatch;
  batch.pid = 7;
  batch.seq = 1;
  BatchOp park;
  park.op = Op::kIn;
  park.flags = kInRemove | kInBlocking;
  park.tmpl = MakeTemplate(A("never"));
  batch.batch = {park};
  ASSERT_TRUE(worker.Send(batch));
  ASSERT_TRUE(worker.Receive(&reply));
  EXPECT_EQ(reply.status, WireStatus::kError);
  EXPECT_NE(reply.error.find("blocking"), std::string::npos) << reply.error;
}

TEST_F(NetIntegrationTest, AsyncStatusPollAndSingleRoundTripHarvest) {
  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect());
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(client.Out(MakeTuple("h", i)), CallStatus::kOk);
  }
  RemoteTupleSpace ctl(ClientOptions(-1));
  ASSERT_TRUE(ctl.Connect());

  ASSERT_EQ(ctl.BeginStatus(), CallStatus::kOk);
  EXPECT_TRUE(ctl.status_inflight());
  Reply status;
  CallStatus polled = CallStatus::kPending;
  for (int i = 0; i < 2000 && polled == CallStatus::kPending; ++i) {
    polled = ctl.PollStatus(&status);
    if (polled == CallStatus::kPending) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_EQ(polled, CallStatus::kOk);
  EXPECT_FALSE(ctl.status_inflight());
  EXPECT_GT(status.publish_epoch, 0u);

  // A synchronous call while a status poll is in flight drains the stale
  // reply first, so replies never cross streams.
  ASSERT_EQ(ctl.BeginStatus(), CallStatus::kOk);
  uint64_t count = 0;
  ASSERT_EQ(ctl.Count(MakeTemplate(A("h"), F(ValueType::kInt)), &count),
            CallStatus::kOk);
  EXPECT_EQ(count, 4u);
  EXPECT_FALSE(ctl.status_inflight());

  const uint64_t before = ctl.rpc_round_trips();
  Reply stats;
  std::vector<Tuple> drained;
  ASSERT_EQ(ctl.Harvest(&stats, &drained), CallStatus::kOk);
  EXPECT_EQ(drained.size(), 4u);
  EXPECT_GE(stats.tuple_ops, 4u);
  EXPECT_EQ(ctl.rpc_round_trips() - before, 1u);
  ASSERT_EQ(ctl.Count(MakeTemplate(A("h"), F(ValueType::kInt)), &count),
            CallStatus::kOk);
  EXPECT_EQ(count, 0u);
  client.Bye();
  ctl.Bye();
}

TEST_F(NetIntegrationTest, ChaosPartitionFireAndPollCutsAndHeals) {
  // Chaos cut/heal rides the fire-and-poll control pair, never a blocking
  // call: a chaos supervisor must stay responsive even when the victim
  // died an instant before the fault fires (its pre-bound listener would
  // park a blocking caller in an undrained accept backlog forever).
  RemoteTupleSpace ctl(ClientOptions(-1));
  ASSERT_TRUE(ctl.Connect());

  auto poll_ack = [&](const char* what) {
    Reply reply;
    CallStatus polled = CallStatus::kPending;
    for (int i = 0; i < 2000 && polled == CallStatus::kPending; ++i) {
      polled = ctl.PollStatus(&reply);
      if (polled == CallStatus::kPending) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ASSERT_EQ(polled, CallStatus::kOk) << what;
    EXPECT_FALSE(ctl.status_inflight()) << what;
  };

  ASSERT_EQ(ctl.BeginChaosPartition(true), CallStatus::kOk);
  EXPECT_TRUE(ctl.status_inflight());
  {
    SCOPED_TRACE("cut");
    poll_ack("cut");
  }

  // The control channel is the out-of-band path: it keeps serving while
  // every registered-client and peer frame is blackholed.
  uint64_t count = 123;
  ASSERT_EQ(ctl.Count(MakeTemplate(A("cp"), F(ValueType::kInt)), &count),
            CallStatus::kOk);
  EXPECT_EQ(count, 0u);

  ASSERT_EQ(ctl.BeginChaosPartition(false), CallStatus::kOk);
  {
    SCOPED_TRACE("heal");
    poll_ack("heal");
  }

  // Healed: a registered client registers and publishes normally again.
  RemoteTupleSpace client(ClientOptions(21));
  ASSERT_TRUE(client.Connect());
  ASSERT_EQ(client.Out(MakeTuple("cp", 1)), CallStatus::kOk);
  ASSERT_EQ(ctl.Count(MakeTemplate(A("cp"), F(ValueType::kInt)), &count),
            CallStatus::kOk);
  EXPECT_EQ(count, 1u);
  client.Bye();
  ctl.Bye();
}

TEST_F(NetIntegrationTest, OversizedBatchSealsAndFlushesAutomatically) {
  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect());
  // Well past kMaxBatchOps (1024): the client must seal full frames and
  // flush inline when the queue deepens, without the caller noticing.
  constexpr int kOps = 2600;
  for (int i = 0; i < kOps; ++i) {
    ASSERT_EQ(client.BatchOut(MakeTuple("bulk", i)), CallStatus::kOk);
  }
  ASSERT_EQ(client.Flush(), CallStatus::kOk);
  EXPECT_GE(client.batch_frames_sent(), 3u);
  EXPECT_EQ(client.batched_ops_sent(), static_cast<uint64_t>(kOps));
  uint64_t count = 0;
  ASSERT_EQ(client.Count(MakeTemplate(A("bulk"), F(ValueType::kInt)), &count),
            CallStatus::kOk);
  EXPECT_EQ(count, static_cast<uint64_t>(kOps));
  client.Bye();
}

TEST_F(NetIntegrationTest, BatchedMutationsSurviveServerCrashRecovery) {
  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect());
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(client.BatchOut(MakeTuple("keep", i)), CallStatus::kOk);
  }
  ASSERT_EQ(client.BatchIn(MakeTemplate(A("keep"), A(int64_t{0})),
                           /*remove=*/true),
            CallStatus::kOk);
  ASSERT_EQ(client.Flush(), CallStatus::kOk);
  // The batch was one WAL record; recovery must replay it exactly once.
  StopServer();
  StartServer();
  uint64_t count = 0;
  ASSERT_EQ(client.Count(MakeTemplate(A("keep"), F(ValueType::kInt)), &count),
            CallStatus::kOk);
  EXPECT_EQ(count, 7u);
  client.Bye();
}

// ---------------------------------------------------------------------------
// kDistributed runtime end to end (forked workers + server process)
// ---------------------------------------------------------------------------

RuntimeOptions DistOptions() {
  RuntimeOptions options;
  options.mode = ExecutionMode::kDistributed;
  return options;
}

TEST(DistributedRuntimeTest, ProducerConsumerAcrossProcesses) {
  Runtime runtime(2, DistOptions());
  runtime.SpawnOn("producer", 0, [](ProcessContext& ctx) {
    for (int i = 0; i < 5; ++i) ctx.Out(MakeTuple("n", i));
    ctx.Compute(5.0);
  });
  runtime.SpawnOn("consumer", 1, [](ProcessContext& ctx) {
    int64_t sum = 0;
    for (int i = 0; i < 5; ++i) {
      Tuple tuple;
      ctx.In(MakeTemplate(A("n"), F(ValueType::kInt)), &tuple);
      sum += GetInt(tuple, 1);
    }
    ctx.Out(MakeTuple("sum", sum));
  });
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
  // The processes shared no memory: the sum must have travelled through
  // the server and drained back into the local space.
  Tuple tuple;
  ASSERT_TRUE(
      runtime.space().TryIn(MakeTemplate(A("sum"), F(ValueType::kInt)),
                            &tuple));
  EXPECT_EQ(GetInt(tuple, 1), 10);
  EXPECT_GT(runtime.stats().tuple_ops, 0u);
  EXPECT_EQ(runtime.stats().total_work, 5.0);
  EXPECT_GE(runtime.wall_time(), 0.0);
}

TEST(DistributedRuntimeTest, DeadlockIsDetectedAndDiagnosed) {
  Runtime runtime(1, DistOptions());
  runtime.SpawnOn("stuck", 0, [](ProcessContext& ctx) {
    Tuple tuple;
    ctx.In(MakeTemplate(A("never-published")), &tuple);
  });
  EXPECT_FALSE(runtime.Run());
  EXPECT_TRUE(runtime.deadlocked());
  EXPECT_NE(runtime.diagnostic().find("blocked on"), std::string::npos)
      << runtime.diagnostic();
}

TEST(DistributedRuntimeTest, SpawnInsideAProcessIsReported) {
  Runtime runtime(1, DistOptions());
  runtime.SpawnOn("spawner", 0, [](ProcessContext& ctx) {
    ctx.Spawn("late", [](ProcessContext&) {});
  });
  EXPECT_FALSE(runtime.Run());
  ASSERT_FALSE(runtime.errors().empty());
  EXPECT_EQ(runtime.errors()[0].code,
            RuntimeError::Code::kDistributedSpawnUnsupported);
}

TEST(DistributedRuntimeTest, ProtocolMisuseIsReportedNotSwallowed) {
  Runtime runtime(1, DistOptions());
  runtime.SpawnOn("misuser", 0, [](ProcessContext& ctx) {
    ctx.XCommit();  // no transaction open
  });
  EXPECT_FALSE(runtime.Run());
  ASSERT_FALSE(runtime.errors().empty());
  EXPECT_EQ(runtime.errors()[0].code,
            RuntimeError::Code::kXCommitWithoutXStart);
}

TEST(DistributedRuntimeTest, OverlongSocketPathFailsStructurally) {
  // A long distributed_dir would silently truncate into sockaddr_un's
  // sun_path (108 bytes on Linux); the runtime must detect it up front and
  // fail with a structured, actionable error instead of binding a socket
  // at a mangled path.
  RuntimeOptions options = DistOptions();
  options.distributed_dir = "/tmp/" + std::string(200, 'x');
  Runtime runtime(1, options);
  runtime.SpawnOn("idle", 0, [](ProcessContext&) {});
  EXPECT_FALSE(runtime.Run());
  ASSERT_FALSE(runtime.errors().empty());
  EXPECT_EQ(runtime.errors()[0].code, RuntimeError::Code::kBadSocketPath);
  EXPECT_NE(runtime.errors()[0].detail.find("sun_path"), std::string::npos)
      << runtime.errors()[0].detail;
  EXPECT_NE(runtime.errors()[0].detail.find("distributed_dir"),
            std::string::npos)
      << runtime.errors()[0].detail;
}

// ---------------------------------------------------------------------------
// Multi-server placement (PR 5): codec round trips, fuzzing of the HELLO
// placement map and the forwarding/gather encodings, and live scatter/gather
// against three real shard servers.
// ---------------------------------------------------------------------------

Reply SamplePlacementReply() {
  Reply reply;
  reply.status = WireStatus::kOk;
  reply.placement = {"/tmp/fpdm/s0.sock", "/tmp/fpdm/s1.sock",
                     "/tmp/fpdm/s2.sock"};
  reply.cont_stamp = (uint64_t{3} << 32) | 17;
  reply.forwards_pending = 5;
  return reply;
}

/// Placement vector as the TCP transport publishes it: full endpoint
/// strings with scheme + kernel-assigned ports. The placement entries are
/// opaque bytes to the codec, but the fuzzers below must chew on the real
/// shapes clients will decode.
Reply SampleTcpPlacementReply() {
  Reply reply;
  reply.status = WireStatus::kOk;
  reply.placement = {"tcp:127.0.0.1:41873", "tcp:127.0.0.1:35262",
                     "tcp:10.0.0.7:6001"};
  reply.cont_stamp = (uint64_t{9} << 32) | 3;
  reply.forwards_pending = 1;
  return reply;
}

Request SampleForwardRequest() {
  Request request;
  request.op = Op::kForward;
  request.pid = 1;  // source server index
  request.seq = 42;  // per-(source, target) forward sequence
  request.outs = {MakeTuple("fwd", 1), MakeTuple("fwd", 2, 2.5)};
  return request;
}

LogEntry SampleForwardLogEntry() {
  LogEntry entry;
  entry.kind = LogKind::kForward;
  entry.pid = 2;  // source server index
  entry.seq = 9;  // forward-sequence watermark value
  entry.outs = {MakeTuple("fwd", 7, "payload")};
  return entry;
}

// --- 2PC frames: PREPARE / DECIDE / TXN_QUERY + their WAL records ---------

Request SamplePrepareRequest() {
  Request request;
  request.op = Op::kPrepare;
  request.pid = 0;   // coordinator server index
  request.seq = 11;  // forward sequence on the peer channel
  request.txn_pid = 4;
  request.txn_incarnation = 1;
  request.txn_seq = 23;
  return request;
}

Request SampleDecideRequest() {
  Request request;
  request.op = Op::kDecide;
  request.pid = 0;
  request.seq = 12;
  request.txn_pid = 4;
  request.txn_incarnation = 1;
  request.txn_seq = 23;
  request.decision = kTxnCommit;
  return request;
}

Request SampleTxnQueryRequest() {
  Request request;
  request.op = Op::kTxnQuery;
  request.pid = 2;   // querying participant's server index
  request.seq = 13;
  request.txn_pid = 4;
  request.txn_incarnation = 1;
  request.txn_seq = 23;
  return request;
}

Request SampleCrossServerCommitRequest() {
  Request request = SampleCommitRequest();
  request.cont_stamp = (uint64_t{2} << 32) | 41;
  request.participants = {1, 2};  // foreign shards: forces the 2PC slow path
  return request;
}

Reply SampleVoteReply() {
  Reply reply;
  reply.status = WireStatus::kOk;
  reply.vote = kVotePrepared;
  reply.decision = kTxnAbort;
  reply.txn_prepares = 6;
  reply.txn_cross_server = 3;
  return reply;
}

LogEntry SampleXPrepareLogEntry() {
  LogEntry entry;
  entry.kind = LogKind::kXPrepare;
  entry.pid = 4;
  entry.incarnation = 1;
  entry.seq = 23;
  entry.outs = {MakeTuple("result", 8)};
  entry.has_continuation = true;
  entry.continuation = MakeTuple("cont", 5);
  entry.cont_stamp = (uint64_t{1} << 32) | 7;
  entry.participants = {1, 2};
  return entry;
}

LogEntry SamplePreparedLogEntry() {
  LogEntry entry;
  entry.kind = LogKind::kPrepared;
  entry.pid = 4;
  entry.incarnation = 1;
  entry.seq = 23;
  entry.peer = 0;   // coordinator server index
  entry.fseq = 11;  // watermark the PREPARE advanced
  entry.decision = kVotePrepared;
  return entry;
}

LogEntry SampleDecideLogEntry() {
  LogEntry entry;
  entry.kind = LogKind::kDecide;
  entry.pid = 4;
  entry.incarnation = 1;
  entry.seq = 23;
  entry.peer = 0;
  entry.fseq = 12;
  entry.decision = kTxnCommit;
  return entry;
}

TEST(WireCodecTest, TwoPhaseCommitFramesRoundTrip) {
  std::string error;
  Request prep_back;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(SamplePrepareRequest()), &prep_back,
                            &error))
      << error;
  EXPECT_EQ(prep_back.op, Op::kPrepare);
  EXPECT_EQ(prep_back.txn_pid, 4);
  EXPECT_EQ(prep_back.txn_incarnation, 1);
  EXPECT_EQ(prep_back.txn_seq, 23u);

  Request dec_back;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(SampleDecideRequest()), &dec_back,
                            &error))
      << error;
  EXPECT_EQ(dec_back.op, Op::kDecide);
  EXPECT_EQ(dec_back.decision, kTxnCommit);

  Request query_back;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(SampleTxnQueryRequest()),
                            &query_back, &error))
      << error;
  EXPECT_EQ(query_back.op, Op::kTxnQuery);
  EXPECT_EQ(query_back.txn_seq, 23u);

  const Request commit = SampleCrossServerCommitRequest();
  Request commit_back;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(commit), &commit_back, &error))
      << error;
  ASSERT_EQ(commit_back.participants.size(), 2u);
  EXPECT_EQ(commit_back.participants[0], 1u);
  EXPECT_EQ(commit_back.participants[1], 2u);

  const Reply vote = SampleVoteReply();
  Reply vote_back;
  ASSERT_TRUE(DecodeReply(EncodeReply(vote), &vote_back, &error)) << error;
  EXPECT_EQ(vote_back.vote, kVotePrepared);
  EXPECT_EQ(vote_back.decision, kTxnAbort);
  EXPECT_EQ(vote_back.txn_prepares, 6u);
  EXPECT_EQ(vote_back.txn_cross_server, 3u);

  const LogEntry xprep = SampleXPrepareLogEntry();
  LogEntry xprep_back;
  ASSERT_TRUE(DecodeLogEntry(EncodeLogEntry(xprep), &xprep_back, &error))
      << error;
  EXPECT_EQ(xprep_back.kind, LogKind::kXPrepare);
  EXPECT_EQ(xprep_back.cont_stamp, xprep.cont_stamp);
  ASSERT_EQ(xprep_back.participants.size(), 2u);
  EXPECT_EQ(xprep_back.participants[1], 2u);
  ASSERT_EQ(xprep_back.outs.size(), 1u);
  EXPECT_EQ(xprep_back.outs[0], xprep.outs[0]);

  LogEntry prepd_back;
  ASSERT_TRUE(DecodeLogEntry(EncodeLogEntry(SamplePreparedLogEntry()),
                             &prepd_back, &error))
      << error;
  EXPECT_EQ(prepd_back.kind, LogKind::kPrepared);
  EXPECT_EQ(prepd_back.peer, 0);
  EXPECT_EQ(prepd_back.fseq, 11u);
  EXPECT_EQ(prepd_back.decision, kVotePrepared);

  LogEntry decide_back;
  ASSERT_TRUE(DecodeLogEntry(EncodeLogEntry(SampleDecideLogEntry()),
                             &decide_back, &error))
      << error;
  EXPECT_EQ(decide_back.kind, LogKind::kDecide);
  EXPECT_EQ(decide_back.fseq, 12u);
  EXPECT_EQ(decide_back.decision, kTxnCommit);
}

TEST(WireFuzzTest, TwoPhaseCommitEveryTruncationFailsCleanly) {
  // Same guarantee the placement/forward frames carry: a truncated 2PC
  // frame must fail structurally on every prefix — never decode short,
  // never crash (the sanitizer legs watch the no-UB half).
  const std::string encodings[] = {
      EncodeRequest(SamplePrepareRequest()),
      EncodeRequest(SampleDecideRequest()),
      EncodeRequest(SampleTxnQueryRequest()),
      EncodeRequest(SampleCrossServerCommitRequest()),
      EncodeReply(SampleVoteReply()),
      EncodeLogEntry(SampleXPrepareLogEntry()),
      EncodeLogEntry(SamplePreparedLogEntry()),
      EncodeLogEntry(SampleDecideLogEntry()),
  };
  for (const std::string& full : encodings) {
    for (size_t len = 0; len < full.size(); ++len) {
      const std::string_view prefix(full.data(), len);
      std::string error;
      Request request;
      Reply reply;
      LogEntry entry;
      EXPECT_FALSE(DecodeRequest(prefix, &request, &error)) << len;
      EXPECT_FALSE(error.empty()) << len;
      error.clear();
      EXPECT_FALSE(DecodeReply(prefix, &reply, &error)) << len;
      EXPECT_FALSE(error.empty()) << len;
      error.clear();
      EXPECT_FALSE(DecodeLogEntry(prefix, &entry, &error)) << len;
      EXPECT_FALSE(error.empty()) << len;
    }
  }
}

TEST(WireFuzzTest, TwoPhaseCommitBitFlipsFailStructurallyOrDecode) {
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const std::string seeds[] = {
      EncodeRequest(SamplePrepareRequest()),
      EncodeRequest(SampleDecideRequest()),
      EncodeRequest(SampleTxnQueryRequest()),
      EncodeRequest(SampleCrossServerCommitRequest()),
      EncodeReply(SampleVoteReply()),
      EncodeLogEntry(SampleXPrepareLogEntry()),
      EncodeLogEntry(SamplePreparedLogEntry()),
      EncodeLogEntry(SampleDecideLogEntry()),
  };
  for (int round = 0; round < 800; ++round) {
    std::string mutated = seeds[next() % 8];
    const int flips = 1 + static_cast<int>(next() % 3);
    for (int f = 0; f < flips; ++f) {
      mutated[next() % mutated.size()] ^=
          static_cast<char>(1u << (next() % 8));
    }
    std::string error;
    Request request;
    Reply reply;
    LogEntry entry;
    // A flip may still be a valid encoding; a failure must always carry a
    // structured error.
    if (!DecodeRequest(mutated, &request, &error)) {
      EXPECT_FALSE(error.empty());
    }
    error.clear();
    if (!DecodeReply(mutated, &reply, &error)) {
      EXPECT_FALSE(error.empty());
    }
    error.clear();
    if (!DecodeLogEntry(mutated, &entry, &error)) {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST(WireCodecTest, HelloPlacementReplyRoundTrip) {
  const Reply reply = SamplePlacementReply();
  std::string error;
  Reply back;
  ASSERT_TRUE(DecodeReply(EncodeReply(reply), &back, &error)) << error;
  ASSERT_EQ(back.placement.size(), 3u);
  EXPECT_EQ(back.placement[0], reply.placement[0]);
  EXPECT_EQ(back.placement[2], reply.placement[2]);
  EXPECT_EQ(back.cont_stamp, reply.cont_stamp);
  EXPECT_EQ(back.forwards_pending, reply.forwards_pending);
}

TEST(WireCodecTest, ForwardAndContStampRoundTrip) {
  std::string error;
  // Server-to-server forward request: source index + fseq + the out group.
  const Request fwd = SampleForwardRequest();
  Request fwd_back;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(fwd), &fwd_back, &error)) << error;
  EXPECT_EQ(fwd_back.op, Op::kForward);
  EXPECT_EQ(fwd_back.pid, 1);
  EXPECT_EQ(fwd_back.seq, 42u);
  ASSERT_EQ(fwd_back.outs.size(), 2u);
  EXPECT_EQ(fwd_back.outs[1], fwd.outs[1]);

  // Unpark carries no payload beyond the op itself.
  Request unpark;
  unpark.op = Op::kUnpark;
  unpark.pid = 3;
  Request unpark_back;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(unpark), &unpark_back, &error))
      << error;
  EXPECT_EQ(unpark_back.op, Op::kUnpark);

  // The commit's continuation recency stamp survives the request codec...
  Request commit;
  commit.op = Op::kXCommit;
  commit.pid = 4;
  commit.seq = 7;
  commit.has_continuation = true;
  commit.continuation = MakeTuple("progress", 3);
  commit.cont_stamp = (uint64_t{2} << 32) | 11;
  Request commit_back;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(commit), &commit_back, &error))
      << error;
  EXPECT_EQ(commit_back.cont_stamp, commit.cont_stamp);

  // ...and the WAL codec, for both the commit and the applied forward.
  LogEntry centry;
  centry.kind = LogKind::kCommit;
  centry.pid = 4;
  centry.seq = 7;
  centry.has_continuation = true;
  centry.continuation = MakeTuple("progress", 3);
  centry.cont_stamp = commit.cont_stamp;
  LogEntry centry_back;
  ASSERT_TRUE(DecodeLogEntry(EncodeLogEntry(centry), &centry_back, &error))
      << error;
  EXPECT_EQ(centry_back.cont_stamp, centry.cont_stamp);

  const LogEntry fentry = SampleForwardLogEntry();
  LogEntry fentry_back;
  ASSERT_TRUE(DecodeLogEntry(EncodeLogEntry(fentry), &fentry_back, &error))
      << error;
  EXPECT_EQ(fentry_back.kind, LogKind::kForward);
  EXPECT_EQ(fentry_back.pid, 2);
  EXPECT_EQ(fentry_back.seq, 9u);
  ASSERT_EQ(fentry_back.outs.size(), 1u);
  EXPECT_EQ(fentry_back.outs[0], fentry.outs[0]);
}

TEST(WireFuzzTest, PlacementAndForwardEveryTruncationFailsCleanly) {
  // The multi-leg gather decodes one reply per scatter leg off the same
  // stream, so a truncated placement/gather reply must fail structurally —
  // never decode short, never crash.
  const std::string encodings[] = {
      EncodeReply(SamplePlacementReply()),
      EncodeReply(SampleTcpPlacementReply()),
      EncodeReply([] {
        Reply reply;  // a gather leg's reply: hit + recovery stamp
        reply.has_tuple = true;
        reply.tuple = MakeTuple("hit", 4);
        reply.cont_stamp = (uint64_t{1} << 32) | 2;
        return reply;
      }()),
      EncodeRequest(SampleForwardRequest()),
      EncodeLogEntry(SampleForwardLogEntry()),
  };
  for (const std::string& full : encodings) {
    for (size_t len = 0; len < full.size(); ++len) {
      const std::string_view prefix(full.data(), len);
      std::string error;
      Request request;
      Reply reply;
      LogEntry entry;
      EXPECT_FALSE(DecodeRequest(prefix, &request, &error)) << len;
      EXPECT_FALSE(error.empty()) << len;
      error.clear();
      EXPECT_FALSE(DecodeReply(prefix, &reply, &error)) << len;
      EXPECT_FALSE(error.empty()) << len;
      error.clear();
      EXPECT_FALSE(DecodeLogEntry(prefix, &entry, &error)) << len;
      EXPECT_FALSE(error.empty()) << len;
    }
  }
}

TEST(WireFuzzTest, PlacementAndForwardBitFlipsFailStructurallyOrDecode) {
  uint64_t state = 0x853c49e6748fea9bull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const std::string seeds[] = {
      EncodeReply(SamplePlacementReply()),
      EncodeReply(SampleTcpPlacementReply()),
      EncodeRequest(SampleForwardRequest()),
      EncodeLogEntry(SampleForwardLogEntry()),
  };
  for (int round = 0; round < 600; ++round) {
    std::string mutated = seeds[next() % 4];
    const int flips = 1 + static_cast<int>(next() % 3);
    for (int f = 0; f < flips; ++f) {
      mutated[next() % mutated.size()] ^=
          static_cast<char>(1u << (next() % 8));
    }
    std::string error;
    Request request;
    Reply reply;
    LogEntry entry;
    // A flip may still be a valid encoding; a failure must always carry a
    // structured error (the sanitizer legs watch the no-UB half).
    if (!DecodeRequest(mutated, &request, &error)) {
      EXPECT_FALSE(error.empty());
    }
    error.clear();
    if (!DecodeReply(mutated, &reply, &error)) {
      EXPECT_FALSE(error.empty());
    }
    error.clear();
    if (!DecodeLogEntry(mutated, &entry, &error)) {
      EXPECT_FALSE(error.empty());
    }
  }
}

TEST_F(NetIntegrationTest, UnparkRetractsParkedLegAndKeepsReplyOrder) {
  // A blocking rd with no match parks server-side; Unpark must fail the
  // parked frame with kNotFound BEFORE acking the unpark itself, so a
  // gathering client sees exactly one reply per outstanding frame, in
  // frame order.
  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect());
  Request park;
  park.op = Op::kIn;
  park.flags = kInBlocking;  // rd: non-destructive park
  park.tmpl = MakeTemplate(A("never-published"), F(ValueType::kInt));
  ASSERT_EQ(client.BeginPipeline(park), CallStatus::kOk);
  ASSERT_EQ(client.Unpark(), CallStatus::kOk);
  ASSERT_EQ(client.pipeline_inflight(), 2u);
  Reply parked_reply;
  ASSERT_EQ(client.FinishPipeline(&parked_reply), CallStatus::kNotFound);
  Reply unpark_ack;
  ASSERT_EQ(client.FinishPipeline(&unpark_ack), CallStatus::kOk);
  EXPECT_EQ(client.pipeline_inflight(), 0u);
  // Unparking with nothing parked is a no-op ack, not an error.
  ASSERT_EQ(client.Unpark(), CallStatus::kOk);
  Reply idle_ack;
  EXPECT_EQ(client.FinishPipeline(&idle_ack), CallStatus::kOk);
  client.Bye();
}

class ShardedNetIntegrationTest : public ::testing::Test {
 protected:
  static constexpr size_t kServers = 3;

  void SetUp() override {
    dir_ = MakeStateDir();
    ASSERT_FALSE(dir_.empty());
    for (size_t k = 0; k < kServers; ++k) {
      placement_.push_back(dir_ + "/s" + std::to_string(k) + ".sock");
    }
    for (size_t k = 0; k < kServers; ++k) {
      SpaceServerOptions sopts;
      sopts.endpoint = placement_[k];
      sopts.state_dir = dir_ + "/state." + std::to_string(k);
      sopts.checkpoint_every_ops = 4;
      sopts.server_index = static_cast<int>(k);
      sopts.placement = placement_;
      sopts.sndbuf_bytes = SndbufBytes();
      const pid_t pid = ForkServerProcess(sopts);
      ASSERT_GT(pid, 0);
      server_pids_.push_back(pid);
    }
    for (const std::string& path : placement_) {
      ASSERT_TRUE(WaitForSocket(path, 10.0));
    }
  }

  void TearDown() override {
    for (const pid_t pid : server_pids_) {
      KillProcess(pid);
      ExitInfo info;
      WaitForExit(pid, 5.0, &info);
    }
    RemoveTree(dir_);
  }

  ShardedRemoteOptions ShardedOptions(int32_t pid, int32_t incarnation = 0) {
    ShardedRemoteOptions opts;
    opts.endpoint = placement_[0];  // bootstrap: learn the map via HELLO
    opts.pid = pid;
    opts.incarnation = incarnation;
    opts.reconnect_timeout_s = 10.0;
    return opts;
  }

  /// A key whose arity-`arity` bucket places on shard `server`.
  std::string KeyForServer(size_t server, size_t arity) {
    for (int i = 0; i < 1000; ++i) {
      const std::string key = "k" + std::to_string(i);
      const Tuple probe =
          arity == 2 ? MakeTuple(key, 0) : MakeTuple(key, 0, 0);
      if (PlacementIndex(BucketKeyFor(probe), kServers) == server) return key;
    }
    ADD_FAILURE() << "no key places on server " << server;
    return "";
  }

  /// Per-server match count, asked of each server directly over its own
  /// control connection — observes where tuples physically live.
  std::vector<uint64_t> DirectCounts(const Template& tmpl) {
    std::vector<uint64_t> counts;
    for (const std::string& path : placement_) {
      RemoteSpaceOptions opts;
      opts.endpoint = path;
      opts.pid = -1;  // control connection: no HELLO, no registration
      opts.reconnect_timeout_s = 5.0;
      RemoteTupleSpace ctl(opts);
      uint64_t count = 0;
      EXPECT_EQ(ctl.Count(tmpl, &count), CallStatus::kOk);
      counts.push_back(count);
      ctl.Bye();
    }
    return counts;
  }

  /// (PREPAREs fanned out, cross-server transactions coordinated), summed
  /// over every shard server's STATS counters.
  std::pair<uint64_t, uint64_t> SumTxnStats() {
    uint64_t prepares = 0;
    uint64_t cross = 0;
    for (const std::string& path : placement_) {
      RemoteSpaceOptions opts;
      opts.endpoint = path;
      opts.pid = -1;
      opts.reconnect_timeout_s = 5.0;
      RemoteTupleSpace ctl(opts);
      Reply stats;
      EXPECT_EQ(ctl.Stats(&stats), CallStatus::kOk);
      prepares += stats.txn_prepares;
      cross += stats.txn_cross_server;
      ctl.Bye();
    }
    return {prepares, cross};
  }

  /// Override to shrink every server socket's SO_SNDBUF (short-write
  /// stress); 0 keeps the kernel default.
  virtual int SndbufBytes() const { return 0; }

  std::string dir_;
  std::vector<std::string> placement_;
  std::vector<pid_t> server_pids_;
};

TEST_F(ShardedNetIntegrationTest, PlacementLearnedFromHelloAndOutsRouted) {
  ShardedRemoteSpace client(ShardedOptions(1));
  ASSERT_TRUE(client.Connect()) << client.last_error();
  ASSERT_EQ(client.num_servers(), kServers);

  // Publish under 12 distinct bucket keys; the client must route each out
  // to the placement owner of its bucket.
  for (int64_t i = 0; i < 12; ++i) {
    ASSERT_EQ(client.Out(MakeTuple("key" + std::to_string(i), i)),
              CallStatus::kOk);
  }
  const Template all =
      MakeTemplate(F(ValueType::kString), F(ValueType::kInt));
  // Each server physically holds exactly its placement slice.
  const std::vector<uint64_t> counts = DirectCounts(all);
  uint64_t total = 0;
  for (size_t k = 0; k < kServers; ++k) {
    uint64_t expected = 0;
    for (int64_t i = 0; i < 12; ++i) {
      const Tuple t = MakeTuple("key" + std::to_string(i), i);
      if (PlacementIndex(BucketKeyFor(t), kServers) == k) ++expected;
    }
    EXPECT_EQ(counts[k], expected) << "server " << k;
    total += counts[k];
  }
  EXPECT_EQ(total, 12u);

  // The formal-first count scatters and sums across the shards...
  uint64_t count = 0;
  ASSERT_EQ(client.Count(all, &count), CallStatus::kOk);
  EXPECT_EQ(count, 12u);

  // ...and the formal-first in drains every tuple back, wherever it lives.
  std::multiset<int64_t> got;
  for (int64_t i = 0; i < 12; ++i) {
    Tuple t;
    ASSERT_EQ(client.In(all, /*blocking=*/false, /*remove=*/true, &t),
              CallStatus::kOk)
        << i;
    got.insert(GetInt(t, 1));
  }
  for (int64_t i = 0; i < 12; ++i) EXPECT_EQ(got.count(i), 1u) << i;
  Tuple none;
  EXPECT_EQ(client.In(all, false, true, &none), CallStatus::kNotFound);
  EXPECT_GT(client.scatter_ops(), 0u);
  EXPECT_LE(client.scatter_rounds(), 4 * client.scatter_ops());
  client.Bye();
}

TEST_F(ShardedNetIntegrationTest, ForeignCommitOutsAreForwardedToOwners) {
  ShardedRemoteSpace client(ShardedOptions(2));
  ASSERT_TRUE(client.Connect()) << client.last_error();

  // Seed the task at a known shard, then consume it in a transaction: the
  // destructive in binds the txn's home to that shard.
  const std::string home_key = KeyForServer(0, 2);
  ASSERT_EQ(client.Out(MakeTuple(home_key, 7)), CallStatus::kOk);
  ASSERT_EQ(client.XStart(), CallStatus::kOk);
  Tuple task;
  ASSERT_EQ(client.In(MakeTemplate(A(home_key), F(ValueType::kInt)),
                      /*blocking=*/true, /*remove=*/true, &task),
            CallStatus::kOk);

  // Commit outs owned by every shard. The home server applies its own and
  // forwards the foreign groups over the server-to-server links.
  std::vector<Tuple> outs;
  for (size_t k = 0; k < kServers; ++k) {
    outs.push_back(MakeTuple(KeyForServer(k, 3), static_cast<int64_t>(k),
                             GetInt(task, 1)));
  }
  ASSERT_EQ(client.XCommit(outs, /*has_continuation=*/false, Tuple{}),
            CallStatus::kOk);

  // Every out is readable through the sharded client (read-your-writes
  // across the forward), and each physically lives on its bucket's owner.
  const Template res_tmpl = MakeTemplate(
      F(ValueType::kString), F(ValueType::kInt), F(ValueType::kInt));
  uint64_t count = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  do {  // forwards are applied by the owner asynchronously — poll briefly
    ASSERT_EQ(client.Count(res_tmpl, &count), CallStatus::kOk);
    if (count == kServers) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(count, kServers);
  const std::vector<uint64_t> counts = DirectCounts(res_tmpl);
  for (size_t k = 0; k < kServers; ++k) {
    EXPECT_EQ(counts[k], 1u) << "server " << k;
  }
  client.Bye();
}

TEST_F(ShardedNetIntegrationTest, CrossServerTransactionCommitsViaTwoPhase) {
  ShardedRemoteSpace client(ShardedOptions(3));
  ASSERT_TRUE(client.Connect()) << client.last_error();
  const std::string key_a = KeyForServer(0, 2);
  const std::string key_b = KeyForServer(1, 2);
  ASSERT_EQ(client.Out(MakeTuple(key_a, 1)), CallStatus::kOk);
  ASSERT_EQ(client.Out(MakeTuple(key_b, 2)), CallStatus::kOk);
  ASSERT_EQ(client.XStart(), CallStatus::kOk);
  Tuple t;
  ASSERT_EQ(client.In(MakeTemplate(A(key_a), F(ValueType::kInt)), true, true,
                      &t),
            CallStatus::kOk);
  // The second destructive in routes to a different shard than the bound
  // home: the commit below must run the 2PC slow path, not fail.
  ASSERT_EQ(client.In(MakeTemplate(A(key_b), F(ValueType::kInt)), true, true,
                      &t),
            CallStatus::kOk);
  ASSERT_EQ(client.XCommit({MakeTuple("merged", 3)},
                           /*has_continuation=*/false, Tuple{}),
            CallStatus::kOk)
      << client.last_error();

  // Both takes stuck (neither shard republished), the commit out landed.
  // The out may ride a server-to-server forward to its bucket owner, which
  // applies asynchronously — poll briefly, as the forward test does.
  const Template all =
      MakeTemplate(F(ValueType::kString), F(ValueType::kInt));
  uint64_t count = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  do {
    ASSERT_EQ(client.Count(all, &count), CallStatus::kOk);
    if (count == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(count, 1u);
  Tuple merged;
  ASSERT_EQ(client.In(MakeTemplate(A("merged"), F(ValueType::kInt)),
                      /*blocking=*/false, /*remove=*/false, &merged),
            CallStatus::kOk);

  // The fleet saw exactly one coordinated cross-server transaction, with
  // one PREPARE per foreign participant.
  const auto [prepares, cross] = SumTxnStats();
  EXPECT_EQ(cross, 1u);
  EXPECT_EQ(prepares, 1u);
  client.Bye();
}

TEST_F(ShardedNetIntegrationTest, CoordinatorOnlyCommitSkipsPrepareRound) {
  ShardedRemoteSpace client(ShardedOptions(3));
  ASSERT_TRUE(client.Connect()) << client.last_error();
  // Two destructive ins, both on shard 0: the fast path — one commit
  // record at the coordinator, no PREPARE fan-out anywhere.
  const std::string key_a = KeyForServer(0, 2);
  ASSERT_EQ(client.Out(MakeTuple(key_a, 1)), CallStatus::kOk);
  ASSERT_EQ(client.Out(MakeTuple(key_a, 2)), CallStatus::kOk);
  ASSERT_EQ(client.XStart(), CallStatus::kOk);
  Tuple t;
  ASSERT_EQ(client.In(MakeTemplate(A(key_a), A(int64_t{1})), true, true, &t),
            CallStatus::kOk);
  ASSERT_EQ(client.In(MakeTemplate(A(key_a), A(int64_t{2})), true, true, &t),
            CallStatus::kOk);
  ASSERT_EQ(client.XCommit({}, /*has_continuation=*/false, Tuple{}),
            CallStatus::kOk);
  const auto [prepares, cross] = SumTxnStats();
  EXPECT_EQ(cross, 0u);
  EXPECT_EQ(prepares, 0u);
  client.Bye();
}

TEST_F(ShardedNetIntegrationTest, CrossServerAbortRestoresEveryLeg) {
  ShardedRemoteSpace client(ShardedOptions(3));
  ASSERT_TRUE(client.Connect()) << client.last_error();
  const std::string key_a = KeyForServer(0, 2);
  const std::string key_b = KeyForServer(1, 2);
  ASSERT_EQ(client.Out(MakeTuple(key_a, 1)), CallStatus::kOk);
  ASSERT_EQ(client.Out(MakeTuple(key_b, 2)), CallStatus::kOk);
  ASSERT_EQ(client.XStart(), CallStatus::kOk);
  Tuple t;
  ASSERT_EQ(client.In(MakeTemplate(A(key_a), F(ValueType::kInt)), true, true,
                      &t),
            CallStatus::kOk);
  ASSERT_EQ(client.In(MakeTemplate(A(key_b), F(ValueType::kInt)), true, true,
                      &t),
            CallStatus::kOk);
  // Abort needs no coordination: each participant leg rolls back its own
  // tentative removals independently.
  ASSERT_EQ(client.XAbort(), CallStatus::kOk);
  uint64_t count = 0;
  ASSERT_EQ(client.Count(MakeTemplate(F(ValueType::kString),
                                      F(ValueType::kInt)),
                         &count),
            CallStatus::kOk);
  EXPECT_EQ(count, 2u);
  client.Bye();
}

TEST_F(ShardedNetIntegrationTest, DeadCoordClientInDoubtTxnAbortsOnRespawn) {
  // A client that vanishes with an OPEN cross-server transaction (commit
  // never sent) resolves through crash-abort; its respawned incarnation's
  // HELLO must find every leg rolled back.
  const std::string key_a = KeyForServer(0, 2);
  const std::string key_b = KeyForServer(1, 2);
  {
    ShardedRemoteSpace victim(ShardedOptions(6, /*incarnation=*/0));
    ASSERT_TRUE(victim.Connect()) << victim.last_error();
    ASSERT_EQ(victim.Out(MakeTuple(key_a, 1)), CallStatus::kOk);
    ASSERT_EQ(victim.Out(MakeTuple(key_b, 2)), CallStatus::kOk);
    Tuple t;
    ASSERT_EQ(victim.XStart(), CallStatus::kOk);
    ASSERT_EQ(victim.In(MakeTemplate(A(key_a), F(ValueType::kInt)), true,
                        true, &t),
              CallStatus::kOk);
    ASSERT_EQ(victim.In(MakeTemplate(A(key_b), F(ValueType::kInt)), true,
                        true, &t),
              CallStatus::kOk);
    victim.Abandon();  // SIGKILL-style exit: no commit, no BYE
  }
  ShardedRemoteSpace respawned(ShardedOptions(6, /*incarnation=*/1));
  ASSERT_TRUE(respawned.Connect()) << respawned.last_error();
  const Template all =
      MakeTemplate(F(ValueType::kString), F(ValueType::kInt));
  uint64_t count = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  do {  // each leg crash-aborts when it notices the EOF — poll briefly
    ASSERT_EQ(respawned.Count(all, &count), CallStatus::kOk);
    if (count == 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(count, 2u);
  respawned.Bye();
}

TEST_F(ShardedNetIntegrationTest, XRecoverScatterReturnsNewestContinuation) {
  // Two committed continuations with different home servers: the worker's
  // first txn homes on shard 0, its second on shard 1. The respawned
  // incarnation's XRecover scatters destructively and must return the
  // NEWER continuation, regardless of which shard stored it.
  const std::string key_a = KeyForServer(0, 2);
  const std::string key_b = KeyForServer(1, 2);
  {
    ShardedRemoteSpace worker(ShardedOptions(4, /*incarnation=*/0));
    ASSERT_TRUE(worker.Connect()) << worker.last_error();
    ASSERT_EQ(worker.Out(MakeTuple(key_a, 1)), CallStatus::kOk);
    ASSERT_EQ(worker.Out(MakeTuple(key_b, 2)), CallStatus::kOk);
    Tuple t;
    ASSERT_EQ(worker.XStart(), CallStatus::kOk);
    ASSERT_EQ(worker.In(MakeTemplate(A(key_a), F(ValueType::kInt)), true,
                        true, &t),
              CallStatus::kOk);
    ASSERT_EQ(worker.XCommit({}, true, MakeTuple("progress", 1)),
              CallStatus::kOk);
    ASSERT_EQ(worker.XStart(), CallStatus::kOk);
    ASSERT_EQ(worker.In(MakeTemplate(A(key_b), F(ValueType::kInt)), true,
                        true, &t),
              CallStatus::kOk);
    ASSERT_EQ(worker.XCommit({}, true, MakeTuple("progress", 2)),
              CallStatus::kOk);
    worker.Abandon();  // simulate the crash: no Bye
  }
  ShardedRemoteSpace respawned(ShardedOptions(4, /*incarnation=*/1));
  ASSERT_TRUE(respawned.Connect()) << respawned.last_error();
  Tuple cont;
  ASSERT_EQ(respawned.XRecover(&cont), CallStatus::kOk);
  EXPECT_EQ(GetInt(cont, 1), 2);
  // The recover consumed every stored continuation: a second call finds
  // nothing.
  EXPECT_EQ(respawned.XRecover(&cont), CallStatus::kNotFound);
  respawned.Bye();
}

// ---------------------------------------------------------------------------
// Short-write stress (tiny SO_SNDBUF), many-client stress, and the serve
// loop's group commit and wakeup latency
// ---------------------------------------------------------------------------

TEST_F(NetIntegrationTest, TinySndbufShortWritesLoseNoReplyBytes) {
  StopServer();
  sopts_.sndbuf_bytes = 4096;  // kernel clamps upward, still << one reply
  StartServer();
  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect());
  const std::string big(64 * 1024, 'x');
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(client.Out(MakeTuple("blob", i, big)), CallStatus::kOk);
  }
  // Each reply (~64 KiB of tuple) dwarfs the send buffer, so the server
  // needs many partial write(2) rounds per reply — EPOLLOUT plus the
  // sent-offset cursor. Every byte must arrive, in FIFO order.
  const Template tmpl = MakeTemplate(A("blob"), F(ValueType::kInt),
                                     F(ValueType::kString));
  for (int i = 0; i < 8; ++i) {
    Tuple got;
    ASSERT_EQ(client.In(tmpl, /*blocking=*/false, /*remove=*/true, &got),
              CallStatus::kOk);
    EXPECT_EQ(GetInt(got, 1), i);
    EXPECT_EQ(GetString(got, 2), big);
  }
  uint64_t count = 1;
  ASSERT_EQ(client.Count(tmpl, &count), CallStatus::kOk);
  EXPECT_EQ(count, 0u);  // nothing dropped, nothing duplicated
  client.Bye();
}

class ShortWriteShardedNetTest : public ShardedNetIntegrationTest {
 protected:
  int SndbufBytes() const override { return 4096; }
};

TEST_F(ShortWriteShardedNetTest, PeerForwardsSurviveShortWrites) {
  ShardedRemoteSpace client(ShardedOptions(2));
  ASSERT_TRUE(client.Connect()) << client.last_error();
  const std::string big(16 * 1024, 'f');
  const std::string home_key = KeyForServer(0, 2);
  std::vector<std::string> foreign_keys;
  for (size_t k = 1; k < kServers; ++k) {
    foreign_keys.push_back(KeyForServer(k, 3));
  }
  // Every commit forwards large foreign outs from the home server to the
  // other owners. The peer links must cut each forward into many short
  // writes without dropping, truncating, or reordering a frame.
  constexpr int kRounds = 12;
  for (int r = 0; r < kRounds; ++r) {
    ASSERT_EQ(client.Out(MakeTuple(home_key, r)), CallStatus::kOk);
    ASSERT_EQ(client.XStart(), CallStatus::kOk);
    Tuple task;
    ASSERT_EQ(client.In(MakeTemplate(A(home_key), F(ValueType::kInt)),
                        /*blocking=*/true, /*remove=*/true, &task),
              CallStatus::kOk);
    std::vector<Tuple> outs;
    for (const std::string& key : foreign_keys) {
      outs.push_back(MakeTuple(key, static_cast<int64_t>(r), big));
    }
    ASSERT_EQ(client.XCommit(outs, /*has_continuation=*/false, Tuple{}),
              CallStatus::kOk);
  }
  // Forwards apply asynchronously on the owners: wait until all arrived.
  const Template res_tmpl = MakeTemplate(
      F(ValueType::kString), F(ValueType::kInt), F(ValueType::kString));
  const uint64_t expect = kRounds * (kServers - 1);
  uint64_t count = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    ASSERT_EQ(client.Count(res_tmpl, &count), CallStatus::kOk);
    if (count == expect) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  } while (std::chrono::steady_clock::now() < deadline);
  ASSERT_EQ(count, expect);  // no forward was dropped
  // And every forwarded payload arrived byte-identical.
  for (const std::string& key : foreign_keys) {
    std::set<int64_t> seen;
    for (int r = 0; r < kRounds; ++r) {
      Tuple got;
      ASSERT_EQ(client.In(MakeTemplate(A(key), F(ValueType::kInt),
                                       F(ValueType::kString)),
                          /*blocking=*/true, /*remove=*/true, &got),
                CallStatus::kOk);
      EXPECT_EQ(GetString(got, 2), big);
      seen.insert(GetInt(got, 1));
    }
    EXPECT_EQ(seen.size(), static_cast<size_t>(kRounds)) << key;
  }
  client.Bye();
}

TEST_F(NetIntegrationTest, StressManyClientsKeepFifoAndDrain) {
  // Many clients against one server: 8 client threads arranged in a ring.
  // Each thread produces for its neighbour's key and blocking-takes from its
  // own, so most takes park until another client's publish wakes them; a
  // pipelined multi-key batch and a small transaction ride along, and
  // checkpoint_every_ops=4 forces constant checkpoints between applies. The
  // checks below are the functional gate (per-bucket FIFO + a fully drained
  // space).
  constexpr int kClients = 8;
  constexpr int kRounds = 24;
  std::vector<std::thread> fleet;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    fleet.emplace_back([&, c] {
      RemoteTupleSpace client(ClientOptions(c + 1));
      if (!client.Connect()) {
        ++failures;
        return;
      }
      const std::string self = "w" + std::to_string(c);
      const std::string peer = "w" + std::to_string((c + 1) % kClients);
      const Template mine = MakeTemplate(A(self), F(ValueType::kInt));
      int64_t expect = 0;
      for (int r = 0; r < kRounds; ++r) {
        if (client.Out(MakeTuple(peer, r)) != CallStatus::kOk) {
          ++failures;
          return;
        }
        Tuple got;
        if (client.In(mine, /*blocking=*/true, /*remove=*/true, &got) !=
            CallStatus::kOk) {
          ++failures;
          return;
        }
        // Ring FIFO: this key's single producer outs values in order, and
        // the server must preserve per-bucket FIFO matching.
        if (std::get<int64_t>(got.fields[1]) != expect++) {
          ++failures;
          return;
        }
      }
      // Pipelined multi-key batch: 4 outs on distinct keys + 4 takes.
      for (int i = 0; i < 4; ++i) {
        if (client.BatchOut(MakeTuple(self + "b" + std::to_string(i), i)) !=
            CallStatus::kOk) {
          ++failures;
          return;
        }
      }
      for (int i = 0; i < 4; ++i) {
        if (client.BatchIn(MakeTemplate(A(self + "b" + std::to_string(i)),
                                        F(ValueType::kInt)),
                           /*remove=*/true) != CallStatus::kOk) {
          ++failures;
          return;
        }
      }
      if (client.Flush() != CallStatus::kOk) {
        ++failures;
        return;
      }
      // A transaction: tentative take on one key, commit outs landing on
      // another, then consume the committed tuple.
      if (client.Out(MakeTuple(self + "t", 0)) != CallStatus::kOk ||
          client.XStart() != CallStatus::kOk) {
        ++failures;
        return;
      }
      Tuple scratch;
      if (client.In(MakeTemplate(A(self + "t"), F(ValueType::kInt)),
                    /*blocking=*/false, /*remove=*/true,
                    &scratch) != CallStatus::kOk) {
        ++failures;
        return;
      }
      if (client.XCommit({MakeTuple(self + "r", 1)}, /*has_continuation=*/false,
                         Tuple{}) != CallStatus::kOk) {
        ++failures;
        return;
      }
      Tuple committed;
      if (client.In(MakeTemplate(A(self + "r"), F(ValueType::kInt)),
                    /*blocking=*/true, /*remove=*/true,
                    &committed) != CallStatus::kOk) {
        ++failures;
        return;
      }
      client.Bye();
    });
  }
  for (std::thread& t : fleet) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The space must be fully drained.
  RemoteTupleSpace ctl(ClientOptions(99));
  ASSERT_TRUE(ctl.Connect());
  uint64_t leftovers = 0;
  ASSERT_EQ(ctl.Count(MakeTemplate(F(ValueType::kString), F(ValueType::kInt)),
                      &leftovers),
            CallStatus::kOk);
  EXPECT_EQ(leftovers, 0u);
  ctl.Bye();
}

TEST_F(NetIntegrationTest, WalSyncGroupCommitsOncePerPassAndRecovers) {
  // Three pipelined mutating frames arrive in one write, so the serve loop
  // handles them in one pass. With wal_sync that pass makes one fdatasync
  // (one group commit); without it every append is its own group.
  if (std::getenv("FPDM_WAL_SYNC") != nullptr) {
    GTEST_SKIP() << "FPDM_WAL_SYNC overrides SpaceServerOptions::wal_sync";
  }
  for (const bool sync : {true, false}) {
    SCOPED_TRACE(sync ? "wal_sync" : "no wal_sync");
    StopServer();
    sopts_.wal_sync = sync;
    sopts_.checkpoint_every_ops = 1000;  // recovery replays the log
    sopts_.state_dir = dir_ + (sync ? "/state.sync" : "/state.nosync");
    StartServer();
    Request hello;
    hello.op = Op::kHello;
    hello.pid = 5;
    Request stats;
    stats.op = Op::kStats;
    std::vector<Request> outs(3);
    for (int i = 0; i < 3; ++i) {
      outs[i].op = Op::kOut;
      outs[i].seq = static_cast<uint64_t>(i + 1);
      outs[i].tuple = MakeTuple("wal", i);
    }
    Reply reply;
    Reply before;
    Reply after;
    {
      RawClient c(sopts_.endpoint);
      ASSERT_TRUE(c.ok());
      ASSERT_TRUE(c.Send(hello));
      ASSERT_TRUE(c.Receive(&reply));
      ASSERT_TRUE(c.Send(stats));
      ASSERT_TRUE(c.Receive(&before));
      ASSERT_TRUE(c.SendAll(outs));
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(c.Receive(&reply));
        EXPECT_EQ(reply.status, WireStatus::kOk);
      }
      ASSERT_TRUE(c.Send(stats));
      ASSERT_TRUE(c.Receive(&after));
    }
    EXPECT_EQ(after.wal_group_commits - before.wal_group_commits,
              sync ? 1u : 3u);

    // SIGKILL + restart on the same state dir: replay restores all three
    // outs, and resending the frames gets the cached replies instead of a
    // second apply.
    StopServer();
    StartServer();
    RawClient c(sopts_.endpoint);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.Send(hello));  // same incarnation: a reconnect
    ASSERT_TRUE(c.Receive(&reply));
    ASSERT_TRUE(c.SendAll(outs));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(c.Receive(&reply));
      EXPECT_EQ(reply.status, WireStatus::kOk);
    }
    Request count;
    count.op = Op::kCount;
    count.tmpl = MakeTemplate(A("wal"), F(ValueType::kInt));
    ASSERT_TRUE(c.Send(count));
    ASSERT_TRUE(c.Receive(&reply));
    EXPECT_EQ(reply.count, 3u);
    ASSERT_TRUE(c.Send(stats));
    ASSERT_TRUE(c.Receive(&reply));
    EXPECT_EQ(reply.ops_replayed, 4u);  // the HELLO and the three outs
  }
}

TEST_F(NetIntegrationTest, CrashAbortWakeupIsNotHeldForTheIdleTick) {
  // A reply queued after the serve loop's flush phase — here a parked in
  // woken by the crash-abort of a client that vanished without BYE — must
  // leave at once, not when the loop's 200 ms epoll_wait times out.
  RemoteTupleSpace ctl(ClientOptions(-1));
  ASSERT_TRUE(ctl.Connect());
  ASSERT_EQ(ctl.Out(MakeTuple("job", 1)), CallStatus::kOk);
  ctl.Bye();
  const Template job = MakeTemplate(A("job"), F(ValueType::kInt));
  Reply reply;
  RawClient a(sopts_.endpoint);
  ASSERT_TRUE(a.ok());
  Request hello;
  hello.op = Op::kHello;
  hello.pid = 2;
  ASSERT_TRUE(a.Send(hello));
  ASSERT_TRUE(a.Receive(&reply));
  Request xstart;
  xstart.op = Op::kXStart;
  xstart.seq = 1;
  ASSERT_TRUE(a.Send(xstart));
  ASSERT_TRUE(a.Receive(&reply));
  Request take;
  take.op = Op::kIn;
  take.seq = 2;
  take.flags = kInRemove;
  take.tmpl = job;
  ASSERT_TRUE(a.Send(take));
  ASSERT_TRUE(a.Receive(&reply));
  ASSERT_TRUE(reply.has_tuple);

  RawClient b(sopts_.endpoint);
  ASSERT_TRUE(b.ok());
  hello.pid = 3;
  ASSERT_TRUE(b.Send(hello));
  ASSERT_TRUE(b.Receive(&reply));
  Request park = take;
  park.seq = 1;
  park.flags = kInRemove | kInBlocking;
  ASSERT_TRUE(b.Send(park));
  // No reply: the in parks. Give the server a moment, then drop A.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto t0 = std::chrono::steady_clock::now();
  a.Close();
  ASSERT_TRUE(b.Receive(&reply));
  const auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(reply.has_tuple);
  EXPECT_EQ(GetInt(reply.tuple, 1), 1);
  EXPECT_LT(waited, std::chrono::milliseconds(50));
}

// ---------------------------------------------------------------------------
// Transports (PR 8): endpoint grammar, TCP listen/connect with port-0
// resolution, the worker-launch template, live TCP integration, and the
// structured kBadEndpoint twin of kBadSocketPath.
// ---------------------------------------------------------------------------

TEST(EndpointTest, GrammarParsesAndFormatsCanonically) {
  Endpoint ep;
  std::string error;

  // A bare string is a Unix path — pre-endpoint socket_path strings keep
  // working unchanged.
  ASSERT_TRUE(ParseEndpoint("/tmp/fpdm/space.sock", &ep, &error)) << error;
  EXPECT_EQ(ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(ep.path, "/tmp/fpdm/space.sock");
  EXPECT_EQ(FormatEndpoint(ep), "unix:/tmp/fpdm/space.sock");

  ASSERT_TRUE(ParseEndpoint("unix:/run/s0.sock", &ep, &error)) << error;
  EXPECT_EQ(ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(ep.path, "/run/s0.sock");

  ASSERT_TRUE(ParseEndpoint("tcp:127.0.0.1:6001", &ep, &error)) << error;
  EXPECT_EQ(ep.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, 6001);
  EXPECT_EQ(FormatEndpoint(ep), "tcp:127.0.0.1:6001");

  // Port 0 is legal: it asks the kernel for a free port at bind.
  ASSERT_TRUE(ParseEndpoint("tcp:localhost:0", &ep, &error)) << error;
  EXPECT_EQ(ep.host, "localhost");
  EXPECT_EQ(ep.port, 0);

  // FormatEndpoint(ParseEndpoint(x)) is a fixed point.
  for (const char* text : {"unix:/a/b.sock", "tcp:10.0.0.7:80"}) {
    ASSERT_TRUE(ParseEndpoint(text, &ep, &error)) << text;
    EXPECT_EQ(FormatEndpoint(ep), text);
  }
}

TEST(EndpointTest, MalformedStringsFailWithAReason) {
  Endpoint ep;
  for (const char* bad : {"", "unix:", "tcp:", "tcp:host", "tcp:host:",
                          "tcp::80", "tcp:host:nan", "tcp:host:70000",
                          "tcp:host:-1", "shm:/a.sock"}) {
    std::string error;
    EXPECT_FALSE(ParseEndpoint(bad, &ep, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  // The retired shm scheme is refused by name, not read as a relative path.
  std::string error;
  EXPECT_FALSE(ParseEndpoint("shm:/a.sock", &ep, &error));
  EXPECT_NE(error.find("shm transport is retired"), std::string::npos) << error;
}

TEST(EndpointTest, UsableRejectsOverlongUnixPathsButNotTcp) {
  std::string error;
  EXPECT_TRUE(EndpointUsable("/tmp/ok.sock", &error)) << error;
  EXPECT_TRUE(EndpointUsable("tcp:127.0.0.1:0", &error)) << error;
  // An overlong Unix path cannot fit sockaddr_un::sun_path...
  const std::string long_path = "/tmp/" + std::string(200, 'x') + ".sock";
  EXPECT_FALSE(EndpointUsable(long_path, &error));
  EXPECT_FALSE(error.empty());
  // ...but length never disqualifies a TCP endpoint.
  const std::string long_host =
      "tcp:" + std::string(200, 'h') + ".example:80";
  EXPECT_TRUE(EndpointUsable(long_host, &error)) << error;
}

TEST(EndpointTest, ListenResolvesPortZeroAndAcceptsAConnect) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kTcp;
  ep.host = "127.0.0.1";
  ep.port = 0;
  std::string error;
  const int listen_fd = ListenEndpoint(&ep, kListenBacklog, &error);
  ASSERT_GE(listen_fd, 0) << error;
  // The kernel-assigned port was resolved back, so the concrete address is
  // publishable before anyone connects.
  EXPECT_GT(ep.port, 0);
  const int client_fd = ConnectEndpoint(ep, &error);
  EXPECT_GE(client_fd, 0) << error;
  if (client_fd >= 0) ::close(client_fd);
  ::close(listen_fd);
}

TEST(SupervisorTest, ExpandLaunchTemplateSubstitutesEveryPlaceholder) {
  WorkerLaunch launch;
  launch.endpoint = "tcp:10.0.0.7:6001";
  launch.placement = "tcp:10.0.0.7:6001,tcp:10.0.0.8:6001";
  launch.pid = 3;
  launch.incarnation = 2;
  launch.status_file = "/tmp/run/status.3";
  EXPECT_EQ(
      ExpandLaunchTemplate(
          "ssh mine-host fpdm_worker --endpoint={endpoint} "
          "--placement={placement} --pid={pid} --inc={incarnation} "
          "--status={status_file}",
          launch),
      "ssh mine-host fpdm_worker --endpoint=tcp:10.0.0.7:6001 "
      "--placement=tcp:10.0.0.7:6001,tcp:10.0.0.8:6001 --pid=3 --inc=2 "
      "--status=/tmp/run/status.3");
  // Unknown braces (and shell syntax) pass through verbatim.
  EXPECT_EQ(ExpandLaunchTemplate("echo {pid} ${HOME} {unknown}", launch),
            "echo 3 ${HOME} {unknown}");
}

TEST(SupervisorTest, LaunchWorkerCommandRunsTheExpandedTemplate) {
  const std::string dir = MakeStateDir();
  ASSERT_FALSE(dir.empty());
  WorkerLaunch launch;
  launch.endpoint = "tcp:127.0.0.1:6001";
  launch.placement = "tcp:127.0.0.1:6001";
  launch.pid = 5;
  launch.incarnation = 1;
  launch.status_file = dir + "/status.5";
  // The template stands in for an ssh hop: it must see the substituted
  // values and write the status file the supervisor will poll.
  const pid_t child = LaunchWorkerCommand(
      "echo worker {pid} inc {incarnation} at {endpoint} > {status_file}",
      launch);
  ASSERT_GT(child, 0);
  ExitInfo info;
  ASSERT_TRUE(WaitForExit(child, 10.0, &info));
  EXPECT_TRUE(info.exited);
  EXPECT_EQ(info.exit_code, 0);
  std::ifstream in(launch.status_file);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "worker 5 inc 1 at tcp:127.0.0.1:6001");
  RemoveTree(dir);
}

TEST(WireCodecTest, TcpPlacementReplyRoundTrip) {
  const Reply reply = SampleTcpPlacementReply();
  std::string error;
  Reply back;
  ASSERT_TRUE(DecodeReply(EncodeReply(reply), &back, &error)) << error;
  ASSERT_EQ(back.placement.size(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(back.placement[k], reply.placement[k]) << k;
    // The endpoint strings survived the wire intact and still parse.
    Endpoint ep;
    EXPECT_TRUE(ParseEndpoint(back.placement[k], &ep, &error)) << error;
    EXPECT_EQ(ep.kind, Endpoint::Kind::kTcp) << k;
  }
}

class TcpIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeStateDir();
    ASSERT_FALSE(dir_.empty());
    sopts_.endpoint = "tcp:127.0.0.1:0";
    sopts_.resolved_endpoint_file = dir_ + "/endpoint";
    sopts_.state_dir = dir_ + "/state";
    sopts_.checkpoint_every_ops = 4;
    server_pid_ = ForkServerProcess(sopts_);
    ASSERT_GT(server_pid_, 0);
    // The server binds port 0 itself here (no supervisor pre-bind), then
    // publishes the kernel-assigned port through the resolved-endpoint
    // file; poll for it.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (endpoint_.empty() &&
           std::chrono::steady_clock::now() < deadline) {
      std::ifstream in(sopts_.resolved_endpoint_file);
      std::getline(in, endpoint_);
      if (endpoint_.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    ASSERT_FALSE(endpoint_.empty()) << "server never published its port";
    ASSERT_TRUE(WaitForEndpoint(endpoint_, 10.0));
  }

  void TearDown() override {
    if (server_pid_ > 0) {
      KillProcess(server_pid_);
      ExitInfo info;
      WaitForExit(server_pid_, 5.0, &info);
    }
    RemoveTree(dir_);
  }

  RemoteSpaceOptions ClientOptions(int32_t pid, int32_t incarnation = 0) {
    RemoteSpaceOptions opts;
    opts.endpoint = endpoint_;
    opts.pid = pid;
    opts.incarnation = incarnation;
    opts.reconnect_timeout_s = 10.0;
    return opts;
  }

  std::string dir_;
  std::string endpoint_;
  SpaceServerOptions sopts_;
  pid_t server_pid_ = -1;
};

TEST_F(TcpIntegrationTest, BasicOpsOverLoopbackTcp) {
  // The resolved endpoint is a concrete tcp:127.0.0.1:<port> string.
  Endpoint ep;
  std::string error;
  ASSERT_TRUE(ParseEndpoint(endpoint_, &ep, &error)) << error;
  EXPECT_EQ(ep.kind, Endpoint::Kind::kTcp);
  EXPECT_GT(ep.port, 0);

  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect()) << client.last_error();
  ASSERT_EQ(client.Out(MakeTuple("task", 1)), CallStatus::kOk);
  ASSERT_EQ(client.Out(MakeTuple("task", 2)), CallStatus::kOk);
  Tuple got;
  ASSERT_EQ(client.In(MakeTemplate(A("task"), F(ValueType::kInt)),
                      /*blocking=*/false, /*remove=*/true, &got),
            CallStatus::kOk);
  EXPECT_EQ(GetInt(got, 1), 1);  // FIFO within a bucket holds over TCP
  ASSERT_EQ(client.In(MakeTemplate(A("task"), F(ValueType::kInt)),
                      /*blocking=*/false, /*remove=*/true, &got),
            CallStatus::kOk);
  EXPECT_EQ(GetInt(got, 1), 2);
  client.Bye();
}

TEST_F(TcpIntegrationTest, ReconnectAfterServerRestartOnSamePort) {
  // A restarted server re-binds the SAME concrete port (the resolved
  // endpoint is its identity now), and the client's reconnect/resend plus
  // the dedup window must make the in-flight call exactly-once — the TCP
  // twin of the Unix-domain crash-recovery tests.
  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect()) << client.last_error();
  ASSERT_EQ(client.Out(MakeTuple("persist", 7)), CallStatus::kOk);

  KillProcess(server_pid_);
  ExitInfo info;
  WaitForExit(server_pid_, 5.0, &info);
  sopts_.endpoint = endpoint_;  // re-bind the now-known concrete port
  server_pid_ = ForkServerProcess(sopts_);
  ASSERT_GT(server_pid_, 0);
  ASSERT_TRUE(WaitForEndpoint(endpoint_, 10.0));

  Tuple got;
  ASSERT_EQ(client.In(MakeTemplate(A("persist"), F(ValueType::kInt)),
                      /*blocking=*/false, /*remove=*/true, &got),
            CallStatus::kOk);
  EXPECT_EQ(GetInt(got, 1), 7);
  client.Bye();
}

TEST(TcpClientTest, MalformedEndpointFailsFastWithoutAReconnectWindow) {
  // The structured twin of the overlong-sun_path client test: a malformed
  // tcp: string can never become connectable, so Connect must fail
  // immediately — not sit out the reconnect window — with the reason in
  // last_error().
  RemoteSpaceOptions opts;
  opts.endpoint = "tcp:127.0.0.1";  // no port
  opts.pid = 1;
  opts.reconnect_timeout_s = 30.0;  // would hang for 30s if not fast-failed
  RemoteTupleSpace client(opts);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.Connect());
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(waited, 5.0);
  EXPECT_FALSE(client.last_error().empty());
}

TEST(DistributedRuntimeTest, UnsupportedTransportFailsStructurally) {
  // The runtime-level twin of kBadSocketPath: an unsupported transport
  // string — including the retired "shm" — must fail the run up front with
  // a structured kBadEndpoint error naming the option and the two supported
  // transports, before any server is forked.
  for (const char* transport : {"carrier-pigeon", "shm"}) {
    RuntimeOptions options;
    options.mode = ExecutionMode::kDistributed;
    options.distributed_transport = transport;
    Runtime runtime(1, options);
    runtime.SpawnOn("idle", 0, [](ProcessContext&) {});
    EXPECT_FALSE(runtime.Run()) << transport;
    ASSERT_FALSE(runtime.errors().empty()) << transport;
    const RuntimeError& error = runtime.errors()[0];
    EXPECT_EQ(error.code, RuntimeError::Code::kBadEndpoint) << transport;
    EXPECT_NE(error.detail.find("distributed_transport"), std::string::npos)
        << error.detail;
    EXPECT_NE(error.detail.find("(expected \"unix\" or \"tcp\")"),
              std::string::npos)
        << error.detail;
  }
}

}  // namespace
}  // namespace fpdm::plinda::net
