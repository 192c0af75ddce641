// Wire protocol and distributed tuple-space server tests: codec round
// trips, frame parsing against malformed/truncated/oversized input (a
// corrupt stream must yield a structured error, never undefined behavior),
// live client/server integration over a Unix-domain socket, server
// crash-recovery from checkpoint + log, and the kDistributed runtime
// backend end to end.

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
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
      EncodeRequest([] {
        Request request;
        request.op = Op::kIn;
        request.seq = 3;
        request.flags = kInRemove | kInBlocking | kInDrain;
        request.tmpl = MakeTemplate(A("r"), F(ValueType::kInt));
        return request;
      }()),
      EncodeReply([] {
        Reply reply;
        reply.items = {{WireStatus::kOk, true, MakeTuple("r", 1)},
                       {WireStatus::kOk, true, MakeTuple("r", 2)}};
        return reply;
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

TEST(WireFuzzTest, OpcodesOutsideTheProtocolAreDecodeErrors) {
  for (const int op : {0, static_cast<int>(Op::kBatch) + 1}) {
    std::string encoded = EncodeRequest(SampleCommitRequest());
    encoded[0] = static_cast<char>(op);
    Request request;
    std::string error;
    EXPECT_FALSE(DecodeRequest(encoded, &request, &error)) << op;
    EXPECT_EQ(error, "request: unknown opcode") << op;
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
    ASSERT_TRUE(WaitForEndpoint(sopts_.endpoint, 10.0));
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
  explicit RawClient(const std::string& socket_path)
      : fd_(ConnectSocket(socket_path)) {}
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
  // older one in the bucket that sorts second ("k1" after "k0"), so bucket
  // order inverts their age. A formal-first template may match either
  // bucket, and the server must answer oldest-first across the whole
  // space — the TupleSpace rule — not bucket by bucket in key order.
  const std::string older_key = "k1";
  const std::string newer_key = "k0";
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
  // A second recover reads it again: recovery never consumes it.
  cont = Tuple();
  ASSERT_EQ(client.XRecover(&cont), CallStatus::kOk);
  EXPECT_EQ(GetInt(cont, 1), 42);
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

/// Every intact record of a WAL file, oldest first.
std::vector<LogEntry> ReadWal(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<LogEntry> entries;
  size_t off = 0;
  while (off + 12 <= raw.size()) {
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(static_cast<unsigned char>(raw[off + i]))
             << (8 * i);
    }
    if (off + 12 + len > raw.size()) break;
    LogEntry entry;
    std::string error;
    if (!DecodeLogEntry(std::string_view(raw).substr(off + 12, len), &entry,
                        &error)) {
      break;
    }
    entries.push_back(std::move(entry));
    off += 12 + len;
  }
  return entries;
}

/// A registered raw client for pid `pid`.
void Hello(RawClient* client, int32_t pid) {
  Request hello;
  hello.op = Op::kHello;
  hello.pid = pid;
  Reply reply;
  ASSERT_TRUE(client->Send(hello));
  ASSERT_TRUE(client->Receive(&reply));
  ASSERT_EQ(reply.status, WireStatus::kOk);
}

Template ReportTmpl() { return MakeTemplate(A("r"), F(ValueType::kInt)); }

Request DrainRequest(int32_t pid, uint64_t seq) {
  Request drain;
  drain.op = Op::kIn;
  drain.pid = pid;
  drain.seq = seq;
  drain.flags = kInRemove | kInBlocking | kInDrain;
  drain.tmpl = ReportTmpl();
  return drain;
}

TEST_F(NetIntegrationTest, DrainIsOneWalRecordAndItsResendTakesNothingMore) {
  // No periodic checkpoint: the live log keeps every record of the test.
  StopServer();
  sopts_.checkpoint_every_ops = 1000;
  StartServer();
  RemoteTupleSpace ctl(ClientOptions(-1));
  ASSERT_TRUE(ctl.Connect());
  RawClient worker(sopts_.endpoint);
  ASSERT_TRUE(worker.ok());
  Hello(&worker, 6);
  for (int i = 1; i <= 3; ++i) {
    ASSERT_EQ(ctl.Out(MakeTuple("r", i)), CallStatus::kOk);
  }
  ASSERT_EQ(ctl.Out(MakeTuple("other", 9)), CallStatus::kOk);
  const size_t before = ReadWal(NewestLogFile(sopts_.state_dir)).size();

  const Request drain = DrainRequest(6, 1);
  ASSERT_TRUE(worker.Send(drain));
  Reply first;
  ASSERT_TRUE(worker.Receive(&first));
  ASSERT_EQ(first.status, WireStatus::kOk) << first.error;
  ASSERT_EQ(first.items.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(first.items[i].tuple, MakeTuple("r", i + 1));
  }
  std::vector<LogEntry> wal = ReadWal(NewestLogFile(sopts_.state_dir));
  ASSERT_EQ(wal.size(), before + 1);
  EXPECT_EQ(wal.back().kind, LogKind::kBatch);
  EXPECT_EQ(wal.back().seq, 1u);
  ASSERT_EQ(wal.back().effects.size(), 3u);
  for (const BatchEffect& effect : wal.back().effects) {
    EXPECT_EQ(effect.kind, BatchEffectKind::kTook);
  }

  // A fresh match, then the identical frame again, as a resend after a
  // server crash would send it: the dedup window answers with the same
  // tuples, and the fresh match stays.
  ASSERT_EQ(ctl.Out(MakeTuple("r", 4)), CallStatus::kOk);
  ASSERT_TRUE(worker.Send(drain));
  Reply second;
  ASSERT_TRUE(worker.Receive(&second));
  EXPECT_EQ(second.status, WireStatus::kOk);
  ASSERT_EQ(second.items.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(second.items[i].tuple, first.items[i].tuple);
  }
  uint64_t count = 0;
  ASSERT_EQ(ctl.Count(ReportTmpl(), &count), CallStatus::kOk);
  EXPECT_EQ(count, 1u);
  wal = ReadWal(NewestLogFile(sopts_.state_dir));
  ASSERT_EQ(wal.size(), before + 2);  // the drain and the fresh out
  EXPECT_EQ(wal.back().kind, LogKind::kOut);
  ctl.Bye();
}

TEST_F(NetIntegrationTest, DrainSurvivesACrashAndAnAbortRestoresEveryTuple) {
  // No periodic checkpoint: recovery replays the drain's record from the log.
  StopServer();
  sopts_.checkpoint_every_ops = 1000;
  StartServer();
  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_EQ(client.Out(MakeTuple("r", i)), CallStatus::kOk);
  }
  ASSERT_EQ(client.XStart(), CallStatus::kOk);
  Tuple first;
  std::vector<Tuple> more;
  ASSERT_EQ(client.In(ReportTmpl(), /*blocking=*/true, /*remove=*/true,
                      &first, &more),
            CallStatus::kOk);
  EXPECT_EQ(first, MakeTuple("r", 1));
  ASSERT_EQ(more.size(), 2u);
  EXPECT_EQ(more[1], MakeTuple("r", 3));

  StopServer();
  StartServer();
  uint64_t count = 99;
  ASSERT_EQ(client.Count(ReportTmpl(), &count), CallStatus::kOk);
  EXPECT_EQ(count, 0u);
  Reply stats;
  ASSERT_EQ(client.Stats(&stats), CallStatus::kOk);
  EXPECT_GT(stats.ops_replayed, 0u);
  // The recovered transaction still holds the drained tuples.
  ASSERT_EQ(client.XAbort(), CallStatus::kOk);
  ASSERT_EQ(client.Count(ReportTmpl(), &count), CallStatus::kOk);
  EXPECT_EQ(count, 3u);
  client.Bye();
}

TEST_F(NetIntegrationTest, ParkedDrainTakesEveryMatchTheWakingCommitPublished) {
  RawClient worker(sopts_.endpoint);
  ASSERT_TRUE(worker.ok());
  Hello(&worker, 6);
  ASSERT_TRUE(worker.Send(DrainRequest(6, 1)));

  // Wait until the drain is parked, so the commit below wakes it.
  RemoteTupleSpace ctl(ClientOptions(-1));
  ASSERT_TRUE(ctl.Connect());
  Reply status;
  for (int i = 0; i < 2000 && status.parked.empty(); ++i) {
    ASSERT_EQ(ctl.BeginStatus(), CallStatus::kOk);
    CallStatus polled = CallStatus::kPending;
    while (polled == CallStatus::kPending) {
      polled = ctl.PollStatus(&status);
      if (polled == CallStatus::kPending) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ASSERT_EQ(polled, CallStatus::kOk);
  }
  ASSERT_EQ(status.parked.size(), 1u);

  RemoteTupleSpace client(ClientOptions(1));
  ASSERT_TRUE(client.Connect());
  ASSERT_EQ(client.XStart(), CallStatus::kOk);
  ASSERT_EQ(client.XCommit({MakeTuple("r", 1), MakeTuple("other", 9),
                            MakeTuple("r", 2), MakeTuple("r", 3)},
                           false, Tuple()),
            CallStatus::kOk);
  Reply reply;
  ASSERT_TRUE(worker.Receive(&reply));
  ASSERT_EQ(reply.status, WireStatus::kOk) << reply.error;
  ASSERT_EQ(reply.items.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(reply.items[i].tuple, MakeTuple("r", i + 1));
  }
  uint64_t count = 99;
  ASSERT_EQ(ctl.Count(ReportTmpl(), &count), CallStatus::kOk);
  EXPECT_EQ(count, 0u);
  client.Bye();
  ctl.Bye();
}

TEST_F(NetIntegrationTest, DrainFlagNeedsABlockingRemovingIn) {
  RawClient worker(sopts_.endpoint);
  ASSERT_TRUE(worker.ok());
  Hello(&worker, 7);
  uint64_t seq = 0;
  for (const uint8_t flags : {uint8_t{kInDrain | kInRemove},
                              uint8_t{kInDrain | kInBlocking}}) {
    Request drain = DrainRequest(7, ++seq);
    drain.flags = flags;
    ASSERT_TRUE(worker.Send(drain));
    Reply reply;
    ASSERT_TRUE(worker.Receive(&reply));
    EXPECT_EQ(reply.status, WireStatus::kError) << int{flags};
    EXPECT_NE(reply.error.find("drain"), std::string::npos) << reply.error;
  }
  // Nor may a batch carry one: a drain rides only a blocking in.
  Request batch;
  batch.op = Op::kBatch;
  batch.pid = 7;
  batch.seq = ++seq;
  BatchOp take;
  take.op = Op::kIn;
  take.flags = kInRemove | kInDrain;
  take.tmpl = ReportTmpl();
  batch.batch = {take};
  ASSERT_TRUE(worker.Send(batch));
  Reply reply;
  ASSERT_TRUE(worker.Receive(&reply));
  EXPECT_EQ(reply.status, WireStatus::kError);
  EXPECT_NE(reply.error.find("drain"), std::string::npos) << reply.error;
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

TEST(DistributedRuntimeTest, SecondRunOnAReusedDirectoryStartsClean) {
  // A caller-provided distributed_dir outlives Run(). A second Run() on it
  // must not recover the first run's server state: the new workers restart
  // their sequence numbers at 1, so the old per-client dedup windows would
  // answer their requests with the first run's cached replies. Files the
  // caller keeps in the directory are left alone.
  constexpr int64_t kTasksPerWorker = 5;
  const std::string dir = MakeStateDir();
  ASSERT_FALSE(dir.empty());
  const std::string keep = dir + "/caller.txt";
  std::ofstream(keep) << "mine\n";
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    RuntimeOptions options = DistOptions();
    options.distributed_dir = dir;
    Runtime runtime(2, options);
    for (int64_t i = 0; i < 2 * kTasksPerWorker; ++i) {
      runtime.space().Out(MakeTuple("task", i));
    }
    for (int w = 0; w < 2; ++w) {
      runtime.SpawnOn("worker", w, [](ProcessContext& ctx) {
        for (int64_t n = 0; n < kTasksPerWorker; ++n) {
          ctx.XStart();
          Tuple task;
          ctx.In(MakeTemplate(A("task"), F(ValueType::kInt)), &task);
          ctx.Out(MakeTuple("res", GetInt(task, 1)));
          ctx.XCommit();
        }
      });
    }
    // EXPECT, not ASSERT: the directory must be removed on failure too.
    EXPECT_TRUE(runtime.Run()) << runtime.diagnostic();
    std::multiset<int64_t> results;
    Tuple tuple;
    while (runtime.space().TryIn(MakeTemplate(A("res"), F(ValueType::kInt)),
                                 &tuple)) {
      results.insert(GetInt(tuple, 1));
    }
    EXPECT_EQ(results.size(), static_cast<size_t>(2 * kTasksPerWorker));
    for (int64_t i = 0; i < 2 * kTasksPerWorker; ++i) {
      EXPECT_EQ(results.count(i), 1u) << "task " << i;
    }
  }
  EXPECT_TRUE(std::filesystem::exists(keep));
  RemoveTree(dir);
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
// Endpoints: the Unix-socket address grammar, and the client's fast fail on
// an endpoint that can never connect
// ---------------------------------------------------------------------------

TEST(EndpointTest, BarePathOrUnixPrefixNamesTheSocket) {
  std::string path;
  std::string error;
  ASSERT_TRUE(ParseEndpoint("/tmp/fpdm/space.sock", &path, &error)) << error;
  EXPECT_EQ(path, "/tmp/fpdm/space.sock");
  ASSERT_TRUE(ParseEndpoint("unix:/run/s0.sock", &path, &error)) << error;
  EXPECT_EQ(path, "/run/s0.sock");
  // Any other prefix is part of a relative path.
  ASSERT_TRUE(ParseEndpoint("state:space.sock", &path, &error)) << error;
  EXPECT_EQ(path, "state:space.sock");
}

TEST(EndpointTest, MalformedStringsFailWithAReason) {
  std::string path;
  for (const char* bad : {"", "unix:", "shm:/a.sock", "tcp:127.0.0.1:6001"}) {
    std::string error;
    EXPECT_FALSE(ParseEndpoint(bad, &path, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  // The retired schemes are refused by name, not read as relative paths.
  std::string error;
  EXPECT_FALSE(ParseEndpoint("shm:/a.sock", &path, &error));
  EXPECT_NE(error.find("shm transport is retired"), std::string::npos) << error;
  EXPECT_FALSE(ParseEndpoint("tcp:127.0.0.1:6001", &path, &error));
  EXPECT_NE(error.find("tcp transport is retired"), std::string::npos) << error;
}

TEST(EndpointTest, PathsThatOverflowSunPathAreRefused) {
  // sockaddr_un::sun_path holds 107 bytes and the NUL on Linux.
  const std::string fits = "/tmp/" + std::string(102, 'x');
  ASSERT_EQ(fits.size(), 107u);
  std::string path;
  std::string error;
  EXPECT_TRUE(ParseEndpoint(fits, &path, &error)) << error;
  EXPECT_FALSE(ParseEndpoint(fits + "y", &path, &error));
  EXPECT_NE(error.find("sun_path"), std::string::npos) << error;
  EXPECT_LT(ConnectSocket(fits + "y", &error), 0);
  EXPECT_NE(error.find("sun_path"), std::string::npos) << error;
  EXPECT_FALSE(WaitForEndpoint(fits + "y", 30.0));
}

TEST(RemoteClientTest, UnusableEndpointFailsFastWithoutAReconnectWindow) {
  // An endpoint that can never become connectable makes Connect() fail at
  // once, not after the reconnect window, with the reason in last_error().
  const std::string overlong = "/tmp/" + std::string(200, 'x') + ".sock";
  for (const std::string& endpoint : {overlong, std::string("tcp:h:80")}) {
    RemoteSpaceOptions opts;
    opts.endpoint = endpoint;
    opts.pid = 1;
    opts.reconnect_timeout_s = 30.0;  // would hang for 30s if not fast-failed
    RemoteTupleSpace client(opts);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(client.Connect()) << endpoint;
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(waited, 5.0) << endpoint;
    std::string path;
    std::string reason;
    EXPECT_FALSE(ParseEndpoint(endpoint, &path, &reason));
    EXPECT_EQ(client.last_error(), reason) << endpoint;
  }
}

}  // namespace
}  // namespace fpdm::plinda::net
