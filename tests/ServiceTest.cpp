//===- tests/ServiceTest.cpp - Allocation service coverage ----------------===//
//
// Tier-1 coverage for the serving stack (src/service/):
//
//  - frame and payload codecs round-trip exactly (including the
//    shortest-round-trip doubles the bit-identity contract rests on);
//  - a live server answers allocations BIT-IDENTICAL to in-process
//    allocation — asserted for the SPEC proxies and for every committed
//    fuzz corpus entry replayed over the wire under its original register
//    configuration;
//  - protocol robustness: garbage bytes, torn frames, checksum corruption,
//    wrong-version headers, and oversized declarations are answered with
//    Error frames (or a clean close) and never take the daemon down — the
//    next well-formed request on a fresh connection still succeeds;
//  - operational behavior under test hooks (fuzz/Oracle.h's InjectedFault
//    pattern): forced queue overflow sheds, an injected worker fault fails
//    only the targeted request, stalled batching expires deadlines;
//  - graceful drain: queued work completes, responses flush, new requests
//    are refused, wait() quiesces.
//
//===----------------------------------------------------------------------===//

#include "core/EngineBuilder.h"
#include "fuzz/Corpus.h"
#include "ir/IRBinary.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "service/BinaryCodec.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/BuildInfo.h"
#include "workloads/SpecProxies.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <sstream>
#include <sys/socket.h>
#include <thread>
#include <vector>

using namespace ccra;

#ifndef CCRA_SOURCE_DIR
#define CCRA_SOURCE_DIR "."
#endif

namespace {

std::string printed(const Module &M) {
  std::ostringstream OS;
  printModule(M, OS);
  return OS.str();
}

/// In-process allocation rendered exactly as the server renders it.
void expectedAllocation(const std::string &ModuleText,
                        const AllocRequest &Request, std::string &IrOut,
                        CostBreakdown &TotalsOut) {
  ParseResult PR = parseModule(ModuleText);
  ASSERT_TRUE(PR.ok());
  FrequencyInfo Freq = FrequencyInfo::compute(*PR.M, Request.Mode);
  AllocationEngine Engine =
      EngineBuilder(Request.Config).options(Request.Options).build();
  ModuleAllocationResult R = Engine.allocateModule(*PR.M, Freq);
  IrOut = printed(*PR.M);
  TotalsOut = R.Totals;
}

/// A server on an ephemeral loopback port plus a connected client.
struct LiveServer {
  explicit LiveServer(ServerConfig Config = ServerConfig(),
                      ServerTestHooks Hooks = ServerTestHooks())
      : Server(std::move(Config), std::move(Hooks)) {
    std::string Err;
    Ok = Server.start(&Err);
    EXPECT_TRUE(Ok) << Err;
  }

  ServiceClient connect() {
    ServiceClient C;
    std::string Err;
    EXPECT_TRUE(C.connectTcp(Server.boundPort(), &Err)) << Err;
    return C;
  }

  AllocationServer Server;
  bool Ok = false;
};

AllocRequest proxyRequest(const std::string &Proxy) {
  AllocRequest R;
  R.Options = improvedOptions();
  R.ModuleText = printed(*buildSpecProxy(Proxy));
  return R;
}

// --- codecs --------------------------------------------------------------

TEST(WireCodec, FrameRoundTripsOverSocketPair) {
  int Fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
  Socket Writer(Fds[0]), Reader(Fds[1]);

  Frame Out;
  Out.Type = FrameType::AllocRequest;
  Out.Payload = "config: 9,7,3,3\nmodule:\nmodule m\n";
  ASSERT_EQ(IoStatus::Ok, writeFrame(Writer, Out, 1000));

  Frame In;
  ASSERT_EQ(FrameReadStatus::Ok, readFrame(Reader, In, 1u << 20, 1000, 1000));
  EXPECT_EQ(Out.Type, In.Type);
  EXPECT_EQ(Out.Payload, In.Payload);
}

TEST(WireCodec, IdleThenEofThenGarbageAreDistinguished) {
  int Fds[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
  Socket Writer(Fds[0]), Reader(Fds[1]);

  // Nothing sent yet: Idle, nothing consumed.
  Frame In;
  EXPECT_EQ(FrameReadStatus::Idle, readFrame(Reader, In, 1024, 50, 1000));

  // A full header's worth of garbage magic: Malformed.
  const char Garbage[WireHeaderSize] = {'n', 'o', 'p', 'e'};
  ASSERT_EQ(IoStatus::Ok, Writer.sendAll(Garbage, sizeof(Garbage), 1000));
  EXPECT_EQ(FrameReadStatus::Malformed,
            readFrame(Reader, In, 1024, 1000, 1000));

  // Clean close between frames: Eof.
  int Fds2[2];
  ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, Fds2));
  Socket Writer2(Fds2[0]), Reader2(Fds2[1]);
  Writer2.close();
  EXPECT_EQ(FrameReadStatus::Eof, readFrame(Reader2, In, 1024, 1000, 1000));
}

TEST(WireCodec, TornFrameIsMalformedChecksumGuardsPayload) {
  Frame Out;
  Out.Type = FrameType::StatsRequest;
  Out.Payload = "some payload";
  std::string Bytes;
  encodeFrame(Out, Bytes);

  {
    // Header promises more bytes than ever arrive.
    int Fds[2];
    ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
    Socket Writer(Fds[0]), Reader(Fds[1]);
    std::string Torn = Bytes.substr(0, WireHeaderSize + 3);
    ASSERT_EQ(IoStatus::Ok, Writer.sendAll(Torn.data(), Torn.size(), 1000));
    Writer.close();
    Frame In;
    EXPECT_EQ(FrameReadStatus::Malformed,
              readFrame(Reader, In, 1024, 1000, 1000));
  }
  {
    // Flipped payload byte: checksum mismatch.
    int Fds[2];
    ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
    Socket Writer(Fds[0]), Reader(Fds[1]);
    std::string Corrupt = Bytes;
    Corrupt[WireHeaderSize] ^= 0x40;
    ASSERT_EQ(IoStatus::Ok,
              Writer.sendAll(Corrupt.data(), Corrupt.size(), 1000));
    Frame In;
    EXPECT_EQ(FrameReadStatus::Malformed,
              readFrame(Reader, In, 1024, 1000, 1000));
  }
  {
    // Oversized declaration: TooLarge before any payload is consumed.
    int Fds[2];
    ASSERT_EQ(0, socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
    Socket Writer(Fds[0]), Reader(Fds[1]);
    ASSERT_EQ(IoStatus::Ok, Writer.sendAll(Bytes.data(), Bytes.size(), 1000));
    Frame In;
    EXPECT_EQ(FrameReadStatus::TooLarge, readFrame(Reader, In, 4, 1000, 1000));
  }
}

TEST(Sockets, SendAllDeadlineHoldsWhenPeerStopsReading) {
  // A slow client that accepts the connection but never drains its receive
  // buffer must surface as Timeout within the write budget — the server's
  // slow-client guarantee (and with it SIGTERM drain) rests on this. Uses
  // real connect/accept sockets because those are the fds the fix switches
  // to O_NONBLOCK; a blocking fd would wedge in ::send() here.
  std::string Err;
  ListenSocket L = ListenSocket::listenTcp(0, 4, &Err);
  ASSERT_TRUE(L.valid()) << Err;
  Socket Client = Socket::connectTcp(L.boundPort(), &Err);
  ASSERT_TRUE(Client.valid()) << Err;
  IoStatus St = IoStatus::Error;
  Socket Server = L.accept(1000, St, &Err);
  ASSERT_EQ(IoStatus::Ok, St) << Err;

  // Far larger than any kernel socket buffer pair, so the transfer cannot
  // complete without the peer reading.
  std::string Big(64u << 20, 'x');
  auto Start = std::chrono::steady_clock::now();
  EXPECT_EQ(IoStatus::Timeout, Server.sendAll(Big.data(), Big.size(), 300));
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_LT(ElapsedMs, 5000) << "send blocked far past its deadline";
}

TEST(WireCodec, AllocRequestRoundTripsExactly) {
  AllocRequest R;
  R.Config = RegisterConfig(6, 4, 2, 1);
  R.Mode = FrequencyMode::Static;
  R.Options = cbhOptions();
  // Execution-strategy fields are the server's policy, not the request's:
  // the wire ships canonicalKey(), so Jobs must NOT survive the round trip.
  R.Options.Jobs = 5;
  R.DeadlineMs = 1234;
  R.ModuleText = "module m\nfunc @f (external)\n";

  AllocRequest Back;
  std::string Err;
  ASSERT_TRUE(parseAllocRequest(encodeAllocRequest(R), Back, &Err)) << Err;
  EXPECT_EQ(R.Config.IntCallerSave, Back.Config.IntCallerSave);
  EXPECT_EQ(R.Config.FloatCalleeSave, Back.Config.FloatCalleeSave);
  EXPECT_EQ(R.Mode, Back.Mode);
  EXPECT_EQ(1u, Back.Options.Jobs);
  EXPECT_EQ(R.Options.canonicalKey(), Back.Options.canonicalKey());
  AllocatorOptions Canonical = R.Options;
  Canonical.Jobs = 1;
  EXPECT_EQ(Canonical, Back.Options);
  EXPECT_EQ(R.DeadlineMs, Back.DeadlineMs);
  EXPECT_EQ(R.ModuleText, Back.ModuleText);
}

TEST(WireCodec, AllocResponseRoundTripsBitExactDoubles) {
  AllocResponse R;
  // Values chosen to be unrepresentable in short decimal: the codec must
  // still reproduce them bit-for-bit.
  R.Totals = {0.1 + 0.2, 1e300, 4.9e-324, 123456.789012345};
  R.Functions.push_back({"f", {3.14159265358979, 0, 2.5, 0.1}, 3, 2, 1, 7, 4});
  R.Functions.push_back({"g", {}, 1, 0, 0, 0, 0});
  R.Telemetry.Counters["rounds"] = 4;
  R.Telemetry.TimersMs["color"] = 0.12345;
  R.AllocatedIr = "module m\nfunc @f {\nentry:\n  ret\n}\n";

  AllocResponse Back;
  std::string Err;
  ASSERT_TRUE(parseAllocResponse(encodeAllocResponse(R), Back, &Err)) << Err;
  EXPECT_TRUE(R.Totals == Back.Totals);
  ASSERT_EQ(R.Functions.size(), Back.Functions.size());
  for (std::size_t I = 0; I < R.Functions.size(); ++I) {
    EXPECT_EQ(R.Functions[I].Name, Back.Functions[I].Name);
    EXPECT_TRUE(R.Functions[I].Costs == Back.Functions[I].Costs);
    EXPECT_EQ(R.Functions[I].Rounds, Back.Functions[I].Rounds);
    EXPECT_EQ(R.Functions[I].CalleeRegsPaid, Back.Functions[I].CalleeRegsPaid);
  }
  EXPECT_EQ(R.Telemetry, Back.Telemetry);
  EXPECT_EQ(R.AllocatedIr, Back.AllocatedIr);
}

TEST(WireCodec, HelloAndErrorRoundTrip) {
  HelloInfo H;
  H.ServerInfo = buildInfoString();
  H.MaxPayloadBytes = 16u << 20;
  H.QueueCapacity = 64;
  H.MaxBatch = 8;
  HelloInfo BH;
  std::string Err;
  ASSERT_TRUE(parseHello(encodeHello(H), BH, &Err)) << Err;
  EXPECT_EQ(H.ServerInfo, BH.ServerInfo);
  EXPECT_EQ(H.Protocol, BH.Protocol);
  EXPECT_EQ(H.MaxPayloadBytes, BH.MaxPayloadBytes);
  EXPECT_EQ(H.QueueCapacity, BH.QueueCapacity);
  EXPECT_EQ(H.MaxBatch, BH.MaxBatch);

  ErrorResponse E{"deadline", "expired after 5 ms\nwhile queued"};
  ErrorResponse BE;
  ASSERT_TRUE(parseError(encodeError(E), BE));
  EXPECT_EQ(E.Code, BE.Code);
  EXPECT_EQ(E.Message, BE.Message);
}

// --- live server ---------------------------------------------------------

TEST(Service, HelloCarriesBuildInfoAndLimits) {
  ServerConfig Config;
  Config.QueueCapacity = 5;
  Config.MaxBatch = 3;
  LiveServer S(Config);
  ServiceClient C = S.connect();
  EXPECT_EQ(buildInfoString(), C.hello().ServerInfo);
  EXPECT_EQ(WireVersion, C.hello().Protocol);
  EXPECT_EQ(5u, C.hello().QueueCapacity);
  EXPECT_EQ(3u, C.hello().MaxBatch);
}

TEST(Service, AllocationIsBitIdenticalToInProcess) {
  LiveServer S;
  ServiceClient C = S.connect();
  for (const char *Proxy : {"eqntott", "li"}) {
    AllocRequest Request = proxyRequest(Proxy);
    std::string ExpectedIr;
    CostBreakdown ExpectedTotals;
    expectedAllocation(Request.ModuleText, Request, ExpectedIr,
                       ExpectedTotals);

    AllocResponse Response;
    ErrorResponse ServerError;
    std::string Err;
    ASSERT_EQ(RpcStatus::Ok,
              C.allocate(Request, Response, ServerError, &Err))
        << Err << " [" << ServerError.Code << "] " << ServerError.Message;
    EXPECT_EQ(ExpectedIr, Response.AllocatedIr) << Proxy;
    EXPECT_TRUE(ExpectedTotals == Response.Totals) << Proxy;
    EXPECT_FALSE(Response.Functions.empty());
    EXPECT_GT(Response.Telemetry.count("functions"), 0.0);
  }
}

TEST(Service, CorpusReplaysBitIdenticalOverTheWire) {
  std::vector<std::string> Errors;
  std::vector<CorpusEntry> Entries =
      loadCorpusDir(std::string(CCRA_SOURCE_DIR) + "/fuzz/corpus", Errors);
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;
  ASSERT_FALSE(Entries.empty());

  LiveServer S;
  ServiceClient C = S.connect();
  for (const CorpusEntry &Entry : Entries) {
    AllocRequest Request;
    Request.Options = improvedOptions();
    for (const std::string &Line : Entry.HeaderLines) {
      unsigned Ri, Rf, Ei, Ef;
      if (std::sscanf(Line.c_str(), "config: %u,%u,%u,%u", &Ri, &Rf, &Ei,
                      &Ef) == 4)
        Request.Config = RegisterConfig(Ri, Rf, Ei, Ef);
    }
    Request.ModuleText = printed(*Entry.M);

    std::string ExpectedIr;
    CostBreakdown ExpectedTotals;
    expectedAllocation(Request.ModuleText, Request, ExpectedIr,
                       ExpectedTotals);

    AllocResponse Response;
    ErrorResponse ServerError;
    std::string Err;
    ASSERT_EQ(RpcStatus::Ok, C.allocate(Request, Response, ServerError, &Err))
        << Entry.Path << ": " << Err;
    EXPECT_EQ(ExpectedIr, Response.AllocatedIr) << Entry.Path;
    EXPECT_TRUE(ExpectedTotals == Response.Totals) << Entry.Path;
  }
}

TEST(Service, StatsReflectServedRequests) {
  LiveServer S;
  ServiceClient C = S.connect();
  AllocRequest Request = proxyRequest("eqntott");
  AllocResponse Response;
  ErrorResponse ServerError;
  ASSERT_EQ(RpcStatus::Ok, C.allocate(Request, Response, ServerError));

  TelemetrySnapshot Stats;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  EXPECT_EQ(1.0, Stats.count(telemetry::ServeRequests));
  EXPECT_EQ(1.0, Stats.count(telemetry::ServeResponsesOk));
  EXPECT_GE(Stats.count(telemetry::ServeBatches), 1.0);
  EXPECT_GE(Stats.count(telemetry::ServeConnections), 1.0);
  // The server merged the request's engine telemetry into its own.
  EXPECT_GT(Stats.count("functions"), 0.0);
}

TEST(Service, MalformedModuleAnswersErrorAndKeepsConnection) {
  LiveServer S;
  ServiceClient C = S.connect();

  AllocRequest Bad = proxyRequest("eqntott");
  Bad.ModuleText = "this is not ccra ir\n";
  AllocResponse Response;
  ErrorResponse ServerError;
  EXPECT_EQ(RpcStatus::Rejected, C.allocate(Bad, Response, ServerError));
  EXPECT_EQ("malformed", ServerError.Code);

  // Same connection still serves valid work.
  AllocRequest Good = proxyRequest("eqntott");
  EXPECT_EQ(RpcStatus::Ok, C.allocate(Good, Response, ServerError));
}

TEST(Service, MaxRoundsBelowDefaultAnswersErrorAndKeepsServing) {
  // A cap below the default can only turn a converging allocation into
  // the engine's convergence abort, which would take the whole daemon
  // down. The request must be rejected at parse time instead.
  LiveServer S;
  ServiceClient C = S.connect();

  AllocRequest Bad = proxyRequest("eqntott");
  Bad.Options.MaxRounds = 0;
  AllocResponse Response;
  ErrorResponse ServerError;
  EXPECT_EQ(RpcStatus::Rejected, C.allocate(Bad, Response, ServerError));
  EXPECT_EQ("malformed", ServerError.Code);
  EXPECT_NE(ServerError.Message.find("max-rounds"), std::string::npos)
      << ServerError.Message;

  // The same server, on the same connection, answers the next request.
  AllocRequest Good = proxyRequest("eqntott");
  std::string Err;
  EXPECT_EQ(RpcStatus::Ok, C.allocate(Good, Response, ServerError, &Err))
      << Err;
}

TEST(Service, GarbageAndTornFramesNeverTakeTheServerDown) {
  LiveServer S;

  // A connection per abuse; each must at worst die alone.
  {
    ServiceClient C = S.connect();
    ASSERT_TRUE(C.sendRawBytes(std::string("\xde\xad\xbe\xef garbage")));
    Frame In;
    FrameReadStatus RS = C.readResponse(In);
    // Either an Error frame or a close; never a hang.
    if (RS == FrameReadStatus::Ok) {
      EXPECT_EQ(FrameType::Error, In.Type);
    }
  }
  {
    // Torn frame: valid header, truncated payload, then close.
    ServiceClient C = S.connect();
    Frame F;
    F.Type = FrameType::AllocRequest;
    F.Payload = proxyRequest("eqntott").ModuleText;
    std::string Bytes;
    encodeFrame(F, Bytes);
    ASSERT_TRUE(C.sendRawBytes(Bytes.substr(0, WireHeaderSize + 10)));
    C.close();
  }
  {
    // Oversized declaration.
    ServiceClient C = S.connect();
    Frame F;
    F.Type = FrameType::AllocRequest;
    F.Payload = "x";
    std::string Huge;
    encodeFrame(F, Huge);
    // Rewrite the length field (header offset 8) to 1 GiB.
    Huge[8] = 0;
    Huge[9] = 0;
    Huge[10] = 0;
    Huge[11] = 0x40;
    ASSERT_TRUE(C.sendRawBytes(Huge));
    Frame In;
    FrameReadStatus RS = C.readResponse(In);
    if (RS == FrameReadStatus::Ok) {
      EXPECT_EQ(FrameType::Error, In.Type);
    }
  }

  // After all that, a fresh client still gets served.
  ServiceClient C = S.connect();
  AllocRequest Request = proxyRequest("eqntott");
  AllocResponse Response;
  ErrorResponse ServerError;
  std::string Err;
  EXPECT_EQ(RpcStatus::Ok, C.allocate(Request, Response, ServerError, &Err))
      << Err;

  TelemetrySnapshot Stats;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  EXPECT_GE(Stats.count(telemetry::ServeMalformed), 2.0);
}

// --- test hooks: shed, fault, deadline -----------------------------------

TEST(Service, ForcedQueueOverflowSheds) {
  ServerTestHooks Hooks;
  std::atomic<bool> Force{true};
  Hooks.ForceQueueOverflow = [&] { return Force.load(); };
  LiveServer S(ServerConfig(), Hooks);
  ServiceClient C = S.connect();

  AllocRequest Request = proxyRequest("eqntott");
  AllocResponse Response;
  ErrorResponse ServerError;
  EXPECT_EQ(RpcStatus::Shed, C.allocate(Request, Response, ServerError));
  EXPECT_EQ("shed", ServerError.Code);

  // Backpressure is advisory: once load clears, the same connection
  // succeeds on retry.
  Force.store(false);
  EXPECT_EQ(RpcStatus::Ok, C.allocate(Request, Response, ServerError));

  TelemetrySnapshot Stats;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  EXPECT_EQ(1.0, Stats.count(telemetry::ServeShed));
}

TEST(Service, InjectedWorkerFaultFailsOnlyTheTargetedRequest) {
  ServerTestHooks Hooks;
  Hooks.FailRequest = [](const AllocRequest &R) {
    return R.ModuleText.find("module li") != std::string::npos;
  };
  LiveServer S(ServerConfig(), Hooks);
  ServiceClient C = S.connect();

  AllocResponse Response;
  ErrorResponse ServerError;
  AllocRequest Poisoned = proxyRequest("li");
  EXPECT_EQ(RpcStatus::Rejected, C.allocate(Poisoned, Response, ServerError));
  EXPECT_EQ("fault", ServerError.Code);

  AllocRequest Healthy = proxyRequest("eqntott");
  EXPECT_EQ(RpcStatus::Ok, C.allocate(Healthy, Response, ServerError));

  TelemetrySnapshot Stats;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  EXPECT_EQ(1.0, Stats.count(telemetry::ServeWorkerFaults));
}

TEST(Service, StalledBatcherExpiresDeadlines) {
  ServerTestHooks Hooks;
  Hooks.BeforeBatch = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  };
  LiveServer S(ServerConfig(), Hooks);
  ServiceClient C = S.connect();

  AllocRequest Request = proxyRequest("eqntott");
  Request.DeadlineMs = 1;
  AllocResponse Response;
  ErrorResponse ServerError;
  EXPECT_EQ(RpcStatus::Rejected, C.allocate(Request, Response, ServerError));
  EXPECT_EQ("deadline", ServerError.Code);

  // Without a deadline the same stalled server still answers.
  Request.DeadlineMs = 0;
  EXPECT_EQ(RpcStatus::Ok, C.allocate(Request, Response, ServerError));
}

// --- drain ---------------------------------------------------------------

TEST(Service, DrainFinishesInFlightWorkAndRefusesNew) {
  auto S = std::make_unique<LiveServer>();
  int Port = S->Server.boundPort();

  // Hold a connection open across the drain; its request was fully served
  // beforehand and the drain must not tear the socket from under it.
  ServiceClient C;
  std::string Err;
  ASSERT_TRUE(C.connectTcp(Port, &Err)) << Err;
  AllocRequest Request = proxyRequest("eqntott");
  AllocResponse Response;
  ErrorResponse ServerError;
  ASSERT_EQ(RpcStatus::Ok, C.allocate(Request, Response, ServerError));

  S->Server.requestDrain();
  EXPECT_TRUE(S->Server.draining());

  // The held connection is told "draining" (or closed) on its next try...
  RpcStatus Status = C.allocate(Request, Response, ServerError, &Err);
  EXPECT_TRUE(Status == RpcStatus::Rejected || Status == RpcStatus::Transport);
  if (Status == RpcStatus::Rejected) {
    EXPECT_EQ("draining", ServerError.Code);
  }

  // ...new connections are refused outright, and wait() quiesces.
  S->Server.wait();
  ServiceClient Late;
  EXPECT_FALSE(Late.connectTcp(Port, &Err));
  S.reset();
}

// --- cache and shards (wire v1.1) ----------------------------------------

TEST(WireCodec, HelloMinorVersionFieldsAreVersionGated) {
  // A v1.0 hello (ProtocolMinor == 0) must not emit the v1.1 keys, and a
  // v1.0 payload parsed by a v1.1 client must land on the defaults — the
  // two directions of the mixed-version contract.
  HelloInfo Old;
  Old.ServerInfo = "old server";
  Old.ProtocolMinor = 0;
  std::string OldPayload = encodeHello(Old);
  EXPECT_EQ(std::string::npos, OldPayload.find("minor:"));
  EXPECT_EQ(std::string::npos, OldPayload.find("cache:"));
  EXPECT_EQ(std::string::npos, OldPayload.find("shards:"));

  HelloInfo ParsedOld;
  std::string Err;
  ASSERT_TRUE(parseHello(OldPayload, ParsedOld, &Err)) << Err;
  EXPECT_EQ(0u, ParsedOld.ProtocolMinor);
  EXPECT_FALSE(ParsedOld.CacheEnabled);
  EXPECT_EQ(0u, ParsedOld.Shards);

  // v1.1 round-trips its capability fields...
  HelloInfo New;
  New.ServerInfo = "new server";
  New.ProtocolMinor = WireMinorVersion;
  New.CacheEnabled = true;
  New.Shards = 4;
  HelloInfo ParsedNew;
  ASSERT_TRUE(parseHello(encodeHello(New), ParsedNew, &Err)) << Err;
  EXPECT_EQ(WireMinorVersion, ParsedNew.ProtocolMinor);
  EXPECT_TRUE(ParsedNew.CacheEnabled);
  EXPECT_EQ(4u, ParsedNew.Shards);

  // ...and an old client's parser (which ignores unknown keys) survives a
  // v1.1 payload: the same parse simply never sees the keys it predates.
  HelloInfo Tolerant;
  ASSERT_TRUE(parseHello("server: x\nfuture-key: whatever\n", Tolerant, &Err))
      << Err;
  EXPECT_EQ("x", Tolerant.ServerInfo);
}

TEST(Service, HelloAdvertisesCacheAndShards) {
  {
    LiveServer S; // defaults: cache on, one shard
    ServiceClient C = S.connect();
    EXPECT_EQ(WireMinorVersion, C.hello().ProtocolMinor);
    EXPECT_TRUE(C.hello().CacheEnabled);
    EXPECT_EQ(1u, C.hello().Shards);
  }
  {
    ServerConfig Config;
    Config.CacheBytes = 0;
    Config.Shards = 3;
    LiveServer S(Config);
    ServiceClient C = S.connect();
    EXPECT_FALSE(C.hello().CacheEnabled);
    EXPECT_EQ(3u, C.hello().Shards);
  }
}

TEST(Service, RepeatRequestServedFromCacheByteIdentical) {
  LiveServer S;
  ServiceClient C = S.connect();

  // A population of distinct requests — several proxies, each over the v1
  // text and the v2 binary codec (two cache keys per module) — sent cold
  // once, then repeated. Raw frames so the comparison covers the ENTIRE
  // response payload — costs, per-function summaries, telemetry, and IR —
  // not just the fields a parsed AllocResponse happens to surface.
  struct Case {
    AllocRequest Request;
    std::string Bytes;
    std::string Cold;
  };
  std::vector<Case> Cases;
  for (const char *Proxy : {"alvinn", "compress", "eqntott", "li"}) {
    for (bool Binary : {false, true}) {
      Case K;
      K.Request = proxyRequest(Proxy);
      Frame Req;
      Req.Type = FrameType::AllocRequest;
      if (Binary) {
        AllocRequest Encoded = K.Request;
        ParseResult PR = parseModule(Encoded.ModuleText);
        ASSERT_TRUE(PR.ok());
        std::string Err;
        ASSERT_TRUE(encodeAllocRequestV2(Encoded, *PR.M, Req.Payload, &Err))
            << Err;
        Req.Type = FrameType::AllocRequestV2;
      } else {
        Req.Payload = encodeAllocRequest(K.Request);
      }
      encodeFrame(Req, K.Bytes);
      Cases.push_back(std::move(K));
    }
  }
  const double N = static_cast<double>(Cases.size());

  auto Roundtrip = [&](const Case &K, std::string &Payload) {
    std::string Err;
    ASSERT_TRUE(C.sendRawBytes(K.Bytes, &Err)) << Err;
    Frame Resp;
    ASSERT_EQ(FrameReadStatus::Ok, C.readResponse(Resp, &Err)) << Err;
    ASSERT_EQ(FrameType::AllocResponse, Resp.Type);
    Payload = Resp.Payload;
  };

  // Cold pass: every request misses and is allocated bit-identical to
  // in-process allocation.
  for (Case &K : Cases) {
    Roundtrip(K, K.Cold);
    AllocResponse Parsed;
    ASSERT_TRUE(parseAllocResponse(K.Cold, Parsed));
    std::string ExpectedIr;
    CostBreakdown ExpectedTotals;
    expectedAllocation(K.Request.ModuleText, K.Request, ExpectedIr,
                       ExpectedTotals);
    EXPECT_EQ(ExpectedIr, Parsed.AllocatedIr);
    EXPECT_EQ(ExpectedTotals, Parsed.Totals);
  }
  TelemetrySnapshot Cold;
  ErrorResponse ServerError;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Cold, ServerError));
  EXPECT_EQ(0.0, Cold.count(telemetry::CacheHits));
  EXPECT_EQ(N, Cold.count(telemetry::CacheMisses));
  EXPECT_EQ(N, Cold.count(telemetry::CacheInsertions));
  EXPECT_EQ(N, Cold.count(telemetry::CacheModules));
  EXPECT_GT(Cold.count(telemetry::CacheBytes), 0.0);
  // One request in flight at a time on one connection to a one-shard
  // server: every cold request forms exactly one batch.
  EXPECT_EQ(N, Cold.count(telemetry::ServeBatches));

  // Repeat pass: every repeat is a hit, byte-identical to its cold
  // response, and bypasses the engine — no new batch is formed.
  for (const Case &K : Cases) {
    std::string Repeat;
    Roundtrip(K, Repeat);
    EXPECT_EQ(K.Cold, Repeat) << "cache hit diverged from the cold allocation";
  }
  TelemetrySnapshot Warm;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Warm, ServerError));
  EXPECT_EQ(N, Warm.count(telemetry::CacheHits));
  EXPECT_EQ(N, Warm.count(telemetry::CacheMisses));
  EXPECT_EQ(N, Warm.count(telemetry::CacheInsertions));
  EXPECT_EQ(Cold.count(telemetry::ServeBatches),
            Warm.count(telemetry::ServeBatches));
  EXPECT_EQ(2 * N, Warm.count(telemetry::ServeResponsesOk));
}

TEST(Service, OptionsPerturbationMissesCache) {
  LiveServer S;
  ServiceClient C = S.connect();

  AllocRequest Request = proxyRequest("eqntott");
  AllocResponse Response;
  ErrorResponse ServerError;
  ASSERT_EQ(RpcStatus::Ok, C.allocate(Request, Response, ServerError));

  // Same module, one behavior field perturbed: a different allocation
  // problem, so it must miss and be solved cold.
  AllocRequest Perturbed = Request;
  Perturbed.Options.AggressiveCoalescing =
      !Perturbed.Options.AggressiveCoalescing;
  ASSERT_EQ(RpcStatus::Ok, C.allocate(Perturbed, Response, ServerError));

  TelemetrySnapshot Stats;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  EXPECT_EQ(0.0, Stats.count(telemetry::CacheHits));
  EXPECT_EQ(2.0, Stats.count(telemetry::CacheMisses));
  EXPECT_EQ(2.0, Stats.count(telemetry::CacheInsertions));
}

TEST(Service, ShardedDispatchStaysBitIdentical) {
  ServerConfig Config;
  Config.Shards = 3;
  LiveServer S(Config);
  ServiceClient C = S.connect();

  TelemetrySnapshot Stats;
  ErrorResponse ServerError;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  EXPECT_EQ(3.0, Stats.count(telemetry::ShardCount));

  unsigned Sent = 0;
  for (const std::string &Proxy : specProxyNames()) {
    AllocRequest Request = proxyRequest(Proxy);
    std::string ExpectedIr;
    CostBreakdown ExpectedTotals;
    expectedAllocation(Request.ModuleText, Request, ExpectedIr,
                       ExpectedTotals);
    AllocResponse Response;
    std::string Err;
    ASSERT_EQ(RpcStatus::Ok, C.allocate(Request, Response, ServerError, &Err))
        << Proxy << ": " << Err;
    EXPECT_EQ(ExpectedIr, Response.AllocatedIr) << Proxy;
    EXPECT_TRUE(ExpectedTotals == Response.Totals) << Proxy;
    ++Sent;
  }

  // Every cold request was dispatched to exactly one shard.
  ASSERT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  double Dispatched = 0;
  for (unsigned I = 0; I < 3; ++I)
    Dispatched +=
        Stats.count("shard." + std::to_string(I) + ".dispatched");
  EXPECT_EQ(static_cast<double>(Sent), Dispatched);
}

// --- wire codec v2: binary modules (wire v1.2) ---------------------------

TEST(WireCodec, HelloCodecMaxIsVersionGated) {
  // Pre-v1.2 hellos carry no codec-max key and parse as text-only; a
  // v1.2 hello advertises the binary codec explicitly.
  HelloInfo Old;
  Old.ProtocolMinor = 1;
  Old.MaxCodec = 2; // must still be suppressed below the gating minor
  EXPECT_EQ(std::string::npos, encodeHello(Old).find("codec-max:"));

  HelloInfo Parsed;
  std::string Err;
  ASSERT_TRUE(parseHello(encodeHello(Old), Parsed, &Err)) << Err;
  EXPECT_EQ(1u, Parsed.MaxCodec) << "absent codec-max must mean text-only";

  HelloInfo New;
  New.ProtocolMinor = WireMinorVersion;
  New.MaxCodec = WireMaxCodec;
  ASSERT_TRUE(parseHello(encodeHello(New), Parsed, &Err)) << Err;
  EXPECT_EQ(WireMaxCodec, Parsed.MaxCodec);
}

TEST(Service, HelloAdvertisesBinaryCodec) {
  LiveServer S;
  ServiceClient C = S.connect();
  EXPECT_EQ(WireMaxCodec, C.hello().MaxCodec);
  EXPECT_GE(C.hello().MaxCodec, 2u);
}

TEST(Service, BinaryRequestsBitIdenticalToTextRequests) {
  // The two ingestion paths must be indistinguishable in their output:
  // same IR bytes, same totals, for every SPEC proxy. The cache keys the
  // codecs separately, so the v2 request is solved cold even right after
  // its v1 twin — this compares two independent allocations, not a
  // cached echo.
  LiveServer S;
  ServiceClient C = S.connect();
  for (const std::string &Proxy : specProxyNames()) {
    AllocRequest TextReq = proxyRequest(Proxy);

    AllocRequest BinReq = TextReq;
    ParseResult PR = parseModule(TextReq.ModuleText);
    ASSERT_TRUE(PR.ok()) << Proxy;
    std::string Err;
    ASSERT_TRUE(encodeModuleBinary(*PR.M, BinReq.ModuleBinary, &Err))
        << Proxy << ": " << Err;
    BinReq.ModuleText.clear();

    AllocResponse TextResp, BinResp;
    ErrorResponse ServerError;
    ASSERT_EQ(RpcStatus::Ok,
              C.allocate(TextReq, TextResp, ServerError, &Err))
        << Proxy << ": " << Err;
    ASSERT_EQ(RpcStatus::Ok, C.allocate(BinReq, BinResp, ServerError, &Err))
        << Proxy << ": " << Err << " [" << ServerError.Code << "] "
        << ServerError.Message;

    EXPECT_EQ(TextResp.AllocatedIr, BinResp.AllocatedIr) << Proxy;
    EXPECT_TRUE(TextResp.Totals == BinResp.Totals) << Proxy;
  }

  // Both codecs populated the cache under their own keys: all cold.
  TelemetrySnapshot Stats;
  ErrorResponse ServerError;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  EXPECT_EQ(0.0, Stats.count(telemetry::CacheHits));
}

TEST(Service, RepeatBinaryRequestServedFromCacheByteIdentical) {
  LiveServer S;
  ServiceClient C = S.connect();

  AllocRequest Request = proxyRequest("eqntott");
  ParseResult PR = parseModule(Request.ModuleText);
  ASSERT_TRUE(PR.ok());
  std::string Err;
  ASSERT_TRUE(encodeModuleBinary(*PR.M, Request.ModuleBinary, &Err)) << Err;
  Request.ModuleText.clear();

  Frame Req;
  Req.Type = FrameType::AllocRequestV2;
  Req.Payload = encodeAllocRequestV2(Request);
  std::string Bytes;
  encodeFrame(Req, Bytes);

  std::string Payloads[2];
  for (int I = 0; I < 2; ++I) {
    ASSERT_TRUE(C.sendRawBytes(Bytes, &Err)) << Err;
    Frame Resp;
    ASSERT_EQ(FrameReadStatus::Ok, C.readResponse(Resp, &Err)) << Err;
    ASSERT_EQ(FrameType::AllocResponse, Resp.Type);
    Payloads[I] = Resp.Payload;
  }
  EXPECT_EQ(Payloads[0], Payloads[1]);

  TelemetrySnapshot Stats;
  ErrorResponse ServerError;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  EXPECT_EQ(1.0, Stats.count(telemetry::CacheHits));
  EXPECT_EQ(1.0, Stats.count(telemetry::CacheMisses));
}

TEST(Service, V2GarbageAndTornFramesNeverTakeTheServerDown) {
  // The v1 robustness ladder, restated for the binary codec: every abuse
  // is answered with an Error frame or a clean close, the daemon stays up,
  // and the next well-formed v2 request succeeds.
  LiveServer S;

  {
    // Well-framed AllocRequestV2 whose payload is not a v2 payload.
    ServiceClient C = S.connect();
    Frame F;
    F.Type = FrameType::AllocRequestV2;
    F.Payload = "\xde\xad not a request";
    std::string Bytes;
    encodeFrame(F, Bytes);
    ASSERT_TRUE(C.sendRawBytes(Bytes));
    Frame In;
    ASSERT_EQ(FrameReadStatus::Ok, C.readResponse(In));
    ASSERT_EQ(FrameType::Error, In.Type);
    ErrorResponse E;
    ASSERT_TRUE(parseError(In.Payload, E));
    EXPECT_EQ("malformed", E.Code);
  }
  {
    // Valid v2 headers carrying corrupted module bytes: the frame and
    // request parse, the module decode fails, the connection survives.
    ServiceClient C = S.connect();
    AllocRequest R = proxyRequest("eqntott");
    ParseResult PR = parseModule(R.ModuleText);
    ASSERT_TRUE(PR.ok());
    std::string Err;
    ASSERT_TRUE(encodeModuleBinary(*PR.M, R.ModuleBinary, &Err));
    R.ModuleText.clear();
    R.ModuleBinary[R.ModuleBinary.size() / 2] ^= 0x5A;

    AllocResponse Response;
    ErrorResponse ServerError;
    EXPECT_EQ(RpcStatus::Rejected, C.allocate(R, Response, ServerError));
    EXPECT_EQ("malformed", ServerError.Code);

    // Same connection still serves valid v2 work.
    AllocRequest Good = proxyRequest("eqntott");
    PR = parseModule(Good.ModuleText);
    ASSERT_TRUE(PR.ok());
    ASSERT_TRUE(encodeModuleBinary(*PR.M, Good.ModuleBinary, &Err));
    Good.ModuleText.clear();
    EXPECT_EQ(RpcStatus::Ok, C.allocate(Good, Response, ServerError));
  }
  {
    // Torn v2 frame: header promises more payload than ever arrives.
    ServiceClient C = S.connect();
    AllocRequest R = proxyRequest("eqntott");
    ParseResult PR = parseModule(R.ModuleText);
    ASSERT_TRUE(PR.ok());
    std::string Err;
    ASSERT_TRUE(encodeModuleBinary(*PR.M, R.ModuleBinary, &Err));
    R.ModuleText.clear();
    Frame F;
    F.Type = FrameType::AllocRequestV2;
    F.Payload = encodeAllocRequestV2(R);
    std::string Bytes;
    encodeFrame(F, Bytes);
    ASSERT_TRUE(C.sendRawBytes(Bytes.substr(0, WireHeaderSize + 10)));
    C.close();
  }
  {
    // Oversized declared length on the v2 frame type.
    ServiceClient C = S.connect();
    Frame F;
    F.Type = FrameType::AllocRequestV2;
    F.Payload = "x";
    std::string Huge;
    encodeFrame(F, Huge);
    Huge[8] = 0;
    Huge[9] = 0;
    Huge[10] = 0;
    Huge[11] = 0x40;
    ASSERT_TRUE(C.sendRawBytes(Huge));
    Frame In;
    FrameReadStatus RS = C.readResponse(In);
    if (RS == FrameReadStatus::Ok) {
      EXPECT_EQ(FrameType::Error, In.Type);
    }
  }

  ServiceClient C = S.connect();
  AllocRequest Request = proxyRequest("eqntott");
  AllocResponse Response;
  ErrorResponse ServerError;
  std::string Err;
  EXPECT_EQ(RpcStatus::Ok, C.allocate(Request, Response, ServerError, &Err))
      << Err;

  TelemetrySnapshot Stats;
  ASSERT_EQ(RpcStatus::Ok, C.stats(Stats, ServerError));
  EXPECT_GE(Stats.count(telemetry::ServeMalformed), 2.0);
}

// --- event loop: connection scaling --------------------------------------

TEST(Service, ManyIdleConnectionsPlusActiveWork) {
  // The event loop decouples connection count from thread count: hundreds
  // of idle peers must cost nothing but a file descriptor each while
  // allocations proceed on other connections, and drain must sweep the
  // idle crowd without waiting on any of them.
  LiveServer S;

  std::vector<ServiceClient> Idle(200);
  std::string Err;
  for (auto &C : Idle)
    ASSERT_TRUE(C.connectTcp(S.Server.boundPort(), &Err)) << Err;

  ServiceClient Active = S.connect();
  AllocRequest Request = proxyRequest("eqntott");
  AllocResponse Response;
  ErrorResponse ServerError;
  ASSERT_EQ(RpcStatus::Ok, Active.allocate(Request, Response, ServerError));

  TelemetrySnapshot Stats;
  ASSERT_EQ(RpcStatus::Ok, Active.stats(Stats, ServerError));
  EXPECT_GE(Stats.count(telemetry::ServeOpenConnections), 201.0);
  EXPECT_GE(Stats.count(telemetry::ServePeakConnections), 201.0);

  // Drain with every idle connection still open: the loop closes them
  // immediately rather than waiting out any per-connection timeout.
  auto Start = std::chrono::steady_clock::now();
  S.Server.requestDrain();
  S.Server.wait();
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_LT(ElapsedMs, 5000) << "drain waited on idle connections";
}

TEST(Service, DrainInterruptsSilentAndMidFramePeers) {
  auto S = std::make_unique<LiveServer>();
  std::string Err;

  // One peer that never reads its Hello and goes silent, and one that
  // sends a torn header fragment then stalls: without the read-side
  // shutdown in requestDrain() the second would pin its connection thread
  // for the full mid-frame read budget (30 s) and wait() would hang on it.
  Socket Silent = Socket::connectTcp(S->Server.boundPort(), &Err);
  ASSERT_TRUE(Silent.valid()) << Err;
  Socket Torn = Socket::connectTcp(S->Server.boundPort(), &Err);
  ASSERT_TRUE(Torn.valid()) << Err;
  const char Fragment[2] = {'\x00', '\x01'};
  ASSERT_EQ(IoStatus::Ok, Torn.sendAll(Fragment, sizeof(Fragment), 1000));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  auto Start = std::chrono::steady_clock::now();
  S->Server.requestDrain();
  S->Server.wait();
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_LT(ElapsedMs, 5000) << "drain waited out a wedged peer";
  S.reset();
}

} // namespace
