//===- ccrabench/ServeZipf.cpp - The serve-zipf workload ------------------===//
//
// An in-process AllocationServer (ServerConfig defaults: one shard, 64 MiB
// cache, loopback TCP) driven open-loop: requests go out at seeded Poisson
// arrival times, whether or not earlier replies are back, and each one is
// timed from when it was due. Requests are dealt round-robin over nproc/2
// pipelined connections; each connection has a sender thread writing
// pre-encoded frames (encodeFrame + ServiceClient::sendRawBytes) and a
// reader thread collecting the replies (ServiceClient::readResponse), which
// come back in request order because the server keeps one request per
// connection in flight. Separate senders keep one connection's backpressure
// from delaying the sends of another.
//
// Traffic: Zipf(1.1) over a hot population of 340 requests (the 20 corpus
// programs lowered by the frontend and the 14 SPEC proxies, x 5 allocator
// option sets x 2 frequency modes), with requests alternating the v1 text
// and v2 binary codecs; one request in ten (at a seeded slot of every ten)
// carries a never-seen FuzzGen module, so cold allocations, cache inserts
// and v1 parses on the event-loop thread run beside the hits. No malformed
// or torn frames are sent: abuse handling stays out of served latency.
//
// The window is a fixed-rate phase (latency and CPU metrics) followed by
// the max_rate_rps search on the fixed ladder 1000 * 2^(k/8) requests/s.
// A rung passes when every request is answered, the median over its
// sub-windows of the p99 latency from due time is within LatencyLimitMs,
// and the median latency of its last sub-window is too (no backlog left
// growing); a rung fails when two attempts at it fail. The search climbs
// four rungs at a time and stops at the first rung that fails, then bisects
// back between the last passing and the failing rung. Medians over
// sub-windows, and the second attempt, keep a short stall of a shared host
// from deciding a figure.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Workloads.h"

#include "core/EngineBuilder.h"
#include "frontend/Frontend.h"
#include "ir/IRBinary.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "service/AllocationCache.h"
#include "service/BinaryCodec.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Hash.h"
#include "workloads/FuzzGen.h"
#include "workloads/SpecProxies.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

using namespace ccra;

namespace ccrabench {

namespace {

constexpr double ZipfExponent = 1.1;
constexpr unsigned ColdEvery = 10;
/// The fixed-rate phase: offered rate, share of the window, and the
/// sub-windows whose median each latency and CPU metric reports.
constexpr double OfferedRps = 1000;
constexpr double FixedShare = 0.5;
constexpr unsigned FixedSubWindows = 20;
/// The max_rate_rps ladder and its pass criterion.
constexpr double LadderBaseRps = 1000;
constexpr unsigned RungsPerDoubling = 8;
constexpr int ClimbStride = 4;
constexpr double RungSeconds = 1.0;
constexpr unsigned RungSubWindows = 4;
constexpr double LatencyLimitMs = 100;
/// A fixed-rate phase whose typical send ran later than this (median over
/// its sub-windows of the median send lag) measured a generator that fell
/// behind, not the server: the run is invalid. Wake-up jitter of the
/// senders' sleeps shows in the p99 lag, which is reported, not judged.
constexpr double GenLagLimitMs = 2;
constexpr unsigned SetupReps = 5;
/// Replayed requests per traced pass.
constexpr unsigned ReplayRequests = 2000;
constexpr int ClientTimeoutMs = 10000;

const RegisterConfig Config(9, 7, 3, 3); // AllocRequest's default config

std::vector<AllocatorOptions> optionSets() {
  return {improvedOptions(), baseChaitinOptions(), cbhOptions(),
          priorityOptions(), improvedOptimisticOptions()};
}

struct Expectation {
  std::string Ir;
  CostBreakdown Totals;
};

/// In-process allocation of what a request carries: the reference every
/// served response must equal byte for byte.
Expectation expect(const std::string &Text, const AllocatorOptions &Options,
                   FrequencyMode Mode) {
  ParseResult PR = parseModule(Text);
  check(PR.ok(), "serve-zipf: request module does not parse");
  FrequencyInfo Freq = FrequencyInfo::compute(*PR.M, Mode);
  AllocationEngine Engine =
      EngineBuilder(Config).options(Options).jobs(1).build();
  ModuleAllocationResult R = Engine.allocateModule(*PR.M, Freq);
  check(noVerifyErrors(R), "serve-zipf: allocation reports VerifyErrors");
  check(verifyModule(*PR.M, nullptr),
        "serve-zipf: allocated module fails verifyModule");
  return {printed(*PR.M), R.Totals};
}

std::string encodeRequestFrame(AllocRequest R, const std::string &Text,
                               bool Binary) {
  Frame F;
  if (Binary) {
    ParseResult PR = parseModule(Text);
    check(PR.ok(), "serve-zipf: module does not parse");
    R.ModuleText.clear();
    check(encodeAllocRequestV2(R, *PR.M, F.Payload),
          "serve-zipf: module has no binary form");
    F.Type = FrameType::AllocRequestV2;
  } else {
    R.ModuleText = Text;
    R.ModuleBinary.clear();
    F.Payload = encodeAllocRequest(R);
    F.Type = FrameType::AllocRequest;
  }
  std::string Bytes;
  encodeFrame(F, Bytes);
  return Bytes;
}

AllocRequest requestFor(const AllocatorOptions &O, FrequencyMode Mode) {
  AllocRequest R;
  R.Config = Config;
  R.Options = O;
  R.Mode = Mode;
  return R;
}

std::unique_ptr<Module> coldModule(std::uint64_t Seed) {
  return generateFuzzModule({Seed, FuzzProfile::Mixed, 1});
}

/// One scheduled request.
struct Planned {
  double DueMs = 0;    ///< from the phase start
  unsigned Frame = 0;  ///< index into Inputs::Frames
  unsigned Expect = 0; ///< hot key, or NumHot + cold index
  unsigned Instructions = 0;
};

struct Phase {
  double Rps = 0;
  double Seconds = 0;
  std::vector<Planned> Requests;
};

/// What came back for one request.
struct Observed {
  double LagMs = 0;     ///< send start - due time
  double LatencyMs = 0; ///< reply received - due time
  bool Ok = false;      ///< an AllocResponse frame arrived
  std::uint64_t PayloadHash = 0;
};

/// The requests the run sends, all derived from the seed.
struct Inputs {
  std::vector<AllocatorOptions> Options = optionSets();
  std::vector<std::string> Texts; ///< hot modules, printed
  std::vector<unsigned> TextInstructions;
  unsigned NumHot = 0;
  std::vector<double> ZipfCdf;
  std::vector<std::string> Frames; ///< hot: 2 per key (v1, v2); then cold
  std::vector<bool> FrameBinary;   ///< the frame carries a v2 request
  std::vector<Expectation> Expected; ///< hot: before the window; cold: after
  std::vector<std::uint64_t> ColdSeeds;
  std::uint64_t Seed = 0;

  unsigned hotModule(unsigned Key) const {
    return Key % static_cast<unsigned>(Texts.size());
  }
  const AllocatorOptions &hotOptions(unsigned Key) const {
    return Options[Key / Texts.size() % Options.size()];
  }
  FrequencyMode hotMode(unsigned Key) const {
    return Key / (Texts.size() * Options.size()) == 0 ? FrequencyMode::Profile
                                                       : FrequencyMode::Static;
  }

  /// The hot population: frames in both codecs and their expectations.
  explicit Inputs(const RunArgs &Args) : Seed(Args.Seed) {
    for (const CorpusProgram &P : loadCorpus(Args.Root)) {
      CompileResult CR = Frontend::compile(P.Source, P.Name);
      check(CR.ok(), "serve-zipf: " + P.Name + " does not compile");
      Texts.push_back(printed(*CR.M));
      TextInstructions.push_back(countInstructions(*CR.M));
    }
    for (const std::string &Name : specProxyNames()) {
      std::unique_ptr<Module> M = buildSpecProxy(Name);
      Texts.push_back(printed(*M));
      TextInstructions.push_back(countInstructions(*M));
    }
    NumHot = static_cast<unsigned>(Texts.size() * Options.size() * 2);
    // Rank order: the hottest keys cycle through the modules first, so the
    // head of the distribution mixes program sizes.
    double Sum = 0;
    for (unsigned Key = 0; Key < NumHot; ++Key) {
      AllocRequest R = requestFor(hotOptions(Key), hotMode(Key));
      const std::string &Text = Texts[hotModule(Key)];
      for (bool Binary : {false, true}) {
        Frames.push_back(encodeRequestFrame(R, Text, Binary));
        FrameBinary.push_back(Binary);
      }
      Expected.push_back(expect(Text, R.Options, R.Mode));
      Sum += 1.0 / std::pow(Key + 1.0, ZipfExponent);
      ZipfCdf.push_back(Sum);
    }
    for (double &V : ZipfCdf)
      V /= Sum;
  }

  /// Poisson arrivals at \p Rps for \p Seconds. \p Stream names the phase
  /// (the fixed phase, or a ladder rung), so a phase's requests depend on
  /// the seed and the phase only, not on which rungs ran before it.
  Phase makePhase(double Rps, double Seconds, std::uint64_t Stream) {
    Rng R(Seed * 0x9e3779b97f4a7c15ull + Stream);
    Phase P;
    P.Rps = Rps;
    P.Seconds = Seconds;
    double Due = 0;
    unsigned ColdSlot = 0;
    for (unsigned Sent = 0;; ++Sent) {
      Due += -std::log(1.0 - R.nextDouble()) / Rps * 1000.0;
      if (Due >= Seconds * 1000.0)
        break;
      // Exactly one request in every ColdEvery is cold, at a seeded slot.
      if (Sent % ColdEvery == 0)
        ColdSlot = static_cast<unsigned>(R.nextBelow(ColdEvery));
      bool Binary = Sent % 2 == 1;
      Planned Q;
      Q.DueMs = Due;
      if (Sent % ColdEvery == ColdSlot) {
        std::uint64_t ColdSeed = R.next();
        std::unique_ptr<Module> M = coldModule(ColdSeed);
        Q.Expect = NumHot + static_cast<unsigned>(ColdSeeds.size());
        Q.Frame = static_cast<unsigned>(Frames.size());
        Q.Instructions = countInstructions(*M);
        Frames.push_back(encodeRequestFrame(
            requestFor(improvedOptions(), FrequencyMode::Profile), printed(*M),
            Binary));
        FrameBinary.push_back(Binary);
        ColdSeeds.push_back(ColdSeed);
      } else {
        auto Key = static_cast<unsigned>(
            std::lower_bound(ZipfCdf.begin(), ZipfCdf.end(), R.nextDouble()) -
            ZipfCdf.begin());
        Key = std::min(Key, NumHot - 1);
        Q.Expect = Key;
        Q.Frame = 2 * Key + (Binary ? 1 : 0);
        Q.Instructions = TextInstructions[hotModule(Key)];
      }
      P.Requests.push_back(Q);
    }
    return P;
  }
};

/// Splits a phase's requests into \p Parts equal stretches of due time.
std::vector<std::vector<std::size_t>> subWindows(const Phase &P,
                                                 unsigned Parts) {
  std::vector<std::vector<std::size_t>> W(Parts);
  for (std::size_t I = 0; I < P.Requests.size(); ++I) {
    auto Part = static_cast<unsigned>(P.Requests[I].DueMs /
                                      (P.Seconds * 1000.0) * Parts);
    W[std::min(Part, Parts - 1)].push_back(I);
  }
  return W;
}

/// Latency from due time; a request that got no reply is infinitely late.
double latencyOf(const Observed &O) { return O.Ok ? O.LatencyMs : HUGE_VAL; }

/// The median over sub-windows of the \p Pct percentile of \p Field.
template <typename Fn>
double medianOfWindows(const std::vector<std::vector<std::size_t>> &W,
                       double Pct, Fn Field) {
  std::vector<double> PerWindow;
  for (const auto &Indices : W) {
    std::vector<double> V;
    for (std::size_t I : Indices)
      V.push_back(Field(I));
    if (!V.empty())
      PerWindow.push_back(percentile(std::move(V), Pct));
  }
  return median(std::move(PerWindow));
}

/// The server under test plus the generator's connections.
class Harness {
public:
  explicit Harness(const Inputs &In) : In(In) {
    // A sender and a reader per connection: nproc threads in all.
    NumConnections = std::max(1u, std::thread::hardware_concurrency() / 2);
  }
  ~Harness() { stop(); }

  /// Starts a server, connects, and warms the cache with every hot request
  /// in both codecs.
  void start() {
    Server = std::make_unique<AllocationServer>(ServerConfig());
    std::string Err;
    check(Server->start(&Err), "serve-zipf: server start: " + Err);
    for (unsigned C = 0; C < NumConnections; ++C) {
      auto Client = std::make_unique<ServiceClient>();
      check(Client->connectTcp(Server->boundPort(), &Err),
            "serve-zipf: connect: " + Err);
      check(Client->hello().MaxCodec >= 2,
            "serve-zipf: server lacks codec v2");
      Client->setTimeoutMs(ClientTimeoutMs);
      Clients.push_back(std::move(Client));
    }
    for (unsigned F = 0; F < 2 * In.NumHot; ++F) {
      Frame Reply;
      check(Clients[0]->sendRawBytes(In.Frames[F], &Err) &&
                Clients[0]->readResponse(Reply, &Err) == FrameReadStatus::Ok &&
                Reply.Type == FrameType::AllocResponse,
            "serve-zipf: warm-up request failed: " + Err);
    }
  }

  void stop() {
    Clients.clear();
    if (Server) {
      Server->requestDrain();
      Server->wait();
      Server.reset();
    }
  }

  AllocationServer &server() { return *Server; }

  /// Sends \p P open-loop and waits for every reply. With \p CpuMarks,
  /// records process CPU seconds at the start of each of \p Parts equal
  /// stretches of due time, and once more after the last reply.
  std::vector<Observed> run(const Phase &P, unsigned Parts = 1,
                            std::vector<double> *CpuMarks = nullptr) {
    const std::vector<Planned> &Q = P.Requests;
    std::vector<Observed> Out(Q.size());
    unsigned C = NumConnections;
    Clock::time_point Start = Clock::now() + std::chrono::milliseconds(5);
    auto DueAt = [&](std::size_t I) {
      return Start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(Q[I].DueMs));
    };

    std::vector<std::thread> Threads;
    std::vector<std::unordered_map<std::uint64_t, std::string>> Seen(C);
    for (unsigned Conn = 0; Conn < C; ++Conn) {
      Threads.emplace_back([&, Conn] {
        Frame Reply;
        for (std::size_t I = Conn; I < Q.size(); I += C) {
          if (Clients[Conn]->readResponse(Reply) != FrameReadStatus::Ok)
            return; // the rest of this connection stays not-Ok
          Observed &O = Out[I];
          O.LatencyMs = msBetween(DueAt(I), Clock::now());
          O.Ok = Reply.Type == FrameType::AllocResponse;
          if (O.Ok) {
            O.PayloadHash = fnv1a64(Reply.Payload);
            Seen[Conn].try_emplace(O.PayloadHash, std::move(Reply.Payload));
          }
        }
      });
      Threads.emplace_back([&, Conn] {
        for (std::size_t I = Conn; I < Q.size(); I += C) {
          Clock::time_point Due = DueAt(I);
          std::this_thread::sleep_until(Due);
          Out[I].LagMs = msBetween(Due, Clock::now());
          if (!Clients[Conn]->sendRawBytes(In.Frames[Q[I].Frame]))
            return; // this connection's reader times out on what is left
        }
      });
    }
    if (CpuMarks) {
      CpuMarks->assign(1, cpuSeconds());
      for (unsigned Part = 1; Part < Parts; ++Part) {
        std::chrono::duration<double> Offset(P.Seconds * Part / Parts);
        std::this_thread::sleep_until(
            Start + std::chrono::duration_cast<Clock::duration>(Offset));
        CpuMarks->push_back(cpuSeconds());
      }
    }
    for (std::thread &T : Threads)
      T.join();
    if (CpuMarks)
      CpuMarks->push_back(cpuSeconds());
    for (auto &Map : Seen)
      Payloads.merge(Map);
    return Out;
  }

  /// Every distinct reply payload seen, by hash.
  std::unordered_map<std::uint64_t, std::string> Payloads;

private:
  const Inputs &In;
  unsigned NumConnections = 1;
  std::unique_ptr<AllocationServer> Server;
  std::vector<std::unique_ptr<ServiceClient>> Clients;
};

/// The phases run so far and what came back, for the checks after the
/// window. A deque, so references to earlier phases stay valid.
struct Ran {
  std::deque<Phase> Phases;
  std::deque<std::vector<Observed>> Results;
};

bool rungPasses(const Phase &P, const std::vector<Observed> &Out) {
  auto W = subWindows(P, RungSubWindows);
  auto Lat = [&](std::size_t I) { return latencyOf(Out[I]); };
  double P99 = medianOfWindows(W, 99, Lat);
  double LastP50 = medianOfWindows({W.back()}, 50, Lat);
  bool AllOk = std::all_of(Out.begin(), Out.end(),
                           [](const Observed &O) { return O.Ok; });
  bool Pass = AllOk && !Out.empty() && P99 <= LatencyLimitMs &&
              LastP50 <= LatencyLimitMs;
  std::fprintf(stderr,
               "serve-zipf: rung %.0f rps, %zu requests: median window p99 "
               "%.3f ms, last window p50 %.3f ms: %s\n",
               P.Rps, Out.size(), P99, LastP50, Pass ? "pass" : "fail");
  return Pass;
}

/// The max_rate_rps search over the ladder; every rung it runs is logged.
double maxRate(Inputs &In, Harness &H, Ran &Log, Clock::time_point Deadline) {
  int Pass = -1, Fail = -1;
  auto Rate = [](int K) {
    return LadderBaseRps * std::pow(2.0, K / double(RungsPerDoubling));
  };
  // A rung fails only when a second attempt (other requests, same rate)
  // fails too, so one stall of a shared host cannot end the climb.
  auto Try = [&](int K) {
    bool Ok = false;
    for (int Attempt = 0; Attempt < 2 && !Ok; ++Attempt) {
      Log.Phases.push_back(
          In.makePhase(Rate(K), RungSeconds, 1 + 2 * K + Attempt));
      Log.Results.push_back(H.run(Log.Phases.back()));
      Ok = rungPasses(Log.Phases.back(), Log.Results.back());
    }
    (Ok ? Pass : Fail) = K;
    return Ok;
  };
  auto TimeLeft = [&] {
    return msBetween(Clock::now(), Deadline) >= RungSeconds * 1000.0;
  };
  for (int K = 0; TimeLeft() && Try(K); K += ClimbStride) {
  }
  for (int Stride = ClimbStride / 2;
       Stride >= 1 && Pass >= 0 && Fail >= 0 && TimeLeft(); Stride /= 2)
    if (Pass + Stride < Fail)
      Try(Pass + Stride);
  return Pass < 0 ? 0.0 : Rate(Pass);
}

/// Every OK reply must equal the in-process allocation of its request.
void checkReplies(Inputs &In, const Harness &H, const Ran &Log) {
  // Cold expectations, computed now for every cold request that was sent.
  std::vector<unsigned> Cold;
  for (const Phase &P : Log.Phases)
    for (const Planned &Q : P.Requests)
      if (Q.Expect >= In.NumHot)
        Cold.push_back(Q.Expect - In.NumHot);
  In.Expected.resize(In.NumHot + In.ColdSeeds.size());
  std::atomic<std::size_t> Next{0};
  std::mutex FailureMutex;
  std::string Failure;
  std::vector<std::thread> Workers;
  unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned W = 0; W < Hw; ++W)
    Workers.emplace_back([&] {
      for (std::size_t I; (I = Next++) < Cold.size();) {
        unsigned C = Cold[I];
        try {
          In.Expected[In.NumHot + C] =
              expect(printed(*coldModule(In.ColdSeeds[C])), improvedOptions(),
                     FrequencyMode::Profile);
        } catch (const CheckFailure &E) {
          std::lock_guard<std::mutex> Lock(FailureMutex);
          Failure = E.what();
        }
      }
    });
  for (std::thread &T : Workers)
    T.join();
  check(Failure.empty(), Failure);

  std::unordered_map<std::uint64_t, AllocResponse> Parsed;
  for (std::size_t P = 0; P < Log.Phases.size(); ++P)
    for (std::size_t I = 0; I < Log.Results[P].size(); ++I) {
      const Observed &O = Log.Results[P][I];
      if (!O.Ok)
        continue;
      auto It = Parsed.find(O.PayloadHash);
      if (It == Parsed.end()) {
        AllocResponse Resp;
        check(parseAllocResponse(H.Payloads.at(O.PayloadHash), Resp),
              "serve-zipf: reply does not parse");
        It = Parsed.emplace(O.PayloadHash, std::move(Resp)).first;
      }
      const Expectation &E = In.Expected[Log.Phases[P].Requests[I].Expect];
      check(It->second.AllocatedIr == E.Ir && It->second.Totals == E.Totals,
            "serve-zipf: a reply differs from the in-process allocation of "
            "its request");
    }
}

double counterDelta(const TelemetrySnapshot &Before,
                    const TelemetrySnapshot &After, const char *Name) {
  return After.count(Name) - Before.count(Name);
}

/// The traced run's replay: the fixed phase's requests through the public
/// ingestion functions the server calls, then the allocation it runs on a
/// miss.
struct Replay {
  explicit Replay(const Inputs &In) : In(In) {
    for (const AllocatorOptions &O : In.Options)
      Engines.push_back(EngineBuilder(Config).options(O).jobs(1).build());
  }

  /// Returns the operation's wall time.
  double runOp(const Planned &P, unsigned Op, Tracer *T) {
    std::string Payload = In.Frames[P.Frame].substr(WireHeaderSize);
    bool Binary = In.FrameBinary[P.Frame];
    Clock::time_point T0 = Clock::now();
    if (T)
      T->beginOp(Op);
    AllocRequest Req;
    std::unique_ptr<Module> M;
    if (Binary) {
      SpanScope S(T, "ir.decode");
      check(parseAllocRequestV2(Payload, Req), "replay: bad v2 request");
      M = decodeModuleBinary(Req.ModuleBinary);
    } else {
      SpanScope S(T, "ir.parse");
      check(parseAllocRequest(Payload, Req), "replay: bad v1 request");
      M = parseModule(Req.ModuleText).M;
    }
    check(M != nullptr, "replay: module does not decode");
    std::string Key;
    {
      SpanScope S(T, "service.cache_key");
      Key = allocationCacheKey(Req);
    }
    FrequencyInfo Freq;
    {
      SpanScope S(T, "analysis.freq");
      Freq = FrequencyInfo::compute(*M, Req.Mode);
    }
    AllocationEngine &Engine = engineFor(Req.Options);
    ModuleAllocationResult R;
    {
      SpanScope S(T, "regalloc.alloc");
      R = Engine.allocateModule(*M, Freq);
    }
    std::string Out;
    {
      SpanScope S(T, "ir.print");
      printModule(*M, Out);
    }
    if (T)
      T->endOp();
    double Ms = msBetween(T0, Clock::now());
    check(Out == In.Expected[P.Expect].Ir,
          "replay: allocation differs from the expected one");
    (Binary ? V2Bytes : V1Bytes) += static_cast<double>(Payload.size());
    return Ms;
  }

  AllocationEngine &engineFor(const AllocatorOptions &O) {
    for (std::size_t I = 0; I < In.Options.size(); ++I)
      if (In.Options[I] == O)
        return Engines[I];
    throw CheckFailure("replay: unknown allocator options");
  }

  const Inputs &In;
  std::vector<AllocationEngine> Engines;
  double V1Bytes = 0, V2Bytes = 0;
};

/// The traced measurement of the serving path, within \p Seconds: the
/// open loop at the fixed rate (server counters, latency from due time,
/// generator lag), then whole passes of the replay. Adds the operations it
/// ran to \p Attempted.
LayerReport servingLayers(Inputs &In, Harness &H, double Seconds,
                          std::uint64_t &Attempted) {
  Clock::time_point Start = Clock::now();
  LayerReport L;

  Ran Log;
  Log.Phases.push_back(In.makePhase(OfferedRps, FixedShare * Seconds, 0));
  const Phase &Fixed = Log.Phases.back();
  TelemetrySnapshot Before = H.server().stats();
  Log.Results.push_back(H.run(Fixed));
  TelemetrySnapshot After = H.server().stats();
  const std::vector<Observed> &Out = Log.Results.back();
  double Hits = counterDelta(Before, After, telemetry::CacheHits);
  double Misses = counterDelta(Before, After, telemetry::CacheMisses);
  L.CacheHitRate = Hits + Misses > 0 ? Hits / (Hits + Misses) : 0;
  L.CacheInsertions = counterDelta(Before, After, telemetry::CacheInsertions);
  L.CacheEvictions = counterDelta(Before, After, telemetry::CacheEvictions);
  L.Batches = counterDelta(Before, After, telemetry::ServeBatches);
  if (L.Batches > 0)
    L.BatchSizeMean =
        counterDelta(Before, After, telemetry::ServeBatchedRequests) /
        L.Batches;
  L.PeakQueueDepth = After.count(telemetry::ServePeakQueue);
  L.Shed = counterDelta(Before, After, telemetry::ServeShed);
  auto W = subWindows(Fixed, FixedSubWindows);
  auto Lat = [&](std::size_t I) { return latencyOf(Out[I]); };
  L.ServiceLatencyP50Ms = medianOfWindows(W, 50, Lat);
  L.ServiceLatencyP99Ms = medianOfWindows(W, 99, Lat);
  L.GenLagP99Ms =
      medianOfWindows(W, 99, [&](std::size_t I) { return Out[I].LagMs; });
  checkReplies(In, H, Log);

  // Traced replay, whole passes while the window lasts.
  Replay RP(In);
  Tracer Tr;
  Telemetry Counters;
  double TracedMs = 0, UntracedMs = 0, Passes = 0, CoalescePasses = 0;
  double EncodeBytes = 0;
  std::size_t N = std::min<std::size_t>(ReplayRequests, Fixed.Requests.size());
  AllocationEngine ProbeEngine = EngineBuilder(Config).jobs(1).build();
  for (;;) {
    Clock::time_point PassStart = Clock::now();
    for (std::size_t K = 0; K < N; ++K) {
      const Planned &P = Fixed.Requests[K];
      for (unsigned Run = 0; Run < 2; ++Run) {
        if ((Run + K) % 2 == 0) {
          for (AllocationEngine &E : RP.Engines)
            E.setTelemetry(&Counters);
          TracedMs += RP.runOp(P, static_cast<unsigned>(K), &Tr);
          for (AllocationEngine &E : RP.Engines)
            E.setTelemetry(nullptr);
        } else {
          UntracedMs += RP.runOp(P, static_cast<unsigned>(K), nullptr);
        }
      }
      Attempted += 2;
    }
    // Probes over the hot modules: the binary encoder, and the allocator's
    // inner layers.
    for (const std::string &Text : In.Texts) {
      ParseResult PR = parseModule(Text);
      std::string Bytes;
      {
        SpanScope S(&Tr, "ir.encode");
        check(encodeModuleBinary(*PR.M, Bytes), "probe: no binary form");
      }
      EncodeBytes += static_cast<double>(Bytes.size());
      CoalescePasses +=
          probeFunctions(*PR.M, FrequencyMode::Profile, ProbeEngine, Tr);
    }
    ++Passes;
    double PassMs = msBetween(PassStart, Clock::now());
    if (msBetween(Start, Clock::now()) + PassMs > Seconds * 1000.0)
      break;
  }

  TraceTotals Totals = summarize(Tr.spans());
  addSpanTotals(L, Totals, Passes);
  L.Functions = Counters.count(telemetry::Functions) / Passes;
  L.CoalescePasses = CoalescePasses / Passes;
  addEngineCounters(L, Counters.snapshot(), Passes);
  auto UsPerKb = [](double Ms, double Bytes) {
    return Bytes > 0 ? Ms * 1000.0 / (Bytes / 1000.0) : 0.0;
  };
  L.IrParseUsPerKb = UsPerKb(Totals.selfMs("ir.parse"), RP.V1Bytes);
  L.IrDecodeUsPerKb = UsPerKb(Totals.selfMs("ir.decode"), RP.V2Bytes);
  L.IrEncodeUsPerKb = UsPerKb(Totals.selfMs("ir.encode"), EncodeBytes);
  L.CacheKeyUsPerKb = UsPerKb(Totals.selfMs("service.cache_key"),
                              RP.V1Bytes + RP.V2Bytes);
  L.TraceOverhead = TracedMs / UntracedMs - 1.0;
  return L;
}

} // namespace

void addServingLayers(const RunArgs &Args, double Seconds, LayerReport &L) {
  Inputs In(Args);
  Harness H(In);
  H.start();
  std::uint64_t Attempted = 0;
  LayerReport S = servingLayers(In, H, Seconds, Attempted);
  L.IrParseUsPerKb = S.IrParseUsPerKb;
  L.IrDecodeUsPerKb = S.IrDecodeUsPerKb;
  L.IrEncodeUsPerKb = S.IrEncodeUsPerKb;
  L.CacheHitRate = S.CacheHitRate;
  L.CacheInsertions = S.CacheInsertions;
  L.CacheEvictions = S.CacheEvictions;
  L.Batches = S.Batches;
  L.BatchSizeMean = S.BatchSizeMean;
  L.PeakQueueDepth = S.PeakQueueDepth;
  L.Shed = S.Shed;
  L.CacheKeyUsPerKb = S.CacheKeyUsPerKb;
  L.ServiceLatencyP50Ms = S.ServiceLatencyP50Ms;
  L.ServiceLatencyP99Ms = S.ServiceLatencyP99Ms;
  L.GenLagP99Ms = S.GenLagP99Ms;
}

Result runServeZipf(const RunArgs &Args) {
  Inputs In(Args);
  Harness H(In);

  EndToEnd E;
  E.SetupS = medianSetupSeconds(
      SetupReps, [&] { H.start(); }, [&] { H.stop(); });
  for (const Expectation &X : In.Expected)
    E.AllocOverheadCycles += X.Totals.total();
  if (Args.Trace) {
    Result R;
    addLayerMetrics(R, servingLayers(In, H, Args.Seconds, R.Attempted));
    return R;
  }

  // The window: the fixed-rate phase, then the max_rate_rps search.
  Ran Log;
  Log.Phases.push_back(In.makePhase(OfferedRps, FixedShare * Args.Seconds, 0));
  const Phase &Fixed = Log.Phases.back();
  Clock::time_point F0 = Clock::now();
  Clock::time_point Deadline =
      F0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(Args.Seconds));
  std::vector<double> Cpu;
  Log.Results.push_back(H.run(Fixed, FixedSubWindows, &Cpu));
  double FixedS = msBetween(F0, Clock::now()) / 1000.0;
  E.PeakRssMb = peakRssMb();
  const std::vector<Observed> &Out = Log.Results.back();

  auto W = subWindows(Fixed, FixedSubWindows);
  auto Lat = [&](std::size_t I) { return latencyOf(Out[I]); };
  double LagP50 =
      medianOfWindows(W, 50, [&](std::size_t I) { return Out[I].LagMs; });
  if (LagP50 > GenLagLimitMs)
    throw std::runtime_error("the generator fell behind (median send lag " +
                             std::to_string(LagP50) + " ms): run invalid");
  E.LatencyP50Ms = medianOfWindows(W, 50, Lat);
  E.LatencyP90Ms = medianOfWindows(W, 90, Lat);
  E.LatencyP99Ms = medianOfWindows(W, 99, Lat);
  std::vector<double> CpuPerOp;
  for (std::size_t J = 0; J + 1 < Cpu.size() && J < W.size(); ++J)
    if (!W[J].empty())
      CpuPerOp.push_back((Cpu[J + 1] - Cpu[J]) * 1000.0 /
                         static_cast<double>(W[J].size()));
  E.CpuMsPerOp = median(CpuPerOp);

  Result R;
  double KInst = 0;
  for (std::size_t I = 0; I < Out.size(); ++I) {
    ++R.Attempted;
    if (!Out[I].Ok)
      ++R.Failed;
    else
      KInst += Fixed.Requests[I].Instructions / 1000.0;
  }
  E.ThroughputKinstS = KInst / FixedS;

  E.MaxRateRps = maxRate(In, H, Log, Deadline);
  H.stop();
  checkReplies(In, H, Log);
  addEndToEnd(R, E);
  return R;
}

} // namespace ccrabench
