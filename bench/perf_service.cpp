//===- bench/perf_service.cpp - Allocation service soak benchmark ---------===//
//
// The serving-stack gate for what the benchmark (ccrabench/) does not
// drive: abuse traffic, a drain under load, and connection scaling. It
// runs an in-process AllocationServer on an ephemeral loopback port and
// drives three phases through real sockets:
//
//  1. Mixed abuse soak: valid allocations over the SPEC proxies under
//     rotating allocator configurations, alternating the v1 text and v2
//     binary codecs request by request, interleaved with malformed and
//     torn frames on throwaway connections, tiny deadlines, and
//     hook-forced queue overflow (SHED) slices, from several concurrent
//     clients. Every valid response must be BIT-IDENTICAL (allocated IR
//     text and exact cost totals) to an in-process allocation of the same
//     request, the server's serve.malformed count must cover every
//     malformed frame sent, and serve.batch may cost at most 1.5x
//     allocate_total: the response path may not cost more than half again
//     the allocation work it transports.
//  2. Mid-flight drain: a drain is requested under load, and every
//     outstanding request must still be answered (completed, shed, or
//     refused with "draining") before wait() quiesces.
//  3. Connection scaling: raises RLIMIT_NOFILE, parks --c10k-connections
//     idle peers on the daemon (0 skips the phase), verifies allocations
//     still complete bit-identical THROUGH the idle crowd, and then drains
//     mid-flight — the whole crowd must be swept promptly, not waited out
//     one timeout at a time.
//
// Reports counts, throughput and p50/p95/p99 request latency on stdout.
// The exit code is the gate: non-zero on any bit-identity divergence,
// unexplained failure, uncounted malformed frame, batch-overhead breach,
// unclean drain, or c10k failure.
//
//   perf_service [--requests=N] [--clients=N] [--queue=N] [--max-batch=N]
//                [--pool-threads=N] [--c10k-connections=N]
//
// Defaults: 10000 requests, 6 clients, 10000 idle connections (CI sizes
// the idle crowd down to 5000 to stay within runner fd limits).
//
//===----------------------------------------------------------------------===//

#include "core/EngineBuilder.h"
#include "ir/IRBinary.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "service/Client.h"
#include "service/Server.h"
#include "workloads/SpecProxies.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

using namespace ccra;

namespace {

struct SoakOptions {
  unsigned Requests = 10000;
  unsigned Clients = 6;
  unsigned QueueCapacity = 64;
  unsigned MaxBatch = 8;
  unsigned PoolThreads = 0;
  unsigned MalformedEvery = 23;
  unsigned DeadlineEvery = 41;
  unsigned ShedEvery = 97;
  unsigned C10kConnections = 10000;
};

struct SoakCase {
  AllocRequest Request;
  /// The same module as Request.ModuleText in the binary interchange
  /// form; the soak alternates codecs per request so both ingestion
  /// paths carry the traffic.
  std::string ModuleBinary;
  std::string ExpectedIr;
  CostBreakdown ExpectedTotals;
};

struct SoakTally {
  std::atomic<unsigned> Ok{0};
  std::atomic<unsigned> Shed{0};
  std::atomic<unsigned> Deadline{0};
  std::atomic<unsigned> Malformed{0};
  std::atomic<unsigned> Failures{0};
  std::atomic<unsigned> BitDivergences{0};
};

std::string printed(const Module &M) {
  std::ostringstream OS;
  printModule(M, OS);
  return OS.str();
}

/// The case mix: every proxy crossed with a rotation of allocator
/// configurations and frequency modes, expectations precomputed once.
std::vector<SoakCase> buildCases() {
  const AllocatorOptions Configs[] = {improvedOptions(), baseChaitinOptions(),
                                      cbhOptions(), priorityOptions(),
                                      improvedOptimisticOptions()};
  std::vector<SoakCase> Cases;
  for (const std::string &Proxy : specProxyNames()) {
    std::unique_ptr<Module> M = buildSpecProxy(Proxy);
    std::string Text = printed(*M);
    SoakCase Case;
    Case.Request.ModuleText = Text;
    Case.Request.Options = Configs[Cases.size() % 5];
    Case.Request.Mode =
        Cases.size() % 3 == 0 ? FrequencyMode::Static : FrequencyMode::Profile;

    ParseResult PR = parseModule(Text);
    encodeModuleBinary(*PR.M, Case.ModuleBinary);
    FrequencyInfo Freq = FrequencyInfo::compute(*PR.M, Case.Request.Mode);
    AllocationEngine Engine = EngineBuilder(Case.Request.Config)
                                  .options(Case.Request.Options)
                                  .build();
    ModuleAllocationResult R = Engine.allocateModule(*PR.M, Freq);
    Case.ExpectedIr = printed(*PR.M);
    Case.ExpectedTotals = R.Totals;
    Cases.push_back(std::move(Case));
  }
  return Cases;
}

std::string tornFrame(unsigned Seed) {
  Frame F;
  F.Type = FrameType::AllocRequest;
  F.Payload = "config: 9,7,3,3\nmodule:\nmodule torn\n";
  std::string Bytes;
  encodeFrame(F, Bytes);
  return Bytes.substr(0, WireHeaderSize + (Seed % 12));
}

void soakWorker(int Port, const SoakOptions &Opts,
                const std::vector<SoakCase> &Cases, unsigned Worker,
                SoakTally &Tally, std::vector<double> &LatenciesMs,
                std::mutex &Mutex) {
  auto Fail = [&](const std::string &Msg) {
    std::lock_guard<std::mutex> Lock(Mutex);
    std::cerr << "perf_service: worker " << Worker << ": " << Msg << '\n';
    Tally.Failures.fetch_add(1);
  };

  ServiceClient Client;
  std::string Err;
  if (!Client.connectTcp(Port, &Err)) {
    Fail("connect: " + Err);
    return;
  }
  std::vector<double> Local;

  for (unsigned I = Worker; I < Opts.Requests; I += Opts.Clients) {
    if (I % Opts.MalformedEvery == 0) {
      // Abuse burns a throwaway connection; the serving connection and
      // everyone else must be unaffected. Send and close without waiting
      // for an answer: the server only sees a torn frame as torn, and
      // counts it, once the peer closes.
      ServiceClient Bad;
      if (!Bad.connectTcp(Port, &Err)) {
        Fail("abuse connect: " + Err);
        continue;
      }
      std::string Bytes = (I % 2 == 0)
                              ? std::string("\x00garbage, not a frame", 21)
                              : tornFrame(I);
      if (!Bad.sendRawBytes(Bytes, &Err)) {
        Fail("abuse send: " + Err);
        continue;
      }
      Bad.close();
      Tally.Malformed.fetch_add(1);
      continue;
    }

    const SoakCase &Case = Cases[I % Cases.size()];
    AllocRequest Request = Case.Request;
    // Alternate wire codecs: odd requests ship the binary module. The
    // expected bytes are identical either way — that IS the contract.
    if (I % 2 == 1 && !Case.ModuleBinary.empty()) {
      Request.ModuleBinary = Case.ModuleBinary;
      Request.ModuleText.clear();
    }
    bool TinyDeadline = I % Opts.DeadlineEvery == 0;
    if (TinyDeadline)
      Request.DeadlineMs = 1;

    AllocResponse Response;
    ErrorResponse ServerError;
    auto Start = std::chrono::steady_clock::now();
    RpcStatus Status = Client.allocate(Request, Response, ServerError, &Err);
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - Start)
                    .count();

    switch (Status) {
    case RpcStatus::Shed:
      Tally.Shed.fetch_add(1);
      continue;
    case RpcStatus::Rejected:
      if (ServerError.Code == "deadline" && TinyDeadline) {
        Tally.Deadline.fetch_add(1);
        continue;
      }
      Fail("request " + std::to_string(I) + " rejected [" + ServerError.Code +
           "] " + ServerError.Message);
      continue;
    case RpcStatus::Transport:
      Fail("request " + std::to_string(I) + " transport: " + Err);
      if (!Client.connectTcp(Port, &Err)) {
        Fail("reconnect: " + Err);
        return;
      }
      continue;
    case RpcStatus::Ok:
      break;
    }

    if (Response.AllocatedIr != Case.ExpectedIr ||
        !(Response.Totals == Case.ExpectedTotals)) {
      Tally.BitDivergences.fetch_add(1);
      Fail("request " + std::to_string(I) +
           ": response diverges from in-process allocation");
      continue;
    }
    Local.push_back(Ms);
    Tally.Ok.fetch_add(1);
  }

  std::lock_guard<std::mutex> Lock(Mutex);
  LatenciesMs.insert(LatenciesMs.end(), Local.begin(), Local.end());
}

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  double Rank = P * static_cast<double>(Sorted.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Rank);
  std::size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

/// Phase 2: drain mid-flight. Every request launched before the drain must
/// be answered — completed bit-identical, shed, or refused "draining" —
/// and wait() must quiesce with no client left hanging.
bool drainMidFlight(const SoakOptions &Opts,
                    const std::vector<SoakCase> &Cases) {
  ServerConfig Config;
  Config.TcpPort = 0;
  Config.QueueCapacity = Opts.QueueCapacity;
  Config.MaxBatch = Opts.MaxBatch;
  Config.PoolThreads = Opts.PoolThreads;
  // Cache off: with it on, every repeat is answered from the cache and the
  // drain would land on an idle batcher instead of queued engine work.
  Config.CacheBytes = 0;
  AllocationServer Server(Config);
  std::string Err;
  if (!Server.start(&Err)) {
    std::cerr << "perf_service: drain phase: " << Err << '\n';
    return false;
  }
  int Port = Server.boundPort();

  std::atomic<unsigned> Answered{0};
  std::atomic<unsigned> Hung{0};
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < 4; ++W)
    Workers.emplace_back([&, W] {
      ServiceClient Client;
      std::string CErr;
      if (!Client.connectTcp(Port, &CErr))
        return;
      Client.setTimeoutMs(30000);
      for (unsigned I = 0;; ++I) {
        const SoakCase &Case = Cases[(W + I) % Cases.size()];
        AllocResponse Response;
        ErrorResponse ServerError;
        RpcStatus Status =
            Client.allocate(Case.Request, Response, ServerError, &CErr);
        if (Status == RpcStatus::Ok || Status == RpcStatus::Shed) {
          Answered.fetch_add(1);
          continue;
        }
        if (Status == RpcStatus::Rejected &&
            ServerError.Code == "draining") {
          Answered.fetch_add(1);
          return; // the drain refused us explicitly — clean exit
        }
        if (Status == RpcStatus::Transport)
          return; // connection closed by the drain — also clean
        Hung.fetch_add(1);
        return;
      }
    });

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Server.requestDrain();
  for (std::thread &T : Workers)
    T.join();
  Server.wait();

  // After wait(), the endpoint must be gone.
  ServiceClient Late;
  bool Refused = !Late.connectTcp(Port, &Err);

  bool Clean = Hung.load() == 0 && Answered.load() > 0 && Refused;
  std::cout << "drain: " << Answered.load()
            << " requests answered across the drain, "
            << (Clean ? "clean" : "NOT CLEAN") << '\n';
  return Clean;
}

struct C10kResult {
  unsigned Target = 0;
  unsigned Opened = 0;
  unsigned VerifiedOk = 0;
  double PeakConnections = 0;
  double OpenAtPeak = 0;
  double ConnectSeconds = 0;
  double DrainSeconds = 0;
  bool Ok = false;
  bool DrainClean = false;
};

/// Phase 3: connection scaling. Parks \p Opts.C10kConnections idle peers
/// on the daemon, proves allocations still flow through the crowd
/// bit-identical, then drains mid-flight: the idle crowd and the active
/// workers must all be swept promptly.
C10kResult c10kPhase(const SoakOptions &Opts,
                     const std::vector<SoakCase> &Cases) {
  C10kResult Result;
  Result.Target = Opts.C10kConnections;

  // The server side of the crowd must fit this process's fd limit; raise
  // the soft limit to the hard cap before judging feasibility. The CLIENT
  // side is held by forked children (below), each with its own fd budget,
  // so a 20k-fd container can still park 10k connections on the daemon.
  rlimit Rl{};
  if (getrlimit(RLIMIT_NOFILE, &Rl) == 0 && Rl.rlim_cur < Rl.rlim_max) {
    rlimit Want = Rl;
    Want.rlim_cur = Rl.rlim_max;
    setrlimit(RLIMIT_NOFILE, &Want);
    getrlimit(RLIMIT_NOFILE, &Rl);
  }
  rlim_t Needed = static_cast<rlim_t>(Opts.C10kConnections) + 512;
  if (Rl.rlim_cur < Needed) {
    std::cerr << "perf_service: c10k phase: RLIMIT_NOFILE " << Rl.rlim_cur
              << " < required " << Needed << '\n';
    return Result;
  }

  // The idle crowd, held by forked children so the client-side fds come
  // out of THEIR limits, not this process's (the server side alone is
  // 10k fds here). Hellos stay unread in the kernel buffers: an idle
  // peer costs the server one fd and one epoll registration, nothing
  // else. The children are forked before the server starts, so they
  // inherit none of its descriptors (an inherited listener would keep
  // completing handshakes after the drain), and learn the port over a
  // pipe. Each child reports how many it opened, then parks until the
  // drain has been verified.
  const unsigned PerChild = 5000;
  const unsigned NumChildren =
      (Opts.C10kConnections + PerChild - 1) / PerChild;
  struct Child {
    pid_t Pid = -1;
    int ReadyFd = -1;   // child -> parent: u32 count of opened conns
    int ReleaseFd = -1; // parent -> child: the port; closing it releases
  };
  std::vector<Child> Children;
  unsigned Remaining = Opts.C10kConnections;
  for (unsigned C = 0; C < NumChildren; ++C) {
    unsigned Quota = std::min(PerChild, Remaining);
    Remaining -= Quota;
    int Ready[2], Release[2];
    if (pipe(Ready) != 0 || pipe(Release) != 0) {
      std::cerr << "perf_service: c10k phase: pipe failed\n";
      break;
    }
    pid_t Pid = fork();
    if (Pid < 0) {
      std::cerr << "perf_service: c10k phase: fork failed\n";
      break;
    }
    if (Pid == 0) {
      // Child: learn the port, open the quota, report, park, exit (the
      // kernel closes the crowd when we _exit; the server sees clean EOFs
      // or is already gone post-drain). EOF before the port: no server.
      // Drop the parent's ends of earlier children's pipes too: a stray
      // copy of another child's release end would hide its EOF.
      ::close(Ready[0]);
      ::close(Release[1]);
      for (Child &Prev : Children) {
        ::close(Prev.ReadyFd);
        ::close(Prev.ReleaseFd);
      }
      int Port = 0;
      if (::read(Release[0], &Port, sizeof(Port)) != sizeof(Port))
        _exit(0);
      std::vector<Socket> Crowd;
      Crowd.reserve(Quota);
      std::string CErr;
      for (unsigned I = 0; I < Quota; ++I) {
        Socket S = Socket::connectTcp(Port, &CErr);
        if (!S.valid())
          break;
        Crowd.push_back(std::move(S));
      }
      std::uint32_t Opened = static_cast<std::uint32_t>(Crowd.size());
      (void)!::write(Ready[1], &Opened, sizeof(Opened));
      char Byte;
      (void)!::read(Release[0], &Byte, 1);
      _exit(0);
    }
    ::close(Ready[1]);
    ::close(Release[0]);
    Children.push_back(Child{Pid, Ready[0], Release[1]});
  }
  auto ReapChildren = [&] {
    for (Child &C : Children)
      ::close(C.ReleaseFd);
    for (Child &C : Children) {
      int Status = 0;
      ::waitpid(C.Pid, &Status, 0);
      ::close(C.ReadyFd);
    }
  };

  ServerConfig Config;
  Config.TcpPort = 0;
  Config.QueueCapacity = Opts.QueueCapacity;
  Config.MaxBatch = Opts.MaxBatch;
  Config.PoolThreads = Opts.PoolThreads;
  // The shipped accept backlog, deliberately: the crowd connects in a tight
  // loop, so SYNs dropped at a small backlog show up as connect time.
  AllocationServer Server(Config);
  std::string Err;
  if (!Server.start(&Err)) {
    std::cerr << "perf_service: c10k phase: " << Err << '\n';
    ReapChildren();
    return Result;
  }
  int Port = Server.boundPort();
  auto ConnectStart = std::chrono::steady_clock::now();
  for (Child &C : Children)
    (void)!::write(C.ReleaseFd, &Port, sizeof(Port));
  unsigned TotalOpened = 0;
  for (Child &C : Children) {
    std::uint32_t Opened = 0;
    if (::read(C.ReadyFd, &Opened, sizeof(Opened)) == sizeof(Opened))
      TotalOpened += Opened;
  }
  Result.ConnectSeconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - ConnectStart)
                              .count();
  Result.Opened = TotalOpened;
  if (TotalOpened < Opts.C10kConnections)
    std::cerr << "perf_service: c10k phase: only " << TotalOpened << " of "
              << Opts.C10kConnections << " connections opened\n";

  // Active traffic through the crowd, still held bit-identical.
  unsigned VerifiedOk = 0, Divergences = 0;
  {
    ServiceClient Client;
    if (!Client.connectTcp(Port, &Err)) {
      std::cerr << "perf_service: c10k phase: active connect: " << Err
                << '\n';
    } else {
      for (unsigned I = 0; I < 100; ++I) {
        const SoakCase &Case = Cases[I % Cases.size()];
        AllocRequest Request = Case.Request;
        if (I % 2 == 1 && !Case.ModuleBinary.empty()) {
          Request.ModuleBinary = Case.ModuleBinary;
          Request.ModuleText.clear();
        }
        AllocResponse Response;
        ErrorResponse ServerError;
        if (Client.allocate(Request, Response, ServerError, &Err) !=
            RpcStatus::Ok)
          continue;
        if (Response.AllocatedIr == Case.ExpectedIr &&
            Response.Totals == Case.ExpectedTotals)
          ++VerifiedOk;
        else
          ++Divergences;
      }
    }
  }
  Result.VerifiedOk = VerifiedOk;

  TelemetrySnapshot Stats = Server.stats();
  Result.PeakConnections = Stats.count(telemetry::ServePeakConnections);
  Result.OpenAtPeak = Stats.count(telemetry::ServeOpenConnections);

  // Drain mid-flight with the whole crowd still parked: active workers
  // must be answered or refused, the idle thousands swept immediately.
  std::atomic<unsigned> Hung{0};
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < 4; ++W)
    Workers.emplace_back([&, W] {
      ServiceClient Client;
      std::string CErr;
      if (!Client.connectTcp(Port, &CErr))
        return;
      Client.setTimeoutMs(30000);
      for (unsigned I = 0;; ++I) {
        const SoakCase &Case = Cases[(W + I) % Cases.size()];
        AllocResponse Response;
        ErrorResponse ServerError;
        RpcStatus Status =
            Client.allocate(Case.Request, Response, ServerError, &CErr);
        if (Status == RpcStatus::Ok || Status == RpcStatus::Shed)
          continue;
        if (Status == RpcStatus::Rejected && ServerError.Code == "draining")
          return;
        if (Status == RpcStatus::Transport)
          return;
        Hung.fetch_add(1);
        return;
      }
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto DrainStart = std::chrono::steady_clock::now();
  Server.requestDrain();
  for (std::thread &T : Workers)
    T.join();
  Server.wait();
  Result.DrainSeconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - DrainStart)
                            .count();

  ServiceClient Late;
  bool Refused = !Late.connectTcp(Port, &Err);

  // Release and reap the crowd-holders.
  ReapChildren();

  Result.DrainClean = Hung.load() == 0 && Refused &&
                      Result.DrainSeconds < 10.0;
  Result.Ok = Result.Opened >= Result.Target && VerifiedOk > 0 &&
              Divergences == 0 &&
              Result.PeakConnections >=
                  static_cast<double>(Result.Target);
  return Result;
}

} // namespace

int main(int Argc, char **Argv) {
  SoakOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Unsigned = [&](std::size_t Prefix, unsigned &Out) {
      return std::sscanf(Arg.c_str() + Prefix, "%u", &Out) == 1;
    };
    if (Arg.rfind("--requests=", 0) == 0 && Unsigned(11, Opts.Requests))
      continue;
    if (Arg.rfind("--clients=", 0) == 0 && Unsigned(10, Opts.Clients) &&
        Opts.Clients > 0)
      continue;
    if (Arg.rfind("--queue=", 0) == 0 && Unsigned(8, Opts.QueueCapacity))
      continue;
    if (Arg.rfind("--max-batch=", 0) == 0 && Unsigned(12, Opts.MaxBatch))
      continue;
    if (Arg.rfind("--pool-threads=", 0) == 0 && Unsigned(15, Opts.PoolThreads))
      continue;
    if (Arg.rfind("--c10k-connections=", 0) == 0 &&
        Unsigned(19, Opts.C10kConnections))
      continue;
    std::cerr << "usage: perf_service [--requests=N] [--clients=N] "
                 "[--queue=N] [--max-batch=N] [--pool-threads=N]\n"
                 "                    [--c10k-connections=N]\n";
    return 2;
  }

  std::vector<SoakCase> Cases = buildCases();

  ServerConfig Config;
  Config.TcpPort = 0;
  Config.QueueCapacity = Opts.QueueCapacity;
  Config.MaxBatch = Opts.MaxBatch;
  Config.PoolThreads = Opts.PoolThreads;
  // Cache off: every valid request reaches the engine, so the batch
  // overhead gate compares the response path against the allocation work
  // it actually carries.
  Config.CacheBytes = 0;
  // SHED slices: every ShedEvery-th admission is forced to overflow, so
  // the soak exercises backpressure even when the queue keeps up.
  std::atomic<unsigned> Admissions{0};
  ServerTestHooks Hooks;
  Hooks.ForceQueueOverflow = [&] {
    return Admissions.fetch_add(1) % Opts.ShedEvery == Opts.ShedEvery - 1;
  };
  AllocationServer Server(Config, Hooks);
  std::string Err;
  if (!Server.start(&Err)) {
    std::cerr << "perf_service: " << Err << '\n';
    return 1;
  }

  SoakTally Tally;
  std::vector<double> LatenciesMs;
  std::mutex Mutex;
  auto Start = std::chrono::steady_clock::now();
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W < Opts.Clients; ++W)
    Workers.emplace_back([&, W] {
      soakWorker(Server.boundPort(), Opts, Cases, W, Tally, LatenciesMs,
                 Mutex);
    });
  for (std::thread &T : Workers)
    T.join();
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  // Abuse connections close without waiting for an answer, so the server
  // may still be reading the last of them: give it a moment to count.
  TelemetrySnapshot Stats = Server.stats();
  auto CountDeadline = std::chrono::steady_clock::now() +
                       std::chrono::seconds(5);
  while (Stats.count(telemetry::ServeMalformed) < Tally.Malformed.load() &&
         std::chrono::steady_clock::now() < CountDeadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Stats = Server.stats();
  }
  Server.requestDrain();
  Server.wait();

  std::sort(LatenciesMs.begin(), LatenciesMs.end());
  double P50 = percentile(LatenciesMs, 0.50);
  double P95 = percentile(LatenciesMs, 0.95);
  double P99 = percentile(LatenciesMs, 0.99);
  double Throughput = Seconds > 0 ? Tally.Ok.load() / Seconds : 0.0;

  bool BitIdentical = Tally.BitDivergences.load() == 0;
  bool Healthy = Tally.Failures.load() == 0 && Tally.Ok.load() > 0;
  double MalformedCounted = Stats.count(telemetry::ServeMalformed);
  bool MalformedSeen = MalformedCounted >= Tally.Malformed.load();

  // The response-path overhead gate: time spent in serve.batch (parse or
  // decode, cache bookkeeping, response rendering) on top of the engine's
  // own allocate_total may not exceed half the allocation work again.
  double ServeBatchMs = Stats.timeMs("serve.batch");
  double AllocateTotalMs = Stats.timeMs("allocate_total");
  double BatchRatio =
      AllocateTotalMs > 0 ? ServeBatchMs / AllocateTotalMs : 0.0;
  bool BatchLean = AllocateTotalMs > 0 && BatchRatio <= 1.5;

  std::cout << "== perf_service: " << Opts.Requests << " requests, "
            << Opts.Clients << " clients ==\n"
            << "ok:          " << Tally.Ok.load() << '\n'
            << "shed:        " << Tally.Shed.load() << '\n'
            << "deadline:    " << Tally.Deadline.load() << '\n'
            << "malformed:   " << Tally.Malformed.load() << " sent, "
            << MalformedCounted << " counted by the server"
            << (MalformedSeen ? "" : "  UNDERCOUNTED") << '\n'
            << "failures:    " << Tally.Failures.load() << '\n'
            << "wall:        " << Seconds << " s\n"
            << "throughput:  " << Throughput << " req/s\n"
            << "latency p50: " << P50 << " ms, p95: " << P95 << " ms, p99: "
            << P99 << " ms\n"
            << "bit-identical responses: " << (BitIdentical ? "yes" : "NO")
            << '\n'
            << "peak queue depth: "
            << Stats.count(telemetry::ServePeakQueue) << ", peak batch: "
            << Stats.count(telemetry::ServePeakBatch) << '\n'
            << "serve.batch: " << ServeBatchMs << " ms over allocate_total "
            << AllocateTotalMs << " ms (ratio " << BatchRatio
            << ", gate <= 1.5: " << (BatchLean ? "pass" : "FAIL") << ")\n";

  bool DrainClean = drainMidFlight(Opts, Cases);

  // Phase 3: the connection-scaling gate.
  bool C10kOk = true;
  if (Opts.C10kConnections > 0) {
    C10kResult C10k = c10kPhase(Opts, Cases);
    C10kOk = C10k.Ok && C10k.DrainClean;
    std::cout << "== c10k phase: " << C10k.Target
              << " idle connections ==\n"
              << "opened:      " << C10k.Opened << " in "
              << C10k.ConnectSeconds << " s (accept backlog "
              << ServerConfig().AcceptBacklog << ")\n"
              << "peak open:   " << C10k.PeakConnections
              << " (server saw " << C10k.OpenAtPeak
              << " open at sample time)\n"
              << "verified ok: " << C10k.VerifiedOk
              << " allocations through the crowd\n"
              << "drain:       " << C10k.DrainSeconds << " s, "
              << (C10k.DrainClean ? "clean" : "NOT CLEAN") << '\n'
              << "gate: " << (C10kOk ? "pass" : "FAIL") << '\n';
  }

  return (BitIdentical && Healthy && MalformedSeen && BatchLean &&
          DrainClean && C10kOk)
             ? 0
             : 1;
}
