//===- ccrabench/ClosedLoop.cpp -------------------------------------------===//

#include "ClosedLoop.h"

#include "Layers.h"

using namespace ccra;

namespace ccrabench {

namespace {

/// Setup repetitions; setup_s is their median.
constexpr unsigned SetupReps = 9;

/// The operation stream: seeded permutations of the whole item set.
class Stream {
public:
  Stream(unsigned N, std::uint64_t Seed) : N(N), R(Seed) {}
  unsigned next() {
    if (Pos == Block.size()) {
      Block = permutation(N, R);
      Pos = 0;
    }
    return Block[Pos++];
  }

private:
  unsigned N;
  Rng R;
  std::vector<unsigned> Block;
  std::size_t Pos = 0;
};

void checkOutcome(const ClosedLoopWorkload &W, const Outcome &O,
                  unsigned Item) {
  std::string Id =
      std::string(W.name()) + ": operation " + std::to_string(Item);
  check(O.InputVerified, Id + ": input module fails verifyModule");
  check(O.VerifyClean, Id + ": allocation reports VerifyErrors");
  check(O.OutputVerified, Id + ": allocated module fails verifyModule");
}

Result traced(ClosedLoopWorkload &W, const RunArgs &Args) {
  Tracer Tr;
  Telemetry Counters;
  Stream S(W.numItems(), Args.Seed);
  double TracedMs = 0, UntracedMs = 0, Passes = 0, CoalescePasses = 0;
  double Lines = 0, Functions = 0;
  for (unsigned Item = 0; Item < W.numItems(); ++Item) {
    Lines += W.sourceLines(Item);
    Functions += W.functions(Item);
  }

  Result R;
  Clock::time_point Start = Clock::now();
  for (;;) {
    Clock::time_point PassStart = Clock::now();
    for (unsigned K = 0; K < W.numItems(); ++K) {
      unsigned Item = S.next();
      AllocationEngine &Engine = W.engineFor(Item);
      Outcome Traced, Untraced;
      // Alternate which run goes first so neither always gets warm caches.
      for (unsigned Run = 0; Run < 2; ++Run) {
        if ((Run + K) % 2 == 0) {
          Engine.setTelemetry(&Counters);
          Traced = W.runOp(Item, &Tr, false);
          Engine.setTelemetry(nullptr);
        } else {
          Untraced = W.runOp(Item, nullptr, false);
        }
      }
      checkOutcome(W, Traced, Item);
      check(Traced.Hash == Untraced.Hash,
            std::string(W.name()) + ": traced and untraced runs differ");
      TracedMs += Traced.Ms;
      UntracedMs += Untraced.Ms;
      R.Attempted += 2;
    }
    CoalescePasses += W.probe(Tr);
    ++Passes;
    double PassMs = msBetween(PassStart, Clock::now());
    if (msBetween(Start, Clock::now()) + PassMs > Args.Seconds * 1000.0)
      break;
  }

  LayerReport L;
  addSpanTotals(L, summarize(Tr.spans()), Passes);
  if (Lines > 0)
    L.FrontendUsPerLine = L.FrontendBusyMs * 1000.0 / Lines;
  L.Functions = Functions;
  L.CoalescePasses = CoalescePasses / Passes;
  addEngineCounters(L, Counters.snapshot(), Passes);
  L.TraceOverhead = TracedMs / UntracedMs - 1.0;
  W.traceMore(L);
  addLayerMetrics(R, L);
  return R;
}

} // namespace

Result runClosedLoop(ClosedLoopWorkload &W, const RunArgs &Args) {
  const unsigned N = W.numItems();
  EndToEnd E;
  E.SetupS = medianSetupSeconds(
      SetupReps, [&] { W.setUp(); }, [] {});
  if (Args.Trace)
    return traced(W, Args);

  Stream S(N, Args.Seed);
  std::vector<unsigned> Items;
  std::vector<Outcome> Outcomes;
  Items.reserve(1 << 16);
  Outcomes.reserve(1 << 16);
  double Cpu0 = cpuSeconds();
  Clock::time_point W0 = Clock::now();
  while (msBetween(W0, Clock::now()) < Args.Seconds * 1000.0) {
    unsigned Item = S.next();
    Items.push_back(Item);
    Outcomes.push_back(W.runOp(Item, nullptr, false));
  }
  double WindowS = msBetween(W0, Clock::now()) / 1000.0;
  double CpuS = cpuSeconds() - Cpu0;
  E.PeakRssMb = peakRssMb();

  // Outside the window: one reference run of every item, output verified.
  std::vector<Outcome> Reference(N);
  for (unsigned Item = 0; Item < N; ++Item) {
    Reference[Item] = W.runOp(Item, nullptr, true);
    checkOutcome(W, Reference[Item], Item);
    E.AllocOverheadCycles += Reference[Item].Total;
  }
  std::vector<double> Latencies;
  double KInst = 0;
  for (std::size_t I = 0; I < Outcomes.size(); ++I) {
    const Outcome &O = Outcomes[I];
    const Outcome &Ref = Reference[Items[I]];
    checkOutcome(W, O, Items[I]);
    check(O.Hash == Ref.Hash && O.Total == Ref.Total,
          std::string(W.name()) + ": operation " + std::to_string(Items[I]) +
              " differs from its reference run");
    Latencies.push_back(O.Ms);
    KInst += W.instructions(Items[I]) / 1000.0;
  }
  fillClosedLoop(E, Latencies, KInst, WindowS, CpuS);

  Result R;
  R.Attempted = Outcomes.size();
  addEndToEnd(R, E);
  return R;
}

} // namespace ccrabench
