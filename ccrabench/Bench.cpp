//===- ccrabench/Bench.cpp ------------------------------------------------===//

#include "Bench.h"

#include "ir/IRPrinter.h"
#include "support/Hash.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

using namespace ccra;

namespace ccrabench {

double percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Rank = std::ceil(P / 100.0 * static_cast<double>(Values.size()));
  std::size_t Index = Rank < 1.0 ? 0 : static_cast<std::size_t>(Rank) - 1;
  return Values[std::min(Index, Values.size() - 1)];
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  std::size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2.0;
}

void addEndToEnd(Result &R, const EndToEnd &E) {
  R.add("setup_s", E.SetupS, "s");
  R.add("throughput_kinst_s", E.ThroughputKinstS, "kinst/s");
  R.add("cpu_ms_per_op", E.CpuMsPerOp, "ms");
  R.add("latency_p50_ms", E.LatencyP50Ms, "ms");
  R.add("latency_p90_ms", E.LatencyP90Ms, "ms");
  R.add("latency_p99_ms", E.LatencyP99Ms, "ms");
  R.add("max_rate_rps", E.MaxRateRps, "1/s");
  R.add("peak_rss_mb", E.PeakRssMb, "MB");
  R.add("alloc_overhead_cycles", E.AllocOverheadCycles, "cycles");
}

void fillClosedLoop(EndToEnd &E, const std::vector<double> &LatenciesMs,
                    double KInst, double WindowS, double CpuS) {
  check(!LatenciesMs.empty(), "no operation completed in the window");
  double OpMs = 0;
  for (double Ms : LatenciesMs)
    OpMs += Ms;
  double Ops = static_cast<double>(LatenciesMs.size());
  E.ThroughputKinstS = KInst / (OpMs / 1000.0);
  E.CpuMsPerOp = CpuS * 1000.0 / Ops;
  E.LatencyP50Ms = percentile(LatenciesMs, 50);
  E.LatencyP90Ms = percentile(LatenciesMs, 90);
  E.LatencyP99Ms = percentile(LatenciesMs, 99);
  E.MaxRateRps = Ops / WindowS;
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Seconds = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) / 1e6;
  };
  return Seconds(U.ru_utime) + Seconds(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

unsigned countInstructions(const Module &M) {
  unsigned N = 0;
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      N += static_cast<unsigned>(BB->instructions().size());
  return N;
}

unsigned countBodies(const Module &M) {
  unsigned N = 0;
  for (const auto &F : M.functions())
    N += F->isDeclaration() ? 0 : 1;
  return N;
}

bool noVerifyErrors(const ModuleAllocationResult &R) {
  for (const auto &[F, FA] : R.PerFunction)
    if (!FA.VerifyErrors.empty())
      return false;
  return true;
}

std::string printed(const Module &M) {
  std::string Out;
  printModule(M, Out);
  return Out;
}

std::vector<CorpusProgram> loadCorpus(const std::string &Root) {
  std::filesystem::path Dir = std::filesystem::path(Root) / "examples/corpus_c";
  std::vector<std::filesystem::path> Paths;
  std::error_code EC;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, EC))
    if (Entry.path().extension() == ".c")
      Paths.push_back(Entry.path());
  check(!EC && !Paths.empty(), "no C programs under " + Dir.string());
  std::sort(Paths.begin(), Paths.end());

  std::vector<CorpusProgram> Corpus;
  for (const auto &Path : Paths) {
    std::ifstream In(Path);
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    check(In.good() || In.eof(), "cannot read " + Path.string());
    CorpusProgram P;
    P.Name = Path.stem().string();
    P.Source = Buffer.str();
    P.Lines = static_cast<unsigned>(
        std::count(P.Source.begin(), P.Source.end(), '\n'));
    Corpus.push_back(std::move(P));
  }
  return Corpus;
}

std::vector<unsigned> permutation(unsigned N, Rng &R) {
  std::vector<unsigned> Order(N);
  for (unsigned I = 0; I < N; ++I)
    Order[I] = I;
  for (unsigned I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  return Order;
}

std::uint64_t fingerprint(const Module &M, const ModuleAllocationResult &R) {
  std::uint64_t H = Fnv1a64Basis;
  auto Mix = [&H](const auto &Value) { H = fnv1a64(&Value, sizeof(Value), H); };
  for (const auto &F : M.functions()) {
    auto It = R.PerFunction.find(F.get());
    if (It == R.PerFunction.end())
      continue;
    const FunctionAllocation &FA = It->second;
    Mix(FA.Costs.Spill);
    Mix(FA.Costs.CallerSave);
    Mix(FA.Costs.CalleeSave);
    Mix(FA.Costs.Shuffle);
    for (unsigned V : {FA.Rounds, FA.SpilledRanges, FA.VoluntarySpills,
                       FA.CoalescedMoves, FA.CalleeRegsPaid})
      Mix(V);
    for (const std::string &E : FA.VerifyErrors)
      H = fnv1a64(E, H);
    std::vector<std::pair<unsigned, Location>> Locations(
        FA.VRegLocations.begin(), FA.VRegLocations.end());
    std::sort(Locations.begin(), Locations.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    for (const auto &[VReg, Loc] : Locations) {
      unsigned Code = Loc.isRegister()
                          ? (static_cast<unsigned>(Loc.Reg.Bank) << 16) |
                                (Loc.Reg.Index + 1)
                          : 0u;
      Mix(VReg);
      Mix(Code);
    }
  }
  return H;
}

const std::vector<Family> &allocatorFamilies() {
  static const std::vector<Family> Families = {
      {"base", baseChaitinOptions()},   {"optimistic", optimisticOptions()},
      {"priority", priorityOptions()},  {"cbh", cbhOptions()},
      {"improved", improvedOptions()},
  };
  return Families;
}

} // namespace ccrabench
