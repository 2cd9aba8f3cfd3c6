//===- ccrabench/main.cpp - Benchmark entry point -------------------------===//
//
//   ccra_bench --workload cc-compile|large-fn|serve-zipf --seed N
//              --seconds S --trace 0|1 [--root DIR]
//
// Runs one workload in this process and prints its metrics, one per line
// ("name value unit"), then one JSON line:
//
//   {"correct": true, "attempted": N, "failed": F,
//    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// A failed correctness check prints the reason on stderr, no result, and
// exits 1. --root is the repository root (examples/corpus_c lives there).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

using namespace ccrabench;

namespace {

int usage() {
  std::cerr << "usage: ccra_bench --workload cc-compile|large-fn|serve-zipf "
               "--seed N --seconds S --trace 0|1 [--root DIR]\n";
  return 2;
}

bool parseArgs(int Argc, char **Argv, RunArgs &A) {
  bool HaveWorkload = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    try {
      if (Flag == "--workload") {
        A.Workload = Value;
        HaveWorkload = true;
      } else if (Flag == "--seed") {
        A.Seed = std::stoull(Value);
      } else if (Flag == "--seconds") {
        A.Seconds = std::stod(Value);
      } else if (Flag == "--trace") {
        A.Trace = std::stoi(Value) != 0;
      } else if (Flag == "--root") {
        A.Root = Value;
      } else {
        return false;
      }
    } catch (const std::exception &) {
      return false;
    }
  }
  return HaveWorkload && Argc % 2 == 1 && A.Seconds > 0 &&
         std::isfinite(A.Seconds);
}

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printResult(const Result &R) {
  for (const Metric &M : R.Metrics)
    std::cout << M.Name << ' ' << number(M.Value) << ' ' << M.Unit << '\n';
  std::cout << "{\"correct\": true, \"attempted\": " << R.Attempted
            << ", \"failed\": " << R.Failed << ", \"metrics\": {";
  for (std::size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    std::cout << (I ? ", " : "") << '"' << M.Name << "\": {\"value\": "
              << number(M.Value) << ", \"unit\": \"" << M.Unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

} // namespace

int main(int Argc, char **Argv) {
  RunArgs Args;
  if (!parseArgs(Argc, Argv, Args))
    return usage();
  try {
    Result R;
    if (Args.Workload == "cc-compile")
      R = runCcCompile(Args);
    else if (Args.Workload == "large-fn")
      R = runLargeFn(Args);
    else if (Args.Workload == "serve-zipf")
      R = runServeZipf(Args);
    else
      return usage();
    check(R.Attempted > 0, "no operation was attempted");
    for (const Metric &M : R.Metrics)
      check(std::isfinite(M.Value), "metric " + M.Name + " is not finite");
    printResult(R);
    return 0;
  } catch (const CheckFailure &E) {
    std::cerr << "ccra_bench: " << Args.Workload
              << ": correctness check failed: " << E.what() << '\n';
    return 1;
  } catch (const std::exception &E) {
    std::cerr << "ccra_bench: " << Args.Workload << ": " << E.what() << '\n';
    return 1;
  }
}
