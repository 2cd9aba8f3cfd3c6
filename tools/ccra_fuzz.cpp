//===- tools/ccra_fuzz.cpp - Differential fuzzing driver ------------------===//
//
// Sweeps seeded random modules (workloads/FuzzGen.h) through the oracle
// lattice (fuzz/Oracle.h): parallel and cache-seeded allocation against
// the serial baseline, the production phases against fuzz/Reference.h,
// and every leg against the soundness oracles (allocation verifier, IR
// verifier, analytic-vs-measured cost reconciliation). On a mismatch the
// module is shrunk (fuzz/Shrinker.h) into a minimal reproducer and written
// to the corpus directory; committed corpus files replay as tier-1 tests
// (tests/FuzzTest.cpp).
//
// Every generated and replayed module is additionally held to the wire
// codec v2 equivalence contract (service/BinaryCodec.h): the binary
// round trip must print the same bytes as the text round trip, and both
// forms must allocate identically. --codec-sweep=N runs that check alone
// over N fresh modules (the nightly workflow's dedicated codec leg).
//
//   ccra_fuzz [options]
//     --count=N             modules to generate and check  (default 500)
//     --seed-base=S         first seed                     (default 1)
//     --profile=NAME        one generation profile (mixed | call-dense |
//                           bank-mix | high-degree | pathological-live |
//                           tiny); default: round-robin over all
//     --smoke               CI/check.sh quick pass: count=60, smaller
//                           shrink budget (a fixed seed range, so local
//                           verification matches CI)
//     --replay=PATH         replay a corpus dir (or one .ccra file)
//                           through the lattice instead of generating
//     --corpus-dir=PATH     where reproducers go   (default fuzz/corpus)
//     --time-budget=SECS    stop starting new modules after SECS seconds
//                           (0 = unbounded; the nightly workflow sets it)
//     --max-shrink-evals=N  shrinker predicate budget      (default 600)
//     --jobs-leg=N          width of the parallel lattice leg (default 4)
//     --codec-sweep=N       ONLY check v1<->v2 codec equivalence (bytes
//                           and allocations) over N generated modules
//     --keep-going          check every module even after a failure
//     --quiet               only report failures and the final summary
//
// Exit status: 0 = every module passed every oracle; 1 = mismatch found
// (reproducers written); 2 = usage/setup error.
//
//===----------------------------------------------------------------------===//

#include "core/EngineBuilder.h"
#include "fuzz/Corpus.h"
#include "fuzz/Oracle.h"
#include "fuzz/Shrinker.h"
#include "ir/IRBinary.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "support/BuildInfo.h"
#include "support/Rng.h"
#include "workloads/FuzzGen.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

using namespace ccra;

namespace {

struct CliOptions {
  unsigned Count = 500;
  uint64_t SeedBase = 1;
  std::string Profile; // empty = round-robin
  bool Smoke = false;
  std::string Replay;
  std::string CorpusDir = "fuzz/corpus";
  unsigned TimeBudgetSec = 0;
  unsigned MaxShrinkEvals = 600;
  unsigned JobsLeg = 4;
  unsigned CodecSweep = 0;
  bool KeepGoing = false;
  bool Quiet = false;
};

void printUsage() {
  std::cerr
      << "usage: ccra_fuzz [--count=N] [--seed-base=S] [--profile=NAME]\n"
         "                 [--smoke] [--replay=PATH] [--corpus-dir=PATH]\n"
         "                 [--time-budget=SECS] [--max-shrink-evals=N]\n"
         "                 [--jobs-leg=N] [--codec-sweep=N] [--keep-going]\n"
         "                 [--quiet]\n";
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  auto Unsigned = [](const std::string &Arg, size_t Prefix, auto &Out) {
    unsigned long long V = 0;
    if (std::sscanf(Arg.c_str() + Prefix, "%llu", &V) != 1)
      return false;
    Out = static_cast<std::remove_reference_t<decltype(Out)>>(V);
    return true;
  };
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--version") {
      std::cout << buildInfoString() << '\n';
      std::exit(0);
    } else if (Arg == "--smoke")
      Opts.Smoke = true;
    else if (Arg == "--keep-going")
      Opts.KeepGoing = true;
    else if (Arg == "--quiet")
      Opts.Quiet = true;
    else if (Arg.rfind("--count=", 0) == 0) {
      if (!Unsigned(Arg, 8, Opts.Count))
        return false;
    } else if (Arg.rfind("--seed-base=", 0) == 0) {
      if (!Unsigned(Arg, 12, Opts.SeedBase))
        return false;
    } else if (Arg.rfind("--profile=", 0) == 0) {
      Opts.Profile = Arg.substr(10);
    } else if (Arg.rfind("--replay=", 0) == 0) {
      Opts.Replay = Arg.substr(9);
    } else if (Arg.rfind("--corpus-dir=", 0) == 0) {
      Opts.CorpusDir = Arg.substr(13);
    } else if (Arg.rfind("--time-budget=", 0) == 0) {
      if (!Unsigned(Arg, 14, Opts.TimeBudgetSec))
        return false;
    } else if (Arg.rfind("--max-shrink-evals=", 0) == 0) {
      if (!Unsigned(Arg, 19, Opts.MaxShrinkEvals))
        return false;
    } else if (Arg.rfind("--jobs-leg=", 0) == 0) {
      if (!Unsigned(Arg, 11, Opts.JobsLeg))
        return false;
    } else if (Arg.rfind("--codec-sweep=", 0) == 0) {
      if (!Unsigned(Arg, 14, Opts.CodecSweep))
        return false;
    } else {
      std::cerr << "unknown option " << Arg << '\n';
      return false;
    }
  }
  return true;
}

/// "config: Ri,Rf,Ei,Ef" from a reproducer header, if present.
bool configFromHeader(const std::vector<std::string> &Header,
                      RegisterConfig &Config) {
  for (const std::string &Line : Header) {
    unsigned Ri, Rf, Ei, Ef;
    if (std::sscanf(Line.c_str(), "config: %u,%u,%u,%u", &Ri, &Rf, &Ei,
                    &Ef) == 4) {
      Config = RegisterConfig(Ri, Rf, Ei, Ef);
      return true;
    }
  }
  return false;
}

/// The wire codec v2 equivalence contract, checked for one module:
///
///   printModule(decodeModuleBinary(encodeModuleBinary(M)))
///     == printModule(parseModule(printModule(M)))
///
/// and, beyond bytes, both round-tripped forms must ALLOCATE identically
/// (same printed allocation, same cost totals) under \p Config / \p Mode —
/// a byte-equal module that diverged under allocation would mean the
/// decoder rebuilt some table the printer does not cover. Returns false
/// with a diagnostic in \p Why.
bool checkCodecEquivalence(const Module &M, const RegisterConfig &Config,
                           FrequencyMode Mode, std::string &Why) {
  std::string Text;
  printModule(M, Text);
  ParseResult PR = parseModule(Text);
  if (!PR.ok()) {
    Why = "text round trip failed: " +
          (PR.Errors.empty() ? std::string("?") : PR.Errors.front());
    return false;
  }
  std::string ViaText;
  printModule(*PR.M, ViaText);

  std::string Bytes, Err;
  if (!encodeModuleBinary(M, Bytes, &Err)) {
    Why = "encodeModuleBinary failed: " + Err;
    return false;
  }
  std::unique_ptr<Module> Decoded = decodeModuleBinary(Bytes, &Err);
  if (!Decoded) {
    Why = "decodeModuleBinary failed: " + Err;
    return false;
  }
  std::string ViaBinary;
  printModule(*Decoded, ViaBinary);
  if (ViaBinary != ViaText) {
    Why = "binary and text round trips print different bytes (" +
          std::to_string(ViaBinary.size()) + " vs " +
          std::to_string(ViaText.size()) + ")";
    return false;
  }

  auto Allocate = [&](Module &Target, std::string &IrOut,
                      CostBreakdown &Totals) {
    FrequencyInfo Freq = FrequencyInfo::compute(Target, Mode);
    AllocationEngine Engine = EngineBuilder(Config).build();
    Totals = Engine.allocateModule(Target, Freq).Totals;
    printModule(Target, IrOut);
  };
  std::string TextIr, BinaryIr;
  CostBreakdown TextTotals, BinaryTotals;
  Allocate(*PR.M, TextIr, TextTotals);
  Allocate(*Decoded, BinaryIr, BinaryTotals);
  if (TextIr != BinaryIr) {
    Why = "allocations diverge between ingestion paths";
    return false;
  }
  if (!(TextTotals == BinaryTotals)) {
    Why = "cost totals diverge between ingestion paths";
    return false;
  }
  return true;
}

/// Standalone --codec-sweep=N mode: only the codec contract, over fresh
/// modules round-robined across every generation profile.
int runCodecSweep(const CliOptions &Cli) {
  const std::vector<FuzzProfile> &Profiles = allFuzzProfiles();
  unsigned Failures = 0;
  for (unsigned I = 0; I < Cli.CodecSweep; ++I) {
    FuzzGenParams Params;
    Params.Seed = Cli.SeedBase + I;
    Params.Profile = Profiles[I % Profiles.size()];
    std::unique_ptr<Module> M = generateFuzzModule(Params);

    Rng ConfigRng(Params.Seed ^ 0xc0ffee);
    RegisterConfig Config = fuzzRegisterConfig(ConfigRng);
    FrequencyMode Mode =
        (I % 3 == 2) ? FrequencyMode::Static : FrequencyMode::Profile;

    std::string Why;
    if (!checkCodecEquivalence(*M, Config, Mode, Why)) {
      ++Failures;
      std::cerr << "FAIL codec " << fuzzProfileName(Params.Profile)
                << "-seed" << Params.Seed << " (config " << Config.label()
                << "): " << Why << '\n';
      if (!Cli.KeepGoing)
        break;
    } else if (!Cli.Quiet && ((I + 1) % 100 == 0)) {
      std::cout << "  ..." << (I + 1) << " modules codec-equivalent\n";
    }
  }
  std::cout << "ccra_fuzz codec-sweep: " << Cli.CodecSweep << " modules, "
            << Failures << " failures\n";
  return Failures ? 1 : 0;
}

struct FailureSink {
  const CliOptions &Cli;
  unsigned Failures = 0;

  /// Reports, shrinks, and writes a reproducer for one failing module.
  void handle(const Module &M, const OracleOptions &OO,
              const OracleReport &Report, const std::string &Tag) {
    ++Failures;
    std::cerr << "FAIL " << Tag << " (config " << OO.Config.label()
              << "):\n";
    for (const std::string &Line : Report.lines())
      std::cerr << "  " << Line << '\n';

    ShrinkOptions SO;
    SO.MaxEvaluations = Cli.MaxShrinkEvals;
    ShrinkStats Stats;
    std::unique_ptr<Module> Minimal = shrinkModule(
        M, [&](const Module &Candidate) {
          return !runOracleLattice(Candidate, OO).ok();
        },
        SO, &Stats);

    // Re-run once for the header: the minimal module's own failure lines.
    OracleReport MinReport = runOracleLattice(*Minimal, OO);
    std::vector<std::string> Header;
    Header.push_back("ccra_fuzz minimized reproducer");
    Header.push_back("source: " + Tag);
    Header.push_back("config: " + std::to_string(OO.Config.IntCallerSave) +
                     "," + std::to_string(OO.Config.FloatCallerSave) + "," +
                     std::to_string(OO.Config.IntCalleeSave) + "," +
                     std::to_string(OO.Config.FloatCalleeSave));
    Header.push_back(
        "shrink: " + std::to_string(Stats.InstructionsBefore) + " -> " +
        std::to_string(Stats.InstructionsAfter) + " instructions in " +
        std::to_string(Stats.Evaluations) + " evaluations");
    for (const std::string &Line : MinReport.lines())
      Header.push_back("failure: " + Line);

    std::string Path =
        writeCorpusFile(*Minimal, Cli.CorpusDir, "repro-" + Tag, Header);
    if (Path.empty())
      std::cerr << "  (could not write reproducer under " << Cli.CorpusDir
                << ")\n";
    else
      std::cerr << "  minimized reproducer ("
                << Stats.InstructionsAfter << " instructions) -> " << Path
                << '\n';
  }
};

/// "source: examples/corpus_c/foo.c" from a corpus header, if present.
/// Set by `ccra_cc --emit-corpus`; entries carrying it were lowered from C
/// by the frontend, so a replay failure is reproducible from source.
std::string sourceFromHeader(const std::vector<std::string> &HeaderLines) {
  for (const std::string &Line : HeaderLines)
    if (Line.rfind("source: ", 0) == 0)
      return Line.substr(8);
  return "";
}

int replayCorpus(const CliOptions &Cli) {
  std::vector<std::string> Errors;
  std::vector<CorpusEntry> Entries;
  // A single .ccra file replays as a one-entry corpus.
  if (Cli.Replay.size() > 5 &&
      Cli.Replay.rfind(".ccra") == Cli.Replay.size() - 5) {
    size_t Slash = Cli.Replay.find_last_of('/');
    std::string Dir =
        Slash == std::string::npos ? "." : Cli.Replay.substr(0, Slash);
    std::string File =
        Slash == std::string::npos ? Cli.Replay : Cli.Replay.substr(Slash + 1);
    for (CorpusEntry &E : loadCorpusDir(Dir, Errors)) {
      size_t ESlash = E.Path.find_last_of('/');
      std::string EFile =
          ESlash == std::string::npos ? E.Path : E.Path.substr(ESlash + 1);
      if (EFile == File)
        Entries.push_back(std::move(E));
    }
    if (Entries.empty() && Errors.empty())
      Errors.push_back(Cli.Replay + ": not found");
  } else {
    Entries = loadCorpusDir(Cli.Replay, Errors);
  }
  for (const std::string &E : Errors)
    std::cerr << "corpus error: " << E << '\n';
  if (!Errors.empty())
    return 2;

  unsigned Failures = 0, Legs = 0, FromFrontend = 0;
  for (const CorpusEntry &Entry : Entries) {
    OracleOptions OO;
    OO.ParallelJobs = Cli.JobsLeg;
    configFromHeader(Entry.HeaderLines, OO.Config); // default when absent
    std::string Source = sourceFromHeader(Entry.HeaderLines);
    if (!Source.empty())
      ++FromFrontend;
    OracleReport Report = runOracleLattice(*Entry.M, OO);
    Legs += Report.LegsRun;
    std::string CodecWhy;
    bool CodecOk =
        checkCodecEquivalence(*Entry.M, OO.Config, OO.Mode, CodecWhy);
    if (!Report.ok() || !CodecOk) {
      ++Failures;
      std::cerr << "FAIL replay " << Entry.Path << ":\n";
      for (const std::string &Line : Report.lines())
        std::cerr << "  " << Line << '\n';
      if (!CodecOk)
        std::cerr << "  codec: " << CodecWhy << '\n';
      if (!Source.empty())
        std::cerr << "  provenance: frontend (" << Source
                  << "); reproduce with ccra_cc " << Source << '\n';
    } else if (!Cli.Quiet) {
      std::cout << "ok replay " << Entry.Path;
      if (!Source.empty())
        std::cout << " (frontend: " << Source << ')';
      std::cout << '\n';
    }
  }
  std::cout << "ccra_fuzz replay: " << Entries.size() << " modules ("
            << FromFrontend << " frontend-lowered), " << Legs
            << " lattice legs, " << Failures << " failures\n";
  return Failures ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Cli;
  if (!parseArgs(Argc, Argv, Cli)) {
    printUsage();
    return 2;
  }
  if (Cli.Smoke) {
    // The fixed quick range shared by tools/check.sh and the CI smoke
    // step. Deliberately not seed-base dependent: local and CI runs cover
    // the same inputs.
    Cli.Count = 60;
    Cli.SeedBase = 1;
    Cli.MaxShrinkEvals = 200;
  }
  if (Cli.CodecSweep > 0)
    return runCodecSweep(Cli);
  if (!Cli.Replay.empty())
    return replayCorpus(Cli);

  FuzzProfile Fixed = FuzzProfile::Mixed;
  bool HaveFixed = false;
  if (!Cli.Profile.empty()) {
    if (!parseFuzzProfile(Cli.Profile, Fixed)) {
      std::cerr << "unknown profile '" << Cli.Profile << "'\n";
      return 2;
    }
    HaveFixed = true;
  }

  const auto Start = std::chrono::steady_clock::now();
  auto OverBudget = [&]() {
    if (Cli.TimeBudgetSec == 0)
      return false;
    return std::chrono::steady_clock::now() - Start >=
           std::chrono::seconds(Cli.TimeBudgetSec);
  };

  FailureSink Sink{Cli};
  const std::vector<FuzzProfile> &Profiles = allFuzzProfiles();
  unsigned Checked = 0, Legs = 0;
  for (unsigned I = 0; I < Cli.Count; ++I) {
    if (OverBudget()) {
      if (!Cli.Quiet)
        std::cout << "time budget reached after " << Checked
                  << " modules\n";
      break;
    }
    FuzzGenParams Params;
    Params.Seed = Cli.SeedBase + I;
    Params.Profile = HaveFixed ? Fixed : Profiles[I % Profiles.size()];
    std::unique_ptr<Module> M = generateFuzzModule(Params);

    // The register file and frequency mode are drawn from the same seed,
    // so one integer reproduces the whole trial.
    Rng ConfigRng(Params.Seed ^ 0xc0ffee);
    OracleOptions OO;
    OO.Config = fuzzRegisterConfig(ConfigRng);
    OO.Mode = (I % 3 == 2) ? FrequencyMode::Static : FrequencyMode::Profile;
    OO.ParallelJobs = Cli.JobsLeg;

    OracleReport Report = runOracleLattice(*M, OO);
    ++Checked;
    Legs += Report.LegsRun;
    std::string Tag = std::string(fuzzProfileName(Params.Profile)) +
                      "-seed" + std::to_string(Params.Seed);
    // The codec contract rides along on every sweep module: it is cheap
    // next to the lattice and catches decoder drift the day it lands.
    std::string CodecWhy;
    if (!checkCodecEquivalence(*M, OO.Config, OO.Mode, CodecWhy)) {
      ++Sink.Failures;
      std::cerr << "FAIL codec " << Tag << " (config " << OO.Config.label()
                << "): " << CodecWhy << '\n';
      writeCorpusFile(*M, Cli.CorpusDir, "repro-codec-" + Tag,
                      {"ccra_fuzz codec-equivalence reproducer",
                       "failure: " + CodecWhy});
      if (!Cli.KeepGoing)
        break;
    }
    if (!Report.ok()) {
      Sink.handle(*M, OO, Report, Tag);
      if (!Cli.KeepGoing)
        break;
    } else if (!Cli.Quiet && (Checked % 50 == 0)) {
      std::cout << "  ..." << Checked << " modules clean\n";
    }
  }

  std::cout << "ccra_fuzz: " << Checked << " modules, " << Legs
            << " lattice legs, " << Sink.Failures << " failures\n";
  return Sink.Failures ? 1 : 0;
}
