//===- regalloc/AllocatorOptions.cpp --------------------------------------===//

#include "regalloc/AllocatorOptions.h"

#include <charconv>
#include <sstream>

using namespace ccra;

std::string AllocatorOptions::describe() const {
  switch (Kind) {
  case AllocatorKind::Chaitin:
    return Optimistic ? "optimistic" : "base";
  case AllocatorKind::Improved: {
    std::string Tag;
    if (StorageClass)
      Tag += "SC";
    if (BenefitSimplify)
      Tag += Tag.empty() ? "BS" : "+BS";
    if (PreferenceDecision)
      Tag += Tag.empty() ? "PR" : "+PR";
    if (Tag.empty())
      Tag = "improved(none)";
    if (Optimistic)
      Tag += "+opt";
    return Tag;
  }
  case AllocatorKind::Priority:
    switch (Ordering) {
    case PriorityOrdering::RemoveUnconstrained:
      return "priority(remove)";
    case PriorityOrdering::SortUnconstrained:
      return "priority(sortunc)";
    case PriorityOrdering::FullSort:
      return "priority";
    }
    return "priority";
  case AllocatorKind::CBH:
    return "CBH";
  }
  return "unknown";
}

// The spellings of the canonical key. One table per enum serves both
// directions, so canonicalKey -> parse cannot drift.
namespace {

template <typename E> struct Spelling {
  E Value;
  const char *Name;
};

constexpr Spelling<AllocatorKind> KindNames[] = {
    {AllocatorKind::Chaitin, "chaitin"},
    {AllocatorKind::Improved, "improved"},
    {AllocatorKind::Priority, "priority"},
    {AllocatorKind::CBH, "cbh"}};
constexpr Spelling<BenefitKeyStrategy> BSKeyNames[] = {
    {BenefitKeyStrategy::MaxBenefit, "max"},
    {BenefitKeyStrategy::Delta, "delta"}};
constexpr Spelling<CalleeCostModel> CalleeModelNames[] = {
    {CalleeCostModel::FirstUserPays, "first-user"},
    {CalleeCostModel::Shared, "shared"}};
constexpr Spelling<PriorityOrdering> OrderingNames[] = {
    {PriorityOrdering::RemoveUnconstrained, "remove-unconstrained"},
    {PriorityOrdering::SortUnconstrained, "sort-unconstrained"},
    {PriorityOrdering::FullSort, "full-sort"}};

template <typename E, std::size_t N>
const char *nameOf(const Spelling<E> (&Names)[N], E Value) {
  for (const Spelling<E> &S : Names)
    if (S.Value == Value)
      return S.Name;
  return Names[0].Name;
}

template <typename E, std::size_t N>
bool parseName(const Spelling<E> (&Names)[N], const std::string &Text,
               E &Out) {
  for (const Spelling<E> &S : Names)
    if (Text == S.Name) {
      Out = S.Value;
      return true;
    }
  return false;
}

bool parseBool(const std::string &V, bool &Out) {
  if (V != "0" && V != "1")
    return false;
  Out = V == "1";
  return true;
}

bool fail(std::string *Err, const std::string &Message) {
  if (Err)
    *Err = Message;
  return false;
}

} // namespace

std::string AllocatorOptions::canonicalKey() const {
  std::ostringstream OS;
  OS << "kind=" << nameOf(KindNames, Kind)                   //
     << " optimistic=" << (Optimistic ? 1 : 0)               //
     << " storage-class=" << (StorageClass ? 1 : 0)          //
     << " benefit-simplify=" << (BenefitSimplify ? 1 : 0)    //
     << " preference-decision=" << (PreferenceDecision ? 1 : 0)
     << " bs-key=" << nameOf(BSKeyNames, BSKey)              //
     << " callee-model=" << nameOf(CalleeModelNames, CalleeModel)
     << " ordering=" << nameOf(OrderingNames, Ordering)      //
     << " aggressive-coalescing=" << (AggressiveCoalescing ? 1 : 0)
     << " materialize=" << (MaterializeSaveRestore ? 1 : 0)  //
     << " max-rounds=" << MaxRounds;
  return OS.str();
}

bool ccra::parseAllocatorOptions(const std::string &Text, AllocatorOptions &Out,
                                 std::string *Err) {
  Out = AllocatorOptions();
  std::istringstream IS(Text);
  std::string Token;
  while (IS >> Token) {
    std::size_t Eq = Token.find('=');
    if (Eq == std::string::npos || Eq == 0)
      return fail(Err, "malformed option token '" + Token + "'");
    std::string Key = Token.substr(0, Eq);
    std::string Value = Token.substr(Eq + 1);
    bool Ok = true;
    if (Key == "kind") {
      Ok = parseName(KindNames, Value, Out.Kind);
    } else if (Key == "optimistic") {
      Ok = parseBool(Value, Out.Optimistic);
    } else if (Key == "storage-class") {
      Ok = parseBool(Value, Out.StorageClass);
    } else if (Key == "benefit-simplify") {
      Ok = parseBool(Value, Out.BenefitSimplify);
    } else if (Key == "preference-decision") {
      Ok = parseBool(Value, Out.PreferenceDecision);
    } else if (Key == "bs-key") {
      Ok = parseName(BSKeyNames, Value, Out.BSKey);
    } else if (Key == "callee-model") {
      Ok = parseName(CalleeModelNames, Value, Out.CalleeModel);
    } else if (Key == "ordering") {
      Ok = parseName(OrderingNames, Value, Out.Ordering);
    } else if (Key == "aggressive-coalescing") {
      Ok = parseBool(Value, Out.AggressiveCoalescing);
    } else if (Key == "materialize") {
      Ok = parseBool(Value, Out.MaterializeSaveRestore);
    } else if (Key == "max-rounds") {
      const char *End = Value.data() + Value.size();
      auto [Ptr, Ec] = std::from_chars(Value.data(), End, Out.MaxRounds);
      Ok = Ec == std::errc() && Ptr == End;
      unsigned Min = AllocatorOptions::DefaultMaxRounds;
      if (Ok && Out.MaxRounds < Min)
        return fail(Err, "max-rounds below " + std::to_string(Min) +
                             " can only abort allocation: '" + Value + "'");
    } else {
      return fail(Err, "unknown option key '" + Key + "'");
    }
    if (!Ok)
      return fail(Err, "bad value for option '" + Key + "': '" + Value + "'");
  }
  return true;
}

AllocatorOptions ccra::baseChaitinOptions() {
  AllocatorOptions Opts;
  Opts.Kind = AllocatorKind::Chaitin;
  Opts.Optimistic = false;
  return Opts;
}

AllocatorOptions ccra::optimisticOptions() {
  AllocatorOptions Opts;
  Opts.Kind = AllocatorKind::Chaitin;
  Opts.Optimistic = true;
  return Opts;
}

AllocatorOptions ccra::improvedOptions(bool StorageClass, bool BenefitSimplify,
                                       bool PreferenceDecision) {
  AllocatorOptions Opts;
  Opts.Kind = AllocatorKind::Improved;
  Opts.StorageClass = StorageClass;
  Opts.BenefitSimplify = BenefitSimplify;
  Opts.PreferenceDecision = PreferenceDecision;
  return Opts;
}

AllocatorOptions ccra::improvedOptimisticOptions() {
  AllocatorOptions Opts = improvedOptions();
  Opts.Optimistic = true;
  return Opts;
}

AllocatorOptions ccra::priorityOptions(PriorityOrdering Ordering) {
  AllocatorOptions Opts;
  Opts.Kind = AllocatorKind::Priority;
  Opts.Ordering = Ordering;
  return Opts;
}

AllocatorOptions ccra::cbhOptions() {
  AllocatorOptions Opts;
  Opts.Kind = AllocatorKind::CBH;
  return Opts;
}
