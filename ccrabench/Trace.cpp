//===- ccrabench/Trace.cpp ------------------------------------------------===//

#include "Trace.h"

#include "Bench.h"

#include <chrono>

namespace ccrabench {

namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

} // namespace

void Tracer::beginOp(std::uint32_t Op) {
  CurrentOp = Op;
  OpRoot = open("bench.op");
}

void Tracer::endOp() {
  close(OpRoot);
  OpRoot = -1;
}

std::int32_t Tracer::open(const char *Name) {
  Span S;
  S.Name = Name;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Op = CurrentOp;
  auto Id = static_cast<std::int32_t>(Spans.size());
  Spans.push_back(S);
  Stack.push_back(Id);
  Spans.back().StartNs = nowNs();
  return Id;
}

void Tracer::close(std::int32_t Id) {
  std::int64_t End = nowNs();
  check(!Stack.empty() && Stack.back() == Id,
        "trace: spans closed out of order");
  Stack.pop_back();
  Spans[Id].EndNs = End;
}

double TraceTotals::selfMs(const std::string &Name) const {
  auto It = SelfMs.find(Name);
  return It == SelfMs.end() ? 0.0 : It->second;
}

std::uint64_t TraceTotals::calls(const std::string &Name) const {
  auto It = Calls.find(Name);
  return It == Calls.end() ? 0 : It->second;
}

TraceTotals summarize(const std::vector<Span> &Spans) {
  // Children are recorded after their parent, in start order, so one pass
  // in index order sees each child after its parent and after its earlier
  // siblings.
  std::vector<std::int64_t> ChildNs(Spans.size(), 0);
  std::vector<std::int64_t> LastChildEnd(Spans.size());
  for (std::size_t I = 0; I < Spans.size(); ++I)
    LastChildEnd[I] = Spans[I].StartNs;

  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    check(S.EndNs >= S.StartNs, "trace: span ends before it starts");
    if (S.Parent < 0)
      continue;
    const Span &P = Spans[S.Parent];
    check(S.StartNs >= LastChildEnd[S.Parent] && S.EndNs <= P.EndNs,
          std::string("trace: span ") + S.Name +
              " overlaps a sibling or leaves its parent " + P.Name);
    LastChildEnd[S.Parent] = S.EndNs;
    ChildNs[S.Parent] += S.EndNs - S.StartNs;
  }

  TraceTotals T;
  // Per root: the subtree's self times must add up to the root duration.
  std::vector<std::int64_t> SubtreeSelf(Spans.size(), 0);
  for (std::size_t I = Spans.size(); I-- > 0;) {
    const Span &S = Spans[I];
    std::int64_t Self = S.EndNs - S.StartNs - ChildNs[I];
    SubtreeSelf[I] += Self;
    double SelfMs = static_cast<double>(Self) / 1e6;
    if (S.Parent >= 0) {
      SubtreeSelf[S.Parent] += SubtreeSelf[I];
    } else {
      check(SubtreeSelf[I] == S.EndNs - S.StartNs,
            std::string("trace: self times of ") + S.Name +
                " do not add up to its wall time");
    }
    if (S.Parent < 0 && std::string(S.Name) == "bench.op") {
      T.UnattributedMs += SelfMs;
      T.OpWallMs += static_cast<double>(S.EndNs - S.StartNs) / 1e6;
      ++T.Ops;
      continue;
    }
    T.SelfMs[S.Name] += SelfMs;
    ++T.Calls[S.Name];
  }
  return T;
}

} // namespace ccrabench
