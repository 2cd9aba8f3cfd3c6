//===- ccrabench/Trace.h - Spans around calls into ccra ---------*- C++ -*-===//
///
/// \file
/// The traced run's recorder. The benchmark opens a span around each call
/// it makes into a ccra layer (Frontend::compile, verifyModule,
/// FrequencyInfo::compute, allocateModule, ...), named "<layer>.<call>",
/// plus one "bench.op" root per operation. Spans stay in memory until the
/// run ends. A span's self time is its duration minus the time its child
/// spans cover; a root's self time is the operation wall time no layer
/// span covers (bench.unattributed_ms).
///
/// Spans are recorded from one thread: every traced operation runs on the
/// benchmark's main thread, so open spans form a stack.
///
/// Roots other than "bench.op" are probes: single calls timed outside any
/// operation (for example one Coalescer::run on a cloned function).
///
//===----------------------------------------------------------------------===//

#ifndef CCRABENCH_TRACE_H
#define CCRABENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ccrabench {

struct Span {
  const char *Name = nullptr;
  std::int64_t StartNs = 0;
  std::int64_t EndNs = 0;
  std::int32_t Parent = -1; ///< index of the enclosing span, -1 for a root
  std::uint32_t Op = 0;     ///< operation id shared by an operation's spans
};

class Tracer {
public:
  /// Starts operation \p Op: opens its "bench.op" root span.
  void beginOp(std::uint32_t Op);
  void endOp();

  std::int32_t open(const char *Name);
  void close(std::int32_t Id);

  const std::vector<Span> &spans() const { return Spans; }

private:
  std::vector<Span> Spans;
  std::vector<std::int32_t> Stack;
  std::uint32_t CurrentOp = 0;
  std::int32_t OpRoot = -1;
};

/// Opens a span for its lifetime; a null tracer (the untraced path) makes
/// it a no-op, so traced and untraced operations run the same code.
class SpanScope {
public:
  SpanScope(Tracer *T, const char *Name) : T(T) {
    if (T)
      Id = T->open(Name);
  }
  ~SpanScope() {
    if (T)
      T->close(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer *T;
  std::int32_t Id = -1;
};

/// Self time and call count per span name, over a whole trace.
struct TraceTotals {
  std::map<std::string, double> SelfMs;
  std::map<std::string, std::uint64_t> Calls;
  double UnattributedMs = 0.0; ///< self time of the bench.op roots
  double OpWallMs = 0.0;       ///< summed duration of the bench.op roots
  std::uint64_t Ops = 0;

  double selfMs(const std::string &Name) const;
  std::uint64_t calls(const std::string &Name) const;
};

/// Computes self times and checks the trace: children lie inside their
/// parent and do not overlap, and for every root the self times of its
/// spans add up to its duration exactly. Throws CheckFailure otherwise.
TraceTotals summarize(const std::vector<Span> &Spans);

} // namespace ccrabench

#endif // CCRABENCH_TRACE_H
