//===- Harness.h - Shared machinery of the end-to-end benchmark -*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every perfbench workload shares: the seeded generators, latency
/// samples, Statistics snapshots taken at layer boundaries, the span
/// tracer, the metric table, and the closed-loop runner. The benchmark
/// reaches the engine only through its public entry points (AvlTree,
/// Spreadsheet, Interp, SessionManager, Runtime/Statistics) and measures
/// each layer from outside: spans around the calls into it, counter deltas
/// at the same boundaries.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "support/Statistics.h"

#include <chrono>
#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

//===----------------------------------------------------------------------===//
// Seeded generators
//===----------------------------------------------------------------------===//

/// splitmix64: mixes a seed and a salt into a well-spread 64-bit state.
uint64_t mix64(uint64_t X);

/// The benchmark's only randomness source: xoshiro256** seeded through
/// splitmix64, with its own range reduction, so one seed gives one op
/// stream on every standard library.
class Rng {
public:
  Rng(uint64_t Seed, uint64_t Salt);
  uint64_t next();
  /// Uniform in [0, N).
  uint64_t below(uint64_t N);
  /// Uniform in [0, 1).
  double unit();
  /// True with probability \p P.
  bool chance(double P) { return unit() < P; }

private:
  uint64_t S[4];
};

/// Zipf(s) over ranks 0..N-1: precomputed CDF plus binary search.
class Zipf {
public:
  Zipf(size_t N, double S);
  size_t sample(Rng &R) const;

private:
  std::vector<double> Cdf;
};

/// Percent rolls for an op mix, dealt from a shuffled deck of 0..99: every
/// run of 100 ops holds each kind in exactly its share, so a slice's mix
/// (and with it its throughput) does not wander with the draw.
class MixDeck {
public:
  uint64_t next(Rng &R) {
    if (Pos == 100) {
      for (uint64_t I = 0; I < 100; ++I)
        Cards[I] = I;
      for (uint64_t I = 99; I > 0; --I)
        std::swap(Cards[I], Cards[R.below(I + 1)]);
      Pos = 0;
    }
    return Cards[Pos++];
  }

private:
  uint64_t Cards[100] = {};
  size_t Pos = 100;
};

/// FNV-1a accumulator for the op-stream fingerprint (the self-test's
/// "same seed, same stream" check).
class StreamHash {
public:
  void add(uint64_t V);
  uint64_t value() const { return H; }

private:
  uint64_t H = 1469598103934665603ull;
};

//===----------------------------------------------------------------------===//
// Samples and metrics
//===----------------------------------------------------------------------===//

/// Nearest-rank quantile of \p V (reordered in place); 0 when empty.
double quantile(std::vector<double> &V, double Q);
double quantile(std::deque<float> &V, double Q);
double median(std::vector<double> V);
double mean(const std::vector<double> &V);

/// Ordered name -> (value, unit) table; the benchmark's result.
class Metrics {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  /// Ratio with a zero-denominator guard (0 when \p Den is 0).
  static double ratio(double Num, double Den) { return Den ? Num / Den : 0; }
  std::string json() const;
  void print(std::ostream &OS) const;

private:
  std::map<std::string, std::pair<double, std::string>> Values;
};

//===----------------------------------------------------------------------===//
// Statistics snapshots
//===----------------------------------------------------------------------===//

/// The Statistics counters the per-layer metrics read, summed over any
/// number of runtimes. Gauges (slab bytes, high water, live counts) are
/// taken from the end snapshot; counters as end - start.
struct Snap {
  // Counters.
  uint64_t EdgesCreated = 0, EdgesRemoved = 0, EdgesDeduped = 0,
           ProcExecutions = 0, CacheHits = 0, EvalSteps = 0,
           QuiescenceCutoffs = 0, PartitionUnions = 0, TxnBegun = 0,
           TxnUndoEntries = 0, PropPartitionsDrained = 0, PropConflicts = 0,
           EdgeReuse = 0, StaticCalls = 0, NodesQuarantined = 0;
  // Gauges.
  uint64_t LiveNodes = 0, LiveEdges = 0, GraphNodeBytes = 0,
           GraphEdgeBytes = 0, PoolHighWater = 0;

  void add(const alphonse::Statistics &S);
  /// Accumulates the counter deltas End - Start into *this and replaces
  /// the gauges with End's; PoolHighWater accumulates End - Start, the
  /// slab growth over the phase.
  void accumulate(const Snap &Start, const Snap &End);
};

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// One span: a call from the benchmark into a layer. Spans of one op share
/// its id; Parent links a span to the span that was open when it began.
struct SpanRec {
  const char *Name;
  const char *Layer;
  uint64_t Op;
  double StartUs;
  double DurUs = 0;
  double ChildUs = 0;
  int32_t Parent;
  /// Counter deltas across the span, when it was given a Statistics block.
  int64_t Execs = -1, Hits = 0, Steps = 0, Edges = 0;
};

/// In-memory span recorder; written out as Chrome trace-event JSON when
/// the run ends. A null Tracer* everywhere means "untraced".
class Tracer {
public:
  Tracer();
  void setOp(uint64_t Op) { CurOp = Op; }
  int begin(const char *Name, const char *Layer,
            const alphonse::Statistics *S);
  void end(int Idx, const alphonse::Statistics *S);

  struct Agg {
    uint64_t Count = 0;
    double TotalUs = 0, SelfUs = 0;
  };
  /// Per span name (every span), and per layer over the spans inside
  /// measured ops (self time = duration minus the part covered by child
  /// spans).
  std::map<std::string, Agg> byName() const { return aggregate(false); }
  std::map<std::string, Agg> byLayer() const { return aggregate(true); }

  bool writeChrome(const std::string &Path, const std::string &Stamp) const;
  size_t size() const { return Spans.size(); }

private:
  std::map<std::string, Agg> aggregate(bool ByLayer) const;

  struct Open {
    int Idx;
    int64_t Execs, Hits, Steps, Edges;
  };
  Clock::time_point Origin;
  std::vector<SpanRec> Spans;
  std::vector<Open> Stack;
  uint64_t CurOp = 0;
};

/// RAII span; a no-op when the tracer is null.
class Span {
public:
  Span(Tracer *T, const char *Name, const char *Layer,
       const alphonse::Statistics *S = nullptr)
      : T(T), S(S), Idx(T ? T->begin(Name, Layer, S) : -1) {}
  ~Span() {
    if (T)
      T->end(Idx, S);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer *T;
  const alphonse::Statistics *S;
  int Idx;
};

//===----------------------------------------------------------------------===//
// Workloads and the closed-loop runner
//===----------------------------------------------------------------------===//

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory for checkpoint files and the trace.
  std::string WorkDir = ".";
  std::string ProgramPath;
  /// Fixed op count instead of a deadline (self-test); 0 = use Seconds.
  uint64_t FixedOps = 0;
  /// Self-test hook: the checking code corrupts every Nth expected answer
  /// (0 = never), to prove the oracle comparison can fail.
  uint64_t CorruptEvery = 0;
};

/// The measured phase is cut into equal slices. Each timing metric is
/// computed per slice (a median, or the p99) and reported from the run's
/// fast slices: the FastSliceQ quantile of the per-slice values (the
/// 1 - FastSliceQ one for throughput). A shared virtualized host runs the
/// same code at speeds up to twice apart, changing every few seconds to
/// every few minutes; that noise only ever adds time, so the fast slices
/// take out the part of it that changes within a run.
constexpr size_t NumSlices = 20;
constexpr double FastSliceQ = 0.1;

/// Samples and time of one slice. A deque of floats grows in chunks, so
/// the op latencies add little to peak RSS and never double it by a copy.
struct Slice {
  std::deque<float> Us;
  double BusySeconds = 0; ///< Time inside ops.
  /// Durability, restore and set-up times taken while the slice ran; the
  /// cold set-ups before the phase count to the first slice, the restores
  /// after it to the last.
  std::vector<double> DurableMs, RestoreS, SetupS;
};

/// Everything one measured phase produced.
struct PhaseResult {
  std::array<Slice, NumSlices> Slices;
  uint64_t Attempted = 0, Failed = 0;
  size_t Restores = 0;
  double OpSeconds = 0; ///< Time inside timed ops.
  Snap Delta;             ///< Counter deltas over the measured phase.
  std::map<std::string, double> Extras; ///< Workload-specific layer numbers.
  uint64_t Fingerprint = 0; ///< Op-stream hash (closed loops).
  std::vector<std::string> Problems; ///< Final-check failures.
};

/// A closed-loop workload: one client, next op after the previous answer.
class Workload {
public:
  explicit Workload(const RunConfig &C) : Cfg(C) {}
  virtual ~Workload() = default;

  /// Cold start to the first consistent answer (timed by the runner).
  virtual void setup(Tracer *T) = 0;
  /// Builds whatever the oracle needs for the fresh instance (untimed;
  /// runs right after every setup()).
  virtual void setupOracle() {}
  /// Drops the live instance (untimed).
  virtual void teardown() = 0;
  /// Draws the next op from the seeded stream (untimed).
  virtual void prepare() = 0;
  /// The op: mutation and/or demand up to its consistent answer (timed).
  virtual void apply(Tracer *T) = 0;
  /// Compares the op's answer against the oracle (untimed); false counts
  /// the op as failed.
  virtual bool check() = 0;
  /// Makes the current state durable (timed); every durableEvery() ops.
  virtual void durable(Tracer *T) = 0;
  virtual size_t durableEvery() const = 0;
  /// Rebuilds a fresh instance from the durable state and demands its
  /// first answer (timed); checkRestore() verifies it (untimed).
  virtual void restore(Tracer *T) = 0;
  virtual bool checkRestore() = 0;
  /// Ops per epoch: after that many the instance is rebuilt (0 = never).
  virtual size_t epochOps() const { return 0; }
  /// End-of-run invariants (verify(), tree shape); appends problems.
  virtual void finalCheck(std::vector<std::string> &Problems) = 0;
  /// Sums the live runtimes' counters into \p S.
  virtual void snap(Snap &S) = 0;
  virtual void resetHighWater() = 0;
  /// Workload-specific per-layer numbers for the measured phase.
  virtual void extras(std::map<std::string, double> &E) {}
  /// Clears per-phase extras (called when the measured phase starts).
  virtual void resetExtras() {}

  uint64_t streamHash() const { return Hash.value(); }

protected:
  /// True when the self-test asked for this op's expected answer to be
  /// corrupted (the check must then fail).
  bool corruptNow() {
    return Cfg.CorruptEvery && ++Checked % Cfg.CorruptEvery == 0;
  }

  const RunConfig &Cfg;
  StreamHash Hash;

private:
  uint64_t Checked = 0;
};

/// Slice index of a point \p Done of the way through a phase of \p Total.
inline size_t sliceOf(double Done, double Total) {
  size_t I = Total > 0 ? static_cast<size_t>(Done / Total * NumSlices) : 0;
  return I < NumSlices ? I : NumSlices - 1;
}

/// Cold set-ups at the start of a run, and the fewest restores in a run.
constexpr int ColdSetups = 9;
constexpr size_t MinRestores = 9;

/// Runs setups, warm-up, and the measured phase of a closed-loop workload.
PhaseResult runClosedLoop(Workload &W, const RunConfig &C, Tracer *T,
                          double Seconds);

std::unique_ptr<Workload> makeAvlChurn(const RunConfig &C);
std::unique_ptr<Workload> makeSheetRecalc(const RunConfig &C);
std::unique_ptr<Workload> makeLangAvl(const RunConfig &C);
std::unique_ptr<Workload> makeSessionZipf(const RunConfig &C);

/// Peak resident set of this process (VmHWM), in MiB.
double peakRssMb();

/// Number of online processors.
unsigned hostCpus();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
