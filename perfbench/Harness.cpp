//===- Harness.cpp - Shared machinery of the end-to-end benchmark ---------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <thread>

namespace perfbench {

uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

Rng::Rng(uint64_t Seed, uint64_t Salt) {
  uint64_t X = mix64(Seed) ^ mix64(Salt + 0x51ed);
  for (uint64_t &W : S)
    W = X = mix64(X);
}

uint64_t Rng::next() {
  auto Rotl = [](uint64_t V, int K) { return (V << K) | (V >> (64 - K)); };
  uint64_t Result = Rotl(S[1] * 5, 7) * 9;
  uint64_t T = S[1] << 17;
  S[2] ^= S[0];
  S[3] ^= S[1];
  S[1] ^= S[2];
  S[0] ^= S[3];
  S[2] ^= T;
  S[3] = Rotl(S[3], 45);
  return Result;
}

uint64_t Rng::below(uint64_t N) {
  return static_cast<uint64_t>((static_cast<unsigned __int128>(next()) * N) >>
                               64);
}

double Rng::unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

Zipf::Zipf(size_t N, double S) {
  Cdf.reserve(N);
  double Sum = 0;
  for (size_t I = 1; I <= N; ++I) {
    Sum += 1.0 / std::pow(static_cast<double>(I), S);
    Cdf.push_back(Sum);
  }
}

size_t Zipf::sample(Rng &R) const {
  double U = R.unit() * Cdf.back();
  size_t I = static_cast<size_t>(std::upper_bound(Cdf.begin(), Cdf.end(), U) -
                                 Cdf.begin());
  return std::min(I, Cdf.size() - 1);
}

void StreamHash::add(uint64_t V) {
  for (int I = 0; I < 8; ++I) {
    H ^= (V >> (8 * I)) & 0xff;
    H *= 1099511628211ull;
  }
}

double quantile(std::vector<double> &V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double quantile(std::deque<float> &V, double Q) {
  if (V.empty())
    return 0;
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  auto Nth = V.begin() + static_cast<std::ptrdiff_t>(
                             std::clamp<size_t>(Rank, 1, V.size()) - 1);
  std::nth_element(V.begin(), Nth, V.end());
  return *Nth;
}

double median(std::vector<double> V) { return quantile(V, 0.5); }

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / static_cast<double>(V.size());
}

void Metrics::set(const std::string &Name, double Value,
                  const std::string &Unit) {
  Values[Name] = {std::isfinite(Value) ? Value : 0, Unit};
}

std::string Metrics::json() const {
  std::ostringstream OS;
  OS << std::setprecision(10) << "{";
  bool First = true;
  for (const auto &[Name, VU] : Values) {
    OS << (First ? "" : ", ") << "\"" << Name << "\": {\"value\": " << VU.first
       << ", \"unit\": \"" << VU.second << "\"}";
    First = false;
  }
  OS << "}";
  return OS.str();
}

void Metrics::print(std::ostream &OS) const {
  for (const auto &[Name, VU] : Values)
    OS << "  " << std::left << std::setw(34) << Name << std::setprecision(6)
       << VU.first << " " << VU.second << "\n";
}

void Snap::add(const alphonse::Statistics &St) {
  EdgesCreated += St.EdgesCreated;
  EdgesRemoved += St.EdgesRemoved;
  EdgesDeduped += St.EdgesDeduped;
  ProcExecutions += St.ProcExecutions;
  CacheHits += St.CacheHits;
  EvalSteps += St.EvalSteps;
  QuiescenceCutoffs += St.QuiescenceCutoffs;
  PartitionUnions += St.PartitionUnions;
  TxnBegun += St.TxnBegun;
  TxnUndoEntries += St.TxnUndoEntries;
  PropPartitionsDrained += St.PropPartitionsDrained;
  PropConflicts += St.PropConflicts;
  EdgeReuse += St.EdgeReuse;
  StaticCalls += St.StaticCalls;
  NodesQuarantined += St.NodesQuarantined;
  LiveNodes += St.liveNodes();
  LiveEdges += St.liveEdges();
  GraphNodeBytes += St.GraphNodeBytes;
  GraphEdgeBytes += St.GraphEdgeBytes;
  PoolHighWater += St.PoolHighWater;
}

void Snap::accumulate(const Snap &A, const Snap &B) {
  EdgesCreated += B.EdgesCreated - A.EdgesCreated;
  EdgesRemoved += B.EdgesRemoved - A.EdgesRemoved;
  EdgesDeduped += B.EdgesDeduped - A.EdgesDeduped;
  ProcExecutions += B.ProcExecutions - A.ProcExecutions;
  CacheHits += B.CacheHits - A.CacheHits;
  EvalSteps += B.EvalSteps - A.EvalSteps;
  QuiescenceCutoffs += B.QuiescenceCutoffs - A.QuiescenceCutoffs;
  PartitionUnions += B.PartitionUnions - A.PartitionUnions;
  TxnBegun += B.TxnBegun - A.TxnBegun;
  TxnUndoEntries += B.TxnUndoEntries - A.TxnUndoEntries;
  PropPartitionsDrained += B.PropPartitionsDrained - A.PropPartitionsDrained;
  PropConflicts += B.PropConflicts - A.PropConflicts;
  EdgeReuse += B.EdgeReuse - A.EdgeReuse;
  StaticCalls += B.StaticCalls - A.StaticCalls;
  NodesQuarantined += B.NodesQuarantined - A.NodesQuarantined;
  PoolHighWater += B.PoolHighWater - A.PoolHighWater;
  LiveNodes = B.LiveNodes;
  LiveEdges = B.LiveEdges;
  GraphNodeBytes = B.GraphNodeBytes;
  GraphEdgeBytes = B.GraphEdgeBytes;
}

Tracer::Tracer() : Origin(Clock::now()) { Spans.reserve(1 << 16); }

int Tracer::begin(const char *Name, const char *Layer,
                  const alphonse::Statistics *S) {
  SpanRec R;
  R.Name = Name;
  R.Layer = Layer;
  R.Op = CurOp;
  R.Parent = Stack.empty() ? -1 : Stack.back().Idx;
  Open O{static_cast<int>(Spans.size()), 0, 0, 0, 0};
  if (S) {
    O.Execs = static_cast<int64_t>(S->ProcExecutions.total());
    O.Hits = static_cast<int64_t>(S->CacheHits.total());
    O.Steps = static_cast<int64_t>(S->EvalSteps.total());
    O.Edges = static_cast<int64_t>(S->EdgesCreated.total());
  }
  Stack.push_back(O);
  R.StartUs = std::chrono::duration<double, std::micro>(Clock::now() - Origin)
                  .count();
  Spans.push_back(R);
  return O.Idx;
}

void Tracer::end(int Idx, const alphonse::Statistics *S) {
  double NowUs =
      std::chrono::duration<double, std::micro>(Clock::now() - Origin).count();
  Open O = Stack.back();
  Stack.pop_back();
  SpanRec &R = Spans[static_cast<size_t>(Idx)];
  R.DurUs = NowUs - R.StartUs;
  if (S) {
    R.Execs = static_cast<int64_t>(S->ProcExecutions.total()) - O.Execs;
    R.Hits = static_cast<int64_t>(S->CacheHits.total()) - O.Hits;
    R.Steps = static_cast<int64_t>(S->EvalSteps.total()) - O.Steps;
    R.Edges = static_cast<int64_t>(S->EdgesCreated.total()) - O.Edges;
  }
  if (R.Parent >= 0)
    Spans[static_cast<size_t>(R.Parent)].ChildUs += R.DurUs;
}

std::map<std::string, Tracer::Agg> Tracer::aggregate(bool ByLayer) const {
  std::map<std::string, Agg> M;
  for (const SpanRec &R : Spans) {
    if (ByLayer && !R.Op)
      continue;
    Agg &A = M[ByLayer ? R.Layer : R.Name];
    ++A.Count;
    A.TotalUs += R.DurUs;
    A.SelfUs += R.DurUs - R.ChildUs;
  }
  return M;
}

bool Tracer::writeChrome(const std::string &Path,
                         const std::string &Stamp) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  // The aggregates use every span; the file keeps the first MaxEvents so
  // a long run stays a readable size.
  constexpr size_t MaxEvents = 100000;
  size_t N = std::min(Spans.size(), MaxEvents);
  OS << std::setprecision(12) << "{\"otherData\": {\"stamp\": " << Stamp
     << ", \"spans\": " << Spans.size() << ", \"written\": " << N
     << "},\n\"traceEvents\": [\n";
  for (size_t I = 0; I < N; ++I) {
    const SpanRec &R = Spans[I];
    OS << (I ? ",\n" : "") << "{\"name\": \"" << R.Name << "\", \"cat\": \""
       << R.Layer << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
       << R.StartUs << ", \"dur\": " << R.DurUs << ", \"args\": {\"op\": "
       << R.Op << ", \"parent\": " << R.Parent
       << ", \"self_us\": " << R.DurUs - R.ChildUs;
    if (R.Execs >= 0)
      OS << ", \"execs\": " << R.Execs << ", \"cache_hits\": " << R.Hits
         << ", \"eval_steps\": " << R.Steps << ", \"edges_linked\": "
         << R.Edges;
    OS << "}}";
  }
  OS << "\n]}\n";
  return static_cast<bool>(OS);
}

PhaseResult runClosedLoop(Workload &W, const RunConfig &C, Tracer *T,
                          double Seconds) {
  constexpr int WarmOps = 300;
  PhaseResult R;

  for (int I = 0; I < ColdSetups; ++I) {
    if (I)
      W.teardown();
    Clock::time_point T0 = Clock::now();
    W.setup(T);
    R.Slices[0].SetupS.push_back(secondsSince(T0));
    W.setupOracle();
  }
  for (int I = 0; I < WarmOps; ++I) {
    W.prepare();
    W.apply(nullptr);
    W.check();
  }

  W.resetExtras();
  W.resetHighWater();
  Snap Start;
  W.snap(Start);
  size_t SinceDurable = 0, InEpoch = 0, Cur = 0;
  uint64_t OpId = 0;
  Clock::time_point PhaseStart = Clock::now();
  Clock::time_point Deadline =
      PhaseStart + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(Seconds));

  // Restores come in threes: the first of a group may take the page
  // faults for memory the later ones reuse, and the median then measures
  // the restore itself.
  auto TakeRestore = [&] {
    if (SinceDurable) {
      W.durable(nullptr);
      SinceDurable = 0;
    }
    for (int I = 0; I < 3; ++I) {
      Clock::time_point T0 = Clock::now();
      W.restore(T);
      R.Slices[Cur].RestoreS.push_back(secondsSince(T0));
      ++R.Restores;
      if (!W.checkRestore())
        R.Problems.push_back("restored state disagrees with the oracle");
    }
  };

  while (C.FixedOps ? OpId < C.FixedOps : Clock::now() < Deadline) {
    Cur = C.FixedOps ? sliceOf(static_cast<double>(OpId),
                               static_cast<double>(C.FixedOps))
                     : sliceOf(secondsSince(PhaseStart), Seconds);
    Slice &Sl = R.Slices[Cur];
    W.prepare();
    if (T)
      T->setOp(++OpId);
    else
      ++OpId;
    Clock::time_point T0 = Clock::now();
    {
      Span Op(T, "op", "bench");
      W.apply(T);
    }
    if (T)
      T->setOp(0); // Durability, restore, and rebuild spans are not op work.
    double Us =
        std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
    Sl.Us.push_back(static_cast<float>(Us));
    Sl.BusySeconds += Us * 1e-6;
    R.OpSeconds += Us * 1e-6;
    ++R.Attempted;
    if (!W.check())
      ++R.Failed;

    if (++SinceDurable == W.durableEvery()) {
      Clock::time_point D0 = Clock::now();
      W.durable(T);
      Sl.DurableMs.push_back(secondsSince(D0) * 1e3);
      SinceDurable = 0;
    }
    if (W.epochOps() && ++InEpoch == W.epochOps()) {
      Snap End;
      W.snap(End);
      R.Delta.accumulate(Start, End);
      TakeRestore();
      W.teardown();
      Clock::time_point S0 = Clock::now();
      W.setup(T);
      Sl.SetupS.push_back(secondsSince(S0));
      W.setupOracle();
      W.resetHighWater();
      Start = Snap();
      W.snap(Start);
      InEpoch = 0;
    }
  }
  Snap End;
  W.snap(End);
  R.Delta.accumulate(Start, End);
  W.extras(R.Extras);

  while (R.Restores < MinRestores)
    TakeRestore();
  W.finalCheck(R.Problems);
  R.Fingerprint = W.streamHash();
  return R;
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0;
}

unsigned hostCpus() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

} // namespace perfbench
