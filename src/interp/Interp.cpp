//===- Interp.cpp - Alphonse-L interpreter ----------------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "graph/Checkpoint.h"
#include "interp/bytecode/Compiler.h"
#include "interp/bytecode/VM.h"
#include "lang/Types.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <chrono>

using namespace alphonse::lang;

namespace alphonse::interp {

//===----------------------------------------------------------------------===//
// Storage slots (the interpreter's Cell<T>)
//===----------------------------------------------------------------------===//

class SlotNode;

/// One storage location: a live value plus a lazily created dependency
/// node (Algorithm 3 creates nodes at the first access under a non-empty
/// call stack).
class StorageSlot {
public:
  StorageSlot() = default;
  ~StorageSlot();
  StorageSlot(const StorageSlot &) = delete;
  StorageSlot &operator=(const StorageSlot &) = delete;

  Value Live;
  /// Debug label for the slot's node ("G.<name>" for globals, empty for
  /// fields); doubles as the slot's fault-injection site. Declared before
  /// Node: the node points at its label (see label()) until it dies.
  std::string DebugName;
  std::unique_ptr<SlotNode> Node;
  /// The slot's location in change records: the owning object's heap
  /// index and the field index, or Global and the global's index.
  static constexpr uint32_t Global = UINT32_MAX;
  uint32_t Object = Global;
  uint32_t Index = 0;
  /// On Interp::UnsavedSlots: written since the state was last durable.
  bool Unsaved = false;

  /// The label for this slot's node: DebugName, or "slot" for fields.
  const std::string &label() const {
    static const std::string Field = "slot";
    return DebugName.empty() ? Field : DebugName;
  }
};

/// The dependency-graph node of a storage slot; Snapshot is the value
/// dependents last observed (compared by Algorithm 4 and at refresh).
class SlotNode final : public DepNode {
public:
  SlotNode(DepGraph &G, StorageSlot &Owner)
      : DepNode(G, NodeKind::Storage), Owner(&Owner), Snapshot(Owner.Live) {}

  bool refreshStorage() override {
    faultInjectionPoint(name());
    bool Changed = !(Owner->Live == Snapshot);
    Snapshot = Owner->Live;
    return Changed;
  }

  StorageSlot *Owner;
  Value Snapshot;
};

StorageSlot::~StorageSlot() = default;

//===----------------------------------------------------------------------===//
// Procedure instance nodes (the interpreter's argument-table entries)
//===----------------------------------------------------------------------===//

/// One (procedure, argument vector) incremental instance.
class InterpProcNode final : public DepNode {
public:
  InterpProcNode(DepGraph &G, Interp &Owner, const ProcDecl *Proc,
                 EvalStrategy Strategy)
      : DepNode(G, NodeKind::Procedure, Strategy), Owner(&Owner),
        Proc(Proc) {
    // A side-effect-free body executes in per-thread VM state and may
    // re-run on parallel wave workers; anything the effect analysis could
    // not clear (prints, NEW, global or field writes) keeps the serial pin.
    if (!Owner.BC->parallelSafe(Proc))
      requireSerialEval();
  }

  bool reexecute() override { return Owner->reexecuteInstance(*this); }

  Interp *Owner;
  const ProcDecl *Proc;
  std::vector<Value> Key;
  std::optional<Value> Cached;
};

//===----------------------------------------------------------------------===//
// Heap objects
//===----------------------------------------------------------------------===//

HeapObject::HeapObject(const ObjectTypeInfo *Ty, size_t NumFields,
                       uint32_t Index)
    : Ty(Ty), Index(Index) {
  Slots.reserve(NumFields);
  for (size_t I = 0; I < NumFields; ++I) {
    Slots.push_back(std::make_unique<StorageSlot>());
    Slots.back()->Object = Index;
    Slots.back()->Index = static_cast<uint32_t>(I);
  }
}

HeapObject::~HeapObject() = default;

StorageSlot &HeapObject::slot(size_t I) {
  assert(I < Slots.size() && "field index out of range");
  return *Slots[I];
}

std::string Value::render() const {
  switch (K) {
  case Kind::Nil:
    return "NIL";
  case Kind::Int:
    return std::to_string(Int);
  case Kind::Bool:
    return Bool ? "TRUE" : "FALSE";
  case Kind::Text:
    return Text;
  case Kind::Object:
    return "<" + Obj->type()->Name + ">";
  }
  return "<?>";
}

//===----------------------------------------------------------------------===//
// Interp: construction
//===----------------------------------------------------------------------===//

Interp::Interp(const Module &M, const SemaInfo &Info, ExecMode Mode,
               DepGraph::Config Cfg)
    : M(M), Info(Info), Mode(Mode),
      BCState(std::make_unique<bytecode::ExecArena>()), RT(Cfg),
      Tables(M.Procs.size()) {
  // Compile before any language node exists: InterpProcNode consults BC
  // to decide whether its partition needs the serial pin. Compiled chunks
  // are derived state — never checkpointed, rebuilt from the module here
  // on every construction (including the fresh interpreter a restore
  // requires).
  DiagnosticEngine Diags;
  BC = bytecode::compileModule(M, Info, Diags);
  for (const Type &Ty : Info.GlobalTypes) {
    auto Slot = std::make_unique<StorageSlot>();
    Slot->Live = defaultValue(Ty);
    Slot->Index = static_cast<uint32_t>(Globals.size());
    Globals.push_back(std::move(Slot));
  }
  for (const GlobalDecl &G : M.Globals)
    if (G.Index >= 0) {
      GlobalIndex[G.Name] = G.Index;
      Globals[static_cast<size_t>(G.Index)]->DebugName = "G." + G.Name;
    }
  if (!BC) {
    const Diagnostic &D = Diags.diagnostics().front();
    Failed = true;
    // Formatted as a printed compile diagnostic, unlike a runtime error.
    ErrorMessage = D.Loc.str() + ": error: " + D.Message;
    return;
  }
  // Run the initializers in declaration order, conventionally in either
  // mode: their stores are untracked, so an instance a (*CACHED*) call
  // built here would never see a later initializer's write, and it would
  // leave the graph busy for a restore. By Theorem 5.1 the values are the
  // same. The chunk is not a call level: a procedure it calls starts at
  // depth 0, as a driver call does.
  this->Mode = ExecMode::Conventional;
  bytecode::ExecState &ES = BCState->current();
  ES.Depth = -1;
  guarded([&] { return runChunk(BC->Init, {}); });
  ES.Depth = 0;
  this->Mode = Mode;
}

Interp::~Interp() = default;

Value Interp::defaultValue(const Type &Ty) const {
  switch (Ty.Kind) {
  case TypeKind::Integer:
    return Value::integer(0);
  case TypeKind::Boolean:
    return Value::boolean(false);
  case TypeKind::Text:
    return Value::text("");
  default:
    return Value::nil();
  }
}

HeapObject *Interp::allocate(const ObjectTypeInfo *Ty) {
  auto Obj = std::make_unique<HeapObject>(Ty, Ty->Fields.size(),
                                          static_cast<uint32_t>(Heap.size()));
  for (const FieldInfo &FI : Ty->Fields)
    Obj->slot(static_cast<size_t>(FI.Index)).Live = defaultValue(FI.Ty);
  Heap.push_back(std::move(Obj));
  return Heap.back().get();
}

void Interp::markSaved() {
  for (StorageSlot *S : UnsavedSlots)
    S->Unsaved = false;
  UnsavedSlots.clear();
  SavedHeap = Heap.size();
}

void Interp::fail(SourceLocation Loc, const std::string &Message) {
  // Thrown, not flagged: the error unwinds through the incremental call
  // protocol (quarantining any in-flight instances) and is converted back
  // to the failed()/errorMessage() state at the public API boundary.
  throw RuntimeError(Loc, Message);
}

void Interp::noteFailure() {
  try {
    throw;
  } catch (const std::exception &E) {
    if (!Failed) { // The first failure wins, as with the old flag.
      Failed = true;
      ErrorMessage = E.what();
    }
  } catch (...) {
    if (!Failed) {
      Failed = true;
      ErrorMessage = "unknown runtime failure";
    }
  }
}

std::string Interp::renderForPrint(const Value &V) const { return V.render(); }

//===----------------------------------------------------------------------===//
// Storage protocol
//===----------------------------------------------------------------------===//

Value Interp::trackedRead(StorageSlot &S, bool Tracked) {
  if (Mode != ExecMode::Alphonse || !Tracked || !RT.inIncrementalCall())
    return S.Live;
  if (!S.Node) {
    // Double-checked under the graph's state guard: with compiled bodies
    // on wave workers, two refreshes can race to materialize the same
    // slot's node (same pattern as Cell::ensureNode).
    DepGraph::StateGuard Guard(RT.graph());
    if (!S.Node) {
      S.Node = std::make_unique<SlotNode>(RT.graph(), S);
      S.Node->setName(S.label());
      // Slot nodes created inside a batch are destroyed again on rollback.
      if (RT.inBatch())
        RT.graph().logUndo([&S]() { S.Node.reset(); });
    }
  }
  RT.recordAccess(*S.Node);
  return S.Live;
}

void Interp::trackedWrite(StorageSlot &S, Value V, bool Tracked) {
  // Once there is a base snapshot, the next change record lists every
  // slot whose value moved. A rolled back write stays listed; the record
  // then repeats the restored value.
  if (Deltas.started() && !S.Unsaved && !(V == S.Live)) {
    S.Unsaved = true;
    UnsavedSlots.push_back(&S);
  }
  // Journal every storage write inside a batch — untracked ones too,
  // since the slot may gain a node later in the batch and rollback must
  // restore the value written before it.
  if (Mode == ExecMode::Alphonse && RT.inBatch())
    RT.graph().logUndo([&S, Old = S.Live]() {
      S.Live = Old;
      if (S.Node)
        S.Node->Snapshot = Old;
    });
  if (Mode != ExecMode::Alphonse || !Tracked || !S.Node) {
    S.Live = std::move(V);
    return;
  }
  Statistics &Stats = RT.stats();
  ++Stats.TrackedWrites;
  // Algorithm 4 begins with access(l): the writer depends on the location.
  if (RT.inIncrementalCall())
    RT.recordAccess(*S.Node);
  bool Quiescent = (V == S.Node->Snapshot);
  S.Live = std::move(V);
  if (Quiescent && RT.graph().config().VariableCutoff) {
    ++Stats.QuiescentWrites;
    return;
  }
  RT.graph().markInconsistent(*S.Node);
}

//===----------------------------------------------------------------------===//
// Call protocol
//===----------------------------------------------------------------------===//

Value Interp::dispatch(const ProcDecl *P, const PragmaInfo &Pragma,
                       bool Checked, std::vector<Value> Args) {
  // The call(p, ...) operation: with no table pointer (conventional mode,
  // unchecked site, or non-incremental callee) execute directly; reads
  // inside then attribute to the calling incremental instance, which is
  // exactly the transitive R(p) of Section 3.3.
  if (Mode == ExecMode::Alphonse && Checked && Pragma.isIncremental())
    return incrementalCall(P, Pragma, std::move(Args));
  return runChunk(BC->chunk(P), Args);
}

Value Interp::incrementalCall(const ProcDecl *P, const PragmaInfo &Pragma,
                              std::vector<Value> Args) {
  InterpProcNode *N;
  bool Existing = false;
  {
    // Table lookup/insert under the graph's state guard: compiled callers
    // on different wave workers can reach the same instance concurrently
    // (mirrors Maintained::operator()). Tables never resizes, which keeps
    // &Table valid for the undo closure.
    DepGraph::StateGuard Guard(RT.graph());
    ArgTable &Table = Tables[static_cast<size_t>(P->Index)];
    auto It = Table.find(Args);
    if (It == Table.end()) {
      auto Owned = std::make_unique<InterpProcNode>(RT.graph(), *this, P,
                                                    Pragma.Strategy);
      N = Owned.get();
      N->setName(P->Name);
      N->Key = Args;
      Table.emplace(std::move(Args), std::move(Owned));
      // Argument-table entries inserted inside a batch are dropped again on
      // rollback (references to the node were journaled later, so they are
      // undone first).
      if (RT.inBatch())
        RT.graph().logUndo(
            [&Table, DeadKey = N->Key]() { Table.erase(DeadKey); });
    } else {
      N = It->second.get();
      Existing = true;
    }
  }
  // Partition-ownership handshake before touching the instance's state:
  // claim an unowned partition for this worker, or throw RetryConflict to
  // defer behind the current owner (the scheduler re-runs the accessor).
  RT.graph().ensureWorkerAccess(*N, RT.currentProcedure());
  // Algorithm 5: before reusing an existing instance, apply any batched
  // changes that could affect it. Outside the guard — this can evaluate.
  if (Existing)
    RT.ensureEvaluatedFor(*N);
  if (RT.inIncrementalCall())
    RT.recordAccess(*N);
  if (N->isQuarantined()) {
    // The last recompute failed; resurface the original fault instead of
    // serving a stale or missing cache entry.
    throw QuarantinedError(*RT.graph().fault(*N));
  }
  if (N->isExecuting()) {
    // Re-entrant call to an in-flight instance: run conventionally,
    // attributing reads to the instance (sound over-approximation).
    // ReentrantScope bounds the nesting; past Config::MaxReentrantDepth
    // this is a dependency cycle and its constructor throws CycleError.
    ReentrantScope Reentrant(RT.graph(), *N);
    Runtime::CallScope Call(RT, N);
    return runChunk(BC->chunk(P), N->Key);
  }
  if (N->isConsistent()) {
    assert(N->Cached && "consistent instance with no cached value");
    ++RT.stats().CacheHits;
    return *N->Cached;
  }
  return executeInstance(*N);
}

Value Interp::executeInstance(InterpProcNode &N) {
  DepGraph &G = RT.graph();
  // The graph journals the structural half of a re-execution; the cached
  // value lives here in the interpreter, so restore it via an Action.
  if (G.inBatch())
    G.logUndo([&N, Old = N.Cached]() { N.Cached = Old; });
  G.removePredEdges(N);
  // RAII protocol frames: a throwing body (runtime error, poisoned callee,
  // injected fault) unwinds with the graph and call stack coherent; the
  // instance is quarantined and the exception continues to the caller.
  ExecutionScope Exec(G, N);
  Runtime::CallScope Call(RT, &N);
  try {
    auto Inject = faultInjectionPoint(N.name());
    Value Ret = runChunk(BC->chunk(N.Proc), N.Key);
    if (Inject == FaultInjector::Action::Diverge)
      G.selfInvalidate(N);
    N.Cached = Ret;
    return Ret;
  } catch (const RetryConflict &) {
    // A wave conflict is a scheduling event, not a fault: leave the
    // instance inconsistent for the scheduler's retry instead of
    // quarantining it.
    G.selfInvalidate(N);
    throw;
  } catch (...) {
    G.quarantine(N, captureCurrentFault(N.name()));
    throw;
  }
}

bool Interp::reexecuteInstance(InterpProcNode &N) {
  std::optional<Value> Old = N.Cached;
  Value New = executeInstance(N);
  return !Old || !(*Old == New);
}

//===----------------------------------------------------------------------===//
// Public driver API
//===----------------------------------------------------------------------===//

Value Interp::call(const std::string &ProcName, std::vector<Value> Args) {
  if (Failed)
    return Value(); // Execution stays a no-op until clearError().
  return guarded([&] {
    const ProcDecl *P = M.findProc(ProcName);
    if (!P)
      fail(SourceLocation(), "unknown procedure '" + ProcName + "'");
    return dispatch(P, P->Pragma, /*Checked=*/true, std::move(Args));
  });
}

Value Interp::callMethod(Value Receiver, const std::string &Method,
                         std::vector<Value> Args) {
  if (Failed)
    return Value();
  return guarded([&] {
    if (Receiver.K != Value::Kind::Object)
      fail(SourceLocation(), "method call on a non-object value");
    const ObjectTypeInfo *Ty = Receiver.Obj->type();
    const MethodSig *Sig = Ty->findMethod(Method);
    if (!Sig)
      fail(SourceLocation(),
           "type '" + Ty->Name + "' has no method '" + Method + "'");
    const MethodImpl &MI = Ty->VTable[static_cast<size_t>(Sig->Slot)];
    if (!MI.Impl)
      fail(SourceLocation(), "method '" + Method + "' has no implementation");
    std::vector<Value> Full;
    Full.reserve(Args.size() + 1);
    Full.push_back(Receiver);
    for (Value &A : Args)
      Full.push_back(std::move(A));
    return dispatch(MI.Impl, MI.Pragma, /*Checked=*/true, std::move(Full));
  });
}

Value Interp::makeObject(const std::string &TypeName) {
  return guarded([&] {
    const ObjectTypeInfo *Ty = Info.lookupType(TypeName);
    if (!Ty)
      fail(SourceLocation(), "unknown type '" + TypeName + "'");
    return Value::object(allocate(Ty));
  });
}

Value Interp::global(const std::string &Name) {
  return guarded([&] {
    auto It = GlobalIndex.find(Name);
    if (It == GlobalIndex.end())
      fail(SourceLocation(), "unknown top-level variable '" + Name + "'");
    return Globals[static_cast<size_t>(It->second)]->Live;
  });
}

void Interp::setGlobal(const std::string &Name, Value V) {
  guarded([&] {
    auto It = GlobalIndex.find(Name);
    if (It == GlobalIndex.end())
      fail(SourceLocation(), "unknown top-level variable '" + Name + "'");
    trackedWrite(*Globals[static_cast<size_t>(It->second)], std::move(V),
                 /*Tracked=*/true);
    return Value();
  });
}

Value Interp::field(Value Receiver, const std::string &Field) {
  return guarded([&] {
    if (Receiver.K != Value::Kind::Object)
      fail(SourceLocation(), "field access on a non-object value");
    const FieldInfo *FI = Receiver.Obj->type()->findField(Field);
    if (!FI)
      fail(SourceLocation(), "no field '" + Field + "'");
    return Receiver.Obj->slot(static_cast<size_t>(FI->Index)).Live;
  });
}

void Interp::setField(Value Receiver, const std::string &Field, Value V) {
  guarded([&] {
    if (Receiver.K != Value::Kind::Object)
      fail(SourceLocation(), "field write on a non-object value");
    const FieldInfo *FI = Receiver.Obj->type()->findField(Field);
    if (!FI)
      fail(SourceLocation(), "no field '" + Field + "'");
    trackedWrite(Receiver.Obj->slot(static_cast<size_t>(FI->Index)),
                 std::move(V), /*Tracked=*/true);
    return Value();
  });
}

//===----------------------------------------------------------------------===//
// Durable checkpoints (DESIGN.md Section 10)
//===----------------------------------------------------------------------===//
//
// Section layout of an interpreter checkpoint (inside the CheckpointIO
// container):
//
//   META  module fingerprint (u64) + execution mode (u8)
//   GRPH  GraphSnapshot (engine-side node/edge/partition state)
//   GLBL  one slot per global: live value, plus node id + snapshot value
//         when the slot is tracked
//   HEAP  object count, then each object's type name, then each object's
//         field slots (same encoding as GLBL); object-valued Values are
//         stored as u32 indices into this heap
//   TABL  per incremental procedure: name + argument-table entries
//         (node id, argument vector, cached value)
//   OUTP  output stream + failed flag + error message
//
// A delta record is a change record covering the time since the
// previous record (or the snapshot, or the restore):
//
//   u32 heap index of the first object it allocates, u32 count, then
//       each allocated object's type name
//   u32 write count, then per slot written: u32 owner (heap index, or
//       UINT32_MAX for a global), u32 field or global index, value
//
// A record repeats objects an earlier record already allocated only when
// that earlier append failed after its bytes landed; replay checks the
// repeated types and allocates the rest. Restore applies the writes
// through trackedWrite, record by record, and pumps; derived values are
// recomputed, not replayed.

namespace {

constexpr uint32_t TagMeta = sectionTag('M', 'E', 'T', 'A');
constexpr uint32_t TagGraph = sectionTag('G', 'R', 'P', 'H');
constexpr uint32_t TagGlobals = sectionTag('G', 'L', 'B', 'L');
constexpr uint32_t TagHeap = sectionTag('H', 'E', 'A', 'P');
constexpr uint32_t TagTables = sectionTag('T', 'A', 'B', 'L');
constexpr uint32_t TagOutput = sectionTag('O', 'U', 'T', 'P');

[[noreturn]] void ckptMalformed(const std::string &Msg) {
  throw CheckpointError(CkptError::Malformed, Msg);
}

void encodeValue(ByteWriter &W, const Value &V) {
  W.u8(static_cast<uint8_t>(V.K));
  switch (V.K) {
  case Value::Kind::Nil:
    break;
  case Value::Kind::Int:
    W.i64(V.Int);
    break;
  case Value::Kind::Bool:
    W.u8(V.Bool ? 1 : 0);
    break;
  case Value::Kind::Text:
    W.str(V.Text);
    break;
  case Value::Kind::Object:
    W.u32(V.Obj->index());
    break;
  }
}

/// A decoded Value whose Object payload is still a heap index; resolved
/// to a pointer only after the heap has been rebuilt.
struct StagedValue {
  uint8_t Kind = 0;
  int64_t Int = 0;
  bool Bool = false;
  std::string Text;
  uint32_t Obj = 0;
};

StagedValue decodeValue(ByteReader &R, size_t HeapLimit) {
  StagedValue V;
  V.Kind = R.u8();
  switch (static_cast<Value::Kind>(V.Kind)) {
  case Value::Kind::Nil:
    break;
  case Value::Kind::Int:
    V.Int = R.i64();
    break;
  case Value::Kind::Bool: {
    uint8_t B = R.u8();
    if (B > 1)
      ckptMalformed("boolean payload out of range");
    V.Bool = B != 0;
    break;
  }
  case Value::Kind::Text:
    V.Text = R.str();
    break;
  case Value::Kind::Object:
    V.Obj = R.u32();
    if (V.Obj >= HeapLimit)
      ckptMalformed("object value references a heap index out of range");
    break;
  default:
    ckptMalformed("unknown value kind " + std::to_string(V.Kind));
  }
  return V;
}

/// One captured StorageSlot: live value plus (when tracked) the node id
/// and the snapshot dependents last observed.
struct StagedSlot {
  bool HasNode = false;
  uint32_t NodeBits = 0;
  StagedValue Snapshot;
  StagedValue Live;
};

void encodeSlot(ByteWriter &W, const StorageSlot &S) {
  W.u8(S.Node ? 1 : 0);
  if (S.Node) {
    W.u32(S.Node->id().bits());
    encodeValue(W, S.Node->Snapshot);
  }
  encodeValue(W, S.Live);
}

StagedSlot decodeSlot(ByteReader &R, size_t HeapLimit) {
  StagedSlot S;
  uint8_t Has = R.u8();
  if (Has > 1)
    ckptMalformed("slot node flag out of range");
  S.HasNode = Has != 0;
  if (S.HasNode) {
    S.NodeBits = R.u32();
    S.Snapshot = decodeValue(R, HeapLimit);
  }
  S.Live = decodeValue(R, HeapLimit);
  return S;
}

/// One storage write of a staged change record.
struct StagedWrite {
  uint32_t Object = 0; ///< Heap index, or StorageSlot::Global.
  uint32_t Index = 0; ///< Field or global index.
  StagedValue Value;
};

/// One staged change record.
struct StagedDelta {
  std::vector<const ObjectTypeInfo *> NewTypes; ///< Objects to allocate.
  std::vector<StagedWrite> Writes;
};

} // namespace

uint64_t Interp::moduleFingerprint() const {
  uint64_t H = 1469598103934665603ull; // FNV-1a offset basis
  auto Mix = [&H](const std::string &S) {
    for (char C : S) {
      H ^= static_cast<uint8_t>(C);
      H *= 1099511628211ull;
    }
    H ^= 0xFFu; // separator, so {"ab","c"} != {"a","bc"}
    H *= 1099511628211ull;
  };
  for (const GlobalDecl &G : M.Globals)
    Mix(G.Name);
  for (const auto &P : M.Procs)
    Mix(P->Name);
  for (const auto &T : Info.Types)
    Mix(T->Name);
  H ^= static_cast<uint8_t>(Mode);
  H *= 1099511628211ull;
  return H;
}

void Interp::saveCheckpoint(const std::string &Path) {
  RT.pumpUnbounded(); // Capture needs true quiescence, whatever the default budget.
  // Capture enforces quiescence (throws Busy on pending work, an open
  // batch, or mid-evaluation) — everything below sees one consistent cut.
  GraphSnapshot GS = GraphCheckpoint::capture(RT.graph());

  CheckpointWriter W;
  {
    ByteWriter B;
    B.u64(moduleFingerprint());
    B.u8(static_cast<uint8_t>(Mode));
    W.addSection(TagMeta, B.take());
  }
  {
    ByteWriter B;
    GS.encode(B);
    W.addSection(TagGraph, B.take());
  }
  {
    ByteWriter B;
    B.u32(static_cast<uint32_t>(Globals.size()));
    for (const auto &S : Globals)
      encodeSlot(B, *S);
    W.addSection(TagGlobals, B.take());
  }
  {
    ByteWriter B;
    B.u32(static_cast<uint32_t>(Heap.size()));
    for (const auto &Obj : Heap)
      B.str(Obj->type()->Name);
    for (const auto &Obj : Heap) {
      uint32_t NumFields = static_cast<uint32_t>(Obj->type()->Fields.size());
      B.u32(NumFields);
      for (uint32_t I = 0; I < NumFields; ++I)
        encodeSlot(B, Obj->slot(I));
    }
    W.addSection(TagHeap, B.take());
  }
  {
    ByteWriter B;
    B.u32(static_cast<uint32_t>(
        std::count_if(Tables.begin(), Tables.end(),
                      [](const ArgTable &T) { return !T.empty(); })));
    for (size_t P = 0; P < Tables.size(); ++P) {
      if (Tables[P].empty())
        continue;
      B.str(M.Procs[P]->Name);
      B.u32(static_cast<uint32_t>(Tables[P].size()));
      for (const auto &E : Tables[P]) {
        const InterpProcNode &N = *E.second;
        B.u32(N.id().bits());
        B.u8(static_cast<uint8_t>(N.strategy()));
        B.u32(static_cast<uint32_t>(N.Key.size()));
        for (const Value &A : N.Key)
          encodeValue(B, A);
        B.u8(N.Cached ? 1 : 0);
        if (N.Cached)
          encodeValue(B, *N.Cached);
      }
    }
    W.addSection(TagTables, B.take());
  }
  {
    ByteWriter B;
    B.str(Output);
    B.u8(Failed ? 1 : 0);
    B.str(ErrorMessage);
    W.addSection(TagOutput, B.take());
  }

  uint64_t Bytes = W.writeFile(Path);
  // The snapshot is the new base. Should the log reset below fail, the
  // first append's repair drops the old records (their base id is stale).
  Deltas.start(Path, W.snapshotId(), 0);
  markSaved();
  // The snapshot now covers everything the old delta log recorded.
  removeDeltaLog(deltaLogPath(Path));

  Statistics &S = RT.stats();
  ++S.CkptSnapshots;
  S.CkptSections += W.numSections();
  S.CkptBytesWritten += Bytes;
}

void Interp::appendDelta(const std::string &Path) {
  RT.pumpUnbounded();
  if (RT.graph().inBatch())
    throw CheckpointError(CkptError::Busy,
                          "cannot append a delta inside an open batch");
  if (!Deltas.started() || Deltas.snapshotPath() != Path)
    throw CheckpointError(CkptError::StaleDelta,
                          "'" + Path +
                              "' is not the snapshot this interpreter last "
                              "saved or restored");

  ByteWriter B;
  B.u32(static_cast<uint32_t>(SavedHeap));
  B.u32(static_cast<uint32_t>(Heap.size() - SavedHeap));
  for (size_t I = SavedHeap; I < Heap.size(); ++I)
    B.str(Heap[I]->type()->Name);
  B.u32(static_cast<uint32_t>(UnsavedSlots.size()));
  for (const StorageSlot *S : UnsavedSlots) {
    B.u32(S->Object);
    B.u32(S->Index);
    encodeValue(B, S->Live);
  }
  // A failed append keeps the list: the next record is then a superset.
  uint64_t Bytes = Deltas.append(B.bytes());
  markSaved();

  Statistics &S = RT.stats();
  ++S.CkptDeltas;
  S.CkptBytesWritten += Bytes;
}

void Interp::restoreCheckpoint(const std::string &Path) {
  auto Start = std::chrono::steady_clock::now();
  DepGraph &G = RT.graph();
  // Every argument-table entry owns a live node, so an empty graph also
  // means empty tables. A module that did not compile cannot run what it
  // would restore.
  if (!BC || G.inBatch() || G.numLiveNodes() != 0)
    throw CheckpointError(CkptError::Busy,
                          "restore requires a freshly constructed "
                          "interpreter over a compiled module");

  //===--- Phase 1: decode and validate everything; mutate nothing. ------===//

  CheckpointReader R(Path);
  {
    ByteReader MR = R.section(TagMeta);
    if (MR.u64() != moduleFingerprint())
      ckptMalformed("checkpoint was captured from a different module");
    if (MR.u8() != static_cast<uint8_t>(Mode))
      ckptMalformed("checkpoint was captured under a different mode");
    if (!MR.atEnd())
      ckptMalformed("trailing bytes in META section");
  }

  GraphSnapshot GS;
  {
    ByteReader GR = R.section(TagGraph);
    GS = GraphSnapshot::decode(GR);
    if (!GR.atEnd())
      ckptMalformed("trailing bytes in GRPH section");
  }

  // HEAP first: GLBL/TABL values may reference heap indices, so the heap
  // size bounds every decode.
  std::vector<const ObjectTypeInfo *> HeapTypes;
  std::vector<std::vector<StagedSlot>> HeapSlots;
  {
    ByteReader HR = R.section(TagHeap);
    uint32_t Count = HR.u32();
    HeapTypes.reserve(std::min<uint32_t>(Count, 4096));
    for (uint32_t I = 0; I < Count; ++I) {
      std::string Name = HR.str();
      const ObjectTypeInfo *Ty = Info.lookupType(Name);
      if (!Ty)
        ckptMalformed("heap object of unknown type '" + Name + "'");
      HeapTypes.push_back(Ty);
    }
    HeapSlots.reserve(HeapTypes.size());
    for (uint32_t I = 0; I < Count; ++I) {
      uint32_t NumFields = HR.u32();
      if (NumFields != HeapTypes[I]->Fields.size())
        ckptMalformed("field count mismatch for type '" +
                      HeapTypes[I]->Name + "'");
      std::vector<StagedSlot> Slots;
      Slots.reserve(NumFields);
      for (uint32_t F = 0; F < NumFields; ++F)
        Slots.push_back(decodeSlot(HR, Count));
      HeapSlots.push_back(std::move(Slots));
    }
    if (!HR.atEnd())
      ckptMalformed("trailing bytes in HEAP section");
  }

  std::vector<StagedSlot> GlobalSlots;
  {
    ByteReader GR = R.section(TagGlobals);
    uint32_t Count = GR.u32();
    if (Count != Globals.size())
      ckptMalformed("global count mismatch (checkpoint has " +
                    std::to_string(Count) + ", module has " +
                    std::to_string(Globals.size()) + ")");
    GlobalSlots.reserve(Count);
    for (uint32_t I = 0; I < Count; ++I)
      GlobalSlots.push_back(decodeSlot(GR, HeapTypes.size()));
    if (!GR.atEnd())
      ckptMalformed("trailing bytes in GLBL section");
  }

  struct StagedEntry {
    uint32_t NodeBits = 0;
    EvalStrategy Strategy = EvalStrategy::Demand;
    std::vector<StagedValue> Args;
    bool HasCached = false;
    StagedValue Cached;
  };
  struct StagedTable {
    const ProcDecl *Proc = nullptr;
    std::vector<StagedEntry> Entries;
  };
  std::vector<StagedTable> StagedTables;
  {
    ByteReader TR = R.section(TagTables);
    uint32_t NumTables = TR.u32();
    for (uint32_t T = 0; T < NumTables; ++T) {
      StagedTable Tab;
      std::string Name = TR.str();
      Tab.Proc = M.findProc(Name);
      // A table belongs to a procedure reachable through the incremental
      // call protocol: either its own pragma is CACHED/MAINTAINED, or it
      // implements a maintained method (dispatch() keys the table by the
      // implementing ProcDecl but takes the pragma from the binding).
      bool Incremental = Tab.Proc && Tab.Proc->Pragma.isIncremental();
      if (Tab.Proc && !Incremental)
        for (const auto &Ty : Info.Types) {
          for (const lang::MethodImpl &MI : Ty->VTable)
            if (MI.Impl == Tab.Proc && MI.Pragma.isIncremental()) {
              Incremental = true;
              break;
            }
          if (Incremental)
            break;
        }
      if (!Tab.Proc || !Incremental)
        ckptMalformed("argument table for unknown or non-incremental "
                      "procedure '" +
                      Name + "'");
      for (const StagedTable &Prev : StagedTables)
        if (Prev.Proc == Tab.Proc)
          ckptMalformed("duplicate argument table for '" + Name + "'");
      uint32_t NumEntries = TR.u32();
      for (uint32_t E = 0; E < NumEntries; ++E) {
        StagedEntry En;
        En.NodeBits = TR.u32();
        uint8_t Strat = TR.u8();
        if (Strat > static_cast<uint8_t>(EvalStrategy::Eager))
          ckptMalformed("evaluation strategy out of range");
        En.Strategy = static_cast<EvalStrategy>(Strat);
        uint32_t NumArgs = TR.u32();
        for (uint32_t A = 0; A < NumArgs; ++A)
          En.Args.push_back(decodeValue(TR, HeapTypes.size()));
        uint8_t Has = TR.u8();
        if (Has > 1)
          ckptMalformed("cached-value flag out of range");
        En.HasCached = Has != 0;
        if (En.HasCached)
          En.Cached = decodeValue(TR, HeapTypes.size());
        Tab.Entries.push_back(std::move(En));
      }
      StagedTables.push_back(std::move(Tab));
    }
    if (!TR.atEnd())
      ckptMalformed("trailing bytes in TABL section");
  }

  std::string StagedOutput, StagedErrorMessage;
  bool StagedFailed = false;
  {
    ByteReader OR = R.section(TagOutput);
    StagedOutput = OR.str();
    uint8_t F = OR.u8();
    if (F > 1)
      ckptMalformed("failed flag out of range");
    StagedFailed = F != 0;
    StagedErrorMessage = OR.str();
    if (!OR.atEnd())
      ckptMalformed("trailing bytes in OUTP section");
  }

  // Cross-check: a consistent procedure node must have a cached value to
  // serve (Maintained's invariant), or the first post-restore call would
  // assert instead of failing the load.
  GraphRestorer Restorer(std::move(GS));
  for (const StagedTable &Tab : StagedTables)
    for (const StagedEntry &En : Tab.Entries) {
      const CkptNode *Rec = Restorer.findNode(En.NodeBits);
      if (Rec && Rec->Consistent && !En.HasCached)
        ckptMalformed("consistent instance of '" + Tab.Proc->Name +
                      "' has no cached value");
    }

  // Stage the delta log: decode and bounds-check every surviving record
  // before touching live state. Types tracks the heap as replay will grow
  // it, so every index is checked against the heap at that record.
  std::vector<DeltaRecord> Raw =
      readDeltaLog(deltaLogPath(Path), R.snapshotId(), &RestoreNote);
  std::vector<StagedDelta> Records;
  Records.reserve(Raw.size());
  {
    std::vector<const ObjectTypeInfo *> Types = HeapTypes;
    for (const DeltaRecord &Rec : Raw) {
      auto Bad = [&Rec](const std::string &What) {
        ckptMalformed("delta record " + std::to_string(Rec.Seq) + " " + What);
      };
      ByteReader DR(Rec.Payload.data(), Rec.Payload.size());
      StagedDelta D;
      uint32_t First = DR.u32();
      uint32_t NumNew = DR.u32();
      if (First > Types.size())
        Bad("allocates past the end of the heap");
      for (uint32_t I = 0; I < NumNew; ++I) {
        std::string Name = DR.str();
        const ObjectTypeInfo *Ty = Info.lookupType(Name);
        if (!Ty)
          Bad("allocates unknown type '" + Name + "'");
        size_t At = size_t{First} + I;
        if (At < Types.size()) {
          if (Types[At] != Ty)
            Bad("retypes heap object " + std::to_string(At));
          continue; // Repeated by a retried append; allocated already.
        }
        Types.push_back(Ty);
        D.NewTypes.push_back(Ty);
      }
      uint32_t NumWrites = DR.u32();
      for (uint32_t I = 0; I < NumWrites; ++I) {
        StagedWrite W;
        W.Object = DR.u32();
        W.Index = DR.u32();
        if (W.Object == StorageSlot::Global) {
          if (W.Index >= Globals.size())
            Bad("writes global " + std::to_string(W.Index) +
                ", which does not exist");
        } else if (W.Object >= Types.size()) {
          Bad("writes heap object " + std::to_string(W.Object) +
              ", which does not exist");
        } else if (W.Index >= Types[W.Object]->Fields.size()) {
          Bad("writes field " + std::to_string(W.Index) + " of a '" +
              Types[W.Object]->Name + "'");
        }
        W.Value = decodeValue(DR, Types.size());
        D.Writes.push_back(std::move(W));
      }
      if (!DR.atEnd())
        Bad("has trailing bytes");
      Records.push_back(std::move(D));
    }
  }

  //===--- Phase 2: rebuild. Failures below still throw, but the caller  --===//
  //===--- was told to discard the interpreter on any restore error.     --===//

  // Discard whatever the global initializers allocated; the checkpoint's
  // heap replaces it wholesale. No nodes exist yet, so this is plain
  // memory release (after dropping any unsaved-list entries into it).
  markSaved();
  Heap.clear();
  for (const ObjectTypeInfo *Ty : HeapTypes)
    allocate(Ty);

  auto Resolve = [this](const StagedValue &V) -> Value {
    switch (static_cast<Value::Kind>(V.Kind)) {
    case Value::Kind::Nil:
      return Value::nil();
    case Value::Kind::Int:
      return Value::integer(V.Int);
    case Value::Kind::Bool:
      return Value::boolean(V.Bool);
    case Value::Kind::Text:
      return Value::text(V.Text);
    case Value::Kind::Object:
      return Value::object(Heap[V.Obj].get());
    }
    return Value::nil(); // Unreachable: phase 1 validated the kind.
  };

  auto RestoreSlot = [&](StorageSlot &S, const StagedSlot &St) {
    S.Live = Resolve(St.Live);
    if (!St.HasNode)
      return;
    S.Node = std::make_unique<SlotNode>(G, S);
    S.Node->setName(S.label());
    // The constructor snapshots Live; dependents may have observed an
    // older value (quarantined writer), so re-apply the captured one.
    S.Node->Snapshot = Resolve(St.Snapshot);
    Restorer.bind(St.NodeBits, *S.Node);
  };

  for (size_t I = 0; I < HeapSlots.size(); ++I)
    for (size_t F = 0; F < HeapSlots[I].size(); ++F)
      RestoreSlot(Heap[I]->slot(F), HeapSlots[I][F]);
  for (size_t I = 0; I < GlobalSlots.size(); ++I)
    RestoreSlot(*Globals[I], GlobalSlots[I]);

  for (const StagedTable &Tab : StagedTables) {
    ArgTable &Table = Tables[static_cast<size_t>(Tab.Proc->Index)];
    for (const StagedEntry &En : Tab.Entries) {
      auto Owned = std::make_unique<InterpProcNode>(G, *this, Tab.Proc,
                                                    En.Strategy);
      InterpProcNode *N = Owned.get();
      N->setName(Tab.Proc->Name);
      N->Key.reserve(En.Args.size());
      for (const StagedValue &A : En.Args)
        N->Key.push_back(Resolve(A));
      if (En.HasCached)
        N->Cached = Resolve(En.Cached);
      if (!Table.emplace(N->Key, std::move(Owned)).second)
        ckptMalformed("duplicate argument vector in table for '" +
                      Tab.Proc->Name + "'");
      Restorer.bind(En.NodeBits, *N);
    }
  }

  // Engine state: metadata, edges, partitions, quarantine — gated behind
  // DepGraph::verify().
  Restorer.finish(G);

  // Replay the surviving deltas as ordinary storage writes, then let
  // propagation recompute everything derived. Procedure instances
  // created after the base snapshot are not in the log; they rebuild on
  // first demand, which is the normal lazy path.
  if (!Records.empty()) {
    for (const StagedDelta &D : Records) {
      for (const ObjectTypeInfo *Ty : D.NewTypes)
        allocate(Ty);
      for (const StagedWrite &W : D.Writes) {
        StorageSlot &S = W.Object == StorageSlot::Global
                             ? *Globals[W.Index]
                             : Heap[W.Object]->slot(W.Index);
        trackedWrite(S, Resolve(W.Value), /*Tracked=*/true);
      }
    }
    RT.pumpUnbounded();
    std::vector<std::string> Problems = G.verify();
    if (!Problems.empty())
      throw CheckpointError(CkptError::VerifyFailed,
                            "post-delta verify failed: " + Problems.front());
  }

  Output = std::move(StagedOutput);
  Failed = StagedFailed;
  ErrorMessage = std::move(StagedErrorMessage);

  // The restored state is the base plus every replayed record: the next
  // append continues the log from there.
  markSaved();
  Deltas.start(Path, R.snapshotId(), Raw.size());

  Statistics &S = RT.stats();
  ++S.CkptRestores;
  S.CkptRestoreMicros += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

} // namespace alphonse::interp
