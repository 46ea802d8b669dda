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

#include <algorithm>
#include <chrono>

using namespace alphonse::lang;

namespace alphonse::interp {

//===----------------------------------------------------------------------===//
// Heap objects
//===----------------------------------------------------------------------===//

HeapObject::HeapObject(const ObjectTypeInfo *Ty, size_t NumFields,
                       uint32_t Index)
    : Ty(Ty), Index(Index), Slots(NumFields) {
  for (size_t I = 0; I < NumFields; ++I) {
    Slots[I].Object = Index;
    Slots[I].Index = static_cast<uint32_t>(I);
  }
}

Value defaultValue(const Type &Ty) {
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
    : M(M), Info(Info), Mode(Mode), RT(Cfg),
      GlobalLabels(Info.GlobalTypes.size()), FieldLabels(Info.Types.size()),
      Globals(Info.GlobalTypes.size()), Tables(M.Procs.size()) {
  // Compiled chunks are derived state — never checkpointed, rebuilt from
  // the module here on every construction (including the fresh
  // interpreter a restore requires).
  DiagnosticEngine Diags;
  BC = bytecode::compileModule(M, Info, Diags);
  for (size_t I = 0; I < Globals.size(); ++I) {
    Globals[I].Storage.initialize(defaultValue(Info.GlobalTypes[I]));
    Globals[I].Index = static_cast<uint32_t>(I);
  }
  for (const GlobalDecl &G : M.Globals)
    if (G.Index >= 0) {
      GlobalIndex[G.Name] = G.Index;
      GlobalLabels[static_cast<size_t>(G.Index)] = "G." + G.Name;
    }
  for (const auto &Ty : Info.Types) {
    std::vector<std::string> &Labels = FieldLabels[static_cast<size_t>(Ty->Id)];
    Labels.resize(Ty->Fields.size());
    for (const FieldInfo &FI : Ty->Fields)
      Labels[static_cast<size_t>(FI.Index)] = Ty->Name + "." + FI.Name;
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
  BCState.Depth = -1;
  guarded([&] { return runChunk(BC->Init, {}); });
  BCState.Depth = 0;
  this->Mode = Mode;
}

Interp::~Interp() = default;

HeapObject *Interp::allocate(const ObjectTypeInfo *Ty) {
  auto Obj = std::make_unique<HeapObject>(Ty, Ty->Fields.size(),
                                          static_cast<uint32_t>(Heap.size()));
  for (const FieldInfo &FI : Ty->Fields)
    Obj->slot(static_cast<size_t>(FI.Index))
        .Storage.initialize(defaultValue(FI.Ty));
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
// The checks in front of core's storage and call protocols
//===----------------------------------------------------------------------===//

const std::string &Interp::label(const StorageSlot &S) const {
  if (S.Object == StorageSlot::Global)
    return GlobalLabels[S.Index];
  return FieldLabels[static_cast<size_t>(Heap[S.Object]->type()->Id)]
                    [S.Index];
}

const Value &Interp::trackedRead(StorageSlot &S, bool Tracked) {
  if (Mode == ExecMode::Alphonse && Tracked)
    return S.Storage.read(
        RT, [&]() -> const std::string & { return label(S); });
  return S.Storage.peek();
}

void Interp::trackedWrite(StorageSlot &S, Value V) {
  // Once there is a base snapshot, the next change record lists every
  // slot whose value moved. A rolled back write stays listed; the record
  // then repeats the restored value.
  if (Deltas.started() && !S.Unsaved && !(V == S.Storage.peek())) {
    S.Unsaved = true;
    UnsavedSlots.push_back(&S);
  }
  S.Storage.write(RT, std::move(V));
}

Value Interp::dispatch(const ProcDecl *P, const PragmaInfo &Pragma,
                       bool Checked, std::vector<Value> Args) {
  // With no incremental call (conventional mode, unchecked site, or
  // non-incremental callee) execute directly; reads inside then attribute
  // to the calling incremental instance, which is exactly the transitive
  // R(p) of Section 3.3.
  if (Mode == ExecMode::Alphonse && Checked && Pragma.isIncremental())
    return table(P).call(std::move(Args), Pragma.Strategy);
  return runChunk(BC->chunk(P), Args);
}

Interp::ProcTable &Interp::table(const ProcDecl *P) {
  std::unique_ptr<ProcTable> &T = Tables[static_cast<size_t>(P->Index)];
  if (!T)
    T = std::make_unique<ProcTable>(RT, ProcBody{this, &BC->chunk(P)},
                                    P->Name);
  return *T;
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
    return Globals[static_cast<size_t>(It->second)].Storage.peek();
  });
}

void Interp::setGlobal(const std::string &Name, Value V) {
  guarded([&] {
    auto It = GlobalIndex.find(Name);
    if (It == GlobalIndex.end())
      fail(SourceLocation(), "unknown top-level variable '" + Name + "'");
    trackedWrite(Globals[static_cast<size_t>(It->second)], std::move(V));
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
    return Receiver.Obj->slot(static_cast<size_t>(FI->Index)).Storage.peek();
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
                 std::move(V));
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
  const DepNode *N = S.Storage.node();
  W.u8(N ? 1 : 0);
  if (N) {
    W.u32(N->id().bits());
    encodeValue(W, S.Storage.snapshot());
  }
  encodeValue(W, S.Storage.peek());
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
    for (const StorageSlot &S : Globals)
      encodeSlot(B, S);
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
    auto Live = [](const std::unique_ptr<ProcTable> &T) {
      return T && T->size() != 0;
    };
    B.u32(static_cast<uint32_t>(
        std::count_if(Tables.begin(), Tables.end(), Live)));
    for (size_t P = 0; P < Tables.size(); ++P) {
      if (!Live(Tables[P]))
        continue;
      B.str(M.Procs[P]->Name);
      B.u32(static_cast<uint32_t>(Tables[P]->size()));
      Tables[P]->forEachInstance([&B](const std::vector<Value> &Key,
                                      const std::optional<Value> &Cached,
                                      const DepNode &N) {
        B.u32(N.id().bits());
        B.u8(static_cast<uint8_t>(N.strategy()));
        B.u32(static_cast<uint32_t>(Key.size()));
        for (const Value &A : Key)
          encodeValue(B, A);
        B.u8(Cached ? 1 : 0);
        if (Cached)
          encodeValue(B, *Cached);
      });
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
    encodeValue(B, S->Storage.peek());
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
    S.Storage.initialize(Resolve(St.Live));
    if (!St.HasNode)
      return;
    Restorer.bind(St.NodeBits, S.Storage.ensureTracked(RT, label(S)));
    // The node snapshots the live value; dependents may have observed an
    // older value (quarantined writer), so re-apply the captured one.
    S.Storage.setSnapshot(Resolve(St.Snapshot));
  };

  for (size_t I = 0; I < HeapSlots.size(); ++I)
    for (size_t F = 0; F < HeapSlots[I].size(); ++F)
      RestoreSlot(Heap[I]->slot(F), HeapSlots[I][F]);
  for (size_t I = 0; I < GlobalSlots.size(); ++I)
    RestoreSlot(Globals[I], GlobalSlots[I]);

  for (const StagedTable &Tab : StagedTables) {
    ProcTable &Table = table(Tab.Proc);
    for (const StagedEntry &En : Tab.Entries) {
      std::vector<Value> Key;
      Key.reserve(En.Args.size());
      for (const StagedValue &A : En.Args)
        Key.push_back(Resolve(A));
      if (Table.find(Key))
        ckptMalformed("duplicate argument vector in table for '" +
                      Tab.Proc->Name + "'");
      std::optional<Value> Cached;
      if (En.HasCached)
        Cached = Resolve(En.Cached);
      Restorer.bind(En.NodeBits,
                    Table.restoreInstance(std::move(Key), std::move(Cached),
                                          En.Strategy));
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
                             ? Globals[W.Index]
                             : Heap[W.Object]->slot(W.Index);
        trackedWrite(S, Resolve(W.Value));
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
