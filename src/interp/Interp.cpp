//===- Interp.cpp - Alphonse-L interpreter ----------------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "interp/bytecode/Compiler.h"
#include "interp/bytecode/VM.h"
#include "lang/Types.h"

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
  SavedOutput = Output.size();
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
// A checkpoint holds program state only. The dependency graph and every
// cached value are derived from storage (Theorem 5.1), so a restored
// interpreter starts with an empty graph and rebuilds it on first demand.
// Every record of an interpreter's checkpoint file (support/CheckpointIO)
// is a change record. The base record (tag BASE) is the module
// fingerprint (u64) and then one change record from an empty heap, zeroed
// globals and no output: every object, then every slot whose value is
// not its type's zero value. Each delta record is one change record since
// the previous record:
//
//   u32 heap index of the first object it allocates (the heap's size at
//       the previous record), u32 count, then each object's type name
//   u32 write count, then per slot written: u32 owner (heap index, or
//       UINT32_MAX for a global), u32 field or global index, value
//   the output printed since the previous record (str), then the failed
//       flag (u8) and error message (str) as they stand at this record
//
// Object-valued Values are u32 heap indices. Restore zeroes the globals,
// empties the heap and replays the records in order through trackedWrite,
// appending each record's output. The graph is empty, so replay queues
// nothing.

namespace {

constexpr uint32_t TagBase = sectionTag('B', 'A', 'S', 'E');

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
  std::string Output;
  bool Failed = false;
  std::string ErrorMessage;
};

} // namespace

void Interp::encodeRecord(ByteWriter &W, size_t FirstObject,
                          const std::vector<StorageSlot *> &Slots,
                          size_t FirstOutput) const {
  W.u32(static_cast<uint32_t>(FirstObject));
  W.u32(static_cast<uint32_t>(Heap.size() - FirstObject));
  for (size_t I = FirstObject; I < Heap.size(); ++I)
    W.str(Heap[I]->type()->Name);
  W.u32(static_cast<uint32_t>(Slots.size()));
  for (const StorageSlot *S : Slots) {
    W.u32(S->Object);
    W.u32(S->Index);
    encodeValue(W, S->Storage.peek());
  }
  W.str(Output.substr(FirstOutput));
  W.u8(Failed ? 1 : 0);
  W.str(ErrorMessage);
}

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
  return H;
}

void Interp::saveCheckpoint(const std::string &Path) {
  if (RT.graph().inBatch())
    throw CheckpointError(CkptError::Busy,
                          "cannot checkpoint inside an open batch");
  // Eager work still pending may write storage or print; a restored
  // interpreter has no instances left to run it, so it runs now.
  RT.pumpUnbounded();

  std::vector<StorageSlot *> Set;
  for (size_t I = 0; I < Globals.size(); ++I)
    if (!(Globals[I].Storage.peek() == defaultValue(Info.GlobalTypes[I])))
      Set.push_back(&Globals[I]);
  for (const auto &Obj : Heap)
    for (const FieldInfo &FI : Obj->type()->Fields) {
      StorageSlot &S = Obj->slot(static_cast<size_t>(FI.Index));
      if (!(S.Storage.peek() == defaultValue(FI.Ty)))
        Set.push_back(&S);
    }
  ByteWriter B;
  B.u64(moduleFingerprint());
  encodeRecord(B, 0, Set, 0);
  CheckpointWriter W;
  W.addSection(TagBase, B.take());

  // The new file replaces the old one and its records: it is the base
  // that later appends extend.
  uint64_t Bytes = W.writeFile(Path);
  Deltas = DeltaAppender(W);
  markSaved();

  Statistics &S = RT.stats();
  ++S.CkptSnapshots;
  S.CkptBytesWritten += Bytes;
}

void Interp::appendDelta(const std::string &Path) {
  RT.pumpUnbounded();
  if (RT.graph().inBatch())
    throw CheckpointError(CkptError::Busy,
                          "cannot append a delta inside an open batch");
  if (!Deltas.started() || Deltas.path() != Path)
    throw CheckpointError(CkptError::StaleDelta,
                          "'" + Path +
                              "' is not the checkpoint this interpreter "
                              "last saved or restored");

  ByteWriter B;
  encodeRecord(B, SavedHeap, UnsavedSlots, SavedOutput);
  // A failed append keeps the list: the next record replaces the failed
  // one in the file and covers its changes too.
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
  // means empty tables: nothing cached can outlive the restore. A module
  // that did not compile cannot run what it would restore.
  if (!BC || G.inBatch() || G.numLiveNodes() != 0)
    throw CheckpointError(CkptError::Busy,
                          "restore requires a freshly constructed "
                          "interpreter over a compiled module");

  //===--- Phase 1: decode and validate everything; mutate nothing. ------===//

  CheckpointReader R(Path);
  RestoreNote = R.note();
  std::vector<ByteReader> Payloads{R.section(TagBase)};
  if (Payloads[0].u64() != moduleFingerprint())
    ckptMalformed("checkpoint was captured from a different module");
  for (size_t I = 0; I < R.numDeltas(); ++I)
    Payloads.push_back(R.delta(I));

  // Stage the base record and then the intact delta records: decode and
  // bounds-check every one before touching live state. Types tracks the
  // heap as replay will grow it from empty, so every index is checked
  // against the heap at that record.
  std::vector<StagedDelta> Records;
  Records.reserve(Payloads.size());
  {
    std::vector<const ObjectTypeInfo *> Types;
    for (size_t N = 0; N < Payloads.size(); ++N) {
      auto Bad = [&](const std::string &What) {
        ckptMalformed((N == 0 ? std::string("base record ")
                              : "delta record " + std::to_string(N) + " ") +
                      What);
      };
      ByteReader &DR = Payloads[N];
      StagedDelta D;
      uint32_t First = DR.u32();
      uint32_t NumNew = DR.u32();
      if (First != Types.size())
        Bad("allocates from heap index " + std::to_string(First) +
            ", but the heap holds " + std::to_string(Types.size()) +
            " object(s)");
      for (uint32_t I = 0; I < NumNew; ++I) {
        std::string Name = DR.str();
        const ObjectTypeInfo *Ty = Info.lookupType(Name);
        if (!Ty)
          Bad("allocates unknown type '" + Name + "'");
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
      D.Output = DR.str();
      uint8_t F = DR.u8();
      if (F > 1)
        Bad("has a failed flag out of range");
      D.Failed = F != 0;
      D.ErrorMessage = DR.str();
      if (!DR.atEnd())
        Bad("has trailing bytes");
      Records.push_back(std::move(D));
    }
  }

  //===--- Phase 2: replay into an empty heap. ---------------------------===//

  // The base record lists only slots that differ from their zero value,
  // so every global starts from zero: an initializer may have set one the
  // record omits, even to an object of the heap discarded next. No slot
  // is tracked yet (the graph is empty), so these are plain stores.
  for (size_t I = 0; I < Globals.size(); ++I)
    Globals[I].Storage.initialize(defaultValue(Info.GlobalTypes[I]));
  markSaved(); // Drops any unsaved-list entries into the heap.
  Heap.clear();

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
  Output.clear();
  for (StagedDelta &D : Records) {
    for (const ObjectTypeInfo *Ty : D.NewTypes)
      allocate(Ty);
    for (const StagedWrite &W : D.Writes) {
      StorageSlot &S = W.Object == StorageSlot::Global
                           ? Globals[W.Index]
                           : Heap[W.Object]->slot(W.Index);
      trackedWrite(S, Resolve(W.Value));
    }
    Output += D.Output;
    Failed = D.Failed;
    ErrorMessage = std::move(D.ErrorMessage);
  }

  // The restored state is the base plus every replayed record: the next
  // append continues the file from there.
  markSaved();
  Deltas = DeltaAppender(R);

  Statistics &S = RT.stats();
  ++S.CkptRestores;
  S.CkptRestoreMicros += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

} // namespace alphonse::interp
