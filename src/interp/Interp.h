//===- Interp.h - Alphonse-L interpreter ------------------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter for (transformed) Alphonse-L modules. Procedure bodies
/// and global initializers are compiled to register bytecode at
/// construction and run on the VM (bytecode/VM.h); there is one engine,
/// with two execution modes:
///
///  - Conventional: pragmas and transformation flags are ignored; this is
///    the paper's "conventional execution of P".
///  - Alphonse: the access/modify/call sites flagged by the Section 5
///    transformer run core's storage and call protocols, the same code
///    the C++ embedding's Cell and Maintained run (src/core). Top-level
///    variables and object fields are StorageNode<Value>s whose graph
///    nodes are created lazily on first tracked access; maintained methods
///    and cached procedures get ArgTables keyed by Value vectors. The
///    interpreter adds only the checks in front: the execution mode and
///    the transformer's flags, and the bookkeeping of delta checkpoints.
///
/// Theorem 5.1 (Alphonse execution produces the same output as
/// conventional execution) is directly checkable by running one module
/// through both modes. The tests hold both modes to a graph-free
/// reference evaluator (tests/interp/Reference.h), which shares no code
/// with the VM.
///
/// Divergences from the paper, documented: no garbage collector (objects
/// live as long as the interpreter), no VAR parameters, and runtime errors
/// (NIL dereference, division by zero, stack overflow) abort execution
/// with a message instead of being language-defined.
///
/// Runtime errors propagate internally as RuntimeError exceptions so they
/// unwind cleanly through the incremental call protocol (the faulting
/// instance is quarantined in its dependency graph); the public driver API
/// catches them and presents the flag-based failed()/errorMessage()
/// interface. clearError() (plus resetting quarantined nodes) resumes
/// execution.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_INTERP_INTERP_H
#define ALPHONSE_INTERP_INTERP_H

#include "core/Cell.h"
#include "core/Maintained.h"
#include "interp/Value.h"
#include "interp/bytecode/VM.h"
#include "lang/Sema.h"
#include "support/CheckpointIO.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace alphonse::interp {

namespace bytecode {
struct Chunk;
class BytecodeModule;
} // namespace bytecode

/// How the interpreter treats the incremental annotations.
enum class ExecMode : uint8_t {
  Conventional,
  Alphonse,
};

/// An Alphonse-L runtime error (NIL dereference, division by zero, call
/// depth exceeded, ...). Thrown by the VM, caught at the public driver
/// API, which records it behind failed()/errorMessage().
class RuntimeError : public IncrementalFault {
public:
  RuntimeError(SourceLocation Loc, const std::string &Message)
      : IncrementalFault(Loc.str() + ": " + Message), Loc(Loc) {}

  SourceLocation location() const { return Loc; }

private:
  SourceLocation Loc;
};

/// One storage location of the interpreter, a top-level variable or an
/// object field: core's tracked storage plus the location's address in
/// checkpoint change records.
struct StorageSlot {
  StorageNode<Value> Storage;
  /// The owning object's heap index and the field index, or Global and
  /// the global's index.
  static constexpr uint32_t Global = UINT32_MAX;
  uint32_t Object = Global;
  uint32_t Index = 0;
  /// On Interp::UnsavedSlots: written since the state was last durable.
  bool Unsaved = false;
};

/// A heap object: its dynamic type plus one slot per field.
class HeapObject {
public:
  HeapObject(const lang::ObjectTypeInfo *Ty, size_t NumFields,
             uint32_t Index);

  const lang::ObjectTypeInfo *type() const { return Ty; }
  /// Position on the interpreter's heap, fixed at allocation (objects are
  /// never freed): the object's identity in checkpoints.
  uint32_t index() const { return Index; }
  StorageSlot &slot(size_t I) {
    assert(I < Slots.size() && "field index out of range");
    return Slots[I];
  }

private:
  const lang::ObjectTypeInfo *Ty;
  uint32_t Index;
  /// Sized once at allocation: graph nodes point at their slots.
  std::vector<StorageSlot> Slots;
};

/// Interprets one analyzed (and usually transformed) module.
class Interp {
public:
  /// \p M and \p Info must outlive the interpreter. Pass the graph config
  /// to ablate partitioning / cutoffs in benchmarks. Compiles the module
  /// (derived state, never checkpointed), then runs the global
  /// initializers with conventional dispatch in either mode, so they
  /// leave no graph state. A body the compiler rejects (more than
  /// bytecode::MaxRegs registers) or a faulting initializer is reported
  /// through failed()/errorMessage(); a module that did not compile never
  /// runs (compiled() is false), and clearError() keeps that error.
  Interp(const lang::Module &M, const lang::SemaInfo &Info, ExecMode Mode,
         DepGraph::Config Cfg = DepGraph::Config());
  ~Interp();

  /// Calls a top-level procedure by name (the mutator's entry point).
  /// Incremental procedures go through the full call protocol.
  Value call(const std::string &ProcName, std::vector<Value> Args = {});

  /// Calls a method on an object with dynamic dispatch.
  Value callMethod(Value Receiver, const std::string &Method,
                   std::vector<Value> Args = {});

  /// Allocates an object of the named type (NEW from the driver side).
  Value makeObject(const std::string &TypeName);

  /// Reads / writes a top-level variable from the driver (writes go
  /// through the modify protocol in Alphonse mode).
  Value global(const std::string &Name);
  void setGlobal(const std::string &Name, Value V);

  /// Reads / writes an object field from the driver.
  Value field(Value Receiver, const std::string &Field);
  void setField(Value Receiver, const std::string &Field, Value V);

  /// The heap in allocation order. Heap indices survive checkpoint and
  /// restore (tests compare restored heaps object by object).
  size_t heapSize() const { return Heap.size(); }
  Value heapObject(size_t I) const { return Value::object(Heap[I].get()); }

  /// Everything print() emitted so far. It only grows, so each change
  /// record carries the suffix printed since the previous one.
  const std::string &output() const { return Output; }

  /// Set after a runtime error; call()/callMethod() become no-ops until
  /// the error is cleared.
  bool failed() const { return Failed; }
  const std::string &errorMessage() const { return ErrorMessage; }
  /// False if the module did not compile; errorMessage() then holds the
  /// compile error.
  bool compiled() const { return BC != nullptr; }

  /// Clears a recorded runtime error so execution can resume. Instances
  /// quarantined by the failure stay quarantined until
  /// runtime().graph().resetQuarantined()/resetAllQuarantined().
  void clearError() {
    if (!compiled())
      return; // Nothing can run.
    Failed = false;
    ErrorMessage.clear();
  }

  /// Runs the eager evaluator ("cycles available").
  void pump() { RT.pump(); }

  //===------------------------------------------------------------------===//
  // Durable checkpoints (DESIGN.md Section 10)
  //===------------------------------------------------------------------===//

  /// Writes a new checkpoint file at \p Path, crash-atomically, whose base
  /// record is the program state — the heap, the globals and the output
  /// — as one change record from an empty heap (DESIGN.md Section 10).
  /// The dependency graph and cached values are derived state and are not
  /// saved. Pumps first; inside an open batch it throws
  /// CheckpointError(Busy) and leaves \p Path as it was. The new file
  /// replaces the old one and its delta records; later appendDelta calls
  /// extend it.
  void saveCheckpoint(const std::string &Path);

  /// Appends one change record to \p Path: the objects allocated, the
  /// storage slots whose value moved and the output printed since the
  /// last save, restore or record, so its cost follows the change, not
  /// the heap. \p Path must be the file this interpreter last saved or
  /// restored, unchanged by any other writer since (else
  /// CheckpointError(StaleDelta)).
  void appendDelta(const std::string &Path);

  /// Rebuilds this interpreter's program state from \p Path's base record
  /// and its intact delta records: zeroes the globals, empties the heap,
  /// and replays the records as storage writes and output. The graph
  /// stays empty and rebuilds on first demand, so a checkpoint restores
  /// under either execution mode (Theorem 5.1). Requires a freshly
  /// constructed interpreter over the same module; throws CheckpointError
  /// on any validation failure before changing anything (the caller
  /// should still discard the interpreter on failure). restoreNote()
  /// describes a discarded torn tail, if any. On success later
  /// appendDelta calls extend \p Path.
  void restoreCheckpoint(const std::string &Path);

  /// Diagnostic from the last restore ("" if every record was intact).
  const std::string &restoreNote() const { return RestoreNote; }

  Runtime &runtime() { return RT; }
  ExecMode mode() const { return Mode; }

  // Each VM call level costs a few C++ frames; under ASan the redzones
  // inflate them past the 8 MiB default stack well before 2000 levels, so
  // the limit must trip earlier there to fail cleanly instead of
  // overflowing.
#if defined(__SANITIZE_ADDRESS__)
#define ALPHONSE_INTERP_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ALPHONSE_INTERP_ASAN 1
#endif
#endif
  /// Procedure calls nested deeper than this fail with "call depth
  /// exceeded" (a runtime error, not a crash).
#ifdef ALPHONSE_INTERP_ASAN
  static constexpr int MaxNestedCalls = 500;
#else
  static constexpr int MaxNestedCalls = 2000;
#endif

private:
  /// The body of a procedure's argument table: runs its compiled chunk.
  struct ProcBody {
    Interp *I;
    const bytecode::Chunk *Ch;
    Value operator()(const std::vector<Value> &Args) const {
      return I->runChunk(*Ch, Args);
    }
  };
  using ProcTable = ArgTable<std::vector<Value>, Value, ProcBody, ValueVecHash>;

  // Execution engine: the bytecode VM (defined in bytecode/VM.cpp).
  Value runChunk(const bytecode::Chunk &Ch, const std::vector<Value> &Args);
  /// The call(p, ...) operation: through \p P's argument table when the
  /// mode, the call site (\p Checked) and \p Pragma make it incremental,
  /// else a direct run of the body.
  Value dispatch(const lang::ProcDecl *P, const lang::PragmaInfo &Pragma,
                 bool Checked, std::vector<Value> Args);
  /// \p P's argument table, created at its first incremental call.
  ProcTable &table(const lang::ProcDecl *P);

  /// access(v) on a slot when the mode and the site's flag ask for it,
  /// else a plain read.
  const Value &trackedRead(StorageSlot &S, bool Tracked);
  /// modify(l, v) on a slot, after listing it for the next delta record.
  /// A store site needs no flag check: a slot gets a graph node only
  /// through a tracked read, so an untracked site never finds one.
  void trackedWrite(StorageSlot &S, Value V);
  /// The label of \p S's graph node: "G.<name>" for a global,
  /// "<Type>.<field>" for a field of an object of dynamic type Type.
  /// Doubles as the node's fault-injection site.
  const std::string &label(const StorageSlot &S) const;

  HeapObject *allocate(const lang::ObjectTypeInfo *Ty);
  /// Writes one change record: the objects from heap index \p FirstObject
  /// on, the current value of each slot in \p Slots, the output from
  /// offset \p FirstOutput on, and the failed flag and message.
  void encodeRecord(ByteWriter &W, size_t FirstObject,
                    const std::vector<StorageSlot *> &Slots,
                    size_t FirstOutput) const;
  /// The current state is durable: empties the unsaved-slot list and
  /// moves the saved heap and output prefixes to their whole length.
  void markSaved();
  /// FNV-1a over the module's global, procedure, and type names; a
  /// checkpoint only restores into a matching module.
  uint64_t moduleFingerprint() const;
  [[noreturn]] void fail(SourceLocation Loc, const std::string &Message);
  /// Records the in-flight exception behind failed()/errorMessage() (the
  /// first failure wins). Must be called from inside a catch block.
  void noteFailure();
  /// Runs \p Body, converting any escaping exception into the flag-based
  /// error state. The boundary between throwing internals and the
  /// non-throwing public driver API.
  template <typename Fn> Value guarded(Fn &&Body) {
    try {
      return Body();
    } catch (...) {
      noteFailure();
      return Value();
    }
  }
  std::string renderForPrint(const Value &V) const;

  const lang::Module &M;
  const lang::SemaInfo &Info;
  ExecMode Mode;

  /// Compiled form of the module (derived state, rebuilt per
  /// construction; null if it did not compile) and the VM's execution
  /// state.
  std::unique_ptr<bytecode::BytecodeModule> BC;
  bytecode::ExecState BCState;

  Runtime RT;
  /// Sized once at construction: graph nodes point at their labels and
  /// slots (labels first, so they outlive the nodes). Field labels are
  /// indexed by ObjectTypeInfo::Id, then field index.
  std::vector<std::string> GlobalLabels;
  std::vector<std::vector<std::string>> FieldLabels;
  std::vector<StorageSlot> Globals;
  std::unordered_map<std::string, int> GlobalIndex;
  std::vector<std::unique_ptr<HeapObject>> Heap;

  /// Argument tables (Section 4.2), indexed by ProcDecl::Index: one per
  /// procedure, null until an incremental call reaches it. A maintained
  /// method's table is keyed by the implementing procedure; the binding's
  /// pragma gives each instance its strategy.
  std::vector<std::unique_ptr<ProcTable>> Tables;

  /// Delta checkpoints (DESIGN.md Section 10): the slots whose value
  /// moved since the last save, restore or record (each once, flagged
  /// StorageSlot::Unsaved), the heap and output prefixes those cover, and
  /// the append side of the checkpoint file.
  std::vector<StorageSlot *> UnsavedSlots;
  size_t SavedHeap = 0;
  size_t SavedOutput = 0;
  DeltaAppender Deltas;

  std::string Output;
  bool Failed = false;
  std::string ErrorMessage;
  std::string RestoreNote;
};

} // namespace alphonse::interp

#endif // ALPHONSE_INTERP_INTERP_H
