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
///    transformer drive the same dependency graph and evaluator the C++
///    embedding uses (src/graph, src/core). Maintained methods and cached
///    procedures get argument tables keyed by Value vectors; object fields
///    and top-level variables get storage nodes created lazily on first
///    tracked access.
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

#include "core/Runtime.h"
#include "interp/Value.h"
#include "interp/bytecode/VM.h"
#include "lang/Sema.h"
#include "support/CheckpointIO.h"

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

/// One tracked storage location: the live value plus its lazily created
/// dependency-graph node holding the snapshot dependents last saw.
class StorageSlot;

/// A heap object: its dynamic type plus one slot per field.
class HeapObject {
public:
  HeapObject(const lang::ObjectTypeInfo *Ty, size_t NumFields,
             uint32_t Index);
  ~HeapObject();

  const lang::ObjectTypeInfo *type() const { return Ty; }
  /// Position on the interpreter's heap, fixed at allocation (objects are
  /// never freed): the object's identity in checkpoints.
  uint32_t index() const { return Index; }
  StorageSlot &slot(size_t I);

private:
  const lang::ObjectTypeInfo *Ty;
  uint32_t Index;
  std::vector<std::unique_ptr<StorageSlot>> Slots;
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

  /// Everything print() emitted so far.
  const std::string &output() const { return Output; }
  void clearOutput() { Output.clear(); }

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

  /// Writes a full snapshot of the interpreter — graph, globals, heap,
  /// argument tables, output stream — to \p Path, crash-atomically. The
  /// graph must be quiescent (saveCheckpoint pumps first; an open batch
  /// throws CheckpointError(Busy)). Resets the sidecar delta log; \p Path
  /// becomes the base that later appendDelta calls extend.
  void saveCheckpoint(const std::string &Path);

  /// Appends one change record to \p Path's sidecar log: the objects
  /// allocated and the storage slots whose value moved since the last
  /// snapshot, restore or record, so its cost follows the change, not
  /// the heap.
  /// \p Path must be the snapshot this interpreter last saved or
  /// restored (else CheckpointError(StaleDelta)). Restore replays the
  /// surviving prefix and recomputes derived values by propagation.
  void appendDelta(const std::string &Path);

  /// Rebuilds this interpreter from \p Path plus any surviving delta
  /// records. Requires a freshly constructed interpreter over the same
  /// module and mode; throws CheckpointError on any validation failure
  /// and leaves no partial state accepted (the caller should discard the
  /// interpreter on failure). restoreNote() describes discarded
  /// delta-log tails, if any. On success \p Path becomes the base that
  /// later appendDelta calls extend.
  void restoreCheckpoint(const std::string &Path);

  /// Diagnostic from the last restore ("" if the delta log was clean).
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
  friend class InterpProcNode;

  // Execution engine: the bytecode VM (defined in bytecode/VM.cpp).
  Value runChunk(const bytecode::Chunk &Ch, const std::vector<Value> &Args);
  Value dispatch(const lang::ProcDecl *P, const lang::PragmaInfo &Pragma,
                 bool Checked, std::vector<Value> Args);
  Value incrementalCall(const lang::ProcDecl *P,
                        const lang::PragmaInfo &Pragma,
                        std::vector<Value> Args);
  Value executeInstance(class InterpProcNode &N);
  bool reexecuteInstance(class InterpProcNode &N);

  // Storage protocol (Algorithms 3 and 4).
  Value trackedRead(StorageSlot &S, bool Tracked);
  void trackedWrite(StorageSlot &S, Value V, bool Tracked);

  Value defaultValue(const lang::Type &Ty) const;
  HeapObject *allocate(const lang::ObjectTypeInfo *Ty);
  /// The current state is durable: empties the unsaved-slot list and
  /// moves the saved heap prefix to the whole heap.
  void markSaved();
  /// FNV-1a over the module's global, procedure, and type names plus the
  /// execution mode; a checkpoint only restores into a matching module.
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
  std::vector<std::unique_ptr<StorageSlot>> Globals;
  std::unordered_map<std::string, int> GlobalIndex;
  std::vector<std::unique_ptr<HeapObject>> Heap;

  /// Argument tables (Section 4.2), indexed by ProcDecl::Index: one per
  /// procedure, empty until an incremental call reaches it. Sized once at
  /// construction, so a table's address is stable for undo closures.
  using ArgTable =
      std::unordered_map<std::vector<Value>,
                         std::unique_ptr<class InterpProcNode>, ValueVecHash>;
  std::vector<ArgTable> Tables;

  /// Delta checkpoints (DESIGN.md Section 10): the slots whose value
  /// moved since the last snapshot, restore or record (each once, flagged
  /// StorageSlot::Unsaved), the heap prefix those cover, and the append
  /// side of the base snapshot's log.
  std::vector<StorageSlot *> UnsavedSlots;
  size_t SavedHeap = 0;
  DeltaAppender Deltas;

  std::string Output;
  bool Failed = false;
  std::string ErrorMessage;
  std::string RestoreNote;
};

} // namespace alphonse::interp

#endif // ALPHONSE_INTERP_INTERP_H
