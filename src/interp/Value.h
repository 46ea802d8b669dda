//===- Value.h - Alphonse-L runtime values ----------------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamic values of the Alphonse-L interpreter. Equality is the identity
/// the incremental runtime cuts off on: structural for scalars, pointer
/// identity for objects (the paper's pointers are "well behaved", so
/// identity is the only observable pointer property).
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_INTERP_VALUE_H
#define ALPHONSE_INTERP_VALUE_H

#include "support/HashCombine.h"

#include <cstdint>
#include <string>
#include <vector>

namespace alphonse::lang {
class ObjectTypeInfo;
struct Type;
} // namespace alphonse::lang

namespace alphonse::interp {

class HeapObject;

/// A dynamically typed Alphonse-L value.
struct Value {
  enum class Kind : uint8_t { Nil, Int, Bool, Text, Object };

  Kind K = Kind::Nil;
  long Int = 0;
  bool Bool = false;
  std::string Text;
  HeapObject *Obj = nullptr;

  Value() = default;
  static Value nil() { return Value(); }
  static Value integer(long V) {
    Value R;
    R.K = Kind::Int;
    R.Int = V;
    return R;
  }
  static Value boolean(bool V) {
    Value R;
    R.K = Kind::Bool;
    R.Bool = V;
    return R;
  }
  static Value text(std::string V) {
    Value R;
    R.K = Kind::Text;
    R.Text = std::move(V);
    return R;
  }
  static Value object(HeapObject *O) {
    Value R;
    R.K = O ? Kind::Object : Kind::Nil;
    R.Obj = O;
    return R;
  }

  bool isNil() const { return K == Kind::Nil; }

  friend bool operator==(const Value &A, const Value &B) {
    if (A.K != B.K)
      return false;
    switch (A.K) {
    case Kind::Nil:
      return true;
    case Kind::Int:
      return A.Int == B.Int;
    case Kind::Bool:
      return A.Bool == B.Bool;
    case Kind::Text:
      return A.Text == B.Text;
    case Kind::Object:
      return A.Obj == B.Obj;
    }
    return false;
  }

  size_t hash() const {
    size_t Seed = static_cast<size_t>(K);
    switch (K) {
    case Kind::Nil:
      break;
    case Kind::Int:
      hashCombine(Seed, std::hash<long>{}(Int));
      break;
    case Kind::Bool:
      hashCombine(Seed, Bool ? 1u : 0u);
      break;
    case Kind::Text:
      hashCombine(Seed, std::hash<std::string>{}(Text));
      break;
    case Kind::Object:
      hashCombine(Seed, std::hash<const void *>{}(Obj));
      break;
    }
    return Seed;
  }

  /// Renders the value the way print/fmt show it.
  std::string render() const;
};

/// The zero value of a declared type: 0, FALSE, "" or NIL. Fresh
/// variables, fields and locals start with it, and a procedure that falls
/// off its end returns it.
Value defaultValue(const lang::Type &Ty);

/// Hash for argument vectors (the paper's argument-table index).
struct ValueVecHash {
  size_t operator()(const std::vector<Value> &Vec) const {
    size_t Seed = Vec.size();
    for (const Value &V : Vec)
      hashCombine(Seed, V.hash());
    return Seed;
  }
};

} // namespace alphonse::interp

#endif // ALPHONSE_INTERP_VALUE_H
