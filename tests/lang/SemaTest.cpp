//===- SemaTest.cpp - Alphonse-L semantic analysis tests ------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "lang/CompileTestHelper.h"

#include <gtest/gtest.h>

namespace alphonse::lang {
namespace {

using testing::compile;

static void semaOk(const std::string &Src) {
  auto C = compile(Src, /*DoTransform=*/false);
  EXPECT_FALSE(C->Diags.hasErrors()) << C->Diags.str();
}

static void semaBad(const std::string &Src, const std::string &Needle = "") {
  auto C = compile(Src, /*DoTransform=*/false);
  EXPECT_TRUE(C->Diags.hasErrors()) << "expected a sema error for: " << Src;
  if (!Needle.empty()) {
    EXPECT_NE(C->Diags.str().find(Needle), std::string::npos)
        << C->Diags.str();
  }
}

TEST(SemaTest, PaperProgramsAnalyzeCleanly) {
  semaOk(testing::heightTreeProgram());
  semaOk(testing::avlProgram());
}

TEST(SemaTest, FieldLayoutIncludesInheritedFields) {
  auto C = compile(R"(
TYPE Base = OBJECT a : INTEGER; END;
TYPE Sub = Base OBJECT b : INTEGER; END;
)",
                   false);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  const ObjectTypeInfo *Sub = C->Info.lookupType("Sub");
  ASSERT_NE(Sub, nullptr);
  ASSERT_EQ(Sub->Fields.size(), 2u);
  EXPECT_EQ(Sub->Fields[0].Name, "a");
  EXPECT_EQ(Sub->Fields[0].Index, 0);
  EXPECT_EQ(Sub->Fields[1].Name, "b");
  EXPECT_EQ(Sub->Fields[1].Index, 1);
  EXPECT_TRUE(Sub->derivesFrom(C->Info.lookupType("Base")));
}

TEST(SemaTest, VTableSlotsAndOverrides) {
  auto C = compile(R"(
TYPE Base = OBJECT
METHODS
  m() : INTEGER := MBase;
END;
TYPE Sub = Base OBJECT
OVERRIDES
  m := MSub;
END;
PROCEDURE MBase(o : Base) : INTEGER = BEGIN RETURN 1; END MBase;
PROCEDURE MSub(o : Base) : INTEGER = BEGIN RETURN 2; END MSub;
)",
                   false);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  const ObjectTypeInfo *Base = C->Info.lookupType("Base");
  const ObjectTypeInfo *Sub = C->Info.lookupType("Sub");
  ASSERT_EQ(Base->VTable.size(), 1u);
  ASSERT_EQ(Sub->VTable.size(), 1u);
  EXPECT_EQ(Base->VTable[0].Impl->Name, "MBase");
  EXPECT_EQ(Sub->VTable[0].Impl->Name, "MSub");
  EXPECT_EQ(Base->VTable[0].Sig, Sub->VTable[0].Sig); // Shared signature.
}

TEST(SemaTest, NameResolutionKinds) {
  auto C = compile(R"(
VAR g : INTEGER;
PROCEDURE P(p : INTEGER) : INTEGER =
VAR l : INTEGER;
BEGIN
  l := p + g;
  RETURN l;
END P;
)",
                   false);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  const ProcDecl *P = C->M.findProc("P");
  const auto &Assign = static_cast<const AssignStmt &>(*P->Body[0]);
  const auto &Sum = static_cast<const BinaryExpr &>(*Assign.Value);
  const auto &PRef = static_cast<const NameRefExpr &>(*Sum.Lhs);
  const auto &GRef = static_cast<const NameRefExpr &>(*Sum.Rhs);
  EXPECT_EQ(PRef.Binding, NameBinding::Param);
  EXPECT_EQ(PRef.Index, 0);
  EXPECT_EQ(GRef.Binding, NameBinding::Global);
  const auto &LRef = static_cast<const NameRefExpr &>(*Assign.Target);
  EXPECT_EQ(LRef.Binding, NameBinding::Local);
  EXPECT_EQ(LRef.Index, 1);
  const ProcInfo *PI = C->Info.procInfo(P);
  ASSERT_NE(PI, nullptr);
  EXPECT_EQ(PI->FrameSize, 2);
}

TEST(SemaTest, ProcIndexIsDeclarationPosition) {
  // The interpreter indexes its argument tables by ProcDecl::Index.
  auto C = compile(testing::avlProgram(), /*DoTransform=*/false);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  ASSERT_FALSE(C->M.Procs.empty());
  for (size_t I = 0; I < C->M.Procs.size(); ++I)
    EXPECT_EQ(C->M.Procs[I]->Index, static_cast<int>(I));
}

TEST(SemaTest, ForVariableGetsItsOwnSlot) {
  auto C = compile(R"(
PROCEDURE P() : INTEGER =
VAR s : INTEGER;
BEGIN
  FOR i := 1 TO 3 DO
    s := s + i;
  END;
  RETURN s;
END P;
)",
                   false);
  ASSERT_TRUE(C->ok()) << C->Diags.str();
  const ProcInfo *PI = C->Info.procInfo(C->M.findProc("P"));
  EXPECT_EQ(PI->FrameSize, 2); // s + i.
}

TEST(SemaTest, ErrorUnknownVariable) {
  semaBad("PROCEDURE P() = BEGIN x := 1; END P;", "unknown variable");
}

TEST(SemaTest, ErrorUnknownType) {
  semaBad("VAR a : Banana;", "unknown type");
}

TEST(SemaTest, ErrorDuplicateField) {
  semaBad("TYPE T = OBJECT a : INTEGER; a : INTEGER; END;",
          "duplicate field");
}

TEST(SemaTest, ErrorInheritedFieldClash) {
  semaBad(R"(
TYPE Base = OBJECT a : INTEGER; END;
TYPE Sub = Base OBJECT a : INTEGER; END;
)",
          "duplicate field");
}

TEST(SemaTest, ErrorOverrideOfUnknownMethod) {
  semaBad(R"(
TYPE T = OBJECT OVERRIDES nope := P; END;
PROCEDURE P(o : T) : INTEGER = BEGIN RETURN 1; END P;
)",
          "override of unknown method");
}

TEST(SemaTest, ErrorMethodImplArity) {
  semaBad(R"(
TYPE T = OBJECT METHODS m(x : INTEGER) : INTEGER := P; END;
PROCEDURE P(o : T) : INTEGER = BEGIN RETURN 1; END P;
)",
          "receiver plus");
}

TEST(SemaTest, ErrorMethodImplReceiverType) {
  semaBad(R"(
TYPE A = OBJECT END;
TYPE T = OBJECT METHODS m() : INTEGER := P; END;
PROCEDURE P(o : A) : INTEGER = BEGIN RETURN 1; END P;
)",
          "receiver parameter");
}

TEST(SemaTest, ErrorMethodImplReturnType) {
  semaBad(R"(
TYPE T = OBJECT METHODS m() : INTEGER := P; END;
PROCEDURE P(o : T) : BOOLEAN = BEGIN RETURN TRUE; END P;
)",
          "return type");
}

TEST(SemaTest, ErrorMaintainedMethodMustReturn) {
  semaBad(R"(
TYPE T = OBJECT METHODS (*MAINTAINED*) m() := P; END;
PROCEDURE P(o : T) = BEGIN END P;
)",
          "must return a value");
}

TEST(SemaTest, ErrorCachedProcedureMustReturn) {
  semaBad("(*CACHED*) PROCEDURE P() = BEGIN END P;", "must return a value");
}

TEST(SemaTest, ErrorMaintainedOnPlainProcedure) {
  semaBad("(*MAINTAINED*) PROCEDURE P() : INTEGER = BEGIN RETURN 1; END P;",
          "belongs on method bindings");
}

TEST(SemaTest, ErrorAssignTypeMismatch) {
  semaBad(R"(
VAR a : INTEGER;
PROCEDURE P() = BEGIN a := TRUE; END P;
)",
          "cannot assign");
}

TEST(SemaTest, ErrorConditionMustBeBoolean) {
  semaBad("PROCEDURE P() = BEGIN IF 1 THEN END; END P;", "must be BOOLEAN");
}

TEST(SemaTest, ErrorArithmeticOnBooleans) {
  semaBad("PROCEDURE P() : INTEGER = BEGIN RETURN TRUE + 1; END P;");
}

TEST(SemaTest, ErrorCompareObjectWithInteger) {
  semaBad(R"(
TYPE T = OBJECT END;
PROCEDURE P(t : T) : BOOLEAN = BEGIN RETURN t = 1; END P;
)",
          "cannot compare");
}

TEST(SemaTest, NilComparesWithObjects) {
  semaOk(R"(
TYPE T = OBJECT END;
PROCEDURE P(t : T) : BOOLEAN = BEGIN RETURN t = NIL; END P;
)");
}

TEST(SemaTest, SubtypeAssignsToSupertypeSlot) {
  semaOk(R"(
TYPE Base = OBJECT END;
TYPE Sub = Base OBJECT END;
VAR b : Base;
PROCEDURE P() = BEGIN b := NEW(Sub); END P;
)");
}

TEST(SemaTest, ErrorSupertypeIntoSubtypeSlot) {
  semaBad(R"(
TYPE Base = OBJECT END;
TYPE Sub = Base OBJECT END;
VAR s : Sub;
PROCEDURE P() = BEGIN s := NEW(Base); END P;
)",
          "cannot assign");
}

TEST(SemaTest, ErrorCallArity) {
  semaBad(R"(
PROCEDURE Q(a : INTEGER) : INTEGER = BEGIN RETURN a; END Q;
PROCEDURE P() : INTEGER = BEGIN RETURN Q(1, 2); END P;
)",
          "takes 1 arguments");
}

TEST(SemaTest, ErrorReturnFromVoidProcedure) {
  semaBad("PROCEDURE P() = BEGIN RETURN 5; END P;",
          "does not return a value");
}

TEST(SemaTest, ErrorInheritanceCycle) {
  semaBad(R"(
TYPE A = B OBJECT END;
TYPE B = A OBJECT END;
)",
          "inheritance cycle");
}

TEST(SemaTest, ErrorUnknownMethodCall) {
  semaBad(R"(
TYPE T = OBJECT END;
PROCEDURE P(t : T) : INTEGER = BEGIN RETURN t.nope(); END P;
)",
          "no method");
}

TEST(SemaTest, TextConcatenationChecks) {
  semaOk(R"(
PROCEDURE P() : TEXT = BEGIN RETURN "a" & fmt(1) & "b"; END P;
)");
  semaBad("PROCEDURE P() : TEXT = BEGIN RETURN \"a\" & 1; END P;");
}

} // namespace
} // namespace alphonse::lang
