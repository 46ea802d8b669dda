//===- ParserTest.cpp - Alphonse-L parser tests ---------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include "interp/Interp.h"
#include "lang/CompileTestHelper.h"
#include "lang/Lexer.h"

#include <gtest/gtest.h>

namespace alphonse::lang {
namespace {

static Module parseOk(const std::string &Src) {
  DiagnosticEngine Diags;
  Module M = parseModule(Src, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return M;
}

static void parseBad(const std::string &Src) {
  DiagnosticEngine Diags;
  parseModule(Src, Diags);
  EXPECT_TRUE(Diags.hasErrors()) << "expected a parse error for: " << Src;
}

TEST(ParserTest, ObjectTypeWithFieldsAndMethods) {
  Module M = parseOk(R"(
TYPE Tree = OBJECT
  left, right : Tree;
  key : INTEGER;
METHODS
  (*MAINTAINED*) height() : INTEGER := Height;
  find(k : INTEGER) : BOOLEAN := Find;
END;
)");
  ASSERT_EQ(M.Types.size(), 1u);
  const TypeDecl &T = M.Types[0];
  EXPECT_EQ(T.Name, "Tree");
  EXPECT_TRUE(T.SuperName.empty());
  ASSERT_EQ(T.Fields.size(), 3u);
  EXPECT_EQ(T.Fields[0].Name, "left");
  EXPECT_EQ(T.Fields[1].Name, "right");
  EXPECT_EQ(T.Fields[1].Type.Name, "Tree");
  EXPECT_EQ(T.Fields[2].Type.Name, "INTEGER");
  ASSERT_EQ(T.Methods.size(), 2u);
  EXPECT_EQ(T.Methods[0].Pragma.Kind, ProcPragma::Maintained);
  EXPECT_EQ(T.Methods[0].ImplName, "Height");
  EXPECT_EQ(T.Methods[1].Pragma.Kind, ProcPragma::None);
  EXPECT_EQ(T.Methods[1].Params.size(), 1u);
}

TEST(ParserTest, SubtypeWithOverrides) {
  Module M = parseOk(R"(
TYPE Base = OBJECT METHODS m() : INTEGER := MBase; END;
TYPE Sub = Base OBJECT
OVERRIDES
  (*MAINTAINED EAGER*) m := MSub;
END;
)");
  ASSERT_EQ(M.Types.size(), 2u);
  EXPECT_EQ(M.Types[1].SuperName, "Base");
  ASSERT_EQ(M.Types[1].Overrides.size(), 1u);
  EXPECT_EQ(M.Types[1].Overrides[0].Pragma.Kind, ProcPragma::Maintained);
  EXPECT_EQ(M.Types[1].Overrides[0].Pragma.Strategy, EvalStrategy::Eager);
}

TEST(ParserTest, GlobalsWithInitializers) {
  Module M = parseOk("VAR a, b : INTEGER; c : INTEGER := 5;\n");
  ASSERT_EQ(M.Globals.size(), 3u);
  EXPECT_EQ(M.Globals[0].Name, "a");
  EXPECT_EQ(M.Globals[2].Name, "c");
  EXPECT_NE(M.Globals[2].Init, nullptr);
}

TEST(ParserTest, CachedProcedurePragma) {
  Module M = parseOk(R"(
(*CACHED*) PROCEDURE Fib(n : INTEGER) : INTEGER =
BEGIN
  RETURN n;
END Fib;
)");
  ASSERT_EQ(M.Procs.size(), 1u);
  EXPECT_EQ(M.Procs[0]->Pragma.Kind, ProcPragma::Cached);
  EXPECT_EQ(M.Procs[0]->Params.size(), 1u);
}

TEST(ParserTest, StatementForms) {
  Module M = parseOk(R"(
PROCEDURE P(n : INTEGER) : INTEGER =
VAR s, i : INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO n DO
    s := s + i;
  END;
  WHILE s > 100 DO
    s := s - 100;
  END;
  IF s = 0 THEN
    RETURN 1;
  ELSIF s < 10 THEN
    RETURN 2;
  ELSE
    RETURN s;
  END;
END P;
)");
  ASSERT_EQ(M.Procs.size(), 1u);
  const ProcDecl &P = *M.Procs[0];
  ASSERT_EQ(P.Body.size(), 4u);
  EXPECT_EQ(P.Body[0]->Kind, StmtKind::Assign);
  EXPECT_EQ(P.Body[1]->Kind, StmtKind::For);
  EXPECT_EQ(P.Body[2]->Kind, StmtKind::While);
  EXPECT_EQ(P.Body[3]->Kind, StmtKind::If);
  const auto &If = static_cast<const IfStmt &>(*P.Body[3]);
  EXPECT_EQ(If.Arms.size(), 2u);
  EXPECT_EQ(If.ElseBody.size(), 1u);
}

TEST(ParserTest, MethodCallsAndFieldChains) {
  Module M = parseOk(R"(
PROCEDURE P(t : T) : INTEGER =
BEGIN
  RETURN max(t.left.height(), t.right.height()) + 1;
END P;
)");
  const auto &Ret = static_cast<const ReturnStmt &>(*M.Procs[0]->Body[0]);
  const auto &Add = static_cast<const BinaryExpr &>(*Ret.Value);
  EXPECT_EQ(Add.Op, BinaryOp::Add);
  const auto &Max = static_cast<const CallExpr &>(*Add.Lhs);
  EXPECT_EQ(Max.Callee, "max");
  ASSERT_EQ(Max.Args.size(), 2u);
  EXPECT_EQ(Max.Args[0]->Kind, ExprKind::MethodCall);
  const auto &MC = static_cast<const MethodCallExpr &>(*Max.Args[0]);
  EXPECT_EQ(MC.Method, "height");
  EXPECT_EQ(MC.Base->Kind, ExprKind::FieldAccess);
}

TEST(ParserTest, UncheckedExpression) {
  Module M = parseOk(R"(
PROCEDURE P() : INTEGER =
BEGIN
  RETURN (*UNCHECKED*) 1 + 2;
END P;
)");
  const auto &Ret = static_cast<const ReturnStmt &>(*M.Procs[0]->Body[0]);
  // (*UNCHECKED*) binds like a unary operator: (unchecked 1) + 2.
  const auto &Add = static_cast<const BinaryExpr &>(*Ret.Value);
  EXPECT_EQ(Add.Lhs->Kind, ExprKind::Unchecked);
}

TEST(ParserTest, PrecedenceAndAssociativity) {
  Module M = parseOk(R"(
PROCEDURE P() : BOOLEAN =
BEGIN
  RETURN 1 + 2 * 3 < 10 AND TRUE OR FALSE;
END P;
)");
  const auto &Ret = static_cast<const ReturnStmt &>(*M.Procs[0]->Body[0]);
  const auto &Or = static_cast<const BinaryExpr &>(*Ret.Value);
  EXPECT_EQ(Or.Op, BinaryOp::Or);
  const auto &And = static_cast<const BinaryExpr &>(*Or.Lhs);
  EXPECT_EQ(And.Op, BinaryOp::And);
  const auto &Lt = static_cast<const BinaryExpr &>(*And.Lhs);
  EXPECT_EQ(Lt.Op, BinaryOp::Lt);
}

TEST(ParserTest, NewExpression) {
  Module M = parseOk(R"(
PROCEDURE P() : T =
BEGIN
  RETURN NEW(T);
END P;
)");
  const auto &Ret = static_cast<const ReturnStmt &>(*M.Procs[0]->Body[0]);
  EXPECT_EQ(Ret.Value->Kind, ExprKind::New);
}

TEST(ParserTest, ErrorMissingSemicolon) {
  parseBad("VAR a : INTEGER\nPROCEDURE P() = BEGIN END P;");
}

TEST(ParserTest, ErrorBadAssignTarget) {
  parseBad("PROCEDURE P() = BEGIN 1 + 2 := 3; END P;");
}

TEST(ParserTest, ErrorUnknownPragma) {
  DiagnosticEngine Diags;
  Lexer L("(*MAINTAINED SOMETIMES*) PROCEDURE P() = BEGIN END P;", Diags);
  Parser Par(L.run(), Diags);
  Par.run();
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ParserTest, ErrorDanglingPragma) {
  parseBad("(*CACHED*) VAR a : INTEGER;");
}

TEST(ParserTest, WarnsOnMismatchedEndName) {
  DiagnosticEngine Diags;
  parseModule("PROCEDURE P() = BEGIN END Q;", Diags);
  EXPECT_FALSE(Diags.hasErrors());
  ASSERT_EQ(Diags.diagnostics().size(), 1u);
  EXPECT_EQ(Diags.diagnostics()[0].Kind, DiagKind::Warning);
}

TEST(ParserTest, RecoversAndReportsMultipleErrors) {
  DiagnosticEngine Diags;
  parseModule(R"(
TYPE = OBJECT END;
PROCEDURE P() = BEGIN RETURN; END P;
TYPE Q = OBJECT
)",
              Diags);
  EXPECT_GE(Diags.errorCount(), 2u);
}

/// RETURN followed by \p N terms joined by '+': a left-associative chain
/// of N - 1 operators.
static std::string chainProgram(unsigned N) {
  std::string Src = "PROCEDURE F() : INTEGER = BEGIN RETURN 1";
  for (unsigned I = 1; I < N; ++I)
    Src += " + 1";
  return Src + "; END F;\n";
}

/// RETURN followed by 1 inside \p N pairs of parentheses.
static std::string parenProgram(unsigned N) {
  return "PROCEDURE F() : INTEGER = BEGIN RETURN " + std::string(N, '(') +
         "1" + std::string(N, ')') + "; END F;\n";
}

/// Parses \p Src, which must fail with exactly one error: the depth
/// limit, reported at \p Loc.
static void expectTooDeep(const std::string &Src, SourceLocation Loc) {
  DiagnosticEngine Diags;
  parseModule(Src, Diags);
  ASSERT_EQ(Diags.errorCount(), 1u) << Diags.str();
  const Diagnostic &D = Diags.diagnostics().front();
  EXPECT_EQ(D.Message, "expression nested more than 1000 levels deep");
  if (Loc.isValid()) {
    EXPECT_EQ(D.Loc, Loc) << D.Loc.str();
  }
}

TEST(ParserTest, RejectsDeepExpressionsWithoutCrashing) {
  // 10,000 levels of each shape. The error sits at the token that opens
  // level 1,001: the 1,001st '+' (column 4k + 38 for the k-th), or the
  // 1,001st '(' (the first is at column 40).
  expectTooDeep(chainProgram(10000), SourceLocation(1, 4 * 1001 + 38));
  expectTooDeep(parenProgram(10000), SourceLocation(1, 40 + 1000));
  // One past the limit is rejected too.
  expectTooDeep(chainProgram(Parser::MaxExprDepth + 2), SourceLocation());
  expectTooDeep(parenProgram(Parser::MaxExprDepth + 1), SourceLocation());
  // Prefix operators, call arguments and postfix chains count as well.
  std::string Unary = "PROCEDURE F() : INTEGER = BEGIN RETURN ";
  std::string Calls = "PROCEDURE F(x : INTEGER) : INTEGER = BEGIN RETURN ";
  std::string Fields = "PROCEDURE F(t : T) : T = BEGIN RETURN t";
  for (int I = 0; I < 10000; ++I) {
    Unary += "- ";
    Calls += "F(";
    Fields += ".next";
  }
  expectTooDeep(Unary + "1; END F;\n", SourceLocation());
  expectTooDeep(Calls + "1" + std::string(10000, ')') + "; END F;\n",
                SourceLocation());
  expectTooDeep(Fields + "; END F;\n", SourceLocation());
}

TEST(ParserTest, ExpressionsAtTheDepthLimitCompileAndRun) {
  // The deepest chain and parenthesization the parser accepts go through
  // Sema, the transformer and the bytecode compiler, and run.
  struct Case {
    std::string Src;
    long Result;
  };
  const long Terms = Parser::MaxExprDepth + 1; // MaxExprDepth operators.
  for (const Case &K : {Case{chainProgram(Terms), Terms},
                        Case{parenProgram(Parser::MaxExprDepth), 1}}) {
    auto C = testing::compile(K.Src);
    ASSERT_TRUE(C->ok()) << C->Diags.str();
    for (auto Mode :
         {interp::ExecMode::Conventional, interp::ExecMode::Alphonse}) {
      interp::Interp I(C->M, C->Info, Mode);
      interp::Value V = I.call("F");
      ASSERT_FALSE(I.failed()) << I.errorMessage();
      EXPECT_EQ(V.Int, K.Result);
    }
  }
}

/// A procedure whose body nests \p N copies of \p Open (a statement
/// header up to its body), then RETURN \p Inner, then the N ENDs, all on
/// line 1 after a fixed prefix.
static std::string nestedProgram(unsigned N, const std::string &Open,
                                 const std::string &Inner = "1") {
  std::string Src = "PROCEDURE Main() : INTEGER = BEGIN ";
  for (unsigned I = 0; I < N; ++I)
    Src += Open;
  Src += "RETURN " + Inner + "; ";
  for (unsigned I = 0; I < N; ++I)
    Src += "END; ";
  return Src + "RETURN 0; END Main;\n";
}

/// Column of the \p K-th (1-based) copy of \p Open in nestedProgram.
static unsigned nestedColumn(unsigned K, const std::string &Open) {
  return 36 + static_cast<unsigned>(Open.size()) * (K - 1);
}

TEST(ParserTest, RejectsDeepStatementNestingWithoutCrashing) {
  // 20,000 and 1,001 levels of IF, WHILE and FOR. There is exactly one
  // error, at the statement that opens level 1,001; the statements
  // around it still close, so nothing cascades.
  for (const std::string Open : {"IF TRUE THEN ", "WHILE FALSE DO ",
                                 "FOR i := 1 TO 2 DO "}) {
    SCOPED_TRACE(Open);
    for (unsigned N : {20000u, Parser::MaxStmtDepth + 1}) {
      DiagnosticEngine Diags;
      parseModule(nestedProgram(N, Open), Diags);
      ASSERT_EQ(Diags.errorCount(), 1u) << Diags.str().substr(0, 400);
      const Diagnostic &D = Diags.diagnostics().front();
      EXPECT_EQ(D.Message, "statements nested more than 1000 levels deep");
      EXPECT_EQ(D.Loc, SourceLocation(1, nestedColumn(1001, Open)))
          << D.Loc.str();
    }
  }
}

TEST(ParserTest, ElsifChainsDoNotCountAsNesting) {
  // An ELSIF chain is one IF statement: 20,000 arms sit at one level.
  std::string Src = "PROCEDURE Main(n : INTEGER) : INTEGER = BEGIN IF n = 0 "
                    "THEN RETURN 0;";
  for (int I = 1; I < 20000; ++I)
    Src += " ELSIF n = " + std::to_string(I) + " THEN RETURN " +
           std::to_string(I) + ";";
  Src += " ELSE RETURN -1; END; RETURN -2; END Main;\n";
  auto C = testing::compile(Src);
  ASSERT_TRUE(C->ok()) << C->Diags.str().substr(0, 400);
  interp::Interp I(C->M, C->Info, interp::ExecMode::Conventional);
  EXPECT_EQ(I.call("Main", {interp::Value::integer(19999)}).Int, 19999);
  ASSERT_FALSE(I.failed()) << I.errorMessage();
}

TEST(ParserTest, StatementsAtTheDepthLimitCompileAndRun) {
  // The deepest nest the parser accepts goes through Sema, the
  // transformer and the bytecode compiler, and runs — also with an
  // expression nearly as deep as the expression limit at its core.
  std::string Deep = "0";
  for (int I = 0; I < 989; ++I)
    Deep = "(" + Deep + ")";
  Deep += " + 1";
  for (const std::string &Inner : {std::string("1"), Deep}) {
    auto C =
        testing::compile(nestedProgram(Parser::MaxStmtDepth, "IF TRUE THEN ",
                                       Inner));
    ASSERT_TRUE(C->ok()) << C->Diags.str().substr(0, 400);
    for (auto Mode :
         {interp::ExecMode::Conventional, interp::ExecMode::Alphonse}) {
      interp::Interp I(C->M, C->Info, Mode);
      interp::Value V = I.call("Main");
      ASSERT_FALSE(I.failed()) << I.errorMessage();
      EXPECT_EQ(V.Int, 1);
    }
  }
}

} // namespace
} // namespace alphonse::lang
