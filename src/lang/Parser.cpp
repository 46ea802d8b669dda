//===- Parser.cpp - Alphonse-L parser --------------------------------------===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include "lang/Lexer.h"

#include <algorithm>
#include <sstream>

namespace alphonse::lang {

Parser::Parser(std::vector<Token> Tokens, DiagnosticEngine &Diags)
    : Tokens(std::move(Tokens)), Diags(Diags) {
  assert(!this->Tokens.empty() && this->Tokens.back().is(TokenKind::End) &&
         "token stream must be End-terminated");
}

const Token &Parser::peek(size_t Ahead) const {
  size_t I = Pos + Ahead;
  if (I >= Tokens.size())
    I = Tokens.size() - 1; // The End token.
  return Tokens[I];
}

Token Parser::advance() {
  Token T = current();
  if (!current().is(TokenKind::End))
    ++Pos;
  return T;
}

bool Parser::accept(TokenKind Kind) {
  if (!check(Kind))
    return false;
  advance();
  return true;
}

bool Parser::expect(TokenKind Kind, const char *Context) {
  if (accept(Kind))
    return true;
  std::ostringstream OS;
  OS << "expected " << tokenKindName(Kind) << " " << Context << ", found "
     << tokenKindName(current().Kind);
  Diags.error(current().Loc, OS.str());
  return false;
}

std::string Parser::expectIdentifier(const char *Context) {
  if (check(TokenKind::Identifier))
    return advance().Text;
  std::ostringstream OS;
  OS << "expected identifier " << Context << ", found "
     << tokenKindName(current().Kind);
  Diags.error(current().Loc, OS.str());
  return "";
}

/// Skips forward to the next plausible top-level declaration after a parse
/// error, so one mistake yields one diagnostic.
void Parser::syncToTopLevel() {
  while (!current().is(TokenKind::End)) {
    if (check(TokenKind::KwType) || check(TokenKind::KwVar) ||
        check(TokenKind::KwProcedure) || check(TokenKind::Pragma))
      return;
    advance();
  }
}

//===----------------------------------------------------------------------===//
// Pragmas
//===----------------------------------------------------------------------===//

PragmaInfo Parser::parsePragmaText(const Token &PragmaTok) {
  PragmaInfo Info;
  std::istringstream Words(PragmaTok.Text);
  std::string Word;
  Words >> Word;
  if (Word == "MAINTAINED") {
    Info.Kind = ProcPragma::Maintained;
  } else if (Word == "CACHED") {
    Info.Kind = ProcPragma::Cached;
  } else {
    Diags.error(PragmaTok.Loc, "unknown pragma '" + Word + "'");
    return Info;
  }
  if (Words >> Word) {
    if (Word == "EAGER") {
      Info.Strategy = EvalStrategy::Eager;
    } else if (Word == "DEMAND") {
      Info.Strategy = EvalStrategy::Demand;
    } else {
      Diags.error(PragmaTok.Loc,
                  "unknown evaluation strategy '" + Word +
                      "'; expected DEMAND or EAGER");
    }
  }
  return Info;
}

std::optional<PragmaInfo> Parser::acceptProcPragma() {
  if (!check(TokenKind::Pragma))
    return std::nullopt;
  if (current().Text.rfind("UNCHECKED", 0) == 0)
    return std::nullopt; // Expression pragma; not valid here.
  return parsePragmaText(advance());
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

Module Parser::run() {
  Module M;
  while (!current().is(TokenKind::End)) {
    if (accept(TokenKind::KwType)) {
      parseTypeDecl(M);
      continue;
    }
    if (accept(TokenKind::KwVar)) {
      parseGlobalDecls(M);
      continue;
    }
    std::optional<PragmaInfo> Pragma = acceptProcPragma();
    if (accept(TokenKind::KwProcedure)) {
      parseProcDecl(M, Pragma.value_or(PragmaInfo()));
      continue;
    }
    if (Pragma) {
      Diags.error(current().Loc, "expected PROCEDURE after pragma");
      syncToTopLevel();
      continue;
    }
    Diags.error(current().Loc,
                std::string("expected a declaration, found ") +
                    tokenKindName(current().Kind));
    advance();
    syncToTopLevel();
  }
  return M;
}

TypeRef Parser::parseTypeRef() {
  TypeRef T;
  T.Loc = current().Loc;
  if (check(TokenKind::Identifier)) {
    T.Name = advance().Text;
    return T;
  }
  Diags.error(current().Loc, std::string("expected a type name, found ") +
                                 tokenKindName(current().Kind));
  return T;
}

void Parser::parseTypeDecl(Module &M) {
  TypeDecl D;
  D.Loc = current().Loc;
  D.Name = expectIdentifier("for the type name");
  expect(TokenKind::Equal, "after the type name");
  if (check(TokenKind::Identifier))
    D.SuperName = advance().Text;
  expect(TokenKind::KwObject, "in object type declaration");

  // Fields: identList ':' type ';' until METHODS/OVERRIDES/END.
  while (check(TokenKind::Identifier)) {
    std::vector<std::string> Names;
    SourceLocation Loc = current().Loc;
    Names.push_back(advance().Text);
    while (accept(TokenKind::Comma))
      Names.push_back(expectIdentifier("in field list"));
    expect(TokenKind::Colon, "after field names");
    TypeRef T = parseTypeRef();
    expect(TokenKind::Semicolon, "after field declaration");
    for (std::string &N : Names)
      D.Fields.push_back(FieldDecl{std::move(N), T, Loc});
  }

  if (accept(TokenKind::KwMethods)) {
    while (check(TokenKind::Identifier) || check(TokenKind::Pragma)) {
      MethodDecl MD;
      if (auto P = acceptProcPragma())
        MD.Pragma = *P;
      MD.Loc = current().Loc;
      MD.Name = expectIdentifier("for the method name");
      expect(TokenKind::LParen, "after the method name");
      if (!check(TokenKind::RParen))
        MD.Params = parseParams();
      expect(TokenKind::RParen, "after method parameters");
      if (accept(TokenKind::Colon))
        MD.RetType = parseTypeRef();
      expect(TokenKind::Assign, "before the method implementation");
      MD.ImplName = expectIdentifier("for the implementing procedure");
      expect(TokenKind::Semicolon, "after the method declaration");
      D.Methods.push_back(std::move(MD));
    }
  }

  if (accept(TokenKind::KwOverrides)) {
    while (check(TokenKind::Identifier) || check(TokenKind::Pragma)) {
      OverrideDecl OD;
      if (auto P = acceptProcPragma())
        OD.Pragma = *P;
      OD.Loc = current().Loc;
      OD.Name = expectIdentifier("for the overridden method");
      expect(TokenKind::Assign, "in override");
      OD.ImplName = expectIdentifier("for the overriding procedure");
      expect(TokenKind::Semicolon, "after the override");
      D.Overrides.push_back(std::move(OD));
    }
  }

  expect(TokenKind::KwEnd, "to close the object type");
  expect(TokenKind::Semicolon, "after the type declaration");
  M.Types.push_back(std::move(D));
}

void Parser::parseGlobalDecls(Module &M) {
  // VAR a, b : T [:= init]; c : U; ...  — runs until the next section.
  while (check(TokenKind::Identifier)) {
    std::vector<std::string> Names;
    SourceLocation Loc = current().Loc;
    Names.push_back(advance().Text);
    while (accept(TokenKind::Comma))
      Names.push_back(expectIdentifier("in variable list"));
    expect(TokenKind::Colon, "after variable names");
    TypeRef T = parseTypeRef();
    ExprPtr Init;
    if (accept(TokenKind::Assign))
      Init = parseExpr();
    expect(TokenKind::Semicolon, "after the variable declaration");
    for (size_t I = 0; I < Names.size(); ++I) {
      GlobalDecl G;
      G.Name = Names[I];
      G.Type = T;
      G.Loc = Loc;
      if (Init && I + 1 == Names.size())
        G.Init = std::move(Init); // The initializer applies once.
      M.Globals.push_back(std::move(G));
    }
  }
}

std::vector<ParamDecl> Parser::parseParams() {
  std::vector<ParamDecl> Params;
  while (true) {
    std::vector<std::string> Names;
    SourceLocation Loc = current().Loc;
    Names.push_back(expectIdentifier("for a parameter name"));
    while (accept(TokenKind::Comma))
      Names.push_back(expectIdentifier("in parameter list"));
    expect(TokenKind::Colon, "after parameter names");
    TypeRef T = parseTypeRef();
    for (std::string &N : Names)
      Params.push_back(ParamDecl{std::move(N), T, Loc});
    if (!accept(TokenKind::Semicolon))
      return Params;
  }
}

void Parser::parseProcDecl(Module &M, PragmaInfo Pragma) {
  auto P = std::make_unique<ProcDecl>();
  P->Pragma = Pragma;
  P->Loc = current().Loc;
  P->Name = expectIdentifier("for the procedure name");
  expect(TokenKind::LParen, "after the procedure name");
  if (!check(TokenKind::RParen))
    P->Params = parseParams();
  expect(TokenKind::RParen, "after procedure parameters");
  if (accept(TokenKind::Colon))
    P->RetType = parseTypeRef();
  expect(TokenKind::Equal, "before the procedure body");

  if (accept(TokenKind::KwVar)) {
    while (check(TokenKind::Identifier)) {
      std::vector<std::string> Names;
      SourceLocation Loc = current().Loc;
      Names.push_back(advance().Text);
      while (accept(TokenKind::Comma))
        Names.push_back(expectIdentifier("in local variable list"));
      expect(TokenKind::Colon, "after local variable names");
      TypeRef T = parseTypeRef();
      ExprPtr Init;
      if (accept(TokenKind::Assign))
        Init = parseExpr();
      expect(TokenKind::Semicolon, "after the local declaration");
      for (size_t I = 0; I < Names.size(); ++I) {
        LocalDecl L;
        L.Name = Names[I];
        L.Type = T;
        L.Loc = Loc;
        if (Init && I + 1 == Names.size())
          L.Init = std::move(Init);
        P->Locals.push_back(std::move(L));
      }
    }
  }

  expect(TokenKind::KwBegin, "to open the procedure body");
  P->Body = parseStmtsUntil({TokenKind::KwEnd});
  expect(TokenKind::KwEnd, "to close the procedure body");
  // Modula-3 repeats the procedure name after END; accept and check it.
  if (check(TokenKind::Identifier)) {
    std::string Trailing = advance().Text;
    if (Trailing != P->Name)
      Diags.warning(current().Loc, "procedure closed with 'END " + Trailing +
                                       "' but is named '" + P->Name + "'");
  }
  expect(TokenKind::Semicolon, "after the procedure");
  M.Procs.push_back(std::move(P));
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

std::vector<StmtPtr>
Parser::parseStmtsUntil(std::initializer_list<TokenKind> Stops) {
  std::vector<StmtPtr> Stmts;
  auto AtStop = [&] {
    if (current().is(TokenKind::End))
      return true;
    for (TokenKind K : Stops)
      if (check(K))
        return true;
    return false;
  };
  while (!AtStop()) {
    StmtPtr S = parseStmt();
    if (!S) {
      // Error recovery: skip to the next ';' or stop token.
      while (!AtStop() && !check(TokenKind::Semicolon))
        advance();
      accept(TokenKind::Semicolon);
      continue;
    }
    Stmts.push_back(std::move(S));
  }
  return Stmts;
}

StmtPtr Parser::parseStmt() {
  if (check(TokenKind::KwReturn))
    return parseReturn();
  if (check(TokenKind::KwIf))
    return parseIf();
  if (check(TokenKind::KwWhile))
    return parseWhile();
  if (check(TokenKind::KwFor))
    return parseFor();

  SourceLocation Loc = current().Loc;
  ExprPtr E = parseExpr();
  if (!E)
    return nullptr;
  if (accept(TokenKind::Assign)) {
    if (E->Kind != ExprKind::NameRef && E->Kind != ExprKind::FieldAccess) {
      Diags.error(Loc, "assignment target must be a variable or field");
      return nullptr;
    }
    ExprPtr Value = parseExpr();
    if (!Value)
      return nullptr;
    expect(TokenKind::Semicolon, "after the assignment");
    return std::make_unique<AssignStmt>(Loc, std::move(E), std::move(Value));
  }
  if (E->Kind != ExprKind::Call && E->Kind != ExprKind::MethodCall &&
      E->Kind != ExprKind::New)
    Diags.warning(Loc, "expression statement has no effect");
  expect(TokenKind::Semicolon, "after the statement");
  return std::make_unique<ExprStmt>(Loc, std::move(E));
}

StmtPtr Parser::parseReturn() {
  SourceLocation Loc = advance().Loc; // RETURN
  ExprPtr Value;
  if (!check(TokenKind::Semicolon) && !(Value = parseExpr()))
    return nullptr;
  expect(TokenKind::Semicolon, "after RETURN");
  return std::make_unique<ReturnStmt>(Loc, std::move(Value));
}

StmtPtr Parser::parseIf() {
  SourceLocation Loc = advance().Loc; // IF
  auto S = std::make_unique<IfStmt>(Loc);
  while (true) {
    IfStmt::Arm Arm;
    Arm.Cond = parseExpr();
    expect(TokenKind::KwThen, "after the condition");
    Arm.Body = parseStmtsUntil(
        {TokenKind::KwElsif, TokenKind::KwElse, TokenKind::KwEnd});
    S->Arms.push_back(std::move(Arm));
    if (!accept(TokenKind::KwElsif))
      break;
  }
  if (accept(TokenKind::KwElse))
    S->ElseBody = parseStmtsUntil({TokenKind::KwEnd});
  expect(TokenKind::KwEnd, "to close IF");
  expect(TokenKind::Semicolon, "after END");
  return S;
}

StmtPtr Parser::parseWhile() {
  SourceLocation Loc = advance().Loc; // WHILE
  ExprPtr Cond = parseExpr();
  auto S = std::make_unique<WhileStmt>(Loc, std::move(Cond));
  expect(TokenKind::KwDo, "after the loop condition");
  S->Body = parseStmtsUntil({TokenKind::KwEnd});
  expect(TokenKind::KwEnd, "to close WHILE");
  expect(TokenKind::Semicolon, "after END");
  return S;
}

StmtPtr Parser::parseFor() {
  SourceLocation Loc = advance().Loc; // FOR
  std::string Var = expectIdentifier("for the loop variable");
  auto S = std::make_unique<ForStmt>(Loc, std::move(Var));
  expect(TokenKind::Assign, "after the loop variable");
  S->From = parseExpr();
  expect(TokenKind::KwTo, "in FOR bounds");
  S->To = parseExpr();
  expect(TokenKind::KwDo, "after FOR bounds");
  S->Body = parseStmtsUntil({TokenKind::KwEnd});
  expect(TokenKind::KwEnd, "to close FOR");
  expect(TokenKind::Semicolon, "after END");
  return S;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Records that the expression just built sits one level above a
/// subexpression \p SubDepth deep; past MaxExprDepth that is an error at
/// \p Loc, the token that opened the level.
bool Parser::deeper(unsigned SubDepth, SourceLocation Loc) {
  Depth = SubDepth + 1;
  if (Depth <= MaxExprDepth)
    return true;
  Diags.error(Loc, "expression nested more than " +
                       std::to_string(MaxExprDepth) + " levels deep");
  return false;
}

/// Parses one nested operand with \p Parse — the inside of parentheses,
/// a call argument, or the operand of a prefix operator — one level below
/// the token at \p Loc. Refuses before recursing once MaxExprDepth levels
/// are open, so the parser's own stack stays bounded.
template <typename Fn> ExprPtr Parser::nested(SourceLocation Loc, Fn Parse) {
  if (Open == MaxExprDepth) {
    deeper(MaxExprDepth, Loc);
    return nullptr;
  }
  ++Open;
  ExprPtr E = Parse();
  --Open;
  return E && deeper(Depth, Loc) ? std::move(E) : nullptr;
}

ExprPtr Parser::parseExpr() { return parseOr(); }

ExprPtr Parser::parseOr() {
  ExprPtr L = parseAnd();
  while (L && check(TokenKind::KwOr)) {
    unsigned LDepth = Depth;
    SourceLocation Loc = advance().Loc;
    ExprPtr R = parseAnd();
    if (!R || !deeper(std::max(LDepth, Depth), Loc))
      return nullptr;
    L = std::make_unique<BinaryExpr>(Loc, BinaryOp::Or, std::move(L),
                                     std::move(R));
  }
  return L;
}

ExprPtr Parser::parseAnd() {
  ExprPtr L = parseRelational();
  while (L && check(TokenKind::KwAnd)) {
    unsigned LDepth = Depth;
    SourceLocation Loc = advance().Loc;
    ExprPtr R = parseRelational();
    if (!R || !deeper(std::max(LDepth, Depth), Loc))
      return nullptr;
    L = std::make_unique<BinaryExpr>(Loc, BinaryOp::And, std::move(L),
                                     std::move(R));
  }
  return L;
}

ExprPtr Parser::parseRelational() {
  ExprPtr L = parseAdditive();
  if (!L)
    return nullptr;
  BinaryOp Op;
  switch (current().Kind) {
  case TokenKind::Equal:
    Op = BinaryOp::Eq;
    break;
  case TokenKind::NotEqual:
    Op = BinaryOp::Ne;
    break;
  case TokenKind::Less:
    Op = BinaryOp::Lt;
    break;
  case TokenKind::LessEq:
    Op = BinaryOp::Le;
    break;
  case TokenKind::Greater:
    Op = BinaryOp::Gt;
    break;
  case TokenKind::GreaterEq:
    Op = BinaryOp::Ge;
    break;
  default:
    return L;
  }
  unsigned LDepth = Depth;
  SourceLocation Loc = advance().Loc;
  ExprPtr R = parseAdditive();
  if (!R || !deeper(std::max(LDepth, Depth), Loc))
    return nullptr;
  return std::make_unique<BinaryExpr>(Loc, Op, std::move(L), std::move(R));
}

ExprPtr Parser::parseAdditive() {
  ExprPtr L = parseMultiplicative();
  while (L && (check(TokenKind::Plus) || check(TokenKind::Minus) ||
               check(TokenKind::Ampersand))) {
    BinaryOp Op = check(TokenKind::Plus)    ? BinaryOp::Add
                  : check(TokenKind::Minus) ? BinaryOp::Sub
                                            : BinaryOp::Concat;
    unsigned LDepth = Depth;
    SourceLocation Loc = advance().Loc;
    ExprPtr R = parseMultiplicative();
    if (!R || !deeper(std::max(LDepth, Depth), Loc))
      return nullptr;
    L = std::make_unique<BinaryExpr>(Loc, Op, std::move(L), std::move(R));
  }
  return L;
}

ExprPtr Parser::parseMultiplicative() {
  ExprPtr L = parseUnary();
  while (L && (check(TokenKind::Star) || check(TokenKind::KwDiv) ||
               check(TokenKind::KwMod))) {
    BinaryOp Op = check(TokenKind::Star)    ? BinaryOp::Mul
                  : check(TokenKind::KwDiv) ? BinaryOp::Div
                                            : BinaryOp::Mod;
    unsigned LDepth = Depth;
    SourceLocation Loc = advance().Loc;
    ExprPtr R = parseUnary();
    if (!R || !deeper(std::max(LDepth, Depth), Loc))
      return nullptr;
    L = std::make_unique<BinaryExpr>(Loc, Op, std::move(L), std::move(R));
  }
  return L;
}

ExprPtr Parser::parseUnary() {
  if (check(TokenKind::Minus)) {
    SourceLocation Loc = advance().Loc;
    ExprPtr Sub = nested(Loc, [this] { return parseUnary(); });
    if (!Sub)
      return nullptr;
    return std::make_unique<UnaryExpr>(Loc, UnaryOp::Neg, std::move(Sub));
  }
  if (check(TokenKind::KwNot)) {
    SourceLocation Loc = advance().Loc;
    ExprPtr Sub = nested(Loc, [this] { return parseUnary(); });
    if (!Sub)
      return nullptr;
    return std::make_unique<UnaryExpr>(Loc, UnaryOp::Not, std::move(Sub));
  }
  if (check(TokenKind::Pragma) &&
      current().Text.rfind("UNCHECKED", 0) == 0) {
    SourceLocation Loc = advance().Loc;
    ExprPtr Sub = nested(Loc, [this] { return parseUnary(); });
    if (!Sub)
      return nullptr;
    return std::make_unique<UncheckedExpr>(Loc, std::move(Sub));
  }
  return parsePostfix();
}

/// Parses a call's arguments after its '('. Depth becomes the deepest
/// argument's, counting the argument list as a level (0 with no
/// arguments).
bool Parser::parseArgs(std::vector<ExprPtr> &Args) {
  unsigned ArgsDepth = 0;
  if (!accept(TokenKind::RParen)) {
    while (true) {
      ExprPtr A = nested(current().Loc, [this] { return parseExpr(); });
      if (!A)
        return false;
      ArgsDepth = std::max(ArgsDepth, Depth);
      Args.push_back(std::move(A));
      if (accept(TokenKind::RParen))
        break;
      if (!expect(TokenKind::Comma, "between call arguments"))
        return false;
    }
  }
  Depth = ArgsDepth;
  return true;
}

ExprPtr Parser::parsePostfix() {
  ExprPtr E = parsePrimary();
  while (E && accept(TokenKind::Dot)) {
    unsigned BaseDepth = Depth;
    SourceLocation Loc = current().Loc;
    std::string Member = expectIdentifier("after '.'");
    if (accept(TokenKind::LParen)) {
      auto Call = std::make_unique<MethodCallExpr>(Loc, std::move(E),
                                                   std::move(Member));
      if (!parseArgs(Call->Args) || !deeper(std::max(BaseDepth, Depth), Loc))
        return nullptr;
      E = std::move(Call);
    } else {
      if (!deeper(BaseDepth, Loc))
        return nullptr;
      E = std::make_unique<FieldAccessExpr>(Loc, std::move(E),
                                            std::move(Member));
    }
  }
  return E;
}

ExprPtr Parser::parsePrimary() {
  SourceLocation Loc = current().Loc;
  Depth = 0; // Leaves; parentheses and calls set their own depth.
  switch (current().Kind) {
  case TokenKind::IntLiteral: {
    long V = advance().IntValue;
    return std::make_unique<IntLitExpr>(Loc, V);
  }
  case TokenKind::TextLiteral: {
    std::string V = advance().Text;
    return std::make_unique<TextLitExpr>(Loc, std::move(V));
  }
  case TokenKind::KwTrue:
    advance();
    return std::make_unique<BoolLitExpr>(Loc, true);
  case TokenKind::KwFalse:
    advance();
    return std::make_unique<BoolLitExpr>(Loc, false);
  case TokenKind::KwNil:
    advance();
    return std::make_unique<NilLitExpr>(Loc);
  case TokenKind::KwNew: {
    advance();
    expect(TokenKind::LParen, "after NEW");
    std::string TypeName = expectIdentifier("for the allocated type");
    expect(TokenKind::RParen, "after NEW(T)");
    return std::make_unique<NewExpr>(Loc, std::move(TypeName));
  }
  case TokenKind::LParen: {
    advance();
    ExprPtr E = nested(Loc, [this] { return parseExpr(); });
    if (E)
      expect(TokenKind::RParen, "to close the parenthesized expression");
    return E;
  }
  case TokenKind::Identifier: {
    std::string Name = advance().Text;
    if (accept(TokenKind::LParen)) {
      auto Call = std::make_unique<CallExpr>(Loc, std::move(Name));
      if (!parseArgs(Call->Args))
        return nullptr;
      return Call;
    }
    return std::make_unique<NameRefExpr>(Loc, std::move(Name));
  }
  default:
    Diags.error(Loc, std::string("expected an expression, found ") +
                         tokenKindName(current().Kind));
    return nullptr;
  }
}

Module parseModule(const std::string &Source, DiagnosticEngine &Diags) {
  Lexer Lex(Source, Diags);
  Parser P(Lex.run(), Diags);
  return P.run();
}

} // namespace alphonse::lang
