//===- Parser.h - Alphonse-L parser -----------------------------*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser producing a lang::Module from Alphonse-L
/// source. The grammar follows the paper's Modula-3 notation (Section 3.2):
/// TYPE ... OBJECT declarations with METHODS/OVERRIDES sections, top-level
/// VARs, PROCEDUREs, and the (*MAINTAINED*) / (*CACHED*) / (*UNCHECKED*)
/// pragmas with optional DEMAND/EAGER arguments.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_LANG_PARSER_H
#define ALPHONSE_LANG_PARSER_H

#include "lang/AST.h"
#include "lang/Token.h"
#include "support/Diagnostics.h"

#include <vector>

namespace alphonse::lang {

/// Parses \p Tokens into a module. On error, diagnostics are recorded and
/// the returned module may be partial; callers must check
/// Diags.hasErrors().
class Parser {
public:
  /// The deepest expression accepted. Depth counts parentheses, prefix
  /// operators, argument lists and each binary or postfix operator on the
  /// path to the deepest leaf, so it bounds both the parser's recursion
  /// and the height of the tree every later pass (Sema, transformer,
  /// unparser, bytecode compiler) recurses over.
  static constexpr unsigned MaxExprDepth = 1000;

  Parser(std::vector<Token> Tokens, DiagnosticEngine &Diags);

  Module run();

private:
  const Token &peek(size_t Ahead = 0) const;
  const Token &current() const { return peek(0); }
  Token advance();
  bool check(TokenKind Kind) const { return current().is(Kind); }
  bool accept(TokenKind Kind);
  bool expect(TokenKind Kind, const char *Context);
  std::string expectIdentifier(const char *Context);
  void syncToTopLevel();

  PragmaInfo parsePragmaText(const Token &PragmaTok);
  std::optional<PragmaInfo> acceptProcPragma();

  void parseTypeDecl(Module &M);
  void parseGlobalDecls(Module &M);
  void parseProcDecl(Module &M, PragmaInfo Pragma);
  std::vector<ParamDecl> parseParams();
  TypeRef parseTypeRef();

  std::vector<StmtPtr> parseStmtsUntil(std::initializer_list<TokenKind> Stops);
  StmtPtr parseStmt();
  StmtPtr parseIf();
  StmtPtr parseWhile();
  StmtPtr parseFor();
  StmtPtr parseReturn();

  ExprPtr parseExpr();
  ExprPtr parseOr();
  ExprPtr parseAnd();
  ExprPtr parseRelational();
  ExprPtr parseAdditive();
  ExprPtr parseMultiplicative();
  ExprPtr parseUnary();
  ExprPtr parsePostfix();
  ExprPtr parsePrimary();
  bool parseArgs(std::vector<ExprPtr> &Args);
  template <typename Fn> ExprPtr nested(SourceLocation Loc, Fn Parse);
  bool deeper(unsigned SubDepth, SourceLocation Loc);

  std::vector<Token> Tokens;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  /// Nesting levels open around the current token: bounds the recursion
  /// before the depth of what is inside is known.
  unsigned Open = 0;
  /// Depth of the expression the last parse*() call returned.
  unsigned Depth = 0;
};

/// Convenience: lex + parse in one step.
Module parseModule(const std::string &Source, DiagnosticEngine &Diags);

} // namespace alphonse::lang

#endif // ALPHONSE_LANG_PARSER_H
