//===- lang/Ast.h - AST for the grs race-program DSL ------------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract syntax tree the recursive-descent parser (lang/Parser.h)
/// produces and the tree-walking interpreter (lang/Interp.h) executes.
///
/// A Program is IMMUTABLE after parsing and designed to be shared across
/// threads: a parallel sweep (sweep::resilient with Threads > 1) runs the
/// same Program concurrently from several workers, each in its own
/// rt::Runtime, so nothing in here may be mutated during interpretation
/// (the interpreter keeps all execution state in per-run environments).
///
/// One deliberate deviation from Go: function literals may be NAMED
/// (`func ProcessJob() { ... }` as an expression). Calling a named
/// function — top-level or literal — pushes a detector call-chain frame
/// (rt::FuncScope equivalent), while anonymous literals push nothing.
/// This is how a .grs port reproduces its C++ twin's §3.3.1 fingerprint:
/// the fingerprint keys on lexicographically-ordered function-NAME
/// chains, so frame names are semantics here, not decoration.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_LANG_AST_H
#define GRS_LANG_AST_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace grs {
namespace lang {

/// 1-based source position.
struct Pos {
  uint32_t Line = 0;
  uint32_t Col = 0;
};

struct Expr;
struct Stmt;

struct Block {
  std::vector<std::unique_ptr<Stmt>> Stmts;
};

/// A function: top-level declaration or (possibly named) literal.
struct FuncLit {
  /// Empty for anonymous literals; a named function pushes a call-chain
  /// frame with this name when invoked.
  std::string Name;
  std::vector<std::string> Params;
  Block Body;
  Pos P;
};

enum class ExprKind : uint8_t {
  IntLit,  ///< IntValue.
  BoolLit, ///< BoolValue.
  StrLit,  ///< Str.
  NilLit,
  Ident,   ///< Str = name.
  Unary,   ///< Str = "!" or "-"; Kids[0].
  Binary,  ///< Str = operator spelling; Kids[0], Kids[1].
  Call,    ///< Kids[0] = callee; Kids[1..] = arguments.
  Method,  ///< Str = method name; Kids[0] = receiver; Kids[1..] = args.
  Index,   ///< Kids[0] = container; Kids[1] = index.
  Recv,    ///< <-ch; Kids[0] = channel.
  Func,    ///< Fn = the literal.
  Make,    ///< Str = "chan" | "map" | "slice"; Kids = size arguments.
};

struct Expr {
  ExprKind K = ExprKind::NilLit;
  Pos P;
  std::string Str;
  int64_t IntValue = 0;
  bool BoolValue = false;
  std::vector<std::unique_ptr<Expr>> Kids;
  std::shared_ptr<FuncLit> Fn;
};

enum class StmtKind : uint8_t {
  Decl,        ///< Name := E.
  Assign,      ///< Name = E.
  IndexAssign, ///< E[E2] = E3.
  ExprStmt,    ///< E.
  If,          ///< E, Body, ElseBody (else-if nests an If in ElseBody).
  For,         ///< Init?; E (cond)?; Post? { Body }.
  Go,          ///< go [Name label] E (a call).
  Defer,       ///< defer E (a call).
  Return,      ///< return E?.
  Send,        ///< E <- E2.
  Select,      ///< Cases.
  Break,
  Continue,
  BlockStmt,   ///< { Body }.
};

struct SelectCase {
  enum class Kind : uint8_t { Recv, Send, Default } K = Kind::Default;
  /// Recv with binding: `case v := <-ch:`; empty for a bare receive.
  std::string BindName;
  std::unique_ptr<Expr> Ch;  ///< Recv/Send channel.
  std::unique_ptr<Expr> Val; ///< Send value.
  Block Body;
  Pos P;
};

struct Stmt {
  StmtKind K = StmtKind::ExprStmt;
  Pos P;
  std::string Name; ///< Decl/Assign target; Go label.
  std::unique_ptr<Expr> E;
  std::unique_ptr<Expr> E2;
  std::unique_ptr<Expr> E3;
  std::unique_ptr<Stmt> Init; ///< For.
  std::unique_ptr<Stmt> Post; ///< For.
  Block Body;
  Block ElseBody;
  std::vector<SelectCase> Cases;
};

/// A parsed program: top-level functions only (no global variables — the
/// corpus patterns' "globals" are locals of an outer function, which is
/// also what keeps every shadow address run-local).
struct Program {
  std::string FileName = "program.grs";
  std::vector<std::shared_ptr<FuncLit>> Funcs;

  const FuncLit *findFunc(const std::string &Name) const {
    for (const auto &F : Funcs)
      if (F->Name == Name)
        return F.get();
    return nullptr;
  }
};

} // namespace lang
} // namespace grs

#endif // GRS_LANG_AST_H
