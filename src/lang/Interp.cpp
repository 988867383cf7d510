//===- lang/Interp.cpp - Tree-walking interpreter for grs -----------------===//

#include "lang/Interp.h"

#include "obs/Metrics.h"
#include "obs/Timeline.h"
#include "rt/Channel.h"
#include "rt/GoMap.h"
#include "rt/GoSlice.h"
#include "rt/Instr.h"
#include "rt/Select.h"
#include "rt/Sync.h"

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace grs;
using namespace grs::lang;

namespace {

struct Closure;

/// A grs runtime value. Fat struct instead of a variant so channel
/// payloads stay default-constructible (a closed, drained channel yields
/// the Nil value, grs's zero value).
struct Value {
  enum class Kind : uint8_t {
    Nil,
    Int,
    Bool,
    Str,
    Func,
    Chan,
    Map,
    Slice,
    Mutex,
    RWMutex,
    WaitGroup,
  };
  Kind K = Kind::Nil;
  int64_t I = 0;
  bool B = false;
  std::string S;
  std::shared_ptr<Closure> Fn;
  // Reference values: copying a Value shares the underlying rt object
  // (Go's map/chan reference semantics; grs slices are reference values
  // too — a deliberate simplification over Go's meta-copying slices).
  std::shared_ptr<rt::Chan<Value>> Ch;
  std::shared_ptr<rt::GoMap<std::string, Value>> M;
  std::shared_ptr<rt::GoSlice<Value>> Sl;
  std::shared_ptr<rt::Mutex> Mu;
  std::shared_ptr<rt::RWMutex> Rw;
  std::shared_ptr<rt::WaitGroup> Wg;
};

const char *kindName(Value::Kind K) {
  switch (K) {
  case Value::Kind::Nil:
    return "nil";
  case Value::Kind::Int:
    return "int";
  case Value::Kind::Bool:
    return "bool";
  case Value::Kind::Str:
    return "string";
  case Value::Kind::Func:
    return "func";
  case Value::Kind::Chan:
    return "chan";
  case Value::Kind::Map:
    return "map";
  case Value::Kind::Slice:
    return "slice";
  case Value::Kind::Mutex:
    return "mutex";
  case Value::Kind::RWMutex:
    return "rwmutex";
  case Value::Kind::WaitGroup:
    return "waitgroup";
  }
  return "value";
}

Value intValue(int64_t I) {
  Value V;
  V.K = Value::Kind::Int;
  V.I = I;
  return V;
}

Value boolValue(bool B) {
  Value V;
  V.K = Value::Kind::Bool;
  V.B = B;
  return V;
}

/// One grs variable: a detector-visible shadow address plus the value.
/// Closures that captured the declaring scope share the cell, so a write
/// through one goroutine's closure is the same detector address another
/// goroutine reads — by-reference capture, Observation 3.
struct Cell {
  race::StrId Name = race::NoName; ///< Interned once, at declaration.
  race::Addr A = 0;
  Value V;
};

struct Env {
  std::shared_ptr<Env> Parent;
  std::vector<std::pair<std::string, std::shared_ptr<Cell>>> Vars;
};

struct Closure {
  std::shared_ptr<const FuncLit> Fn;
  std::shared_ptr<Env> Captured; ///< Null for top-level functions.
};

enum class Flow : uint8_t { Normal, Break, Continue, Return };

/// Per-call state: the return slot and this call's deferred thunks
/// (evaluated arguments bound at defer time, run LIFO at function exit).
/// Lives on the C++ stack of the executing fiber — the interpreter keeps
/// NO per-execution state in shared members, because fibers preempt each
/// other mid-statement.
struct CallCtx {
  Value Ret;
  std::vector<std::function<void()>> Defers;
};

class Interp : public std::enable_shared_from_this<Interp> {
public:
  explicit Interp(std::shared_ptr<const Program> P) : Prog(std::move(P)) {}

  ~Interp() {
    // Break closure → env → cell → closure reference cycles so captured
    // environments free even when programs tie closures into knots.
    for (auto &E : AllEnvs)
      E->Vars.clear();
  }

  Interp(const Interp &) = delete;
  Interp &operator=(const Interp &) = delete;

  /// Goroutine-0 entry: must run inside rt::Runtime::run.
  void runMain() {
    RT = &rt::Runtime::current();
    if (obs::Registry *Reg = RT->metrics()) {
      CStatements = Reg->counter("grs_lang_statements_total");
      CCalls = Reg->counter("grs_lang_calls_total");
      CSpawns = Reg->counter("grs_lang_goroutines_total");
      CDefers = Reg->counter("grs_lang_defers_total");
      CSelects = Reg->counter("grs_lang_selects_total");
      CErrors = Reg->counter("grs_lang_runtime_errors_total");
    }
    auto Main = findTopLevel("main");
    if (!Main)
      RT->panicNow("grs: program has no func main");
    if (!Main->Params.empty())
      RT->panicNow("grs: func main must take no parameters");
    auto C = std::make_shared<Closure>();
    C->Fn = Main;
    // main pushes NO chain frame: its body runs at chain root, exactly
    // like a corpus::hostBody C++ lambda — required for twin parity.
    callClosure(C, {}, Main->P, /*PushFrame=*/false);
  }

private:
  std::shared_ptr<const Program> Prog;
  rt::Runtime *RT = nullptr;
  uint64_t SpawnSeq = 0;
  /// Per-goroutine interpreter call depth (bounds runaway recursion well
  /// before the 256 KiB fiber stack would overflow).
  std::unordered_map<race::Tid, int> Depth;
  /// Every environment ever created, for cycle-breaking in ~Interp.
  std::vector<std::shared_ptr<Env>> AllEnvs;
  obs::Counter *CStatements = nullptr;
  obs::Counter *CCalls = nullptr;
  obs::Counter *CSpawns = nullptr;
  obs::Counter *CDefers = nullptr;
  obs::Counter *CSelects = nullptr;
  obs::Counter *CErrors = nullptr;

  static constexpr int MaxCallDepth = 256;

  struct DepthGuard {
    Interp &In;
    race::Tid T;
    DepthGuard(Interp &In, Pos P) : In(In), T(In.RT->tid()) {
      if (++In.Depth[T] > MaxCallDepth) {
        --In.Depth[T];
        In.fail(P, "call depth limit exceeded");
      }
    }
    ~DepthGuard() { --In.Depth[T]; }
  };

  //===------------------------------------------------------------------===//
  // Errors
  //===------------------------------------------------------------------===//

  /// A grs-level type/lookup error: counted, then raised as a Go panic at
  /// the offending source position so the run (not the sweep) dies.
  [[noreturn]] void fail(Pos P, const std::string &Msg) {
    obs::inc(CErrors);
    RT->panicNow("grs: " + Prog->FileName + ":" + std::to_string(P.Line) +
                 ":" + std::to_string(P.Col) + ": " + Msg);
  }

  int64_t wantInt(const Value &V, Pos P, const char *What) {
    if (V.K != Value::Kind::Int)
      fail(P, std::string(What) + " requires an int, got " + kindName(V.K));
    return V.I;
  }

  bool wantBool(const Value &V, Pos P, const char *What) {
    if (V.K != Value::Kind::Bool)
      fail(P, std::string(What) + " requires a bool, got " + kindName(V.K));
    return V.B;
  }

  //===------------------------------------------------------------------===//
  // Environments
  //===------------------------------------------------------------------===//

  std::shared_ptr<Env> newEnv(std::shared_ptr<Env> Parent) {
    auto E = std::make_shared<Env>();
    E->Parent = std::move(Parent);
    AllEnvs.push_back(E);
    return E;
  }

  std::shared_ptr<Cell> findCell(const std::shared_ptr<Env> &E,
                                 const std::string &Name) {
    for (Env *Cur = E.get(); Cur; Cur = Cur->Parent.get())
      for (const auto &[N, C] : Cur->Vars)
        if (N == Name)
          return C;
    return nullptr;
  }

  /// `name := value`: a fresh cell with a fresh shadow address, written
  /// (instrumented). Re-declaring in the same scope replaces the binding
  /// (documented grs deviation; Go would reject it).
  void declare(const std::shared_ptr<Env> &E, const std::string &Name,
               Value V) {
    auto C = std::make_shared<Cell>();
    C->Name = RT->intern(Name);
    C->A = RT->allocAddr();
    RT->write(C->A, C->Name);
    C->V = std::move(V);
    for (auto &[N, Slot] : E->Vars)
      if (N == Name) {
        Slot = std::move(C);
        return;
      }
    E->Vars.emplace_back(Name, std::move(C));
  }

  std::shared_ptr<const FuncLit> findTopLevel(const std::string &Name) {
    for (const auto &F : Prog->Funcs)
      if (F->Name == Name)
        return F;
    return nullptr;
  }

  //===------------------------------------------------------------------===//
  // Calls
  //===------------------------------------------------------------------===//

  Value callClosure(const std::shared_ptr<Closure> &C, std::vector<Value> Args,
                    Pos CallP, bool PushFrame) {
    obs::inc(CCalls);
    if (!C || !C->Fn)
      fail(CallP, "call of nil function");
    DepthGuard DG(*this, CallP);
    const FuncLit &Fn = *C->Fn;
    if (Args.size() != Fn.Params.size())
      fail(CallP, "wrong argument count calling " +
                      (Fn.Name.empty() ? std::string("func literal")
                                       : "'" + Fn.Name + "'") +
                      ": want " + std::to_string(Fn.Params.size()) +
                      ", got " + std::to_string(Args.size()));
    auto E = newEnv(C->Captured);
    CallCtx Ctx;
    // Named functions (top-level or literal) push a call-chain frame, the
    // interpreter's stand-in for compiler-inserted FuncScope
    // instrumentation; anonymous literals are chain-invisible, matching
    // the C++ twins' plain lambdas. The frame pops AFTER the defers run
    // (twins declare Defer inside the FuncScope).
    std::optional<rt::FuncScope> Scope;
    if (PushFrame && !Fn.Name.empty())
      Scope.emplace(Fn.Name, Prog->FileName, Fn.P.Line);
    for (size_t I = 0; I < Args.size(); ++I)
      declare(E, Fn.Params[I], std::move(Args[I]));
    try {
      execBlock(Fn.Body, E, Ctx);
    } catch (const rt::GoPanic &) {
      // Panic unwind still runs this call's defers (Go semantics); a
      // secondary panic from a defer is swallowed so the original
      // propagates. rt::AbortFiber is NOT caught here: teardown skips
      // defers and unwinds straight through.
      while (!Ctx.Defers.empty()) {
        auto Thunk = std::move(Ctx.Defers.back());
        Ctx.Defers.pop_back();
        try {
          Thunk();
        } catch (const rt::GoPanic &) {
        }
      }
      throw;
    }
    while (!Ctx.Defers.empty()) {
      auto Thunk = std::move(Ctx.Defers.back());
      Ctx.Defers.pop_back();
      Thunk(); // A panic here propagates (skipping older defers).
    }
    return std::move(Ctx.Ret);
  }

  //===------------------------------------------------------------------===//
  // Builtins and methods
  //===------------------------------------------------------------------===//

  static bool isBuiltin(const std::string &N) {
    return N == "len" || N == "cap" || N == "append" || N == "delete" ||
           N == "close" || N == "panic" || N == "mutex" || N == "rwmutex" ||
           N == "waitgroup";
  }

  std::string display(const Value &V) {
    switch (V.K) {
    case Value::Kind::Nil:
      return "nil";
    case Value::Kind::Int:
      return std::to_string(V.I);
    case Value::Kind::Bool:
      return V.B ? "true" : "false";
    case Value::Kind::Str:
      return V.S;
    default:
      return kindName(V.K);
    }
  }

  std::string encodeKey(const Value &V, Pos P) {
    switch (V.K) {
    case Value::Kind::Int:
      return "i:" + std::to_string(V.I);
    case Value::Kind::Str:
      return "s:" + V.S;
    case Value::Kind::Bool:
      return V.B ? "b:1" : "b:0";
    default:
      fail(P, std::string("invalid map key type ") + kindName(V.K));
    }
  }

  Value callBuiltin(const std::string &Name, std::vector<Value> Args, Pos P) {
    auto arity = [&](size_t N) {
      if (Args.size() != N)
        fail(P, Name + "() takes " + std::to_string(N) + " argument(s), got " +
                    std::to_string(Args.size()));
    };
    if (Name == "len") {
      arity(1);
      const Value &V = Args[0];
      switch (V.K) {
      case Value::Kind::Str:
        return intValue(static_cast<int64_t>(V.S.size()));
      case Value::Kind::Map:
        return intValue(static_cast<int64_t>(V.M->len()));
      case Value::Kind::Slice:
        return intValue(static_cast<int64_t>(V.Sl->len()));
      case Value::Kind::Chan:
        return intValue(static_cast<int64_t>(V.Ch->len()));
      default:
        fail(P, std::string("len() of ") + kindName(V.K));
      }
    }
    if (Name == "cap") {
      arity(1);
      const Value &V = Args[0];
      if (V.K == Value::Kind::Chan)
        return intValue(static_cast<int64_t>(V.Ch->cap()));
      if (V.K == Value::Kind::Slice)
        return intValue(static_cast<int64_t>(V.Sl->capacity()));
      fail(P, std::string("cap() of ") + kindName(V.K));
    }
    if (Name == "append") {
      if (Args.size() < 2)
        fail(P, "append() needs a slice and at least one value");
      if (Args[0].K != Value::Kind::Slice)
        fail(P, std::string("append() to ") + kindName(Args[0].K));
      for (size_t I = 1; I < Args.size(); ++I)
        Args[0].Sl->append(std::move(Args[I]));
      return Args[0]; // In-place (reference value); returned for `s = append(s, v)`.
    }
    if (Name == "delete") {
      arity(2);
      if (Args[0].K != Value::Kind::Map)
        fail(P, std::string("delete() from ") + kindName(Args[0].K));
      Args[0].M->erase(encodeKey(Args[1], P));
      return Value();
    }
    if (Name == "close") {
      arity(1);
      if (Args[0].K != Value::Kind::Chan)
        fail(P, std::string("close() of ") + kindName(Args[0].K));
      Args[0].Ch->close();
      return Value();
    }
    if (Name == "panic") {
      arity(1);
      RT->panicNow("panic: " + display(Args[0]));
    }
    // Sync-object constructors. Optional string argument names the object
    // in detector diagnostics (cosmetic; fingerprints ignore it).
    auto ctorName = [&](const char *Default) -> std::string {
      if (Args.empty())
        return Default;
      arity(1);
      if (Args[0].K != Value::Kind::Str)
        fail(P, Name + "() name must be a string");
      return Args[0].S;
    };
    if (Name == "mutex") {
      Value V;
      V.K = Value::Kind::Mutex;
      V.Mu = std::make_shared<rt::Mutex>(ctorName("mutex"));
      return V;
    }
    if (Name == "rwmutex") {
      Value V;
      V.K = Value::Kind::RWMutex;
      V.Rw = std::make_shared<rt::RWMutex>(ctorName("rwmutex"));
      return V;
    }
    if (Name == "waitgroup") {
      Value V;
      V.K = Value::Kind::WaitGroup;
      V.Wg = std::make_shared<rt::WaitGroup>(ctorName("waitgroup"));
      return V;
    }
    fail(P, "undefined: " + Name);
  }

  Value methodOn(const Value &Recv, const std::string &Name,
                 std::vector<Value> Args, Pos P) {
    auto arity = [&](size_t N) {
      if (Args.size() != N)
        fail(P, "." + Name + "() takes " + std::to_string(N) +
                    " argument(s), got " + std::to_string(Args.size()));
    };
    switch (Recv.K) {
    case Value::Kind::Mutex:
      if (Name == "lock") {
        arity(0);
        Recv.Mu->lock();
        return Value();
      }
      if (Name == "unlock") {
        arity(0);
        Recv.Mu->unlock();
        return Value();
      }
      if (Name == "trylock") {
        arity(0);
        return boolValue(Recv.Mu->tryLock());
      }
      break;
    case Value::Kind::RWMutex:
      if (Name == "lock") {
        arity(0);
        Recv.Rw->lock();
        return Value();
      }
      if (Name == "unlock") {
        arity(0);
        Recv.Rw->unlock();
        return Value();
      }
      if (Name == "rlock") {
        arity(0);
        Recv.Rw->rlock();
        return Value();
      }
      if (Name == "runlock") {
        arity(0);
        Recv.Rw->runlock();
        return Value();
      }
      break;
    case Value::Kind::WaitGroup:
      if (Name == "add") {
        arity(1);
        Recv.Wg->add(static_cast<int>(wantInt(Args[0], P, ".add()")));
        return Value();
      }
      if (Name == "done") {
        arity(0);
        Recv.Wg->done();
        return Value();
      }
      if (Name == "wait") {
        arity(0);
        Recv.Wg->wait();
        return Value();
      }
      break;
    case Value::Kind::Chan:
      if (Name == "close") {
        arity(0);
        Recv.Ch->close();
        return Value();
      }
      break;
    case Value::Kind::Map:
      if (Name == "contains") {
        arity(1);
        return boolValue(Recv.M->contains(encodeKey(Args[0], P)));
      }
      break;
    default:
      break;
    }
    fail(P, std::string("unknown method .") + Name + " on " +
                kindName(Recv.K));
  }

  //===------------------------------------------------------------------===//
  // Expressions
  //===------------------------------------------------------------------===//

  std::vector<Value> evalArgs(const Expr &CallE,
                              const std::shared_ptr<Env> &Env) {
    std::vector<Value> Args;
    for (size_t I = 1; I < CallE.Kids.size(); ++I)
      Args.push_back(eval(*CallE.Kids[I], Env));
    return Args;
  }

  Value eval(const Expr &E, const std::shared_ptr<Env> &Env) {
    switch (E.K) {
    case ExprKind::IntLit:
      return intValue(E.IntValue);
    case ExprKind::BoolLit:
      return boolValue(E.BoolValue);
    case ExprKind::StrLit: {
      Value V;
      V.K = Value::Kind::Str;
      V.S = E.Str;
      return V;
    }
    case ExprKind::NilLit:
      return Value();
    case ExprKind::Ident: {
      if (auto C = findCell(Env, E.Str)) {
        RT->read(C->A, C->Name);
        return C->V;
      }
      if (auto F = findTopLevel(E.Str)) {
        Value V;
        V.K = Value::Kind::Func;
        V.Fn = std::make_shared<Closure>();
        V.Fn->Fn = F;
        return V;
      }
      fail(E.P, "undefined: " + E.Str);
    }
    case ExprKind::Unary: {
      Value V = eval(*E.Kids[0], Env);
      if (E.Str == "!")
        return boolValue(!wantBool(V, E.P, "operator !"));
      return intValue(-wantInt(V, E.P, "unary -"));
    }
    case ExprKind::Binary:
      return evalBinary(E, Env);
    case ExprKind::Call: {
      const Expr &CalleeE = *E.Kids[0];
      if (CalleeE.K == ExprKind::Ident && !findCell(Env, CalleeE.Str) &&
          !findTopLevel(CalleeE.Str))
        return callBuiltin(CalleeE.Str, evalArgs(E, Env), E.P);
      Value Callee = eval(CalleeE, Env);
      if (Callee.K != Value::Kind::Func)
        fail(E.P, std::string("cannot call ") + kindName(Callee.K));
      return callClosure(Callee.Fn, evalArgs(E, Env), E.P,
                         /*PushFrame=*/true);
    }
    case ExprKind::Method: {
      Value Recv = eval(*E.Kids[0], Env);
      return methodOn(Recv, E.Str, evalArgs(E, Env), E.P);
    }
    case ExprKind::Index: {
      Value C = eval(*E.Kids[0], Env);
      Value Ix = eval(*E.Kids[1], Env);
      if (C.K == Value::Kind::Map)
        return C.M->get(encodeKey(Ix, E.P)); // Missing key → nil, silently.
      if (C.K == Value::Kind::Slice) {
        int64_t I = wantInt(Ix, E.P, "slice index");
        if (I < 0)
          RT->panicNow("runtime error: index out of range");
        return C.Sl->get(static_cast<size_t>(I));
      }
      fail(E.P, std::string("cannot index ") + kindName(C.K));
    }
    case ExprKind::Recv: {
      Value Ch = eval(*E.Kids[0], Env);
      if (Ch.K != Value::Kind::Chan)
        fail(E.P, std::string("receive from ") + kindName(Ch.K));
      return Ch.Ch->recv().first;
    }
    case ExprKind::Func: {
      Value V;
      V.K = Value::Kind::Func;
      V.Fn = std::make_shared<Closure>();
      V.Fn->Fn = E.Fn;
      V.Fn->Captured = Env; // By-reference capture: shares the live cells.
      return V;
    }
    case ExprKind::Make:
      return evalMake(E, Env, E.Str);
    }
    return Value();
  }

  Value evalBinary(const Expr &E, const std::shared_ptr<Env> &Env) {
    const std::string &Op = E.Str;
    if (Op == "&&" || Op == "||") {
      bool L = wantBool(eval(*E.Kids[0], Env), E.P, Op.c_str());
      if (Op == "&&" && !L)
        return boolValue(false);
      if (Op == "||" && L)
        return boolValue(true);
      return boolValue(wantBool(eval(*E.Kids[1], Env), E.P, Op.c_str()));
    }
    Value L = eval(*E.Kids[0], Env);
    Value R = eval(*E.Kids[1], Env);
    if (Op == "==" || Op == "!=") {
      bool Eq;
      if (L.K == Value::Kind::Nil || R.K == Value::Kind::Nil)
        Eq = L.K == R.K;
      else if (L.K != R.K)
        fail(E.P, std::string("cannot compare ") + kindName(L.K) + " with " +
                      kindName(R.K));
      else
        switch (L.K) {
        case Value::Kind::Int:
          Eq = L.I == R.I;
          break;
        case Value::Kind::Bool:
          Eq = L.B == R.B;
          break;
        case Value::Kind::Str:
          Eq = L.S == R.S;
          break;
        default:
          fail(E.P, std::string(kindName(L.K)) + " values are not comparable");
        }
      return boolValue(Op == "==" ? Eq : !Eq);
    }
    if (Op == "+" && L.K == Value::Kind::Str && R.K == Value::Kind::Str) {
      Value V;
      V.K = Value::Kind::Str;
      V.S = L.S + R.S;
      return V;
    }
    int64_t A = wantInt(L, E.P, Op.c_str());
    int64_t B = wantInt(R, E.P, Op.c_str());
    if (Op == "+")
      return intValue(A + B);
    if (Op == "-")
      return intValue(A - B);
    if (Op == "*")
      return intValue(A * B);
    if (Op == "/" || Op == "%") {
      if (B == 0)
        RT->panicNow("runtime error: integer divide by zero");
      return intValue(Op == "/" ? A / B : A % B);
    }
    if (Op == "<")
      return boolValue(A < B);
    if (Op == "<=")
      return boolValue(A <= B);
    if (Op == ">")
      return boolValue(A > B);
    return boolValue(A >= B); // >=
  }

  /// make(chan|map|slice, ...). \p Name labels the rt object in reports
  /// (the declared variable's name when reachable from a `x := make(...)`).
  Value evalMake(const Expr &E, const std::shared_ptr<Env> &Env,
                 const std::string &Name) {
    Value V;
    if (E.Str == "chan") {
      int64_t Cap = 0;
      if (!E.Kids.empty())
        Cap = wantInt(eval(*E.Kids[0], Env), E.P, "chan capacity");
      if (Cap < 0)
        fail(E.P, "negative channel capacity");
      V.K = Value::Kind::Chan;
      V.Ch = std::make_shared<rt::Chan<Value>>(static_cast<size_t>(Cap),
                                               Name);
      return V;
    }
    if (E.Str == "map") {
      if (!E.Kids.empty())
        fail(E.P, "make(map) takes no size");
      V.K = Value::Kind::Map;
      V.M = std::make_shared<rt::GoMap<std::string, Value>>(Name);
      return V;
    }
    // slice
    int64_t Len = 0, Cap = -1;
    if (!E.Kids.empty())
      Len = wantInt(eval(*E.Kids[0], Env), E.P, "slice length");
    if (E.Kids.size() > 1)
      Cap = wantInt(eval(*E.Kids[1], Env), E.P, "slice capacity");
    if (Len < 0 || (Cap >= 0 && Cap < Len))
      fail(E.P, "invalid slice length/capacity");
    V.K = Value::Kind::Slice;
    V.Sl = std::make_shared<rt::GoSlice<Value>>(rt::GoSlice<Value>::make(
        Name, static_cast<size_t>(Len),
        static_cast<size_t>(Cap < 0 ? Len : Cap)));
    return V;
  }

  //===------------------------------------------------------------------===//
  // Statements
  //===------------------------------------------------------------------===//

  Flow execBlock(const Block &B, const std::shared_ptr<Env> &Env,
                 CallCtx &Ctx) {
    for (const auto &S : B.Stmts) {
      Flow F = execStmt(*S, Env, Ctx);
      if (F != Flow::Normal)
        return F;
    }
    return Flow::Normal;
  }

  Flow execStmt(const Stmt &S, const std::shared_ptr<Env> &Env,
                CallCtx &Ctx) {
    obs::inc(CStatements);
    // Per-statement line marker (the interpreter's stand-in for debug
    // locations); a no-op at chain root, where no frame is pushed.
    RT->det().setLine(RT->tid(), S.P.Line);
    switch (S.K) {
    case StmtKind::Decl: {
      Value V = S.E->K == ExprKind::Make ? evalMake(*S.E, Env, S.Name)
                                         : eval(*S.E, Env);
      declare(Env, S.Name, std::move(V));
      return Flow::Normal;
    }
    case StmtKind::Assign: {
      Value V = eval(*S.E, Env);
      auto C = findCell(Env, S.Name);
      if (!C)
        fail(S.P, "undefined: " + S.Name + " (declare with ':=')");
      RT->write(C->A, C->Name);
      C->V = std::move(V);
      return Flow::Normal;
    }
    case StmtKind::IndexAssign: {
      Value Cont = eval(*S.E, Env);
      Value Ix = eval(*S.E2, Env);
      Value V = eval(*S.E3, Env);
      if (Cont.K == Value::Kind::Map) {
        Cont.M->set(encodeKey(Ix, S.P), std::move(V));
        return Flow::Normal;
      }
      if (Cont.K == Value::Kind::Slice) {
        int64_t I = wantInt(Ix, S.P, "slice index");
        if (I < 0)
          RT->panicNow("runtime error: index out of range");
        Cont.Sl->set(static_cast<size_t>(I), std::move(V));
        return Flow::Normal;
      }
      fail(S.P, std::string("cannot index-assign ") + kindName(Cont.K));
    }
    case StmtKind::ExprStmt:
      eval(*S.E, Env);
      return Flow::Normal;
    case StmtKind::If: {
      if (wantBool(eval(*S.E, Env), S.P, "if condition"))
        return execBlock(S.Body, newEnv(Env), Ctx);
      if (!S.ElseBody.Stmts.empty())
        return execBlock(S.ElseBody, newEnv(Env), Ctx);
      return Flow::Normal;
    }
    case StmtKind::For: {
      auto LoopEnv = newEnv(Env);
      if (S.Init) {
        Flow F = execStmt(*S.Init, LoopEnv, Ctx);
        if (F != Flow::Normal)
          return F;
      }
      for (;;) {
        // Every iteration is a scheduling point, so `for {}` burns steps
        // instead of wedging the scheduler (MaxSteps then ends the run).
        RT->preemptPoint();
        if (S.E && !wantBool(eval(*S.E, LoopEnv), S.P, "for condition"))
          break;
        Flow F = execBlock(S.Body, newEnv(LoopEnv), Ctx);
        if (F == Flow::Break)
          break;
        if (F == Flow::Return)
          return F;
        if (S.Post) {
          Flow PF = execStmt(*S.Post, LoopEnv, Ctx);
          if (PF != Flow::Normal)
            return PF;
        }
      }
      return Flow::Normal;
    }
    case StmtKind::Go:
      execGo(S, Env);
      return Flow::Normal;
    case StmtKind::Defer:
      execDefer(S, Env, Ctx);
      return Flow::Normal;
    case StmtKind::Return:
      if (S.E)
        Ctx.Ret = eval(*S.E, Env);
      return Flow::Return;
    case StmtKind::Send: {
      Value Ch = eval(*S.E, Env);
      if (Ch.K != Value::Kind::Chan)
        fail(S.P, std::string("send to ") + kindName(Ch.K));
      Value V = eval(*S.E2, Env);
      Ch.Ch->send(std::move(V));
      return Flow::Normal;
    }
    case StmtKind::Select:
      return execSelect(S, Env, Ctx);
    case StmtKind::Break:
      return Flow::Break;
    case StmtKind::Continue:
      return Flow::Continue;
    case StmtKind::BlockStmt:
      return execBlock(S.Body, newEnv(Env), Ctx);
    }
    return Flow::Normal;
  }

  /// `go [label] f(args)`: callee, receiver and arguments evaluate NOW in
  /// the spawning goroutine (Go's rule); only the body runs concurrently.
  /// The spawned thunk keeps the interpreter alive via shared_ptr — a
  /// leaked goroutine may outlive main's interpreter call.
  void execGo(const Stmt &S, const std::shared_ptr<Env> &Env) {
    obs::inc(CSpawns);
    const Expr &CallE = *S.E;
    std::string Label =
        S.Name.empty() ? "goroutine-" + std::to_string(++SpawnSeq) : S.Name;
    auto Self = shared_from_this();
    if (CallE.K == ExprKind::Method) {
      Value Recv = eval(*CallE.Kids[0], Env);
      std::vector<Value> Args = evalArgs(CallE, Env);
      std::string Name = CallE.Str;
      Pos P = CallE.P;
      RT->go(Label, [Self, Recv, Name, Args, P]() mutable {
        Self->methodOn(Recv, Name, std::move(Args), P);
      });
      return;
    }
    const Expr &CalleeE = *CallE.Kids[0];
    if (CalleeE.K == ExprKind::Ident && !findCell(Env, CalleeE.Str) &&
        !findTopLevel(CalleeE.Str)) {
      std::string Name = CalleeE.Str;
      std::vector<Value> Args = evalArgs(CallE, Env);
      Pos P = CallE.P;
      RT->go(Label, [Self, Name, Args, P]() mutable {
        Self->callBuiltin(Name, std::move(Args), P);
      });
      return;
    }
    Value Callee = eval(CalleeE, Env);
    if (Callee.K != Value::Kind::Func)
      fail(S.P, std::string("go requires a function call, cannot call ") +
                    kindName(Callee.K));
    std::vector<Value> Args = evalArgs(CallE, Env);
    auto Fn = Callee.Fn;
    Pos P = CallE.P;
    RT->go(Label, [Self, Fn, Args, P]() mutable {
      Self->callClosure(Fn, std::move(Args), P, /*PushFrame=*/true);
    });
  }

  /// `defer f(args)`: receiver/callee/arguments evaluate NOW; the call
  /// itself is pushed onto the enclosing FUNCTION's defer stack (LIFO at
  /// exit), regardless of block nesting — Go semantics.
  void execDefer(const Stmt &S, const std::shared_ptr<Env> &Env,
                 CallCtx &Ctx) {
    obs::inc(CDefers);
    const Expr &CallE = *S.E;
    if (CallE.K == ExprKind::Method) {
      Value Recv = eval(*CallE.Kids[0], Env);
      std::vector<Value> Args = evalArgs(CallE, Env);
      std::string Name = CallE.Str;
      Pos P = CallE.P;
      Ctx.Defers.push_back([this, Recv, Name, Args, P]() mutable {
        methodOn(Recv, Name, std::move(Args), P);
      });
      return;
    }
    const Expr &CalleeE = *CallE.Kids[0];
    if (CalleeE.K == ExprKind::Ident && !findCell(Env, CalleeE.Str) &&
        !findTopLevel(CalleeE.Str)) {
      std::string Name = CalleeE.Str;
      std::vector<Value> Args = evalArgs(CallE, Env);
      Pos P = CallE.P;
      Ctx.Defers.push_back([this, Name, Args, P]() mutable {
        callBuiltin(Name, std::move(Args), P);
      });
      return;
    }
    Value Callee = eval(CalleeE, Env);
    if (Callee.K != Value::Kind::Func)
      fail(S.P, std::string("defer requires a function call, cannot call ") +
                    kindName(Callee.K));
    std::vector<Value> Args = evalArgs(CallE, Env);
    auto Fn = Callee.Fn;
    Pos P = CallE.P;
    Ctx.Defers.push_back([this, Fn, Args, P]() mutable {
      callClosure(Fn, std::move(Args), P, /*PushFrame=*/true);
    });
  }

  Flow execSelect(const Stmt &S, const std::shared_ptr<Env> &Env,
                  CallCtx &Ctx) {
    obs::inc(CSelects);
    rt::Selector Sel;
    Flow Result = Flow::Normal;
    // Channel operands (and send values) evaluate up front, in case
    // order, as in Go. Keep holds the channel references alive across
    // run() — the Selector stores only raw Chan&.
    std::vector<Value> Keep;
    Keep.reserve(S.Cases.size());
    const SelectCase *DefaultCase = nullptr;
    for (const auto &C : S.Cases) {
      if (C.K == SelectCase::Kind::Default) {
        DefaultCase = &C;
        continue;
      }
      Value ChV = eval(*C.Ch, Env);
      if (ChV.K != Value::Kind::Chan)
        fail(C.P, std::string("select case on ") + kindName(ChV.K));
      Keep.push_back(ChV);
      rt::Chan<Value> &Ch = *ChV.Ch;
      const SelectCase *CC = &C;
      if (C.K == SelectCase::Kind::Recv) {
        Sel.onRecv(Ch, std::function<void(Value, bool)>(
                           [this, CC, &Env, &Ctx, &Result](Value V, bool) {
                             auto CaseEnv = newEnv(Env);
                             if (!CC->BindName.empty())
                               declare(CaseEnv, CC->BindName, std::move(V));
                             Result = execBlock(CC->Body, CaseEnv, Ctx);
                           }));
      } else {
        Value SendV = eval(*C.Val, Env);
        Sel.onSend(Ch, std::move(SendV),
                   std::function<void()>([this, CC, &Env, &Ctx, &Result]() {
                     Result = execBlock(CC->Body, newEnv(Env), Ctx);
                   }));
      }
    }
    if (DefaultCase)
      Sel.onDefault([this, DefaultCase, &Env, &Ctx, &Result]() {
        Result = execBlock(DefaultCase->Body, newEnv(Env), Ctx);
      });
    Sel.run();
    if (Result == Flow::Break)
      return Flow::Normal; // break inside select exits the select only.
    return Result;
  }
};

} // namespace

std::function<void()> lang::body(std::shared_ptr<const Program> P) {
  return [P]() {
    auto In = std::make_shared<Interp>(P);
    In->runMain();
  };
}

rt::RunResult lang::run(std::shared_ptr<const Program> P, rt::Runtime &RT) {
  // Flight recorder: interpretation rides the run's timeline lane when
  // the caller wired one through RunOptions. The span brackets the whole
  // scheduler run, so a sweep slot's trace shows where the interpreted
  // program's time went.
  obs::TimelineTrack *Track = RT.options().TimelineTrack;
  obs::TimelineScope Tl =
      Track ? obs::TimelineScope(Track, "interpret",
                                 "\"seed\":" +
                                     std::to_string(RT.options().Seed))
            : obs::TimelineScope();
  return RT.run(body(std::move(P)));
}

rt::RunResult lang::run(const Program &P, rt::Runtime &RT) {
  // Non-owning alias; the caller guarantees P outlives RT.
  return run(std::shared_ptr<const Program>(std::shared_ptr<const Program>(),
                                            &P),
             RT);
}

std::function<rt::RunResult(const rt::RunOptions &)>
lang::runner(std::shared_ptr<const Program> P) {
  return [P](const rt::RunOptions &Opts) {
    rt::Runtime RT(Opts);
    obs::TimelineScope Tl =
        Opts.TimelineTrack
            ? obs::TimelineScope(Opts.TimelineTrack, "interpret",
                                 "\"seed\":" + std::to_string(Opts.Seed))
            : obs::TimelineScope();
    return RT.run(body(P));
  };
}
