#include "src/expr/compiled.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>

#include "src/common/logging.h"
#include "src/obs/metrics.h"

namespace iceberg {

namespace {

bool InitialPlanCacheEnabled() {
  const char* env = std::getenv("ICEBERG_PLAN_CACHE");
  return env == nullptr || env[0] != '0';
}

std::atomic<bool> g_plan_cache_enabled{InitialPlanCacheEnabled()};

// ----- CVal helpers ---------------------------------------------------------

inline CVal NullCV() { return CVal{}; }

inline CVal IntCV(int64_t v) {
  CVal c;
  c.tag = CVal::kInt;
  c.i = v;
  return c;
}

inline CVal DoubleCV(double v) {
  CVal c;
  c.tag = CVal::kDouble;
  c.d = v;
  return c;
}

inline CVal BoolCV(bool v) { return IntCV(v ? 1 : 0); }

inline CVal FromValue(const Value& v) {
  // Single dispatch on the variant index; Value's alternative order matches
  // the CVal tag order (NULL, int, double, string) by construction.
  CVal c;
  switch (v.tag()) {
    case 1:
      c.tag = CVal::kInt;
      c.i = v.int_unchecked();
      break;
    case 2:
      c.tag = CVal::kDouble;
      c.d = v.double_unchecked();
      break;
    case 3:
      c.tag = CVal::kStr;
      c.s = &v.string_unchecked();
      break;
    default:
      break;  // NULL
  }
  return c;
}

inline Value ToValue(const CVal& c) {
  switch (c.tag) {
    case CVal::kNull:
      return Value::Null();
    case CVal::kInt:
      return Value::Int(c.i);
    case CVal::kDouble:
      return Value::Double(c.d);
    case CVal::kStr:
      return Value::Str(*c.s);
  }
  return Value::Null();
}

inline double AsDoubleCV(const CVal& c) {
  return c.tag == CVal::kInt ? static_cast<double>(c.i) : c.d;
}

/// Value::AsBool semantics: NULL false, strings non-empty, numerics
/// non-zero.
inline bool Truthy(const CVal& c) {
  switch (c.tag) {
    case CVal::kNull:
      return false;
    case CVal::kInt:
      return c.i != 0;
    case CVal::kDouble:
      return c.d != 0.0;
    case CVal::kStr:
      return !c.s->empty();
  }
  return false;
}

/// Mirrors Value::Compare for non-NULL operands: numerics by value with
/// int<->double coercion, numerics before strings, strings bytewise.
inline int CompareCV(const CVal& l, const CVal& r) {
  const bool ln = l.tag == CVal::kInt || l.tag == CVal::kDouble;
  const bool rn = r.tag == CVal::kInt || r.tag == CVal::kDouble;
  if (ln && rn) {
    if (l.tag == CVal::kInt && r.tag == CVal::kInt) {
      return l.i < r.i ? -1 : (l.i > r.i ? 1 : 0);
    }
    double a = AsDoubleCV(l);
    double b = AsDoubleCV(r);
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (ln) return -1;
  if (rn) return 1;
  int c = l.s->compare(*r.s);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

/// Lowers a comparison operator to its acceptance mask: bit (c+1) is set
/// when the operator passes for Compare() result c in {-1, 0, 1}.
inline uint8_t MaskOf(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return 0b010;
    case BinaryOp::kNe:
      return 0b101;
    case BinaryOp::kLt:
      return 0b001;
    case BinaryOp::kLe:
      return 0b011;
    case BinaryOp::kGt:
      return 0b100;
    case BinaryOp::kGe:
      return 0b110;
    default:
      ICEBERG_CHECK(false);
      return 0;
  }
}

inline bool ApplyMask(uint8_t mask, int c) { return (mask >> (c + 1)) & 1; }

/// Three-valued result of a fused column-vs-int64-constant comparison.
inline CVal CmpColConstIntCV(const ExprInstr& in, const Row& row) {
  const Value& col = row[static_cast<size_t>(in.a)];
  switch (col.tag()) {
    case 1: {
      int64_t v = col.int_unchecked();
      int c = (v > in.imm) - (v < in.imm);
      return BoolCV(ApplyMask(in.cmask, c));
    }
    case 2: {
      double v = col.double_unchecked();
      double b = static_cast<double>(in.imm);
      int c = (v > b) - (v < b);
      return BoolCV(ApplyMask(in.cmask, c));
    }
    case 3:
      // Strings order after numerics (Value::Compare).
      return BoolCV(ApplyMask(in.cmask, 1));
    default:
      return NullCV();
  }
}

/// Three-valued result of a fused column-vs-column comparison.
inline CVal CmpColColCV(const ExprInstr& in, const Row& row) {
  const Value& lv = row[static_cast<size_t>(in.a)];
  const Value& rv = row[static_cast<size_t>(in.b)];
  // Int-int is the dominant residual shape; compare branchlessly.
  if (lv.tag() == 1 && rv.tag() == 1) {
    int64_t a = lv.int_unchecked();
    int64_t b = rv.int_unchecked();
    return BoolCV(ApplyMask(in.cmask, (a > b) - (a < b)));
  }
  const CVal l = FromValue(lv);
  const CVal r = FromValue(rv);
  if (l.tag == CVal::kNull || r.tag == CVal::kNull) return NullCV();
  return BoolCV(ApplyMask(in.cmask, CompareCV(l, r)));
}

/// Kleene combine of the not-short-circuited AND case: definite false
/// dominates NULL.
inline CVal AndCombineCV(const CVal& l, const CVal& r) {
  if (r.tag != CVal::kNull && !Truthy(r)) return BoolCV(false);
  if (l.tag == CVal::kNull || r.tag == CVal::kNull) return NullCV();
  return BoolCV(true);
}

inline CVal OrCombineCV(const CVal& l, const CVal& r) {
  if (r.tag != CVal::kNull && Truthy(r)) return BoolCV(true);
  if (l.tag == CVal::kNull || r.tag == CVal::kNull) return NullCV();
  return BoolCV(false);
}

/// Symmetric Kleene combines for linear (batch) execution. The scalar
/// AndCombineCV/OrCombineCV above assume the left value was canonicalized
/// by the preceding short-circuit jump; in batch mode the jumps are no-ops,
/// so the left value can be a non-canonical definite-false (AND) or
/// definite-true (OR) and both operands must be inspected. Equivalent to
/// short-circuit evaluation because programs are pure.
inline CVal AndCombineSymCV(const CVal& l, const CVal& r) {
  const bool lf = l.tag != CVal::kNull && !Truthy(l);
  const bool rf = r.tag != CVal::kNull && !Truthy(r);
  if (lf || rf) return BoolCV(false);
  if (l.tag == CVal::kNull || r.tag == CVal::kNull) return NullCV();
  return BoolCV(true);
}

inline CVal OrCombineSymCV(const CVal& l, const CVal& r) {
  const bool lt = l.tag != CVal::kNull && Truthy(l);
  const bool rt = r.tag != CVal::kNull && Truthy(r);
  if (lt || rt) return BoolCV(true);
  if (l.tag == CVal::kNull || r.tag == CVal::kNull) return NullCV();
  return BoolCV(false);
}

/// Lifts a columnar cell to a stack value. ColCell's tag order matches
/// CVal's by construction (both mirror Value's alternative order).
inline CVal CellCV(const ColCell& c) {
  CVal v;
  v.tag = static_cast<CVal::Tag>(c.tag);
  switch (c.tag) {
    case 1:
      v.i = c.i;
      break;
    case 2:
      v.d = c.d;
      break;
    case 3:
      v.s = c.s;
      break;
    default:
      break;
  }
  return v;
}

/// CmpColConstIntCV over an already-lifted operand (batch lanes).
inline CVal CmpConstIntLaneCV(const ExprInstr& in, const CVal& col) {
  switch (col.tag) {
    case CVal::kInt: {
      const int c = (col.i > in.imm) - (col.i < in.imm);
      return BoolCV(ApplyMask(in.cmask, c));
    }
    case CVal::kDouble: {
      const double b = static_cast<double>(in.imm);
      const int c = (col.d > b) - (col.d < b);
      return BoolCV(ApplyMask(in.cmask, c));
    }
    case CVal::kStr:
      return BoolCV(ApplyMask(in.cmask, 1));
    default:
      return NullCV();
  }
}

/// General masked comparison over lifted operands (batch lanes).
inline CVal CmpLaneCV(uint8_t cmask, const CVal& l, const CVal& r) {
  if (l.tag == CVal::kNull || r.tag == CVal::kNull) return NullCV();
  if (l.tag == CVal::kInt && r.tag == CVal::kInt) {
    return BoolCV(ApplyMask(cmask, (l.i > r.i) - (l.i < r.i)));
  }
  return BoolCV(ApplyMask(cmask, CompareCV(l, r)));
}

/// Arithmetic with the interpreter's coercions: NULL (or the string
/// carve-out) yields NULL, int op int stays int, anything else promotes to
/// double; division is always double and yields NULL on a zero divisor.
inline CVal ArithCV(BinaryOp op, const CVal& l, const CVal& r) {
  if (l.tag == CVal::kNull || r.tag == CVal::kNull || l.tag == CVal::kStr ||
      r.tag == CVal::kStr) {
    return NullCV();
  }
  switch (op) {
    case BinaryOp::kAdd:
      if (l.tag == CVal::kInt && r.tag == CVal::kInt) return IntCV(l.i + r.i);
      return DoubleCV(AsDoubleCV(l) + AsDoubleCV(r));
    case BinaryOp::kSub:
      if (l.tag == CVal::kInt && r.tag == CVal::kInt) return IntCV(l.i - r.i);
      return DoubleCV(AsDoubleCV(l) - AsDoubleCV(r));
    case BinaryOp::kMul:
      if (l.tag == CVal::kInt && r.tag == CVal::kInt) return IntCV(l.i * r.i);
      return DoubleCV(AsDoubleCV(l) * AsDoubleCV(r));
    case BinaryOp::kDiv: {
      double d = AsDoubleCV(r);
      return d == 0.0 ? NullCV() : DoubleCV(AsDoubleCV(l) / d);
    }
    default:
      ICEBERG_CHECK(false);
      return NullCV();
  }
}

// ----- compile-time analysis ------------------------------------------------

bool HasColumnOrAgg(const Expr& e) {
  if (e.kind == ExprKind::kColumnRef || e.kind == ExprKind::kAggregate) {
    return true;
  }
  for (const ExprPtr& c : e.children) {
    if (c != nullptr && HasColumnOrAgg(*c)) return true;
  }
  return false;
}

/// True when the subtree can be folded by the reference interpreter without
/// touching a row: no columns/aggregates, and no arithmetic/negation over a
/// string literal (which would throw in Evaluate).
bool SafeToFold(const Expr& e) {
  if (HasColumnOrAgg(e)) return false;
  if (e.kind == ExprKind::kBinary && !IsComparisonOp(e.bop) &&
      e.bop != BinaryOp::kAnd && e.bop != BinaryOp::kOr) {
    for (const ExprPtr& c : e.children) {
      if (c->kind == ExprKind::kLiteral && c->literal.is_string()) {
        return false;
      }
    }
  }
  if (e.kind == ExprKind::kUnary && e.uop == UnaryOp::kNeg &&
      e.children[0]->kind == ExprKind::kLiteral &&
      e.children[0]->literal.is_string()) {
    return false;
  }
  for (const ExprPtr& c : e.children) {
    if (c != nullptr && !SafeToFold(*c)) return false;
  }
  return true;
}

}  // namespace

bool PlanCacheEnabled() {
  return g_plan_cache_enabled.load(std::memory_order_relaxed);
}

void SetPlanCacheEnabled(bool enabled) {
  g_plan_cache_enabled.store(enabled, std::memory_order_relaxed);
}

// ----- compiler -------------------------------------------------------------

namespace {

class Compiler {
 public:
  /// `params` maps parameter literal nodes to their slot; non-null enables
  /// parameterized mode (program templates for the plan cache).
  explicit Compiler(const std::unordered_map<const Expr*, int>* params)
      : params_(params) {}

  void Emit(const Expr& e) {
    // Constant folding: literal-only subtrees evaluate once at compile
    // time (division by zero folds to NULL like the interpreter). In
    // parameterized mode folding is suppressed wholesale: a foldable
    // subtree is literal-only, so folding would bake parameter values
    // into the program where Rebind could no longer reach them.
    if (params_ == nullptr && e.kind != ExprKind::kLiteral && SafeToFold(e)) {
      Row empty;
      PushConst(Evaluate(e, empty));
      return;
    }
    switch (e.kind) {
      case ExprKind::kLiteral: {
        const int slot = ParamSlotOf(e);
        if (slot >= 0) {
          PushParamConst(e.literal, slot);
        } else {
          PushConst(e.literal);
        }
        return;
      }
      case ExprKind::kColumnRef: {
        ICEBERG_DCHECK(e.resolved_index >= 0);
        ExprInstr in;
        in.op = ExprOp::kPushColumn;
        in.a = e.resolved_index;
        Push(in, +1);
        return;
      }
      case ExprKind::kAggregate: {
        ExprInstr in;
        in.op = ExprOp::kPushAgg;
        in.agg = &e;
        Push(in, +1);
        return;
      }
      case ExprKind::kUnary: {
        Emit(*e.children[0]);
        ExprInstr in;
        in.op = e.uop == UnaryOp::kNot ? ExprOp::kNot : ExprOp::kNeg;
        Push(in, 0);
        return;
      }
      case ExprKind::kBinary:
        EmitBinary(e);
        return;
    }
  }

  /// Parameter slot of a literal node, -1 when it is not a parameter.
  int ParamSlotOf(const Expr& e) const {
    if (params_ == nullptr || e.kind != ExprKind::kLiteral) return -1;
    auto it = params_->find(&e);
    return it == params_->end() ? -1 : it->second;
  }

  std::vector<ExprInstr> code;
  std::vector<Value> consts;
  std::vector<std::pair<int32_t, int32_t>> const_slots;  // pool idx → slot
  size_t max_depth = 0;
  size_t fused = 0;

 private:
  void Push(ExprInstr in, int delta) {
    code.push_back(in);
    depth_ += delta;
    if (static_cast<size_t>(depth_) > max_depth) {
      max_depth = static_cast<size_t>(depth_);
    }
  }

  void PushConst(Value v) {
    // Pool dedup keeps programs with repeated literals small. Parameter
    // pool entries are excluded: patching one must never alias another
    // use of the same value.
    for (size_t i = 0; i < consts.size(); ++i) {
      if (i < is_param_const_.size() && is_param_const_[i]) continue;
      if (consts[i].type() == v.type() &&
          (consts[i].is_null() || consts[i].Compare(v) == 0)) {
        ExprInstr in;
        in.op = ExprOp::kPushConst;
        in.a = static_cast<int32_t>(i);
        Push(in, +1);
        return;
      }
    }
    consts.push_back(std::move(v));
    is_param_const_.push_back(0);
    ExprInstr in;
    in.op = ExprOp::kPushConst;
    in.a = static_cast<int32_t>(consts.size() - 1);
    Push(in, +1);
  }

  /// A parameter literal always gets a private pool entry plus a bind-site
  /// record so Rebind can patch it in place.
  void PushParamConst(const Value& v, int slot) {
    consts.push_back(v);
    is_param_const_.push_back(1);
    const int32_t pool = static_cast<int32_t>(consts.size() - 1);
    const_slots.emplace_back(pool, slot);
    ExprInstr in;
    in.op = ExprOp::kPushConst;
    in.a = pool;
    Push(in, +1);
  }

  void EmitBinary(const Expr& e) {
    const Expr& l = *e.children[0];
    const Expr& r = *e.children[1];
    if (e.bop == BinaryOp::kAnd || e.bop == BinaryOp::kOr) {
      // Short-circuit block: [L] JumpIfDecided [R] Combine. The jump
      // canonicalizes the decided value (FALSE for AND, TRUE for OR) and
      // skips the right side, exactly matching the interpreter's order of
      // evaluation.
      Emit(l);
      size_t jump_at = code.size();
      ExprInstr j;
      j.op = e.bop == BinaryOp::kAnd ? ExprOp::kAndJump : ExprOp::kOrJump;
      Push(j, 0);
      Emit(r);
      ExprInstr c;
      c.op = e.bop == BinaryOp::kAnd ? ExprOp::kAndCombine
                                     : ExprOp::kOrCombine;
      Push(c, -1);
      code[jump_at].a = static_cast<int32_t>(code.size());
      return;
    }
    if (IsComparisonOp(e.bop)) {
      // Fused fast paths for the hot shapes of join residuals: column vs
      // int64 constant and column vs column.
      if (l.kind == ExprKind::kColumnRef && r.kind == ExprKind::kLiteral &&
          r.literal.is_int()) {
        ExprInstr in;
        in.op = ExprOp::kCmpColConstInt;
        in.bop = e.bop;
        in.cmask = MaskOf(e.bop);
        in.a = l.resolved_index;
        in.imm = r.literal.AsInt();
        in.imm_slot = ParamSlotOf(r);
        Push(in, +1);
        ++fused;
        return;
      }
      if (r.kind == ExprKind::kColumnRef && l.kind == ExprKind::kLiteral &&
          l.literal.is_int()) {
        ExprInstr in;
        in.op = ExprOp::kCmpColConstInt;
        in.bop = FlipComparison(e.bop);
        in.cmask = MaskOf(in.bop);
        in.a = r.resolved_index;
        in.imm = l.literal.AsInt();
        in.imm_slot = ParamSlotOf(l);
        Push(in, +1);
        ++fused;
        return;
      }
      if (l.kind == ExprKind::kColumnRef && r.kind == ExprKind::kColumnRef) {
        ExprInstr in;
        in.op = ExprOp::kCmpColCol;
        in.bop = e.bop;
        in.cmask = MaskOf(e.bop);
        in.a = l.resolved_index;
        in.b = r.resolved_index;
        Push(in, +1);
        ++fused;
        return;
      }
      Emit(l);
      Emit(r);
      ExprInstr in;
      in.op = ExprOp::kCompare;
      in.bop = e.bop;
      in.cmask = MaskOf(e.bop);
      Push(in, -1);
      return;
    }
    Emit(l);
    Emit(r);
    ExprInstr in;
    in.bop = e.bop;  // ArithCV dispatches on this in the merged super-ops
    switch (e.bop) {
      case BinaryOp::kAdd:
        in.op = ExprOp::kAdd;
        break;
      case BinaryOp::kSub:
        in.op = ExprOp::kSub;
        break;
      case BinaryOp::kMul:
        in.op = ExprOp::kMul;
        break;
      case BinaryOp::kDiv:
        in.op = ExprOp::kDiv;
        break;
      default:
        ICEBERG_CHECK(false);
    }
    Push(in, -1);
  }

  const std::unordered_map<const Expr*, int>* params_ = nullptr;
  std::vector<char> is_param_const_;
  int depth_ = 0;
};

/// Merges adjacent instructions into super-ops: fused comparisons absorb a
/// following Kleene combine, and pushes feeding arithmetic or a general
/// comparison collapse into in-place ops. A window is only merged when no
/// jump lands strictly inside it (jump targets at the window start re-run
/// the whole merged op, which is the original semantics); targets are then
/// remapped onto the rewritten stream. One left-to-right pass suffices for
/// the left-leaning chains the parser produces: a merged op is itself the
/// "top" producer for the next window.
void PeepholeOptimize(std::vector<ExprInstr>* code) {
  auto is_arith = [](const ExprInstr& in) {
    return in.op == ExprOp::kAdd || in.op == ExprOp::kSub ||
           in.op == ExprOp::kMul || in.op == ExprOp::kDiv;
  };
  auto is_jump = [](const ExprInstr& in) {
    return in.op == ExprOp::kAndJump || in.op == ExprOp::kOrJump;
  };
  const size_t n = code->size();
  std::vector<char> is_target(n + 1, 0);
  for (const ExprInstr& in : *code) {
    if (is_jump(in)) is_target[static_cast<size_t>(in.a)] = 1;
  }
  std::vector<ExprInstr> out;
  out.reserve(n);
  std::vector<int32_t> remap(n + 1, -1);
  size_t i = 0;
  while (i < n) {
    remap[i] = static_cast<int32_t>(out.size());
    const ExprInstr& a = (*code)[i];
    if (i + 2 < n && !is_target[i + 1] && !is_target[i + 2] &&
        a.op == ExprOp::kPushColumn &&
        (*code)[i + 1].op == ExprOp::kPushColumn &&
        is_arith((*code)[i + 2])) {
      ExprInstr m = (*code)[i + 2];
      m.op = ExprOp::kArithColCol;
      m.a = a.a;
      m.b = (*code)[i + 1].a;
      out.push_back(m);
      i += 3;
      continue;
    }
    if (i + 1 < n && !is_target[i + 1]) {
      const ExprInstr& b = (*code)[i + 1];
      ExprInstr m;
      bool merged = true;
      if (a.op == ExprOp::kPushColumn && is_arith(b)) {
        m = b;
        m.op = ExprOp::kArithTopCol;
        m.a = a.a;
      } else if (a.op == ExprOp::kPushConst && is_arith(b)) {
        m = b;
        m.op = ExprOp::kArithTopConst;
        m.a = a.a;
      } else if (a.op == ExprOp::kPushConst && b.op == ExprOp::kCompare) {
        m = b;
        m.op = ExprOp::kCmpTopConst;
        m.a = a.a;
      } else if (a.op == ExprOp::kPushColumn && b.op == ExprOp::kCompare) {
        m = b;
        m.op = ExprOp::kCmpTopCol;
        m.a = a.a;
      } else if (a.op == ExprOp::kCmpColConstInt &&
                 (b.op == ExprOp::kAndCombine ||
                  b.op == ExprOp::kOrCombine)) {
        m = a;
        m.op = b.op == ExprOp::kAndCombine ? ExprOp::kAndCombineCmpCI
                                           : ExprOp::kOrCombineCmpCI;
      } else if (a.op == ExprOp::kCmpColCol &&
                 (b.op == ExprOp::kAndCombine ||
                  b.op == ExprOp::kOrCombine)) {
        m = a;
        m.op = b.op == ExprOp::kAndCombine ? ExprOp::kAndCombineCmpCC
                                           : ExprOp::kOrCombineCmpCC;
      } else {
        merged = false;
      }
      if (merged) {
        out.push_back(m);
        i += 2;
        continue;
      }
    }
    out.push_back(a);
    ++i;
  }
  remap[n] = static_cast<int32_t>(out.size());
  for (ExprInstr& in : out) {
    if (is_jump(in)) in.a = remap[static_cast<size_t>(in.a)];
  }
  *code = std::move(out);
}

}  // namespace

CompiledExpr CompiledExpr::BuildProgram(
    const Expr& e, const std::unordered_map<const Expr*, int>* params) {
  Compiler c(params);
  c.Emit(e);
  PeepholeOptimize(&c.code);
  CompiledExpr prog;
  prog.code_ = std::move(c.code);
  prog.consts_ = std::move(c.consts);
  prog.const_slots_ = std::move(c.const_slots);
  prog.max_stack_ = c.max_depth;
  prog.fused_ops_ = c.fused;
  prog.const_cvals_.reserve(prog.consts_.size());
  for (const Value& v : prog.consts_) {
    prog.const_cvals_.push_back(FromValue(v));  // string ptrs now stable
  }
  prog.batchable_ = true;
  for (const ExprInstr& in : prog.code_) {
    if (in.op == ExprOp::kPushAgg) prog.batchable_ = false;
  }
  // Zone checks come from the expression *tree*, not the instruction
  // stream: only top-level AND conjuncts may refute a whole chunk (a
  // comparison under an OR or NOT says nothing about the conjunction).
  std::function<void(const Expr&)> collect = [&](const Expr& node) {
    if (node.kind == ExprKind::kBinary && node.bop == BinaryOp::kAnd) {
      collect(*node.children[0]);
      collect(*node.children[1]);
      return;
    }
    if (node.kind != ExprKind::kBinary || !IsComparisonOp(node.bop)) return;
    const Expr& l = *node.children[0];
    const Expr& r = *node.children[1];
    auto numeric_literal = [](const Expr& x) {
      return x.kind == ExprKind::kLiteral &&
             (x.literal.is_int() || x.literal.is_double());
    };
    ZoneCheck zc;
    if (l.kind == ExprKind::kColumnRef && r.kind == ExprKind::kColumnRef) {
      zc.col_col = true;
      zc.a = l.resolved_index;
      zc.b = r.resolved_index;
      zc.cmask = MaskOf(node.bop);
      prog.zone_checks_.push_back(zc);
      return;
    }
    const Expr* col = nullptr;
    const Expr* lit = nullptr;
    BinaryOp bop = node.bop;
    if (l.kind == ExprKind::kColumnRef && numeric_literal(r)) {
      col = &l;
      lit = &r;
    } else if (r.kind == ExprKind::kColumnRef && numeric_literal(l)) {
      col = &r;
      lit = &l;
      bop = FlipComparison(bop);  // normalize to col CMP literal
    } else {
      return;
    }
    zc.a = col->resolved_index;
    zc.cmask = MaskOf(bop);
    if (params != nullptr) {
      auto it = params->find(lit);
      if (it != params->end()) zc.imm_slot = it->second;
    }
    if (lit->literal.is_int()) {
      zc.imm_i = lit->literal.AsInt();
      zc.imm_d = static_cast<double>(zc.imm_i);
    } else {
      zc.imm_is_double = true;
      zc.imm_d = lit->literal.AsDouble();
    }
    if (std::isnan(zc.imm_d)) return;  // NaN never refutes anything
    prog.zone_checks_.push_back(zc);
  };
  collect(e);
  return prog;
}

// ----- program template cache -----------------------------------------------

namespace {

/// Process-wide MRU-bounded cache of parameterized program templates keyed
/// by ParamShapeSignature. Templates are immutable once published (held by
/// shared_ptr<const>; per-entry recency stamps are atomics bumped under the
/// shared lock), so lookups run concurrently and Rebind never touches
/// shared state. The key is a pure function of the bound expression's
/// structure — no catalog state — so entries never need invalidation.
class TemplateCache {
 public:
  static constexpr size_t kMaxEntries = 256;

  std::shared_ptr<const CompiledExpr> Lookup(const std::string& sig) {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = map_.find(sig);
    if (it == map_.end()) return nullptr;
    it->second->stamp.store(NextStamp(), std::memory_order_relaxed);
    return it->second->tmpl;
  }

  void Insert(const std::string& sig,
              std::shared_ptr<const CompiledExpr> tmpl) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (map_.count(sig) > 0) return;  // lost a race; keep the incumbent
    if (map_.size() >= kMaxEntries) {
      auto victim = map_.begin();
      uint64_t oldest = UINT64_MAX;
      for (auto it = map_.begin(); it != map_.end(); ++it) {
        const uint64_t s = it->second->stamp.load(std::memory_order_relaxed);
        if (s < oldest) {
          oldest = s;
          victim = it;
        }
      }
      map_.erase(victim);
      ICEBERG_COUNTER("plan_cache.program_evictions")->Increment();
    }
    auto entry = std::make_shared<Entry>();
    entry->tmpl = std::move(tmpl);
    entry->stamp.store(NextStamp(), std::memory_order_relaxed);
    map_.emplace(sig, std::move(entry));
  }

  void Clear() {
    std::unique_lock<std::shared_mutex> lock(mu_);
    map_.clear();
  }

 private:
  struct Entry {
    std::shared_ptr<const CompiledExpr> tmpl;
    std::atomic<uint64_t> stamp{0};
  };

  uint64_t NextStamp() {
    return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::shared_mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> map_;
  std::atomic<uint64_t> clock_{0};
};

TemplateCache& GlobalTemplateCache() {
  static TemplateCache* cache = new TemplateCache;  // leaked: process-wide
  return *cache;
}

}  // namespace

void ClearProgramTemplateCache() { GlobalTemplateCache().Clear(); }

CompiledExpr CompiledExpr::CompileTemplate(
    const Expr& e, const std::vector<const Expr*>& literals,
    const std::vector<const Expr*>& aggregates) {
  std::unordered_map<const Expr*, int> params;
  params.reserve(literals.size());
  for (size_t i = 0; i < literals.size(); ++i) {
    params.emplace(literals[i], static_cast<int>(i));
  }
  CompiledExpr prog = BuildProgram(e, &params);
  prog.param_count_ = literals.size();
  prog.agg_count_ = aggregates.size();
  // Aggregate slot table, built against the *final* instruction stream so
  // it is immune to any emission or peephole reordering: the k-th
  // aggregate-bearing instruction (in code order) reads parameter slot
  // agg_slots_[k].
  std::unordered_map<const Expr*, int> agg_of;
  agg_of.reserve(aggregates.size());
  for (size_t i = 0; i < aggregates.size(); ++i) {
    agg_of.emplace(aggregates[i], static_cast<int>(i));
  }
  for (const ExprInstr& in : prog.code_) {
    if (in.agg == nullptr) continue;
    auto it = agg_of.find(in.agg);
    ICEBERG_CHECK(it != agg_of.end());
    prog.agg_slots_.push_back(it->second);
  }
  return prog;
}

CompiledExpr CompiledExpr::Rebind(
    const std::vector<const Expr*>& literals,
    const std::vector<const Expr*>& aggregates) const {
  if (literals.size() != param_count_ || aggregates.size() != agg_count_) {
    return CompiledExpr();  // invalid; caller falls back to a fresh compile
  }
  CompiledExpr out;
  out.code_ = code_;
  out.consts_ = consts_;
  out.max_stack_ = max_stack_;
  out.fused_ops_ = fused_ops_;
  out.batchable_ = batchable_;
  out.const_slots_ = const_slots_;
  out.agg_slots_ = agg_slots_;
  out.param_count_ = param_count_;
  out.agg_count_ = agg_count_;
  for (const auto& [pool, slot] : const_slots_) {
    out.consts_[static_cast<size_t>(pool)] =
        literals[static_cast<size_t>(slot)]->literal;
  }
  // const_cvals_ must borrow from *this program's* pool, never the
  // template's (the template may be evicted while this program runs).
  out.const_cvals_.reserve(out.consts_.size());
  for (const Value& v : out.consts_) out.const_cvals_.push_back(FromValue(v));
  size_t agg_k = 0;
  for (ExprInstr& in : out.code_) {
    if (in.agg != nullptr) {
      if (agg_k >= agg_slots_.size()) return CompiledExpr();
      in.agg = aggregates[static_cast<size_t>(agg_slots_[agg_k++])];
    }
    if (in.imm_slot >= 0) {
      const Value& v = literals[static_cast<size_t>(in.imm_slot)]->literal;
      if (!v.is_int()) return CompiledExpr();  // signature mismatch
      in.imm = v.AsInt();
    }
  }
  std::vector<ZoneCheck> checks;
  checks.reserve(zone_checks_.size());
  for (ZoneCheck zc : zone_checks_) {
    if (zc.imm_slot >= 0) {
      const Value& v = literals[static_cast<size_t>(zc.imm_slot)]->literal;
      if (v.is_int()) {
        zc.imm_is_double = false;
        zc.imm_i = v.AsInt();
        zc.imm_d = static_cast<double>(zc.imm_i);
      } else if (v.is_double()) {
        zc.imm_is_double = true;
        zc.imm_d = v.AsDouble();
      } else {
        return CompiledExpr();  // signature mismatch
      }
      if (std::isnan(zc.imm_d)) continue;  // NaN must never refute
    }
    checks.push_back(zc);
  }
  out.zone_checks_ = std::move(checks);
  return out;
}

namespace {

/// True when the expression reads any row or group input (a column ref or
/// an aggregate) — i.e. it is not a pure constant.
bool ReferencesData(const Expr& e) {
  if (e.kind == ExprKind::kColumnRef || e.kind == ExprKind::kAggregate) {
    return true;
  }
  for (const ExprPtr& c : e.children) {
    if (c != nullptr && ReferencesData(*c)) return true;
  }
  return false;
}

}  // namespace

CompiledExpr CompiledExpr::Compile(const Expr& e) {
  if (!PlanCacheEnabled()) return BuildProgram(e, nullptr);
  std::vector<const Expr*> literals;
  std::vector<const Expr*> aggregates;
  CollectParamNodes(e, &literals, &aggregates);
  // Nothing to re-bind: template and program would coincide, so the cache
  // buys nothing over a plain compile.
  if (literals.empty()) return BuildProgram(e, nullptr);
  // A pure-constant expression (no column or aggregate input) folds to a
  // single push; parameterizing it would trade that for an interpreted
  // arithmetic chain. Let folding have it.
  if (!ReferencesData(e)) return BuildProgram(e, nullptr);
  const std::string sig = ParamShapeSignature(e);
  std::shared_ptr<const CompiledExpr> tmpl = GlobalTemplateCache().Lookup(sig);
  if (tmpl != nullptr) {
    CompiledExpr prog = tmpl->Rebind(literals, aggregates);
    if (prog.valid()) {
      ICEBERG_COUNTER("plan_cache.program_hits")->Increment();
      ICEBERG_COUNTER("plan_cache.rebinds")->Increment();
      return prog;
    }
    // Structural mismatch despite an equal signature cannot happen, but
    // fall back to a fresh compile rather than trust a wrong template.
  }
  ICEBERG_COUNTER("plan_cache.program_misses")->Increment();
  auto built =
      std::make_shared<CompiledExpr>(CompileTemplate(e, literals, aggregates));
  // The hit and miss paths must produce the *same* program (template shape,
  // not the folded plain shape), so even the first execution of a shape
  // returns the rebound instantiation.
  CompiledExpr prog = built->Rebind(literals, aggregates);
  ICEBERG_DCHECK(prog.valid());
  GlobalTemplateCache().Insert(sig, std::move(built));
  return prog;
}

namespace {

/// One side of a zone check, lowered to a (possibly degenerate) numeric
/// interval, a NULL, or a string. `known` is false when the side carries
/// no usable zone information.
struct ZoneSide {
  bool known = false;
  bool is_null = false;   // scalar NULL, or an all-NULL chunk column
  bool is_str = false;    // string scalar (chunk string columns are unknown)
  bool int_only = false;  // the int64 bounds are exact
  int64_t lo_i = 0, hi_i = 0;
  double lo_d = 0.0, hi_d = 0.0;
};

ZoneSide ZoneOfSlot(int32_t slot, size_t base, const Row* partial,
                    const ColumnChunk& chunk) {
  ZoneSide z;
  if (static_cast<size_t>(slot) < base) {
    if (partial == nullptr) return z;
    const Value& v = (*partial)[static_cast<size_t>(slot)];
    switch (v.tag()) {
      case 1:
        z.known = true;
        z.int_only = true;
        z.lo_i = z.hi_i = v.int_unchecked();
        z.lo_d = z.hi_d = static_cast<double>(z.lo_i);
        break;
      case 2: {
        const double d = v.double_unchecked();
        if (std::isnan(d)) return z;
        z.known = true;
        z.lo_d = z.hi_d = d;
        break;
      }
      case 3:
        z.known = true;
        z.is_str = true;
        break;
      default:
        z.known = true;
        z.is_null = true;
        break;
    }
    return z;
  }
  const ChunkColumn& col = chunk.cols[static_cast<size_t>(slot) - base];
  if (col.kind == ChunkColumn::kAllNull) {
    z.known = true;
    z.is_null = true;
    return z;
  }
  if (!col.zone_valid) return z;
  z.known = true;
  z.int_only = col.zone_int;
  z.lo_i = col.min_i;
  z.hi_i = col.max_i;
  z.lo_d = col.min_d;
  z.hi_d = col.max_d;
  return z;
}

/// Possible Compare() outcomes {-1, 0, +1} between values drawn from the
/// two intervals, as an acceptance-mask-compatible bitset.
uint8_t PossibleOutcomes(const ZoneSide& l, const ZoneSide& r) {
  if (l.is_str && r.is_str) return 0b111;  // no string zones: anything
  if (l.is_str) return 0b100;              // strings order after numerics
  if (r.is_str) return 0b001;
  bool lt, eq, gt;
  if (l.int_only && r.int_only) {
    lt = l.lo_i < r.hi_i;
    eq = l.lo_i <= r.hi_i && r.lo_i <= l.hi_i;
    gt = l.hi_i > r.lo_i;
  } else {
    lt = l.lo_d < r.hi_d;
    eq = l.lo_d <= r.hi_d && r.lo_d <= l.hi_d;
    gt = l.hi_d > r.lo_d;
  }
  return static_cast<uint8_t>((lt ? 0b001 : 0) | (eq ? 0b010 : 0) |
                              (gt ? 0b100 : 0));
}

}  // namespace

bool CompiledExpr::ZoneRefutes(const ColumnChunk& chunk, size_t base,
                               const Row* partial) const {
  for (const ZoneCheck& zc : zone_checks_) {
    ZoneSide l = ZoneOfSlot(zc.a, base, partial, chunk);
    if (!l.known) continue;
    ZoneSide r;
    if (zc.col_col) {
      r = ZoneOfSlot(zc.b, base, partial, chunk);
      if (!r.known) continue;
    } else {
      r.known = true;
      r.int_only = !zc.imm_is_double;
      r.lo_i = r.hi_i = zc.imm_i;
      r.lo_d = r.hi_d = zc.imm_d;
    }
    // A NULL side makes the conjunct NULL for every row, which a predicate
    // rejects — the whole chunk is refuted.
    if (l.is_null || r.is_null) return true;
    if ((PossibleOutcomes(l, r) & zc.cmask) == 0) return true;
  }
  return false;
}

size_t CompiledExpr::FilterBatch(const ColumnChunk& chunk, size_t base,
                                 const Row* partial, const uint32_t* sel,
                                 size_t n, uint32_t* out,
                                 BatchScratch* scratch) const {
  ICEBERG_DCHECK(valid() && batchable_);
  if (n == 0) return 0;

  // Whole-program fast paths: the dominant residual shapes (one fused
  // comparison) run as tight loops over the dense typed lanes, writing the
  // selection vector directly with no per-lane tag dispatch.
  if (code_.size() == 1) {
    const ExprInstr& in = code_[0];
    if (in.op == ExprOp::kCmpColConstInt &&
        static_cast<size_t>(in.a) >= base) {
      const ChunkColumn& col = chunk.cols[static_cast<size_t>(in.a) - base];
      const uint8_t cmask = in.cmask;
      if (!col.ints.empty()) {
        const int64_t* lanes = col.ints.data();
        const int64_t imm = in.imm;
        size_t m = 0;
        for (size_t k = 0; k < n; ++k) {
          const uint32_t lane = sel[k];
          const int64_t v = lanes[lane];
          out[m] = lane;
          m += (cmask >> ((v > imm) - (v < imm) + 1)) & 1u;
        }
        return m;
      }
      if (!col.dbls.empty()) {
        const double* lanes = col.dbls.data();
        const double imm = static_cast<double>(in.imm);
        size_t m = 0;
        for (size_t k = 0; k < n; ++k) {
          const uint32_t lane = sel[k];
          const double v = lanes[lane];
          out[m] = lane;
          m += (cmask >> ((v > imm) - (v < imm) + 1)) & 1u;
        }
        return m;
      }
    }
    if (in.op == ExprOp::kCmpColCol) {
      const uint8_t cmask = in.cmask;
      auto int_lanes = [&](int32_t slot) -> const int64_t* {
        if (static_cast<size_t>(slot) < base) return nullptr;
        const ChunkColumn& c = chunk.cols[static_cast<size_t>(slot) - base];
        return c.ints.empty() ? nullptr : c.ints.data();
      };
      const int64_t* la = int_lanes(in.a);
      const int64_t* lb = int_lanes(in.b);
      if (la != nullptr && lb != nullptr) {
        size_t m = 0;
        for (size_t k = 0; k < n; ++k) {
          const uint32_t lane = sel[k];
          const int64_t a = la[lane];
          const int64_t b = lb[lane];
          out[m] = lane;
          m += (cmask >> ((a > b) - (a < b) + 1)) & 1u;
        }
        return m;
      }
      // One side is an outer scalar: the block-NLJ Theta-join shape
      // (outer value vs every inner lane).
      auto outer_int = [&](int32_t slot, int64_t* v) {
        if (static_cast<size_t>(slot) >= base || partial == nullptr) {
          return false;
        }
        const Value& val = (*partial)[static_cast<size_t>(slot)];
        if (val.tag() != 1) return false;
        *v = val.int_unchecked();
        return true;
      };
      int64_t scalar = 0;
      if (lb != nullptr && outer_int(in.a, &scalar)) {
        size_t m = 0;
        for (size_t k = 0; k < n; ++k) {
          const uint32_t lane = sel[k];
          const int64_t b = lb[lane];
          out[m] = lane;
          m += (cmask >> ((scalar > b) - (scalar < b) + 1)) & 1u;
        }
        return m;
      }
      if (la != nullptr && outer_int(in.b, &scalar)) {
        size_t m = 0;
        for (size_t k = 0; k < n; ++k) {
          const uint32_t lane = sel[k];
          const int64_t a = la[lane];
          out[m] = lane;
          m += (cmask >> ((a > scalar) - (a < scalar) + 1)) & 1u;
        }
        return m;
      }
    }
  }

  // General path: instruction-major linear execution over a slot-major
  // lane matrix. Jumps are no-ops and combines are symmetric (see the
  // header contract); each opcode runs one tight loop over the selected
  // lanes.
  if (scratch->slots.size() < max_stack_ * n) {
    scratch->slots.resize(max_stack_ * n);
  }
  CVal* slots = scratch->slots.data();
  auto slot = [&](size_t s) { return slots + s * n; };

  struct Src {
    const ColCell* cells = nullptr;  // per-lane when non-null
    CVal scalar;                     // broadcast otherwise
  };
  auto resolve = [&](int32_t a) {
    Src s;
    if (static_cast<size_t>(a) < base) {
      ICEBERG_DCHECK(partial != nullptr);
      s.scalar = FromValue((*partial)[static_cast<size_t>(a)]);
    } else {
      s.cells = chunk.cols[static_cast<size_t>(a) - base].cells.data();
    }
    return s;
  };
  auto at = [&](const Src& s, uint32_t lane) {
    return s.cells == nullptr ? s.scalar : CellCV(s.cells[lane]);
  };

  size_t sp = 0;  // next free slot
  for (const ExprInstr& in : code_) {
    switch (in.op) {
      case ExprOp::kPushConst: {
        CVal* d = slot(sp++);
        const CVal c = const_cvals_[static_cast<size_t>(in.a)];
        for (size_t k = 0; k < n; ++k) d[k] = c;
        break;
      }
      case ExprOp::kPushColumn: {
        CVal* d = slot(sp++);
        const Src s = resolve(in.a);
        if (s.cells == nullptr) {
          for (size_t k = 0; k < n; ++k) d[k] = s.scalar;
        } else {
          for (size_t k = 0; k < n; ++k) d[k] = CellCV(s.cells[sel[k]]);
        }
        break;
      }
      case ExprOp::kPushAgg:
        ICEBERG_CHECK(false);  // excluded by batchable()
        break;
      case ExprOp::kCompare: {
        const CVal* r = slot(--sp);
        CVal* l = slot(sp - 1);
        for (size_t k = 0; k < n; ++k) l[k] = CmpLaneCV(in.cmask, l[k], r[k]);
        break;
      }
      case ExprOp::kAdd:
      case ExprOp::kSub:
      case ExprOp::kMul:
      case ExprOp::kDiv: {
        const CVal* r = slot(--sp);
        CVal* l = slot(sp - 1);
        for (size_t k = 0; k < n; ++k) l[k] = ArithCV(in.bop, l[k], r[k]);
        break;
      }
      case ExprOp::kNot: {
        CVal* v = slot(sp - 1);
        for (size_t k = 0; k < n; ++k) {
          v[k] = v[k].tag == CVal::kNull ? NullCV() : BoolCV(!Truthy(v[k]));
        }
        break;
      }
      case ExprOp::kNeg: {
        CVal* v = slot(sp - 1);
        for (size_t k = 0; k < n; ++k) {
          if (v[k].tag == CVal::kInt) {
            v[k] = IntCV(-v[k].i);
          } else if (v[k].tag == CVal::kDouble) {
            v[k] = DoubleCV(-v[k].d);
          } else {
            v[k] = NullCV();
          }
        }
        break;
      }
      case ExprOp::kAndJump:
      case ExprOp::kOrJump:
        break;  // linear execution; the symmetric combines subsume them
      case ExprOp::kAndCombine: {
        const CVal* r = slot(--sp);
        CVal* l = slot(sp - 1);
        for (size_t k = 0; k < n; ++k) l[k] = AndCombineSymCV(l[k], r[k]);
        break;
      }
      case ExprOp::kOrCombine: {
        const CVal* r = slot(--sp);
        CVal* l = slot(sp - 1);
        for (size_t k = 0; k < n; ++k) l[k] = OrCombineSymCV(l[k], r[k]);
        break;
      }
      case ExprOp::kCmpColConstInt: {
        CVal* d = slot(sp++);
        const Src s = resolve(in.a);
        if (s.cells == nullptr) {
          const CVal c = CmpConstIntLaneCV(in, s.scalar);
          for (size_t k = 0; k < n; ++k) d[k] = c;
        } else {
          for (size_t k = 0; k < n; ++k) {
            d[k] = CmpConstIntLaneCV(in, CellCV(s.cells[sel[k]]));
          }
        }
        break;
      }
      case ExprOp::kCmpColCol: {
        CVal* d = slot(sp++);
        const Src a = resolve(in.a);
        const Src b = resolve(in.b);
        for (size_t k = 0; k < n; ++k) {
          d[k] = CmpLaneCV(in.cmask, at(a, sel[k]), at(b, sel[k]));
        }
        break;
      }
      case ExprOp::kArithColCol: {
        CVal* d = slot(sp++);
        const Src a = resolve(in.a);
        const Src b = resolve(in.b);
        for (size_t k = 0; k < n; ++k) {
          d[k] = ArithCV(in.bop, at(a, sel[k]), at(b, sel[k]));
        }
        break;
      }
      case ExprOp::kArithTopCol: {
        CVal* l = slot(sp - 1);
        const Src a = resolve(in.a);
        for (size_t k = 0; k < n; ++k) {
          l[k] = ArithCV(in.bop, l[k], at(a, sel[k]));
        }
        break;
      }
      case ExprOp::kArithTopConst: {
        CVal* l = slot(sp - 1);
        const CVal c = const_cvals_[static_cast<size_t>(in.a)];
        for (size_t k = 0; k < n; ++k) l[k] = ArithCV(in.bop, l[k], c);
        break;
      }
      case ExprOp::kCmpTopConst: {
        CVal* l = slot(sp - 1);
        const CVal c = const_cvals_[static_cast<size_t>(in.a)];
        for (size_t k = 0; k < n; ++k) l[k] = CmpLaneCV(in.cmask, l[k], c);
        break;
      }
      case ExprOp::kCmpTopCol: {
        CVal* l = slot(sp - 1);
        const Src a = resolve(in.a);
        for (size_t k = 0; k < n; ++k) {
          l[k] = CmpLaneCV(in.cmask, l[k], at(a, sel[k]));
        }
        break;
      }
      case ExprOp::kAndCombineCmpCI: {
        CVal* l = slot(sp - 1);
        const Src a = resolve(in.a);
        for (size_t k = 0; k < n; ++k) {
          l[k] = AndCombineSymCV(l[k],
                                 CmpConstIntLaneCV(in, at(a, sel[k])));
        }
        break;
      }
      case ExprOp::kOrCombineCmpCI: {
        CVal* l = slot(sp - 1);
        const Src a = resolve(in.a);
        for (size_t k = 0; k < n; ++k) {
          l[k] = OrCombineSymCV(l[k], CmpConstIntLaneCV(in, at(a, sel[k])));
        }
        break;
      }
      case ExprOp::kAndCombineCmpCC: {
        CVal* l = slot(sp - 1);
        const Src a = resolve(in.a);
        const Src b = resolve(in.b);
        for (size_t k = 0; k < n; ++k) {
          l[k] = AndCombineSymCV(
              l[k], CmpLaneCV(in.cmask, at(a, sel[k]), at(b, sel[k])));
        }
        break;
      }
      case ExprOp::kOrCombineCmpCC: {
        CVal* l = slot(sp - 1);
        const Src a = resolve(in.a);
        const Src b = resolve(in.b);
        for (size_t k = 0; k < n; ++k) {
          l[k] = OrCombineSymCV(
              l[k], CmpLaneCV(in.cmask, at(a, sel[k]), at(b, sel[k])));
        }
        break;
      }
    }
  }
  ICEBERG_DCHECK(sp == 1);
  const CVal* top = slot(0);
  size_t m = 0;
  for (size_t k = 0; k < n; ++k) {
    if (Truthy(top[k])) out[m++] = sel[k];
  }
  return m;
}

const CVal* CompiledExpr::Execute(const Row& row, EvalScratch* scratch,
                                  const AggValueMap* agg_values) const {
  if (scratch->stack.size() < max_stack_) scratch->stack.resize(max_stack_);
  CVal* stack = scratch->stack.data();
  size_t sp = 0;  // next free slot
  const size_t n = code_.size();
  for (size_t pc = 0; pc < n; ++pc) {
    const ExprInstr& in = code_[pc];
    switch (in.op) {
      case ExprOp::kPushConst:
        stack[sp++] = const_cvals_[static_cast<size_t>(in.a)];
        break;
      case ExprOp::kPushColumn: {
        ICEBERG_DCHECK(static_cast<size_t>(in.a) < row.size());
        stack[sp++] = FromValue(row[static_cast<size_t>(in.a)]);
        break;
      }
      case ExprOp::kPushAgg: {
        ICEBERG_CHECK(agg_values != nullptr);
        auto it = agg_values->find(in.agg);
        ICEBERG_CHECK(it != agg_values->end());
        stack[sp++] = FromValue(it->second);
        break;
      }
      case ExprOp::kCompare: {
        const CVal r = stack[--sp];
        CVal& l = stack[sp - 1];
        if (l.tag == CVal::kNull || r.tag == CVal::kNull) {
          l = NullCV();
        } else {
          l = BoolCV(ApplyMask(in.cmask, CompareCV(l, r)));
        }
        break;
      }
      case ExprOp::kAdd:
      case ExprOp::kSub:
      case ExprOp::kMul:
      case ExprOp::kDiv: {
        const CVal r = stack[--sp];
        CVal& l = stack[sp - 1];
        l = ArithCV(in.bop, l, r);
        break;
      }
      case ExprOp::kNot: {
        CVal& v = stack[sp - 1];
        v = v.tag == CVal::kNull ? NullCV() : BoolCV(!Truthy(v));
        break;
      }
      case ExprOp::kNeg: {
        CVal& v = stack[sp - 1];
        if (v.tag == CVal::kInt) {
          v = IntCV(-v.i);
        } else if (v.tag == CVal::kDouble) {
          v = DoubleCV(-v.d);
        } else {
          v = NullCV();
        }
        break;
      }
      case ExprOp::kAndJump: {
        CVal& l = stack[sp - 1];
        if (l.tag != CVal::kNull && !Truthy(l)) {
          l = BoolCV(false);
          pc = static_cast<size_t>(in.a) - 1;
        }
        break;
      }
      case ExprOp::kOrJump: {
        CVal& l = stack[sp - 1];
        if (l.tag != CVal::kNull && Truthy(l)) {
          l = BoolCV(true);
          pc = static_cast<size_t>(in.a) - 1;
        }
        break;
      }
      case ExprOp::kAndCombine: {
        const CVal r = stack[--sp];
        CVal& l = stack[sp - 1];
        l = AndCombineCV(l, r);
        break;
      }
      case ExprOp::kOrCombine: {
        const CVal r = stack[--sp];
        CVal& l = stack[sp - 1];
        l = OrCombineCV(l, r);
        break;
      }
      case ExprOp::kCmpColConstInt:
        stack[sp++] = CmpColConstIntCV(in, row);
        break;
      case ExprOp::kCmpColCol:
        stack[sp++] = CmpColColCV(in, row);
        break;
      case ExprOp::kArithColCol: {
        const CVal l = FromValue(row[static_cast<size_t>(in.a)]);
        const CVal r = FromValue(row[static_cast<size_t>(in.b)]);
        stack[sp++] = ArithCV(in.bop, l, r);
        break;
      }
      case ExprOp::kArithTopCol: {
        CVal& l = stack[sp - 1];
        l = ArithCV(in.bop, l, FromValue(row[static_cast<size_t>(in.a)]));
        break;
      }
      case ExprOp::kArithTopConst: {
        CVal& l = stack[sp - 1];
        l = ArithCV(in.bop, l, const_cvals_[static_cast<size_t>(in.a)]);
        break;
      }
      case ExprOp::kCmpTopConst: {
        CVal& l = stack[sp - 1];
        const CVal& r = const_cvals_[static_cast<size_t>(in.a)];
        if (l.tag == CVal::kInt && r.tag == CVal::kInt) {
          l = BoolCV(ApplyMask(in.cmask, (l.i > r.i) - (l.i < r.i)));
        } else if (l.tag == CVal::kNull || r.tag == CVal::kNull) {
          l = NullCV();
        } else {
          l = BoolCV(ApplyMask(in.cmask, CompareCV(l, r)));
        }
        break;
      }
      case ExprOp::kCmpTopCol: {
        CVal& l = stack[sp - 1];
        const CVal r = FromValue(row[static_cast<size_t>(in.a)]);
        if (l.tag == CVal::kNull || r.tag == CVal::kNull) {
          l = NullCV();
        } else {
          l = BoolCV(ApplyMask(in.cmask, CompareCV(l, r)));
        }
        break;
      }
      case ExprOp::kAndCombineCmpCI: {
        CVal& l = stack[sp - 1];
        l = AndCombineCV(l, CmpColConstIntCV(in, row));
        break;
      }
      case ExprOp::kOrCombineCmpCI: {
        CVal& l = stack[sp - 1];
        l = OrCombineCV(l, CmpColConstIntCV(in, row));
        break;
      }
      case ExprOp::kAndCombineCmpCC: {
        CVal& l = stack[sp - 1];
        l = AndCombineCV(l, CmpColColCV(in, row));
        break;
      }
      case ExprOp::kOrCombineCmpCC: {
        CVal& l = stack[sp - 1];
        l = OrCombineCV(l, CmpColColCV(in, row));
        break;
      }
    }
  }
  ICEBERG_DCHECK(sp == 1);
  return &stack[0];
}

Value CompiledExpr::Run(const Row& row, EvalScratch* scratch,
                        const AggValueMap* agg_values) const {
  ICEBERG_DCHECK(valid());
  return ToValue(*Execute(row, scratch, agg_values));
}

bool CompiledExpr::RunPredicate(const Row& row, EvalScratch* scratch,
                                const AggValueMap* agg_values) const {
  ICEBERG_DCHECK(valid());
  return Truthy(*Execute(row, scratch, agg_values));
}

std::string CompiledExpr::Summary() const {
  std::string out = std::to_string(code_.size()) + " ops";
  if (fused_ops_ > 0) out += ", " + std::to_string(fused_ops_) + " fused";
  if (!consts_.empty()) {
    out += ", " + std::to_string(consts_.size()) + " const";
  }
  return out;
}

std::vector<CompiledExpr> CompileAll(const std::vector<ExprPtr>& exprs) {
  std::vector<CompiledExpr> progs;
  progs.reserve(exprs.size());
  for (const ExprPtr& e : exprs) progs.push_back(CompiledExpr::Compile(*e));
  return progs;
}

}  // namespace iceberg
