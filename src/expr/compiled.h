#ifndef SMARTICEBERG_EXPR_COMPILED_H_
#define SMARTICEBERG_EXPR_COMPILED_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/value.h"
#include "src/expr/evaluator.h"
#include "src/expr/expr.h"
#include "src/storage/column_chunk.h"

namespace iceberg {

/// Process-wide switch for the shape-keyed plan & program cache (PR 7).
/// Seeded from the ICEBERG_PLAN_CACHE environment variable ("0" disables),
/// mirroring ICEBERG_VECTORIZE. Checked at compile/plan time: when on,
/// Compile() consults a bounded process-wide cache of parameterized
/// program templates keyed by ParamShapeSignature and re-binds literal
/// values into a cached template instead of recompiling, and the serving
/// layer consults its PlanCache of optimizer decisions. Flips take effect
/// for subsequently planned statements only.
bool PlanCacheEnabled();
void SetPlanCacheEnabled(bool enabled);

/// Drops every cached program template (tests/benchmarks; e.g. to measure
/// cold-compile cost or to isolate counter deltas).
void ClearProgramTemplateCache();

/// Opcode of the flat postfix ISA. Programs operate on a stack of CVal
/// slots (tagged scalars; strings are borrowed pointers, so no opcode ever
/// allocates). See DESIGN.md section 4e for the full ISA contract.
enum class ExprOp : uint8_t {
  kPushConst,   // a = constant-pool index
  kPushColumn,  // a = flat row slot
  kPushAgg,     // agg = aggregate node; looked up in the AggValueMap
  kCompare,     // bop; pops r, l; pushes bool / NULL (three-valued)
  kAdd,
  kSub,
  kMul,
  kDiv,
  kNot,
  kNeg,
  kAndJump,     // a = target; on definite-false canonicalizes to FALSE and jumps
  kOrJump,      // a = target; on definite-true canonicalizes to TRUE and jumps
  kAndCombine,  // pops r, l; Kleene AND of the not-short-circuited case
  kOrCombine,
  // Fused fast paths (single instruction, no intermediate pushes):
  kCmpColConstInt,  // cmask; a = slot, imm = int64 constant
  kCmpColCol,       // cmask; a = left slot, b = right slot
  // Peephole super-ops (see PeepholeOptimize in compiled.cc). Arithmetic
  // ops carry the arithmetic BinaryOp in bop:
  kArithColCol,    // push row[a] (bop) row[b]
  kArithTopCol,    // top = top (bop) row[a]
  kArithTopConst,  // top = top (bop) consts[a]
  kCmpTopConst,    // top = compare(top, consts[a]) under cmask
  kCmpTopCol,      // top = compare(top, row[a]) under cmask
  // Fused comparison immediately followed by a Kleene combine with the
  // value below it on the stack (the short-circuit block's epilogue):
  kAndCombineCmpCI,  // top = top AND cmp(row[a], imm)
  kOrCombineCmpCI,
  kAndCombineCmpCC,  // top = top AND cmp(row[a], row[b])
  kOrCombineCmpCC,
};

struct ExprInstr {
  ExprOp op = ExprOp::kPushConst;
  BinaryOp bop = BinaryOp::kEq;
  // Comparison acceptance mask: bit (c+1) set when the instruction's
  // comparison passes for Compare() result c in {-1, 0, 1}. Precomputed at
  // compile time so execution never switches on the comparison operator.
  uint8_t cmask = 0;
  int32_t a = 0;
  int32_t b = 0;
  int64_t imm = 0;
  // Parameter slot the fused immediate `imm` was taken from (-1 = not a
  // parameter). Set only on program templates compiled in parameterized
  // mode; Rebind patches `imm` from the slot. Lives in the instruction so
  // it survives PeepholeOptimize's wholesale instruction copies.
  int32_t imm_slot = -1;
  const Expr* agg = nullptr;
};

/// One stack slot of the compiled evaluator: a tagged scalar. Strings are
/// borrowed (pointers into the evaluated row, the constant pool, or the
/// aggregate value map), all of which outlive the Run call, so execution
/// never touches the heap.
struct CVal {
  enum Tag : uint8_t { kNull, kInt, kDouble, kStr };
  Tag tag = kNull;
  union {
    int64_t i;
    double d;
    const std::string* s;
  };
};

/// Reusable evaluation stack. One per execution context (worker thread or
/// operator instance); Run never allocates once the stack has grown to the
/// program's max depth.
struct EvalScratch {
  std::vector<CVal> stack;
};

/// Reusable state for batch evaluation (FilterBatch). `slots` is a
/// slot-major matrix of lane values (slots[s * n + k] is stack slot s of
/// the k-th selected lane); `sel` is spare selection-vector storage for
/// callers chaining several programs over one chunk.
struct BatchScratch {
  std::vector<CVal> slots;
  std::vector<uint32_t> sel;
};

/// A bound expression compiled once per query into a flat postfix program:
/// typed opcodes over resolved column slots, constants folded at compile
/// time, AND/OR lowered to short-circuit jump blocks, and int64-vs-constant
/// comparisons fused into single instructions. Run() is const and
/// thread-safe: all mutable state lives in the caller's EvalScratch.
///
/// This is the only evaluator the operators use. The tree-walk interpreter
/// `Evaluate` is the reference that tests/compiled_expr_test.cc compares it
/// against: semantics are bit-identical with one carve-out, arithmetic or
/// negation over string operands, where the interpreter throws
/// bad_variant_access and a program yields NULL. Well-typed queries never
/// hit it.
class CompiledExpr {
 public:
  CompiledExpr() = default;  // invalid; valid() is false

  /// Compiles a bound expression (column refs must carry resolved_index).
  static CompiledExpr Compile(const Expr& e);

  bool valid() const { return !code_.empty(); }
  size_t num_ops() const { return code_.size(); }

  /// Evaluates against a row; exact Evaluate() semantics.
  Value Run(const Row& row, EvalScratch* scratch,
            const AggValueMap* agg_values = nullptr) const;

  /// Predicate fast path: truthiness of the result (NULL is false) without
  /// materializing a Value.
  bool RunPredicate(const Row& row, EvalScratch* scratch,
                    const AggValueMap* agg_values = nullptr) const;

  /// True when the program can run in batch mode: no aggregate references
  /// (every other opcode has a lane form).
  bool batchable() const { return batchable_; }

  /// True when Compile extracted at least one min/max zone check (a
  /// top-level AND conjunct comparing a column with a numeric literal or
  /// another column).
  bool has_zone_checks() const { return !zone_checks_.empty(); }

  /// Zone-map refutation: true when the chunk's per-column min/max zones
  /// prove no row of `chunk` can make the predicate true, given the outer
  /// prefix `partial` (whose slots are < `base`; may be null when the
  /// program references no outer columns). `base` is the flat offset of
  /// the chunk's table in the joined row. Conservative: false means
  /// "cannot refute", never "will pass".
  bool ZoneRefutes(const ColumnChunk& chunk, size_t base,
                   const Row* partial) const;

  /// Batch predicate evaluation: runs the program over the `n` lanes listed
  /// in `sel` (row indexes local to `chunk`), writes the lanes whose result
  /// is truthy to `out` (may alias `sel`) in order, and returns their
  /// count. Column slots >= `base` read the chunk's columns; slots < base
  /// broadcast from `partial`. Executes the postfix stream linearly (the
  /// short-circuit jumps become no-ops; combines use the symmetric Kleene
  /// forms), which is equivalent because programs are pure — results are
  /// byte-identical to RunPredicate over the materialized row. Requires
  /// batchable().
  size_t FilterBatch(const ColumnChunk& chunk, size_t base,
                     const Row* partial, const uint32_t* sel, size_t n,
                     uint32_t* out, BatchScratch* scratch) const;

  /// EXPLAIN summary, e.g. "5 ops, 2 fused, 1 const".
  std::string Summary() const;

 private:
  /// One refutation test extracted from a top-level AND conjunct:
  /// slot(a) CMP imm, or slot(a) CMP slot(b). The acceptance mask is the
  /// comparison's cmask; refutation succeeds when no achievable Compare()
  /// outcome is accepted.
  struct ZoneCheck {
    bool col_col = false;
    int32_t a = 0;
    int32_t b = 0;
    uint8_t cmask = 0;
    bool imm_is_double = false;
    int64_t imm_i = 0;
    double imm_d = 0.0;
    int32_t imm_slot = -1;  // parameter slot of the literal (templates only)
  };

  const CVal* Execute(const Row& row, EvalScratch* scratch,
                      const AggValueMap* agg_values) const;

  /// Shared compile pipeline. `params` maps parameter literal nodes to
  /// their slot (nullptr = plain mode with constant folding).
  static CompiledExpr BuildProgram(
      const Expr& e, const std::unordered_map<const Expr*, int>* params);

  /// Compiles `e` as a parameterized template: constant folding across
  /// parameter literals is suppressed (each records a bind site instead),
  /// parameter constants get private pool entries, and fused immediates /
  /// zone checks remember their parameter slot. `literals`/`aggregates`
  /// are the canonical CollectParamNodes enumeration of `e`.
  static CompiledExpr CompileTemplate(
      const Expr& e, const std::vector<const Expr*>& literals,
      const std::vector<const Expr*>& aggregates);

  /// Instantiates this template against a structurally identical
  /// expression's parameter nodes (same ParamShapeSignature): copies the
  /// program, patches parameter constants / fused immediates / zone checks
  /// with the new literal values, and re-points aggregate references at
  /// the new tree's aggregate nodes. Returns an invalid program when the
  /// slot counts do not match (caller falls back to a fresh compile). A
  /// zone check whose re-bound double is NaN is dropped (NaN never
  /// refutes).
  CompiledExpr Rebind(const std::vector<const Expr*>& literals,
                      const std::vector<const Expr*>& aggregates) const;

  std::vector<ExprInstr> code_;
  std::vector<Value> consts_;
  std::vector<CVal> const_cvals_;  // consts_ pre-lowered to stack slots
  std::vector<ZoneCheck> zone_checks_;
  size_t max_stack_ = 0;
  size_t fused_ops_ = 0;
  bool batchable_ = false;
  // Template metadata (parameterized mode only; empty otherwise):
  // (constant-pool index, parameter slot) bind sites, the parameter slot of
  // each aggregate-bearing instruction in code order, and the slot counts
  // Rebind validates against.
  std::vector<std::pair<int32_t, int32_t>> const_slots_;
  std::vector<int32_t> agg_slots_;
  size_t param_count_ = 0;
  size_t agg_count_ = 0;
};

/// Compiles every expression of `exprs`, in order.
std::vector<CompiledExpr> CompileAll(const std::vector<ExprPtr>& exprs);

}  // namespace iceberg

#endif  // SMARTICEBERG_EXPR_COMPILED_H_
