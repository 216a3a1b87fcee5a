// Microbenchmarks: compiled expression programs vs the reference
// interpreter, and packed aggregation keys vs Row keys. Emits JSONL via
// --json= (BENCH_PR3.json in EXPERIMENTS.md); "speedup" is interpreted-time
// / compiled-time, or Row-key time / packed-key time.

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "src/exec/key_codec.h"
#include "src/expr/compiled.h"
#include "src/expr/evaluator.h"
#include "src/expr/expr.h"

namespace iceberg {
namespace bench {
namespace {

ExprPtr ColIx(int index) {
  ExprPtr c = Col("c" + std::to_string(index));
  c->resolved_index = index;
  return c;
}

// The skyband residual shape: two <= conjuncts plus a strict-dominance OR.
ExprPtr SkybandPredicate() {
  return AndAll({
      Bin(BinaryOp::kLe, ColIx(0), ColIx(2)),
      Bin(BinaryOp::kLe, ColIx(1), ColIx(3)),
      Bin(BinaryOp::kOr, Bin(BinaryOp::kLt, ColIx(0), ColIx(2)),
          Bin(BinaryOp::kLt, ColIx(1), ColIx(3))),
  });
}

// A projection-style arithmetic expression with a fused comparison.
ExprPtr ArithmeticPredicate() {
  return Bin(BinaryOp::kLt,
             Bin(BinaryOp::kSub,
                 Bin(BinaryOp::kMul,
                     Bin(BinaryOp::kAdd, ColIx(0), ColIx(1)), LitInt(2)),
                 ColIx(3)),
             LitInt(120));
}

std::vector<Row> MakeRows(size_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (size_t i = 0; i < n; ++i) {
    Row row;
    for (int c = 0; c < 4; ++c) {
      row.push_back(Value::Int(static_cast<int64_t>(next() % 64)));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void BenchExprEval(JsonWriter* json, const char* name, const ExprPtr& expr,
                   const std::vector<Row>& rows, int reps) {
  // Best of three trials per side: min time is the robust estimator under
  // scheduler noise (both sides run the identical trial count).
  constexpr int kTrials = 3;
  size_t hits_interp = 0;
  double interp_s = 0;
  for (int t = 0; t < kTrials; ++t) {
    hits_interp = 0;
    Timer timer;
    for (int r = 0; r < reps; ++r) {
      for (const Row& row : rows) {
        if (EvaluatePredicate(*expr, row)) ++hits_interp;
      }
    }
    double s = timer.Seconds();
    if (t == 0 || s < interp_s) interp_s = s;
  }

  CompiledExpr prog = CompiledExpr::Compile(*expr);
  EvalScratch scratch;
  size_t hits_compiled = 0;
  double compiled_s = 0;
  for (int t = 0; t < kTrials; ++t) {
    hits_compiled = 0;
    Timer timer;
    for (int r = 0; r < reps; ++r) {
      for (const Row& row : rows) {
        if (prog.RunPredicate(row, &scratch)) ++hits_compiled;
      }
    }
    double s = timer.Seconds();
    if (t == 0 || s < compiled_s) compiled_s = s;
  }

  if (hits_interp != hits_compiled) {
    std::fprintf(stderr, "MISMATCH in %s: %zu vs %zu\n", name, hits_interp,
                 hits_compiled);
    std::exit(1);
  }
  double speedup = compiled_s > 0 ? interp_s / compiled_s : 0.0;
  std::printf("%-28s interpreted %8.2f ms   compiled %8.2f ms   %5.2fx  (%s)\n",
              name, interp_s * 1e3, compiled_s * 1e3, speedup,
              prog.Summary().c_str());
  json->Record(std::string("micro ") + name + " interpreted", 1,
               interp_s * 1e3, 1.0);
  json->Record(std::string("micro ") + name + " compiled", 1,
               compiled_s * 1e3, speedup);
}

void BenchAggKeys(JsonWriter* json, const std::vector<Row>& rows, int reps) {
  // Group by three of the four columns — the hot AddRow key path with the
  // expression cost held constant (direct column gathers) so the measured
  // difference is the key representation itself.
  const std::vector<size_t> key_cols = {0, 1, 2};

  constexpr int kTrials = 3;
  size_t groups_row = 0;
  double row_s = 0;
  for (int t = 0; t < kTrials; ++t) {
    Timer timer;
    for (int r = 0; r < reps; ++r) {
      std::unordered_map<Row, size_t, RowHash, RowEq> counts;
      Row key;
      key.reserve(key_cols.size());
      for (const Row& row : rows) {
        key.clear();
        for (size_t c : key_cols) key.push_back(row[c]);
        ++counts[key];
      }
      groups_row = counts.size();
    }
    double s = timer.Seconds();
    if (t == 0 || s < row_s) row_s = s;
  }

  KeyCodec codec = KeyCodec::ForTypes(
      {DataType::kInt64, DataType::kInt64, DataType::kInt64});
  size_t groups_packed = 0;
  double packed_s = 0;
  for (int t = 0; t < kTrials; ++t) {
    Timer timer;
    for (int r = 0; r < reps; ++r) {
      std::unordered_map<PackedKey, size_t, PackedKeyHash, PackedKeyEq>
          counts;
      PackedKey key;
      for (const Row& row : rows) {
        codec.EncodeAt(row, key_cols, &key);
        ++counts[key];
      }
      groups_packed = counts.size();
    }
    double s = timer.Seconds();
    if (t == 0 || s < packed_s) packed_s = s;
  }

  if (groups_row != groups_packed) {
    std::fprintf(stderr, "MISMATCH in agg-key: %zu vs %zu groups\n",
                 groups_row, groups_packed);
    std::exit(1);
  }
  double speedup = packed_s > 0 ? row_s / packed_s : 0.0;
  std::printf("%-28s row keys    %8.2f ms   packed   %8.2f ms   %5.2fx  "
              "(%zu groups)\n",
              "agg-key", row_s * 1e3, packed_s * 1e3, speedup, groups_row);
  json->Record("micro agg-key row", 1, row_s * 1e3, 1.0);
  json->Record("micro agg-key packed", 1, packed_s * 1e3, speedup);
}

int Main(int argc, char** argv) {
  BenchFlags flags = ParseBenchFlags(argc, argv);
  JsonWriter json(flags.json_path);

  std::vector<Row> rows = MakeRows(4096);
  const int reps = static_cast<int>(Scaled(400));
  std::printf("expression evaluation (%zu rows x %d reps):\n", rows.size(),
              reps);
  BenchExprEval(&json, "expr skyband-residual", SkybandPredicate(), rows,
                reps);
  BenchExprEval(&json, "expr arithmetic", ArithmeticPredicate(), rows, reps);
  BenchExprEval(&json, "expr fused-cmp",
                Bin(BinaryOp::kLt, ColIx(0), LitInt(32)), rows, reps);
  std::printf("\naggregation keys (%zu rows x %d reps):\n", rows.size(), reps);
  BenchAggKeys(&json, rows, reps);
  json.RecordMetrics("micro_eval end-of-run");
  FinishBenchTrace(flags);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace iceberg

int main(int argc, char** argv) { return iceberg::bench::Main(argc, argv); }
