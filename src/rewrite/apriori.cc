#include "src/rewrite/apriori.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/exec/key_codec.h"
#include "src/expr/evaluator.h"

namespace iceberg {

namespace {

/// True when Phi provably holds on every single-tuple group, i.e. the
/// reducer could never filter anything. Only decidable when every
/// aggregate in Phi is a COUNT variant (which evaluates to 1 on a
/// singleton) and Phi references no plain columns. This is why the paper
/// reports that generalized a-priori "does not apply" to the skyband
/// queries Q1-Q3/Q8: with G_L a key of L, every L-group is a singleton and
/// COUNT(*) <= k holds trivially.
bool TriviallyPassesOnSingletons(const ExprPtr& phi) {
  std::vector<ExprPtr> aggs;
  CollectAggregates(phi, &aggs);
  AggValueMap values;
  for (const ExprPtr& agg : aggs) {
    switch (agg->agg) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
      case AggFunc::kCountDistinct:
        values[agg.get()] = Value::Int(1);
        break;
      default:
        return false;  // value-dependent aggregate: cannot decide
    }
  }
  std::vector<const Expr*> refs;
  CollectColumnRefs(phi, &refs);
  for (const Expr* ref : refs) {
    // Refs inside aggregate arguments are fine; plain refs make the
    // predicate value-dependent. Aggregates do not nest, so any ref we
    // reach outside an aggregate node is a plain ref.
    bool inside_agg = false;
    for (const ExprPtr& agg : aggs) {
      std::vector<const Expr*> arg_refs;
      if (!agg->children.empty()) {
        CollectColumnRefs(agg->children[0], &arg_refs);
      }
      for (const Expr* ar : arg_refs) {
        if (ar == ref) inside_agg = true;
      }
    }
    if (!inside_agg) return false;
  }
  Row dummy;
  return EvaluatePredicate(*phi, dummy, &values);
}

/// The keys one reducer emitted, projected onto one table's share of G_L
/// and packed with the PackedKey codec. String columns are
/// dictionary-encoded against the reducer's own output: a string the
/// reducer never emitted cannot match, and every other one maps to a dense
/// id, so a table row's packed key equals a reducer key's exactly when the
/// SQL values do (NULLs group together, as in GROUP BY).
class ReducerKeys {
 public:
  ReducerKeys(const Table& reducer_result,
              const AprioriOpportunity::TableApplication& app,
              const Schema& schema)
      : dicts_(app.local_key_columns.size()),
        is_string_(app.local_key_columns.size(), 0),
        vals_(app.local_key_columns.size()) {
    std::vector<DataType> types;
    for (size_t k = 0; k < app.local_key_columns.size(); ++k) {
      DataType t = schema.column(app.local_key_columns[k]).type;
      if (t == DataType::kString) {
        is_string_[k] = 1;
        t = DataType::kInt64;
      }
      types.push_back(t);
    }
    codec_ = KeyCodec::ForTypes(std::move(types));
    ICEBERG_CHECK(codec_.usable());  // CheckApriori bounds the key width
    for (const Row& row : reducer_result.rows()) {
      Pack(row, app.reducer_positions, /*add_strings=*/true);
      keys_.insert(pk_);
    }
  }

  /// True when the key columns `cols` of a table row form a surviving key.
  bool Contains(const Row& row, const std::vector<size_t>& cols) {
    return Pack(row, cols, /*add_strings=*/false) && keys_.count(pk_) > 0;
  }

 private:
  /// Packs `row`'s `cols` into pk_. A string without an id gets a fresh
  /// one when `add_strings`, else the row cannot match: returns false.
  bool Pack(const Row& row, const std::vector<size_t>& cols,
            bool add_strings) {
    for (size_t k = 0; k < cols.size(); ++k) {
      const Value& v = row[cols[k]];
      if (is_string_[k] == 0 || v.is_null()) {
        vals_[k] = v;
        continue;
      }
      auto& dict = dicts_[k];
      auto it = add_strings
                    ? dict.emplace(v.AsString(),
                                   static_cast<int64_t>(dict.size()))
                          .first
                    : dict.find(v.AsString());
      if (it == dict.end()) return false;
      vals_[k] = Value::Int(it->second);
    }
    codec_.Encode(vals_.data(), vals_.size(), &pk_);
    return true;
  }

  std::vector<std::unordered_map<std::string, int64_t>> dicts_;
  std::vector<uint8_t> is_string_;
  KeyCodec codec_;
  std::unordered_set<PackedKey, PackedKeyHash, PackedKeyEq> keys_;
  std::vector<Value> vals_;  // Pack scratch
  PackedKey pk_;
};

}  // namespace

std::string AprioriOpportunity::ToString() const {
  std::string out = "Reducer [" + safety_reason + "]:\n  " +
                    reducer_block.ToString();
  return out;
}

Result<AprioriOpportunity> CheckApriori(const IcebergView& view) {
  const QueryBlock& block = *view.block;
  if (block.having == nullptr) {
    return Status::NotSupported("no HAVING condition");
  }
  // Phi must be applicable to L: every column it references is on the L
  // side (COUNT(*) references nothing and is fine).
  if (!view.ApplicableTo(block.having, /*left_side=*/true)) {
    return Status::NotSupported("HAVING not applicable to the L side");
  }
  // A multi-table L side must be connected by intra-L join predicates;
  // otherwise the reducer would evaluate a cross product, which can never
  // be worthwhile (and crowds out connected candidates).
  if (view.partition.left.size() > 1) {
    std::map<size_t, size_t> parent;
    std::function<size_t(size_t)> find = [&](size_t x) -> size_t {
      auto it = parent.find(x);
      if (it == parent.end() || it->second == x) return x;
      size_t root = find(it->second);
      parent[x] = root;
      return root;
    };
    for (const ExprPtr& conjunct : view.left_only) {
      std::vector<const Expr*> refs;
      CollectColumnRefs(conjunct, &refs);
      for (size_t i = 1; i < refs.size(); ++i) {
        size_t a = find(block.TableOfOffset(
            static_cast<size_t>(refs[0]->resolved_index)));
        size_t b = find(block.TableOfOffset(
            static_cast<size_t>(refs[i]->resolved_index)));
        parent.emplace(a, a);
        parent.emplace(b, b);
        if (a != b) parent[a] = b;
      }
    }
    size_t root = find(view.partition.left[0]);
    for (size_t ti : view.partition.left) {
      if (find(ti) != root) {
        return Status::NotSupported(
            "L side is not connected by intra-L join predicates");
      }
    }
  }

  // The L side must natively own at least one GROUP BY attribute;
  // otherwise the "reducer" groups only by borrowed equivalents (or by
  // nothing), which never pays off and can starve better candidates.
  if (view.gl_offsets.empty()) {
    return Status::NotSupported("no GROUP BY attribute on the L side");
  }
  Monotonicity mono = view.HavingMonotonicity();
  std::string reason;
  if (mono == Monotonicity::kMonotone) {
    // Theorem 2, monotone branch: G_R union J_R^= must be a superkey of R.
    AttrSet key = view.NamesOf(view.gr_aug_offsets);
    for (const std::string& a : view.NamesOf(view.jr_eq_offsets)) {
      key.insert(a);
    }
    FdSet right_fds = view.RightFds();
    if (!right_fds.IsSuperkey(key, view.RightAttrs())) {
      return Status::NotSupported(
          "monotone HAVING but G_R + J_R^= " + AttrSetToString(key) +
          " is not a superkey of the R side (query may be inflationary)");
    }
    reason = "monotone HAVING; G_R+J_R^= " + AttrSetToString(key) +
             " is a superkey of R (Theorem 2)";
  } else if (mono == Monotonicity::kAntiMonotone) {
    // Theorem 2, anti-monotone branch: G_L -> J_L.
    FdSet left_fds = view.LeftFds();
    if (!left_fds.Determines(view.NamesOf(view.gl_aug_offsets),
                             view.NamesOf(view.jl_offsets))) {
      return Status::NotSupported(
          "anti-monotone HAVING but G_L does not determine J_L (query may "
          "be deflationary)");
    }
    reason = "anti-monotone HAVING; G_L -> J_L (Theorem 2)";
  } else {
    return Status::NotSupported(
        "HAVING is neither monotone nor anti-monotone");
  }

  // Safe but useless reducers are skipped: when G_L determines all of the
  // L side, every L-group is one tuple, and a count-only Phi that accepts
  // singletons filters nothing.
  if (view.GroupDeterminesLeft() && TriviallyPassesOnSingletons(block.having)) {
    return Status::NotSupported(
        "reducer cannot filter: L-groups are singletons and Phi accepts "
        "singleton groups");
  }

  AprioriOpportunity opp;
  opp.partition = view.partition;
  opp.monotonicity = mono;
  opp.safety_reason = std::move(reason);

  // Build the reducer block: SELECT G_L FROM <L-side tables + intra-L
  // conjuncts> GROUP BY G_L HAVING Phi.
  std::map<size_t, size_t> offset_map;
  ICEBERG_ASSIGN_OR_RETURN(
      opp.reducer_block,
      MakeSubBlock(block, view.partition.left, view.left_only, &offset_map));
  std::vector<DataType> types;
  for (const BoundTableRef& t : opp.reducer_block.tables) {
    for (const Column& c : t.table->schema().columns()) {
      types.push_back(c.type);
    }
  }
  size_t position = 0;
  for (size_t gl : view.gl_aug_offsets) {
    ExprPtr ref = Col(block.QualifiedNameOfOffset(gl));
    ref->resolved_index = static_cast<int>(gl);
    ICEBERG_ASSIGN_OR_RETURN(ExprPtr remapped, RemapExpr(ref, offset_map));
    opp.reducer_block.group_by.push_back(remapped);
    BoundSelectItem item;
    item.expr = remapped;
    item.alias = "g" + std::to_string(position);
    opp.reducer_block.select.push_back(item);
    ICEBERG_RETURN_NOT_OK(opp.reducer_block.output_schema.AddColumn(
        {item.alias, InferType(remapped, types)}));
    ++position;
  }
  ICEBERG_ASSIGN_OR_RETURN(opp.reducer_block.having,
                           RemapExpr(block.having, offset_map));

  // Table applications: each L-side table owning >= 1 G_L column gets a
  // semijoin filter on its share of the key.
  for (size_t ti : view.partition.left) {
    AprioriOpportunity::TableApplication app;
    app.table_index = ti;
    for (size_t pos = 0; pos < view.gl_aug_offsets.size(); ++pos) {
      size_t off = view.gl_aug_offsets[pos];
      if (block.TableOfOffset(off) == ti) {
        app.local_key_columns.push_back(off - block.tables[ti].offset);
        app.reducer_positions.push_back(pos);
      }
    }
    if (app.local_key_columns.size() > PackedKey::kMaxColumns) {
      return Status::NotSupported("reducer key of " + block.tables[ti].alias +
                                  " is wider than a packed key");
    }
    if (!app.local_key_columns.empty()) {
      opp.applications.push_back(std::move(app));
    }
  }
  if (opp.applications.empty()) {
    return Status::NotSupported(
        "no L-side table owns a GROUP BY attribute; reducer would not "
        "filter anything");
  }
  return opp;
}

Result<std::vector<AprioriSelection>> ApplyApriori(
    const AprioriOpportunity& opportunity, Executor* executor,
    size_t* reducer_rows_out) {
  ICEBERG_ASSIGN_OR_RETURN(TablePtr reducer_result,
                           executor->Execute(opportunity.reducer_block));
  if (reducer_rows_out != nullptr) {
    *reducer_rows_out = reducer_result->num_rows();
  }

  std::vector<AprioriSelection> selections;
  for (const auto& app : opportunity.applications) {
    // The reducer block holds the same TablePtrs as the original block's
    // L side, ordered by partition.left.
    const Table* table = nullptr;
    for (size_t k = 0; k < opportunity.partition.left.size(); ++k) {
      if (opportunity.partition.left[k] == app.table_index) {
        table = opportunity.reducer_block.tables[k].table.get();
      }
    }
    ICEBERG_CHECK(table != nullptr);
    ReducerKeys keys(*reducer_result, app, table->schema());

    auto selection = std::make_shared<RowSelection>();
    selection->version = table->version();
    const size_t rows = table->num_rows();
    selection->keep.assign(rows, 0);
    for (size_t i = 0; i < rows; ++i) {
      if (keys.Contains(table->row(i), app.local_key_columns)) {
        selection->keep[i] = 1;
        ++selection->kept;
      }
    }
    AprioriSelection out;
    out.table_index = app.table_index;
    out.rows_before = rows;
    out.rows_after = selection->kept;
    if (selection->kept < rows) out.selection = std::move(selection);
    selections.push_back(std::move(out));
  }
  return selections;
}

}  // namespace iceberg
