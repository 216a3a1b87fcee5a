#include "src/plan/query_block.h"

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/parser/ast.h"

namespace iceberg {

size_t QueryBlock::TotalWidth() const {
  size_t width = 0;
  for (const BoundTableRef& t : tables) width += t.table->schema().num_columns();
  return width;
}

size_t QueryBlock::TableOfOffset(size_t flat_offset) const {
  for (size_t i = 0; i < tables.size(); ++i) {
    size_t begin = tables[i].offset;
    size_t end = begin + tables[i].table->schema().num_columns();
    if (flat_offset >= begin && flat_offset < end) return i;
  }
  ICEBERG_CHECK(false);
  return 0;
}

std::string QueryBlock::QualifiedNameOfOffset(size_t flat_offset) const {
  size_t ti = TableOfOffset(flat_offset);
  size_t ci = flat_offset - tables[ti].offset;
  return tables[ti].alias + "." +
         ToLower(tables[ti].table->schema().column(ci).name);
}

FdSet QueryBlock::QueryFds() const {
  FdSet out;
  for (const BoundTableRef& t : tables) {
    out.Merge(t.fds.WithQualifier(t.alias));
  }
  // Equality predicates col = col add mutual FDs; col = const makes the
  // column determined by anything (we model it as {} -> col).
  for (const ExprPtr& conjunct : where_conjuncts) {
    if (conjunct->kind != ExprKind::kBinary ||
        conjunct->bop != BinaryOp::kEq) {
      continue;
    }
    const ExprPtr& l = conjunct->children[0];
    const ExprPtr& r = conjunct->children[1];
    if (l->kind == ExprKind::kColumnRef && r->kind == ExprKind::kColumnRef) {
      out.AddEquivalence(QualifiedNameOfOffset(l->resolved_index),
                         QualifiedNameOfOffset(r->resolved_index));
    } else if (l->kind == ExprKind::kColumnRef &&
               r->kind == ExprKind::kLiteral) {
      out.Add(FunctionalDependency{
          {}, {QualifiedNameOfOffset(l->resolved_index)}});
    } else if (r->kind == ExprKind::kColumnRef &&
               l->kind == ExprKind::kLiteral) {
      out.Add(FunctionalDependency{
          {}, {QualifiedNameOfOffset(r->resolved_index)}});
    }
  }
  return out;
}

AttrSet QueryBlock::AttributesOf(
    const std::vector<size_t>& table_indexes) const {
  AttrSet out;
  for (size_t ti : table_indexes) {
    const BoundTableRef& t = tables[ti];
    for (const Column& c : t.table->schema().columns()) {
      out.insert(t.alias + "." + ToLower(c.name));
    }
  }
  return out;
}

std::string QueryBlock::ToString() const {
  std::string out = "SELECT ";
  if (distinct) out += "DISTINCT ";
  if (select.empty()) out += "*";
  for (size_t i = 0; i < select.size(); ++i) {
    if (i > 0) out += ", ";
    out += select[i].expr->ToString();
    if (!select[i].alias.empty()) out += " AS " + select[i].alias;
  }
  out += " FROM ";
  for (size_t i = 0; i < tables.size(); ++i) {
    if (i > 0) out += ", ";
    out += tables[i].table->name();
    if (tables[i].alias != ToLower(tables[i].table->name())) {
      out += " " + tables[i].alias;
    }
  }
  if (!where_conjuncts.empty()) {
    out += " WHERE " + AndAll(where_conjuncts)->ToString();
  }
  if (!group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by[i]->ToString();
    }
  }
  if (having != nullptr) out += " HAVING " + having->ToString();
  return out;
}

DataType InferType(const ExprPtr& expr,
                   const std::vector<DataType>& types_by_offset) {
  switch (expr->kind) {
    case ExprKind::kLiteral:
      return expr->literal.type();
    case ExprKind::kColumnRef: {
      ICEBERG_DCHECK(expr->resolved_index >= 0);
      size_t i = static_cast<size_t>(expr->resolved_index);
      return i < types_by_offset.size() ? types_by_offset[i]
                                        : DataType::kInt64;
    }
    case ExprKind::kBinary: {
      if (IsComparisonOp(expr->bop) || expr->bop == BinaryOp::kAnd ||
          expr->bop == BinaryOp::kOr) {
        return DataType::kInt64;  // booleans are int64 0/1
      }
      if (expr->bop == BinaryOp::kDiv) return DataType::kDouble;
      DataType l = InferType(expr->children[0], types_by_offset);
      DataType r = InferType(expr->children[1], types_by_offset);
      if (l == DataType::kDouble || r == DataType::kDouble) {
        return DataType::kDouble;
      }
      return DataType::kInt64;
    }
    case ExprKind::kUnary:
      if (expr->uop == UnaryOp::kNot) return DataType::kInt64;
      return InferType(expr->children[0], types_by_offset);
    case ExprKind::kAggregate:
      switch (expr->agg) {
        case AggFunc::kCountStar:
        case AggFunc::kCount:
        case AggFunc::kCountDistinct:
          return DataType::kInt64;
        case AggFunc::kAvg:
          return DataType::kDouble;
        default:
          return expr->children.empty()
                     ? DataType::kInt64
                     : InferType(expr->children[0], types_by_offset);
      }
  }
  return DataType::kInt64;
}

namespace {

/// Resolves one column-ref against the block's tables. Unqualified names
/// must be unambiguous.
Status ResolveColumn(Expr* ref, const QueryBlock& block) {
  std::string qual = ToLower(ref->qualifier);
  std::string col = ToLower(ref->column);
  int found = -1;
  for (const BoundTableRef& t : block.tables) {
    if (!qual.empty() && t.alias != qual) continue;
    std::optional<size_t> ci = t.table->schema().FindColumn(col);
    if (!ci.has_value()) continue;
    if (found >= 0) {
      return Status::BindError("ambiguous column reference: " +
                               ref->ToString());
    }
    found = static_cast<int>(t.offset + *ci);
  }
  if (found < 0) {
    return Status::BindError("unresolved column reference: " +
                             ref->ToString());
  }
  ref->resolved_index = found;
  return Status::OK();
}

}  // namespace

Status Binder::BindExpr(const ExprPtr& expr, const QueryBlock& block) {
  if (expr == nullptr) return Status::OK();
  std::vector<Expr*> refs;
  CollectColumnRefs(expr, &refs);
  for (Expr* ref : refs) {
    ICEBERG_RETURN_NOT_OK(ResolveColumn(ref, block));
  }
  return Status::OK();
}

Result<QueryBlock> Binder::Bind(const ParsedSelect& select) {
  QueryBlock block;
  block.distinct = select.distinct;

  // FROM: resolve tables, assign offsets.
  size_t offset = 0;
  for (const ParsedTableRef& ref : select.from) {
    if (ref.subquery != nullptr) {
      return Status::BindError(
          "FROM-subqueries must be materialized before binding (engine "
          "responsibility)");
    }
    ICEBERG_ASSIGN_OR_RETURN(CatalogEntry entry, resolver_(ref.table_name));
    BoundTableRef bound;
    bound.alias = ToLower(ref.alias.empty() ? ref.table_name : ref.alias);
    bound.table = entry.table;
    bound.fds = entry.fds;
    bound.offset = offset;
    offset += entry.table->schema().num_columns();
    for (const BoundTableRef& existing : block.tables) {
      if (existing.alias == bound.alias) {
        return Status::BindError("duplicate table alias: " + bound.alias);
      }
    }
    block.tables.push_back(std::move(bound));
  }

  // Column types by flat offset, for output schema inference.
  std::vector<DataType> types;
  for (const BoundTableRef& t : block.tables) {
    for (const Column& c : t.table->schema().columns()) types.push_back(c.type);
  }

  // WHERE: clone, bind, split into conjuncts.
  if (select.where != nullptr) {
    ExprPtr where = CloneExpr(select.where);
    ICEBERG_RETURN_NOT_OK(BindExpr(where, block));
    SplitConjuncts(where, &block.where_conjuncts);
  }

  // GROUP BY.
  for (const ExprPtr& g : select.group_by) {
    ExprPtr bound = CloneExpr(g);
    ICEBERG_RETURN_NOT_OK(BindExpr(bound, block));
    if (bound->kind != ExprKind::kColumnRef) {
      return Status::NotSupported(
          "GROUP BY supports plain column references only: " +
          bound->ToString());
    }
    block.group_by.push_back(std::move(bound));
  }

  // HAVING.
  if (select.having != nullptr) {
    block.having = CloneExpr(select.having);
    ICEBERG_RETURN_NOT_OK(BindExpr(block.having, block));
  }

  // SELECT items.
  size_t anon = 0;
  for (const ParsedSelectItem& item : select.items) {
    BoundSelectItem bound;
    bound.expr = CloneExpr(item.expr);
    ICEBERG_RETURN_NOT_OK(BindExpr(bound.expr, block));
    if (!item.alias.empty()) {
      bound.alias = ToLower(item.alias);
    } else if (bound.expr->kind == ExprKind::kColumnRef) {
      bound.alias = ToLower(bound.expr->column);
    } else {
      bound.alias = "col" + std::to_string(anon++);
    }
    block.select.push_back(std::move(bound));
  }

  // Validation: in an aggregated block, every column read outside an
  // aggregate call -- in any select item or in HAVING -- takes one value
  // per group only if the GROUP BY columns determine it (it is one of them,
  // or follows from them under the declared keys/FDs and the WHERE
  // equalities). Any other column would take whichever row reached the
  // group first, which varies with the worker schedule.
  bool aggregated = !block.group_by.empty() || block.having != nullptr;
  for (const BoundSelectItem& item : block.select) {
    if (ContainsAggregate(item.expr)) aggregated = true;
  }
  if (aggregated) {
    AttrSet grouped;
    for (const ExprPtr& g : block.group_by) {
      grouped.insert(block.QualifiedNameOfOffset(g->resolved_index));
    }
    const AttrSet determined = block.QueryFds().Closure(grouped);
    std::vector<const Expr*> refs;
    for (const BoundSelectItem& item : block.select) {
      CollectGroupLevelRefs(item.expr, &refs);
    }
    CollectGroupLevelRefs(block.having, &refs);
    for (const Expr* ref : refs) {
      if (determined.count(block.QualifiedNameOfOffset(ref->resolved_index)) ==
          0) {
        return Status::BindError(
            "non-aggregated column must appear in GROUP BY or be determined "
            "by it: " +
            ref->ToString());
      }
    }
  }

  // Output schema. Column names may repeat across items (e.g. i1.item,
  // i2.item); disambiguate by suffixing.
  for (const BoundSelectItem& item : block.select) {
    std::string name = item.alias;
    int suffix = 1;
    while (block.output_schema.FindColumn(name).has_value()) {
      name = item.alias + "_" + std::to_string(++suffix);
    }
    ICEBERG_RETURN_NOT_OK(
        block.output_schema.AddColumn({name, InferType(item.expr, types)}));
  }

  // ORDER BY: items resolve against the output schema (alias / output
  // column name, or a 1-based ordinal literal).
  for (const ParsedOrderItem& item : select.order_by) {
    QueryBlock::OrderSpec spec;
    spec.ascending = item.ascending;
    if (item.expr->kind == ExprKind::kLiteral &&
        item.expr->literal.is_int()) {
      int64_t ordinal = item.expr->literal.AsInt();
      if (ordinal < 1 ||
          ordinal > static_cast<int64_t>(block.select.size())) {
        return Status::BindError("ORDER BY ordinal out of range: " +
                                 std::to_string(ordinal));
      }
      spec.output_column = static_cast<size_t>(ordinal - 1);
    } else if (item.expr->kind == ExprKind::kColumnRef &&
               item.expr->qualifier.empty()) {
      std::optional<size_t> idx =
          block.output_schema.FindColumn(item.expr->column);
      if (!idx.has_value()) {
        return Status::BindError(
            "ORDER BY must name an output column or ordinal: " +
            item.expr->ToString());
      }
      spec.output_column = *idx;
    } else {
      return Status::NotSupported(
          "ORDER BY supports output columns and ordinals only: " +
          item.expr->ToString());
    }
    block.order_by.push_back(spec);
  }
  block.limit = select.limit;
  return block;
}

}  // namespace iceberg
