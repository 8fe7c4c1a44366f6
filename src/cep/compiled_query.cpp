#include "cep/compiled_query.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <string>

#include "classad/expr.h"

namespace erms::cep {

namespace {

using classad::AttrRefExpr;
using classad::BinaryExpr;
using classad::BinaryOp;
using classad::LiteralExpr;

/// lower(a).compare(b_lower) without allocating: `b_lower` is pre-folded.
int ci_compare(const std::string& a, const std::string& b_lower) {
  const std::size_t n = std::min(a.size(), b_lower.size());
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char ca = static_cast<unsigned char>(
        std::tolower(static_cast<unsigned char>(a[i])));
    const unsigned char cb = static_cast<unsigned char>(b_lower[i]);
    if (ca != cb) {
      return ca < cb ? -1 : 1;
    }
  }
  if (a.size() == b_lower.size()) {
    return 0;
  }
  return a.size() < b_lower.size() ? -1 : 1;
}

bool apply_cmp(BinaryOp op, int cmp) {
  switch (op) {
    case BinaryOp::kEq:
      return cmp == 0;
    case BinaryOp::kNe:
      return cmp != 0;
    case BinaryOp::kLt:
      return cmp < 0;
    case BinaryOp::kLe:
      return cmp <= 0;
    case BinaryOp::kGt:
      return cmp > 0;
    case BinaryOp::kGe:
      return cmp >= 0;
    default:
      return false;  // non-comparison op on strings = ERROR
  }
}

bool is_comparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

BinaryOp flip(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;  // == and != are symmetric
  }
}

std::string fold(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool attr_ref_slottable(const AttrRefExpr& ref) {
  // Events have no TARGET scope; MY and unscoped references resolve the same.
  return ref.scope() != AttrRefExpr::Scope::kTarget;
}

FastPred make_pred(Slot slot, BinaryOp op, const classad::Value& lit) {
  FastPred p;
  p.slot = slot;
  p.op = op;
  switch (lit.type()) {
    case classad::Value::Type::kBool:
      p.kind = SlotValue::Kind::kBool;
      p.bval = lit.as_bool();
      break;
    case classad::Value::Type::kInt:
      p.kind = SlotValue::Kind::kInt;
      p.nval = static_cast<double>(lit.as_int());
      break;
    case classad::Value::Type::kReal:
      p.kind = SlotValue::Kind::kReal;
      p.nval = lit.as_real();
      break;
    case classad::Value::Type::kString:
      p.kind = SlotValue::Kind::kString;
      p.sval_lower = fold(lit.as_string());
      break;
    default:
      // Comparing against UNDEFINED/ERROR never yields strict truth; the
      // kNull literal kind makes eval_fast_pred() fail unconditionally.
      p.kind = SlotValue::Kind::kNull;
      break;
  }
  return p;
}

/// Compile `expr` into a conjunction of FastPreds. Returns false when the
/// expression has a shape the fast path cannot reproduce exactly.
bool try_compile(const classad::Expr* expr, SymbolTable& attrs, std::vector<FastPred>& out) {
  if (const auto* ref = dynamic_cast<const AttrRefExpr*>(expr)) {
    if (!attr_ref_slottable(*ref)) {
      return false;
    }
    FastPred p;
    p.slot = attrs.intern(ref->name());
    p.truthy = true;
    out.push_back(std::move(p));
    return true;
  }
  const auto* bin = dynamic_cast<const BinaryExpr*>(expr);
  if (bin == nullptr) {
    return false;
  }
  if (bin->op() == BinaryOp::kAnd) {
    // `false && X` is false and `true && UNDEFINED` is UNDEFINED, so a
    // conjunction is strictly true iff every conjunct is strictly true —
    // conjunct order cannot matter for the engine's match/no-match outcome.
    return try_compile(bin->lhs().get(), attrs, out) &&
           try_compile(bin->rhs().get(), attrs, out);
  }
  if (!is_comparison(bin->op())) {
    return false;
  }
  const auto* lref = dynamic_cast<const AttrRefExpr*>(bin->lhs().get());
  const auto* rlit = dynamic_cast<const LiteralExpr*>(bin->rhs().get());
  if (lref != nullptr && rlit != nullptr && attr_ref_slottable(*lref)) {
    out.push_back(make_pred(attrs.intern(lref->name()), bin->op(), rlit->value()));
    return true;
  }
  const auto* llit = dynamic_cast<const LiteralExpr*>(bin->lhs().get());
  const auto* rref = dynamic_cast<const AttrRefExpr*>(bin->rhs().get());
  if (llit != nullptr && rref != nullptr && attr_ref_slottable(*rref)) {
    out.push_back(make_pred(attrs.intern(rref->name()), flip(bin->op()), llit->value()));
    return true;
  }
  return false;
}

/// Every attribute `expr` references, for the ClassAd fallback's read set.
void collect_attr_refs(const classad::Expr* expr, SymbolTable& attrs, std::vector<Slot>& out) {
  if (expr == nullptr) {
    return;
  }
  if (const auto* ref = dynamic_cast<const AttrRefExpr*>(expr)) {
    out.push_back(attrs.intern(ref->name()));
  } else if (const auto* bin = dynamic_cast<const BinaryExpr*>(expr)) {
    collect_attr_refs(bin->lhs().get(), attrs, out);
    collect_attr_refs(bin->rhs().get(), attrs, out);
  } else if (const auto* un = dynamic_cast<const classad::UnaryExpr*>(expr)) {
    collect_attr_refs(un->operand().get(), attrs, out);
  } else if (const auto* cond = dynamic_cast<const classad::ConditionalExpr*>(expr)) {
    for (const classad::ExprPtr& child : cond->children()) {
      collect_attr_refs(child.get(), attrs, out);
    }
  } else if (const auto* call = dynamic_cast<const classad::FunctionCallExpr*>(expr)) {
    for (const classad::ExprPtr& arg : call->args()) {
      collect_attr_refs(arg.get(), attrs, out);
    }
  }
}

}  // namespace

bool eval_fast_pred(const FastPred& p, const SlottedEvent& e) {
  const SlotValue* v = e.get(p.slot);
  if (v == nullptr) {
    return false;  // UNDEFINED propagates; never strictly true
  }
  if (p.truthy) {
    switch (v->kind) {
      case SlotValue::Kind::kBool:
        return v->b;
      case SlotValue::Kind::kInt:
        return v->i != 0;
      case SlotValue::Kind::kReal:
        return v->r != 0.0;
      default:
        return false;  // string in boolean position = ERROR
    }
  }
  switch (p.kind) {
    case SlotValue::Kind::kNull:
      return false;  // literal was UNDEFINED/ERROR
    case SlotValue::Kind::kString:
      if (v->kind != SlotValue::Kind::kString) {
        return false;  // string vs non-string = ERROR
      }
      return apply_cmp(p.op, ci_compare(v->s, p.sval_lower));
    case SlotValue::Kind::kBool:
      if (v->kind != SlotValue::Kind::kBool) {
        return false;
      }
      if (p.op == BinaryOp::kEq) {
        return v->b == p.bval;
      }
      if (p.op == BinaryOp::kNe) {
        return v->b != p.bval;
      }
      return false;  // ordered compare of booleans = ERROR
    case SlotValue::Kind::kInt:
    case SlotValue::Kind::kReal: {
      if (!v->is_number()) {
        return false;
      }
      // ClassAd compares numerics as doubles regardless of int-ness.
      const double lf = v->as_number();
      const double rf = p.nval;
      switch (p.op) {
        case BinaryOp::kEq:
          return lf == rf;
        case BinaryOp::kNe:
          return lf != rf;
        case BinaryOp::kLt:
          return lf < rf;
        case BinaryOp::kLe:
          return lf <= rf;
        case BinaryOp::kGt:
          return lf > rf;
        case BinaryOp::kGe:
          return lf >= rf;
        default:
          return false;
      }
    }
  }
  return false;
}

CompiledQuery CompiledQuery::compile(const Query& q, SymbolTable& attrs,
                                     SymbolTable& streams) {
  if (q.group_by.size() > kMaxGroupBy) {
    throw std::invalid_argument("GROUP BY names more than " + std::to_string(kMaxGroupBy) +
                                " attributes");
  }
  CompiledQuery plan;
  plan.stream = q.from.empty() ? kNoSlot : streams.intern(q.from);
  if (q.where) {
    std::vector<FastPred> preds;
    if (try_compile(q.where.get(), attrs, preds)) {
      plan.where = WhereMode::kFast;
      plan.preds = std::move(preds);
    } else {
      plan.where = WhereMode::kClassAd;
    }
    // Both WHERE paths read the same attributes (the fast path can be
    // switched off per engine), so the read set covers every reference.
    collect_attr_refs(q.where.get(), attrs, plan.reads);
  }
  plan.group_slots.reserve(q.group_by.size());
  for (const std::string& attr : q.group_by) {
    plan.group_slots.push_back(attrs.intern(attr));
  }
  plan.agg_slots.reserve(q.select.size());
  plan.agg_numeric_index.reserve(q.select.size());
  plan.agg_is_minmax.reserve(q.select.size());
  for (const Aggregate& agg : q.select) {
    if (agg.kind == Aggregate::Kind::kCount) {
      plan.agg_slots.push_back(kNoSlot);
      plan.agg_numeric_index.push_back(-1);
      plan.agg_is_minmax.push_back(false);
    } else {
      plan.agg_slots.push_back(attrs.intern(agg.attr));
      plan.agg_numeric_index.push_back(static_cast<std::int32_t>(plan.numeric_aggs++));
      plan.agg_is_minmax.push_back(agg.kind == Aggregate::Kind::kMin ||
                                   agg.kind == Aggregate::Kind::kMax);
    }
  }
  plan.reads.insert(plan.reads.end(), plan.group_slots.begin(), plan.group_slots.end());
  for (const Slot s : plan.agg_slots) {
    if (s != kNoSlot) {
      plan.reads.push_back(s);
    }
  }
  return plan;
}

void to_classad(const SlottedEvent& e, const SymbolTable& attrs, classad::ClassAd& out) {
  for (const Slot slot : e.touched()) {
    const SlotValue* v = e.get(slot);
    if (v == nullptr) {
      continue;
    }
    const std::string& name = attrs.name(slot);
    switch (v->kind) {
      case SlotValue::Kind::kBool:
        out.insert_bool(name, v->b);
        break;
      case SlotValue::Kind::kInt:
        out.insert_int(name, v->i);
        break;
      case SlotValue::Kind::kReal:
        out.insert_real(name, v->r);
        break;
      case SlotValue::Kind::kString:
        out.insert_string(name, v->s);
        break;
      case SlotValue::Kind::kNull:
        break;
    }
  }
}

}  // namespace erms::cep
