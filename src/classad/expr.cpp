#include "classad/expr.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "classad/classad.h"

namespace erms::classad {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// Coerce to the three-valued boolean domain: bool stays, numbers are
/// non-zero, everything else is ERROR (UNDEFINED stays UNDEFINED).
Value to_boolean(const Value& v) {
  if (v.is_undefined() || v.is_error() || v.is_bool()) {
    return v;
  }
  if (v.is_number()) {
    return Value::boolean(v.as_number() != 0.0);
  }
  return Value::error();
}

}  // namespace

Value AttrRefExpr::evaluate(EvalContext& ctx) const {
  if (ctx.depth >= EvalContext::kMaxDepth) {
    return Value::error();  // reference cycle
  }
  const ClassAd* primary = nullptr;
  const ClassAd* secondary = nullptr;
  switch (scope_) {
    case Scope::kMy:
      primary = ctx.my;
      break;
    case Scope::kTarget:
      primary = ctx.target;
      break;
    case Scope::kDefault:
      primary = ctx.my;
      secondary = ctx.target;
      break;
  }
  for (const ClassAd* ad : {primary, secondary}) {
    if (ad == nullptr) {
      continue;
    }
    if (const ExprPtr expr = ad->lookup(name_)) {
      // Re-root evaluation: inside the referenced ad, MY is that ad and
      // TARGET is the other one.
      EvalContext inner;
      inner.my = ad;
      inner.target = (ad == ctx.my) ? ctx.target : ctx.my;
      inner.depth = ctx.depth + 1;
      return expr->evaluate(inner);
    }
  }
  return Value::undefined();
}

std::string AttrRefExpr::unparse() const {
  switch (scope_) {
    case Scope::kMy:
      return "MY." + name_;
    case Scope::kTarget:
      return "TARGET." + name_;
    case Scope::kDefault:
      return name_;
  }
  return name_;
}

Value UnaryExpr::evaluate(EvalContext& ctx) const {
  const Value v = operand_->evaluate(ctx);
  switch (op_) {
    case UnaryOp::kNot: {
      const Value b = to_boolean(v);
      if (b.is_bool()) {
        return Value::boolean(!b.as_bool());
      }
      return b;  // undefined / error propagate
    }
    case UnaryOp::kMinus:
      if (v.type() == Value::Type::kInt) {
        return Value::integer(-v.as_int());
      }
      if (v.type() == Value::Type::kReal) {
        return Value::real(-v.as_real());
      }
      if (v.is_undefined()) {
        return v;
      }
      return Value::error();
  }
  return Value::error();
}

std::string UnaryExpr::unparse() const {
  return std::string(op_ == UnaryOp::kNot ? "!" : "-") + "(" + operand_->unparse() + ")";
}

Value BinaryExpr::evaluate(EvalContext& ctx) const {
  // Logical operators are non-strict in ClassAds:
  //   false && X == false,  true || X == true  for any X.
  if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
    const Value lb = to_boolean(lhs_->evaluate(ctx));
    if (lb.is_error()) {
      return lb;
    }
    const bool is_and = op_ == BinaryOp::kAnd;
    if (lb.is_bool() && lb.as_bool() == !is_and) {
      return lb;  // short circuit: false&&, true||
    }
    const Value rb = to_boolean(rhs_->evaluate(ctx));
    if (rb.is_error()) {
      return rb;
    }
    if (rb.is_bool() && rb.as_bool() == !is_and) {
      return rb;  // X && false == false, X || true == true, even X undefined
    }
    if (lb.is_undefined() || rb.is_undefined()) {
      return Value::undefined();
    }
    return Value::boolean(is_and ? (lb.as_bool() && rb.as_bool())
                                 : (lb.as_bool() || rb.as_bool()));
  }

  const Value l = lhs_->evaluate(ctx);
  const Value r = rhs_->evaluate(ctx);
  if (l.is_error() || r.is_error()) {
    return Value::error();
  }
  if (l.is_undefined() || r.is_undefined()) {
    return Value::undefined();
  }

  // String comparisons (case-insensitive, per ClassAd ==).
  if (l.is_string() && r.is_string()) {
    const int cmp = lower(l.as_string()).compare(lower(r.as_string()));
    switch (op_) {
      case BinaryOp::kEq:
        return Value::boolean(cmp == 0);
      case BinaryOp::kNe:
        return Value::boolean(cmp != 0);
      case BinaryOp::kLt:
        return Value::boolean(cmp < 0);
      case BinaryOp::kLe:
        return Value::boolean(cmp <= 0);
      case BinaryOp::kGt:
        return Value::boolean(cmp > 0);
      case BinaryOp::kGe:
        return Value::boolean(cmp >= 0);
      default:
        return Value::error();
    }
  }

  if (l.is_bool() && r.is_bool() && (op_ == BinaryOp::kEq || op_ == BinaryOp::kNe)) {
    return Value::boolean((l.as_bool() == r.as_bool()) == (op_ == BinaryOp::kEq));
  }

  if (!l.is_number() || !r.is_number()) {
    return Value::error();
  }

  const bool both_int = l.type() == Value::Type::kInt && r.type() == Value::Type::kInt;
  const double lf = l.as_number();
  const double rf = r.as_number();
  switch (op_) {
    case BinaryOp::kAdd:
      return both_int ? Value::integer(l.as_int() + r.as_int()) : Value::real(lf + rf);
    case BinaryOp::kSub:
      return both_int ? Value::integer(l.as_int() - r.as_int()) : Value::real(lf - rf);
    case BinaryOp::kMul:
      return both_int ? Value::integer(l.as_int() * r.as_int()) : Value::real(lf * rf);
    case BinaryOp::kDiv:
      if (both_int) {
        return r.as_int() == 0 ? Value::error() : Value::integer(l.as_int() / r.as_int());
      }
      return rf == 0.0 ? Value::error() : Value::real(lf / rf);
    case BinaryOp::kMod:
      if (!both_int || r.as_int() == 0) {
        return Value::error();
      }
      return Value::integer(l.as_int() % r.as_int());
    case BinaryOp::kLt:
      return Value::boolean(lf < rf);
    case BinaryOp::kLe:
      return Value::boolean(lf <= rf);
    case BinaryOp::kGt:
      return Value::boolean(lf > rf);
    case BinaryOp::kGe:
      return Value::boolean(lf >= rf);
    case BinaryOp::kEq:
      return Value::boolean(lf == rf);
    case BinaryOp::kNe:
      return Value::boolean(lf != rf);
    default:
      return Value::error();
  }
}

std::string BinaryExpr::unparse() const {
  const char* op = "?";
  switch (op_) {
    case BinaryOp::kAdd:
      op = "+";
      break;
    case BinaryOp::kSub:
      op = "-";
      break;
    case BinaryOp::kMul:
      op = "*";
      break;
    case BinaryOp::kDiv:
      op = "/";
      break;
    case BinaryOp::kMod:
      op = "%";
      break;
    case BinaryOp::kLt:
      op = "<";
      break;
    case BinaryOp::kLe:
      op = "<=";
      break;
    case BinaryOp::kGt:
      op = ">";
      break;
    case BinaryOp::kGe:
      op = ">=";
      break;
    case BinaryOp::kEq:
      op = "==";
      break;
    case BinaryOp::kNe:
      op = "!=";
      break;
    case BinaryOp::kAnd:
      op = "&&";
      break;
    case BinaryOp::kOr:
      op = "||";
      break;
  }
  std::string out = "(";
  out.append(lhs_->unparse()).append(" ").append(op).append(" ");
  out.append(rhs_->unparse()).append(")");
  return out;
}

Value ConditionalExpr::evaluate(EvalContext& ctx) const {
  const Value c = cond_->evaluate(ctx);
  if (c.is_error() || c.is_undefined()) {
    return c;
  }
  if (!c.is_bool() && !c.is_number()) {
    return Value::error();
  }
  const bool taken = c.is_bool() ? c.as_bool() : c.as_number() != 0.0;
  return taken ? then_->evaluate(ctx) : otherwise_->evaluate(ctx);
}

std::string ConditionalExpr::unparse() const {
  std::string out = "(";
  out.append(cond_->unparse()).append(" ? ").append(then_->unparse()).append(" : ");
  out.append(otherwise_->unparse()).append(")");
  return out;
}

Value FunctionCallExpr::evaluate(EvalContext& ctx) const {
  const std::string fn = lower(name_);
  std::vector<Value> args;
  args.reserve(args_.size());
  for (const ExprPtr& a : args_) {
    args.push_back(a->evaluate(ctx));
  }

  auto arity = [&](std::size_t n) { return args.size() == n; };

  if (fn == "isundefined" && arity(1)) {
    return Value::boolean(args[0].is_undefined());
  }
  if (fn == "iserror" && arity(1)) {
    return Value::boolean(args[0].is_error());
  }
  // The remaining builtins propagate UNDEFINED/ERROR strictly.
  for (const Value& a : args) {
    if (a.is_error()) {
      return Value::error();
    }
    if (a.is_undefined()) {
      return Value::undefined();
    }
  }
  if (fn == "int" && arity(1) && args[0].is_number()) {
    return Value::integer(static_cast<std::int64_t>(args[0].as_number()));
  }
  if (fn == "real" && arity(1) && args[0].is_number()) {
    return Value::real(args[0].as_number());
  }
  if (fn == "floor" && arity(1) && args[0].is_number()) {
    return Value::integer(static_cast<std::int64_t>(std::floor(args[0].as_number())));
  }
  if (fn == "ceil" && arity(1) && args[0].is_number()) {
    return Value::integer(static_cast<std::int64_t>(std::ceil(args[0].as_number())));
  }
  if (fn == "round" && arity(1) && args[0].is_number()) {
    return Value::integer(static_cast<std::int64_t>(std::llround(args[0].as_number())));
  }
  if (fn == "abs" && arity(1)) {
    if (args[0].type() == Value::Type::kInt) {
      return Value::integer(std::abs(args[0].as_int()));
    }
    if (args[0].is_number()) {
      return Value::real(std::fabs(args[0].as_number()));
    }
  }
  if ((fn == "min" || fn == "max") && arity(2) && args[0].is_number() && args[1].is_number()) {
    const bool take_first = (fn == "min") == (args[0].as_number() <= args[1].as_number());
    return take_first ? args[0] : args[1];
  }
  if (fn == "strcat") {
    std::string out;
    for (const Value& a : args) {
      if (!a.is_string()) {
        return Value::error();
      }
      out += a.as_string();
    }
    return Value::string(std::move(out));
  }
  return Value::error();
}

std::string FunctionCallExpr::unparse() const {
  std::string out = name_ + "(";
  for (std::size_t i = 0; i < args_.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += args_[i]->unparse();
  }
  return out + ")";
}

ExprPtr literal(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprPtr attr_ref(std::string name) {
  return std::make_shared<AttrRefExpr>(AttrRefExpr::Scope::kDefault, std::move(name));
}

}  // namespace erms::classad
