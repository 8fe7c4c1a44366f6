#pragma once

#include <memory>
#include <string>
#include <vector>

#include "classad/value.h"

namespace erms::classad {

class ClassAd;

/// Evaluation context: the ad the expression belongs to (MY) and, during
/// matchmaking, the candidate ad (TARGET). `depth` guards against reference
/// cycles between attributes.
struct EvalContext {
  const ClassAd* my = nullptr;
  const ClassAd* target = nullptr;
  int depth = 0;

  static constexpr int kMaxDepth = 64;
};

/// Immutable expression tree node. Shared (not unique) pointers because ads
/// are copied when jobs are queued and the trees are immutable.
class Expr {
 public:
  virtual ~Expr() = default;
  [[nodiscard]] virtual Value evaluate(EvalContext& ctx) const = 0;
  [[nodiscard]] virtual std::string unparse() const = 0;
};

using ExprPtr = std::shared_ptr<const Expr>;

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value v) : value_(std::move(v)) {}
  [[nodiscard]] Value evaluate(EvalContext&) const override { return value_; }
  [[nodiscard]] std::string unparse() const override { return value_.to_string(); }

  [[nodiscard]] const Value& value() const { return value_; }

 private:
  Value value_;
};

/// Attribute reference, optionally scoped: `MY.attr`, `TARGET.attr`, `attr`.
/// Unscoped references resolve in MY first, then TARGET (Condor semantics).
class AttrRefExpr final : public Expr {
 public:
  enum class Scope { kDefault, kMy, kTarget };

  AttrRefExpr(Scope scope, std::string name) : scope_(scope), name_(std::move(name)) {}

  [[nodiscard]] Value evaluate(EvalContext& ctx) const override;
  [[nodiscard]] std::string unparse() const override;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Scope scope() const { return scope_; }

 private:
  Scope scope_;
  std::string name_;
};

enum class UnaryOp { kNot, kMinus };

class UnaryExpr final : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand) : op_(op), operand_(std::move(operand)) {}
  [[nodiscard]] Value evaluate(EvalContext& ctx) const override;
  [[nodiscard]] std::string unparse() const override;

  [[nodiscard]] const ExprPtr& operand() const { return operand_; }

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
  kAnd,
  kOr,
};

class BinaryExpr final : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  [[nodiscard]] Value evaluate(EvalContext& ctx) const override;
  [[nodiscard]] std::string unparse() const override;

  [[nodiscard]] BinaryOp op() const { return op_; }
  [[nodiscard]] const ExprPtr& lhs() const { return lhs_; }
  [[nodiscard]] const ExprPtr& rhs() const { return rhs_; }

 private:
  BinaryOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// Ternary `cond ? a : b` (with ClassAd's UNDEFINED-propagating condition).
class ConditionalExpr final : public Expr {
 public:
  ConditionalExpr(ExprPtr cond, ExprPtr then, ExprPtr otherwise)
      : cond_(std::move(cond)), then_(std::move(then)), otherwise_(std::move(otherwise)) {}
  [[nodiscard]] Value evaluate(EvalContext& ctx) const override;
  [[nodiscard]] std::string unparse() const override;

  [[nodiscard]] std::vector<ExprPtr> children() const { return {cond_, then_, otherwise_}; }

 private:
  ExprPtr cond_;
  ExprPtr then_;
  ExprPtr otherwise_;
};

/// Builtin function call: isUndefined, isError, int, real, floor, ceil,
/// round, min, max, abs, strcat.
class FunctionCallExpr final : public Expr {
 public:
  FunctionCallExpr(std::string name, std::vector<ExprPtr> args)
      : name_(std::move(name)), args_(std::move(args)) {}
  [[nodiscard]] Value evaluate(EvalContext& ctx) const override;
  [[nodiscard]] std::string unparse() const override;

  [[nodiscard]] const std::vector<ExprPtr>& args() const { return args_; }

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
};

/// Convenience constructors.
ExprPtr literal(Value v);
ExprPtr attr_ref(std::string name);

}  // namespace erms::classad
