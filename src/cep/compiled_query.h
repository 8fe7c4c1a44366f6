#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cep/group_key.h"
#include "cep/query.h"
#include "cep/slotted_event.h"

namespace erms::cep {

/// One `attr OP literal` predicate resolved to a slot. Evaluation follows
/// ClassAd three-valued semantics collapsed to "strictly true": a missing
/// attribute (UNDEFINED) or a type mismatch (ERROR) both fail the predicate,
/// exactly as ClassAd's `is_bool() && as_bool()` test of the expression.
struct FastPred {
  Slot slot{kNoSlot};
  classad::BinaryOp op{classad::BinaryOp::kEq};
  /// When true this is a bare `WHERE attr` truthiness test, not a compare.
  bool truthy{false};
  /// For a truth test: whether a number counts (non-zero = true). ClassAd
  /// coerces numbers to booleans inside `&&` only; a bare attribute that is
  /// the whole WHERE must itself be a boolean to be strictly true.
  bool numbers_truthy{false};
  SlotValue::Kind kind{SlotValue::Kind::kNull};  // literal's kind
  bool bval{false};
  double nval{0.0};         // int literals promoted (ClassAd compares as double)
  std::string sval_lower;   // string literal, pre-folded for ClassAd's
                            // case-insensitive string compare

  friend bool operator==(const FastPred&, const FastPred&) = default;
};

/// Strictly-true evaluation of one fast predicate against a slotted event.
[[nodiscard]] bool eval_fast_pred(const FastPred& p, const SlottedEvent& e);

/// A query's execution plan, resolved against the engine's symbol tables at
/// register_query time: stream and attribute names become slots, and the
/// WHERE clause, which must be a conjunction of `attr OP literal` compares
/// and bare `attr` truth tests, becomes FastPreds evaluated straight against
/// the slots.
struct CompiledQuery {
  Slot stream{kNoSlot};          // kNoSlot = FROM clause empty (any stream)
  std::vector<FastPred> preds;   // conjunction; all must be strictly true.
                                 // Empty = no WHERE (accept all).

  std::vector<Slot> group_slots;                 // parallel to query.group_by
  std::vector<Slot> agg_slots;                   // parallel to query.select
  std::vector<std::int32_t> agg_numeric_index;   // -1 for count(*)
  std::vector<bool> agg_is_minmax;               // parallel to query.select
  std::size_t numeric_aggs{0};

  /// Every attribute slot the plan reads: WHERE predicates, GROUP BY,
  /// aggregates.
  std::vector<Slot> reads;

  /// Throws std::invalid_argument for a GROUP BY wider than kMaxGroupBy or
  /// a WHERE clause of any other shape. Both checks run before any name is
  /// interned, so a rejected query leaves the symbol tables untouched.
  static CompiledQuery compile(const Query& q, SymbolTable& attrs, SymbolTable& streams);
};

}  // namespace erms::cep
