#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cep/group_key.h"
#include "cep/query.h"
#include "cep/slotted_event.h"
#include "classad/classad.h"

namespace erms::cep {

/// One `attr OP literal` predicate resolved to a slot. Evaluation follows
/// ClassAd three-valued semantics collapsed to "strictly true": a missing
/// attribute (UNDEFINED) or a type mismatch (ERROR) both fail the predicate,
/// exactly as the engine's old `is_bool() && as_bool()` filter did.
struct FastPred {
  Slot slot{kNoSlot};
  classad::BinaryOp op{classad::BinaryOp::kEq};
  /// When true this is a bare `WHERE attr` truthiness test, not a compare.
  bool truthy{false};
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
/// register_query time: stream and attribute names become slots, and WHERE
/// predicates of the common `attr == const [&& ...]` shape become FastPreds
/// evaluated without a ClassAd. Everything else falls back to building a
/// ClassAd per event and running the original expression machinery.
struct CompiledQuery {
  Slot stream{kNoSlot};          // kNoSlot = FROM clause empty (any stream)
  enum class WhereMode : std::uint8_t { kNone, kFast, kClassAd };
  WhereMode where{WhereMode::kNone};
  std::vector<FastPred> preds;   // conjunction; all must be strictly true

  std::vector<Slot> group_slots;                 // parallel to query.group_by
  std::vector<Slot> agg_slots;                   // parallel to query.select
  std::vector<std::int32_t> agg_numeric_index;   // -1 for count(*)
  std::vector<bool> agg_is_minmax;               // parallel to query.select
  std::size_t numeric_aggs{0};

  /// Every attribute slot the plan reads: WHERE (fast predicates or every
  /// attribute the fallback expression references), GROUP BY, aggregates.
  std::vector<Slot> reads;

  /// Throws std::invalid_argument for a GROUP BY wider than kMaxGroupBy.
  static CompiledQuery compile(const Query& q, SymbolTable& attrs, SymbolTable& streams);
};

/// Rebuild a ClassAd view of a slotted event (the compatibility adapter for
/// WHERE expressions the fast path cannot evaluate).
void to_classad(const SlottedEvent& e, const SymbolTable& attrs, classad::ClassAd& out);

}  // namespace erms::cep
