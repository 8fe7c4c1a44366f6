#pragma once

#include <string>
#include <vector>

#include "cep/window.h"
#include "classad/classad.h"
#include "classad/expr.h"

namespace erms::cep {

/// One aggregate in the SELECT list, e.g. `count(*) AS n` or
/// `avg(duration) AS d`.
struct Aggregate {
  enum class Kind { kCount, kSum, kAvg, kMin, kMax };
  Kind kind{Kind::kCount};
  std::string attr;  // empty for count(*)
  std::string alias;
};

/// A continuous query over one stream — the structured form of
///   SELECT <aggregates> FROM <stream> [WHERE <expr>]
///   [GROUP BY <attrs>] WINDOW TIME <dur> | LENGTH <n> [HAVING <expr>]
/// WHERE is evaluated against each event's attribute ad; HAVING against a
/// result row holding the group keys and aggregate aliases.
struct Query {
  std::string name;
  std::string from;
  classad::ExprPtr where;   // nullptr = accept all
  std::vector<std::string> group_by;
  std::vector<Aggregate> select;
  classad::ExprPtr having;  // nullptr = always emit
  WindowSpec window;
};

/// A result row: the group's key attributes plus the aggregate values, as a
/// ClassAd (so HAVING can be an ordinary expression).
struct ResultRow {
  classad::ClassAd values;
};

}  // namespace erms::cep
