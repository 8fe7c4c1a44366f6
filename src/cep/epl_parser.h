#pragma once

#include <string_view>

#include "cep/query.h"

namespace erms::cep {

/// Parse the engine's EPL-like continuous-query language — the paper notes
/// that "CEP system uses an SQL-standard-based continuous query language to
/// express the query demands" (§III.C). Grammar:
///
///   SELECT <agg> [AS alias] {, <agg> [AS alias]}
///   FROM <stream>
///   [WHERE <classad-expr>]
///   [GROUP BY <attr> {, <attr>}]
///   WINDOW TIME <number>[s|ms|m|h] | WINDOW LENGTH <count>
///   [HAVING <classad-expr>]
///
/// where <agg> is count(*) | sum(a) | avg(a) | min(a) | max(a).
/// Keywords are case-insensitive. WHERE/HAVING bodies use the ClassAd
/// expression language. Throws classad::ParseError on malformed input.
/// Parsing does not check the WHERE shape: register_query accepts only
/// conjunctions of `attr OP literal` compares and bare `attr` tests, and
/// throws std::invalid_argument for anything else.
Query parse_epl(std::string_view text);

}  // namespace erms::cep
