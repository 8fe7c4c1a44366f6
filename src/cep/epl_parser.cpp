#include "cep/epl_parser.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "classad/parser.h"
#include "util/strings.h"

namespace erms::cep {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// Split the statement into clauses keyed by keyword, respecting string
/// literals so a quoted "where" cannot start a clause.
struct Clause {
  std::string keyword;  // lower-case: select / from / where / group / window / having
  std::string body;
};

bool keyword_at(const std::string& low, std::size_t i, std::string_view kw) {
  if (low.compare(i, kw.size(), kw) != 0) {
    return false;
  }
  const bool start_ok = i == 0 || std::isspace(static_cast<unsigned char>(low[i - 1])) != 0;
  const std::size_t end = i + kw.size();
  const bool end_ok =
      end >= low.size() || std::isspace(static_cast<unsigned char>(low[end])) != 0;
  return start_ok && end_ok;
}

std::vector<Clause> split_clauses(std::string_view text) {
  static const std::vector<std::string> kKeywords = {"select", "from",   "where",
                                                     "group",  "window", "having"};
  const std::string input(text);
  const std::string low = lower(input);
  std::vector<Clause> clauses;
  std::size_t i = 0;
  bool in_string = false;
  std::size_t body_start = 0;
  auto close_clause = [&](std::size_t end) {
    if (!clauses.empty()) {
      clauses.back().body =
          std::string(util::trim(std::string_view(input).substr(body_start, end - body_start)));
    }
  };
  while (i < input.size()) {
    const char c = input[i];
    if (c == '"') {
      in_string = !in_string;
      ++i;
      continue;
    }
    if (!in_string) {
      bool matched = false;
      for (const std::string& kw : kKeywords) {
        if (keyword_at(low, i, kw)) {
          close_clause(i);
          clauses.push_back(Clause{kw, ""});
          i += kw.size();
          // "group" takes a "by" particle.
          if (kw == "group") {
            while (i < input.size() && std::isspace(static_cast<unsigned char>(input[i])) != 0) {
              ++i;
            }
            if (keyword_at(low, i, "by")) {
              i += 2;
            } else {
              throw classad::ParseError("expected BY after " + kw, i);
            }
          }
          body_start = i;
          matched = true;
          break;
        }
      }
      if (matched) {
        continue;
      }
    }
    ++i;
  }
  close_clause(input.size());
  if (clauses.empty() || clauses.front().keyword != "select") {
    throw classad::ParseError("statement must start with select", 0);
  }
  return clauses;
}

Aggregate parse_aggregate(std::string_view item) {
  const std::string text(util::trim(item));
  const std::string low = lower(text);

  Aggregate agg;
  std::size_t open = text.find('(');
  const std::size_t close = text.find(')');
  if (open == std::string::npos || close == std::string::npos || close < open) {
    throw classad::ParseError("expected aggregate like count(*) in SELECT", 0);
  }
  const std::string fn = std::string(util::trim(std::string_view(low).substr(0, open)));
  static const std::map<std::string, Aggregate::Kind> kKinds = {
      {"count", Aggregate::Kind::kCount}, {"sum", Aggregate::Kind::kSum},
      {"avg", Aggregate::Kind::kAvg},     {"min", Aggregate::Kind::kMin},
      {"max", Aggregate::Kind::kMax}};
  const auto kind_it = kKinds.find(fn);
  if (kind_it == kKinds.end()) {
    throw classad::ParseError("unknown aggregate '" + fn + "'", 0);
  }
  agg.kind = kind_it->second;

  const std::string arg =
      std::string(util::trim(std::string_view(text).substr(open + 1, close - open - 1)));
  if (agg.kind == Aggregate::Kind::kCount) {
    if (arg != "*" && !arg.empty()) {
      throw classad::ParseError("count takes '*'", 0);
    }
  } else {
    if (arg.empty() || arg == "*") {
      throw classad::ParseError("aggregate needs an attribute argument", 0);
    }
    agg.attr = arg;
  }

  // Optional "AS alias".
  const std::string rest = std::string(util::trim(std::string_view(text).substr(close + 1)));
  if (!rest.empty()) {
    const std::string rest_low = lower(rest);
    if (rest_low.size() < 3 || rest_low.compare(0, 2, "as") != 0 ||
        std::isspace(static_cast<unsigned char>(rest_low[2])) == 0) {
      throw classad::ParseError("expected AS <alias> after aggregate", 0);
    }
    agg.alias = std::string(util::trim(std::string_view(rest).substr(2)));
  } else {
    agg.alias = fn + (agg.attr.empty() ? "" : "_" + agg.attr);
  }
  return agg;
}

WindowSpec parse_window(std::string_view body) {
  const std::string text = lower(std::string(util::trim(body)));
  if (util::starts_with(text, "time")) {
    const std::string rest = std::string(util::trim(std::string_view(text).substr(4)));
    char* end = nullptr;
    const double n = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) {
      throw classad::ParseError("expected duration after WINDOW TIME", 0);
    }
    const std::string unit(util::trim(std::string_view(end)));
    double secs = n;
    if (unit == "ms") {
      secs = n / 1000.0;
    } else if (unit == "m" || unit == "min") {
      secs = n * 60.0;
    } else if (unit == "h") {
      secs = n * 3600.0;
    } else if (!(unit.empty() || unit == "s")) {
      throw classad::ParseError("unknown time unit '" + unit + "'", 0);
    }
    // Whole microseconds must fit SimDuration: this also rejects nan/inf.
    if (!(secs >= 0.0 && secs < 9.2e12)) {
      throw classad::ParseError("WINDOW TIME out of range", 0);
    }
    return WindowSpec::time(sim::seconds(secs));
  }
  if (util::starts_with(text, "length")) {
    const std::string rest = std::string(util::trim(std::string_view(text).substr(6)));
    char* end = nullptr;
    const long long n = std::strtoll(rest.c_str(), &end, 10);
    if (end == rest.c_str() || n <= 0) {
      throw classad::ParseError("expected positive count after WINDOW LENGTH", 0);
    }
    return WindowSpec::length(static_cast<std::size_t>(n));
  }
  throw classad::ParseError("expected WINDOW TIME or WINDOW LENGTH", 0);
}

}  // namespace

Query parse_epl(std::string_view text) {
  Query query;
  bool saw_window = false;
  for (const Clause& clause : split_clauses(text)) {
    if (clause.keyword == "select") {
      for (const std::string_view item : util::split(clause.body, ',')) {
        query.select.push_back(parse_aggregate(item));
      }
      if (query.select.empty()) {
        throw classad::ParseError("empty SELECT list", 0);
      }
    } else if (clause.keyword == "from") {
      query.from = std::string(util::trim(clause.body));
      if (query.from.empty()) {
        throw classad::ParseError("empty FROM clause", 0);
      }
    } else if (clause.keyword == "where") {
      query.where = classad::parse_expr(clause.body);
    } else if (clause.keyword == "group") {
      for (const std::string_view item : util::split(clause.body, ',')) {
        const std::string attr(util::trim(item));
        if (attr.empty()) {
          throw classad::ParseError("empty GROUP BY attribute", 0);
        }
        query.group_by.push_back(attr);
      }
    } else if (clause.keyword == "window") {
      query.window = parse_window(clause.body);
      saw_window = true;
    } else if (clause.keyword == "having") {
      query.having = classad::parse_expr(clause.body);
    }
  }
  if (query.from.empty()) {
    throw classad::ParseError("missing FROM clause", 0);
  }
  if (!saw_window) {
    throw classad::ParseError("missing WINDOW clause", 0);
  }
  return query;
}

}  // namespace erms::cep
