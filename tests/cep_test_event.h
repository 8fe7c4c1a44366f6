#pragma once

// A test-side CEP event: a stream name, a time and named attribute values.
// Engines take only slotted events, and slots differ from engine to engine,
// so push() interns the names into the target engine's own tables and then
// calls push_slotted. render() turns snapshot rows into comparable text.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cep/engine.h"
#include "sim/time.h"

namespace erms::cep {

struct TestEvent {
  sim::SimTime time;
  std::string stream;
  std::vector<std::pair<std::string, SlotValue>> attrs;  // set order; a later set wins

  TestEvent(sim::SimTime t, std::string stream_name)
      : time(t), stream(std::move(stream_name)) {}

  TestEvent& with_bool(std::string name, bool v) {
    SlotValue& sv = with(std::move(name), SlotValue::Kind::kBool);
    sv.b = v;
    return *this;
  }
  TestEvent& with_int(std::string name, std::int64_t v) {
    SlotValue& sv = with(std::move(name), SlotValue::Kind::kInt);
    sv.i = v;
    return *this;
  }
  TestEvent& with_real(std::string name, double v) {
    SlotValue& sv = with(std::move(name), SlotValue::Kind::kReal);
    sv.r = v;
    return *this;
  }
  TestEvent& with_string(std::string name, std::string v) {
    SlotValue& sv = with(std::move(name), SlotValue::Kind::kString);
    sv.s = std::move(v);
    return *this;
  }

  /// The value of `name` (case-insensitive, like attribute slots), if set.
  [[nodiscard]] const SlotValue* find(const std::string& name) const {
    for (auto it = attrs.rbegin(); it != attrs.rend(); ++it) {
      if (std::equal(it->first.begin(), it->first.end(), name.begin(), name.end(),
                     [](unsigned char a, unsigned char b) {
                       return std::tolower(a) == std::tolower(b);
                     })) {
        return &it->second;
      }
    }
    return nullptr;
  }
  [[nodiscard]] std::optional<std::string> get_string(const std::string& name) const {
    const SlotValue* v = find(name);
    return v != nullptr && v->kind == SlotValue::Kind::kString ? std::optional(v->s)
                                                                : std::nullopt;
  }
  [[nodiscard]] std::optional<std::int64_t> get_int(const std::string& name) const {
    const SlotValue* v = find(name);
    return v != nullptr && v->kind == SlotValue::Kind::kInt ? std::optional(v->i)
                                                             : std::nullopt;
  }

  /// Fill `out` with this event, interning names into `engine`'s tables.
  void to_slotted(EngineBase& engine, SlottedEvent& out) const {
    out.reset(time, engine.stream_symbols().intern(stream));
    for (const auto& [name, v] : attrs) {
      const Slot slot = engine.attr_symbols().intern(name);
      switch (v.kind) {
        case SlotValue::Kind::kBool:
          out.set_bool(slot, v.b);
          break;
        case SlotValue::Kind::kInt:
          out.set_int(slot, v.i);
          break;
        case SlotValue::Kind::kReal:
          out.set_real(slot, v.r);
          break;
        case SlotValue::Kind::kString:
          out.set_string(slot, v.s);
          break;
        case SlotValue::Kind::kNull:
          break;
      }
    }
  }

 private:
  SlotValue& with(std::string name, SlotValue::Kind kind) {
    SlotValue& sv = attrs.emplace_back(std::move(name), SlotValue{}).second;
    sv.kind = kind;
    return sv;
  }
};

/// Render snapshot rows to one comparable string (ClassAd::unparse is
/// deterministic: attributes print lower-cased in sorted order).
inline std::string render(const std::vector<ResultRow>& rows) {
  std::string out;
  for (const ResultRow& row : rows) {
    out += row.values.unparse();
    out += '\n';
  }
  return out;
}

/// Push `e` into `engine` through push_slotted.
inline void push(EngineBase& engine, const TestEvent& e) {
  SlottedEvent slotted;
  e.to_slotted(engine, slotted);
  engine.push_slotted(slotted);
}

}  // namespace erms::cep
