#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace erms::snapshot {
class Reader;
class Writer;
}

namespace erms::cep {

/// Kind of one GROUP BY component. Groups are keyed by (kind, value), so an
/// int 5, a real 5.0 and a string "5" are three different groups even though
/// all three render as "5".
enum class KeyKind : std::uint8_t { kAbsent, kBool, kInt, kReal, kString };

/// Most GROUP BY attributes one query may name: a group's kind tags share one
/// 32-bit word, four bits per component.
inline constexpr std::size_t kMaxGroupBy = 8;

/// One GROUP BY component as the engine hands it to visitors and takes it in
/// lookups. Ints and bools carry their value; strings carry their text and
/// reals the text they render to (`%g`), which is what they group by. Text
/// handed out by an engine views its interner: valid until the engine next
/// changes.
struct KeyValue {
  KeyKind kind{KeyKind::kAbsent};
  std::int64_t i{0};      // kInt value; kBool as 0/1
  std::string_view text;  // kString value; kReal rendering

  constexpr KeyValue() = default;
  constexpr KeyValue(std::int64_t v) : kind(KeyKind::kInt), i(v) {}
  constexpr KeyValue(std::string_view s) : kind(KeyKind::kString), text(s) {}
  constexpr KeyValue(const char* s) : KeyValue(std::string_view(s)) {}
  KeyValue(const std::string& s) : KeyValue(std::string_view(s)) {}
  static constexpr KeyValue boolean(bool b) {
    KeyValue v;
    v.kind = KeyKind::kBool;
    v.i = b ? 1 : 0;
    return v;
  }
  static constexpr KeyValue real(std::string_view rendered) {
    KeyValue v{rendered};
    v.kind = KeyKind::kReal;
    return v;
  }
};

/// A group's text as result rows show it: strings unquoted, ints in
/// decimal, bools as true/false, reals as `%g`, absent as "".
void append_rendered(std::string& out, const KeyValue& v);

/// Order of two keys of one query by the byte order of their components
/// rendered and joined with '\x1f' (so "10" sorts before "2"). Keys whose
/// joined renderings coincide order by kinds, then component by component.
/// Renders into stack buffers: no allocation. Returns <0, 0 or >0.
[[nodiscard]] int compare_rendered(std::span<const KeyValue> a, std::span<const KeyValue> b);

/// Interns the text of string and real GROUP BY components to dense 32-bit
/// ids, shared by every query of one engine. Each group holding an id holds
/// one reference; the last release frees the id for reuse (LIFO), so a
/// high-churn string group-by does not grow the table without bound.
class KeyTexts {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// Id of `text`, or kNone when no live group uses it. Never mutates.
  [[nodiscard]] std::uint32_t find(std::string_view text) const;
  /// Id of `text` with one more reference, interning it if new.
  std::uint32_t acquire(std::string_view text);
  /// One more reference to a live id.
  void retain(std::uint32_t id) { ++refs_[id]; }
  /// Drop one reference; the last one frees the id.
  void release(std::uint32_t id);
  [[nodiscard]] std::string_view text(std::uint32_t id) const { return texts_[id]; }
  /// Texts some live group uses.
  [[nodiscard]] std::size_t size() const { return index_.size(); }
  /// Whether `id` names a live text (snapshot validation).
  [[nodiscard]] bool valid(std::uint32_t id) const { return id < refs_.size() && refs_[id] > 0; }

  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r);

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };
  std::vector<std::string> texts_;   // by id; "" for a freed id
  std::vector<std::uint32_t> refs_;  // by id; 0 for a freed id
  std::vector<std::uint32_t> free_;  // freed ids, reused last-in first-out
  std::unordered_map<std::string, std::uint32_t, Hash, std::equal_to<>> index_;
};

}  // namespace erms::cep
