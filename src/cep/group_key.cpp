#include "cep/group_key.h"

#include <charconv>

#include "snapshot/codec.h"

namespace erms::cep {

namespace {

/// The text `v` renders to; ints are rendered into `buf`.
std::string_view rendered(const KeyValue& v, char (&buf)[24]) {
  switch (v.kind) {
    case KeyKind::kInt: {
      const auto res = std::to_chars(buf, buf + sizeof(buf), v.i);
      return {buf, static_cast<std::size_t>(res.ptr - buf)};
    }
    case KeyKind::kBool:
      return v.i != 0 ? "true" : "false";
    case KeyKind::kReal:
    case KeyKind::kString:
      return v.text;
    case KeyKind::kAbsent:
      break;
  }
  return {};
}

/// Streams the bytes of a key's components rendered and joined by '\x1f'.
class JoinedText {
 public:
  explicit JoinedText(std::span<const KeyValue> key) : key_(key) {
    if (!key_.empty()) {
      cur_ = rendered(key_[0], buf_);
    }
  }

  /// The next byte (0..255), or -1 past the end.
  int next() {
    if (pos_ == cur_.size()) {
      if (idx_ + 1 >= key_.size()) {
        return -1;
      }
      cur_ = rendered(key_[++idx_], buf_);
      pos_ = 0;
      return 0x1f;
    }
    return static_cast<unsigned char>(cur_[pos_++]);
  }

 private:
  std::span<const KeyValue> key_;
  std::size_t idx_{0};
  std::size_t pos_{0};
  std::string_view cur_;
  char buf_[24];
};

}  // namespace

void append_rendered(std::string& out, const KeyValue& v) {
  char buf[24];
  out.append(rendered(v, buf));
}

int compare_rendered(std::span<const KeyValue> a, std::span<const KeyValue> b) {
  JoinedText ta{a};
  JoinedText tb{b};
  for (;;) {
    const int x = ta.next();
    const int y = tb.next();
    if (x != y) {
      return x < y ? -1 : 1;
    }
    if (x < 0) {
      break;
    }
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind) {
      return a[i].kind < b[i].kind ? -1 : 1;
    }
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    char ba[24];
    char bb[24];
    if (const int c = rendered(a[i], ba).compare(rendered(b[i], bb)); c != 0) {
      return c;
    }
  }
  return 0;
}

std::uint32_t KeyTexts::find(std::string_view text) const {
  const auto it = index_.find(text);
  return it == index_.end() ? kNone : it->second;
}

std::uint32_t KeyTexts::acquire(std::string_view text) {
  if (const std::uint32_t id = find(text); id != kNone) {
    ++refs_[id];
    return id;
  }
  std::uint32_t id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
    texts_[id].assign(text);
  } else {
    id = static_cast<std::uint32_t>(texts_.size());
    texts_.emplace_back(text);
    refs_.push_back(0);
  }
  refs_[id] = 1;
  index_.emplace(texts_[id], id);
  return id;
}

void KeyTexts::release(std::uint32_t id) {
  if (--refs_[id] == 0) {
    index_.erase(texts_[id]);
    texts_[id].clear();
    free_.push_back(id);
  }
}

void KeyTexts::save(snapshot::Writer& w) const {
  w.u64(texts_.size());
  for (std::size_t i = 0; i < texts_.size(); ++i) {
    w.str(texts_[i]);
    w.u32(refs_[i]);
  }
  w.u64(free_.size());
  for (const std::uint32_t id : free_) w.u32(id);
}

void KeyTexts::load(snapshot::Reader& r) {
  texts_.clear();
  refs_.clear();
  free_.clear();
  index_.clear();
  const std::uint64_t n = r.u64();
  if (!r.require(n <= r.remaining() / 12 + 1, "key text count")) return;
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    texts_.push_back(r.str());
    refs_.push_back(r.u32());
    if (refs_.back() > 0 &&
        !r.require(index_.emplace(texts_.back(), static_cast<std::uint32_t>(i)).second,
                   "duplicate key text")) {
      return;
    }
  }
  const std::uint64_t nfree = r.u64();
  if (!r.require(nfree <= n, "key text freelist size")) return;
  for (std::uint64_t i = 0; i < nfree && r.ok(); ++i) {
    const std::uint32_t id = r.u32();
    if (!r.require(id < n && refs_[id] == 0, "key text freelist entry")) return;
    free_.push_back(id);
  }
}

}  // namespace erms::cep
