#include "ec/codec.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.h"

namespace erms::ec {

namespace {

/// Sub-range size for pool-parallel region work: amortizes dispatch and
/// keeps a chunk's rows cache-resident.
constexpr std::size_t kChunkBytes = 64 * 1024;
constexpr std::size_t kParallelMinBytes = 2 * kChunkBytes;

/// Row-echelon basis over GF(2^8) with one slot per pivot column. Rows are
/// normalized to a leading 1 at their pivot. Optionally tracks, for every
/// inserted row, its expression as a combination of the original inputs.
class EchelonBasis {
 public:
  explicit EchelonBasis(std::size_t cols, std::size_t track_inputs = 0)
      : cols_(cols), track_(track_inputs), rows_(cols), coeffs_(cols) {}

  /// Reduce `vec` (length cols) against the basis in place; `combo` (length
  /// track_inputs, may be empty when not tracking) is kept in sync. Returns
  /// the pivot column if a nonzero residual remains, nullopt if `vec`
  /// reduced to zero (i.e. it was in the span).
  std::optional<std::size_t> reduce(std::vector<GF256::Elem>& vec,
                                    std::vector<GF256::Elem>* combo) const {
    for (std::size_t p = 0; p < cols_; ++p) {
      if (vec[p] == 0) {
        continue;
      }
      if (rows_[p].empty()) {
        return p;
      }
      const GF256::Elem f = vec[p];
      for (std::size_t c = p; c < cols_; ++c) {
        vec[c] = GF256::sub(vec[c], GF256::mul(f, rows_[p][c]));
      }
      if (combo != nullptr) {
        for (std::size_t i = 0; i < track_; ++i) {
          (*combo)[i] = GF256::sub((*combo)[i], GF256::mul(f, coeffs_[p][i]));
        }
      }
    }
    return std::nullopt;
  }

  /// Insert a row (reduced first); returns false if it was dependent.
  bool insert(std::vector<GF256::Elem> vec, std::vector<GF256::Elem> combo) {
    const auto pivot = reduce(vec, track_ > 0 ? &combo : nullptr);
    if (!pivot) {
      return false;
    }
    const GF256::Elem inv = GF256::inv(vec[*pivot]);
    for (auto& v : vec) {
      v = GF256::mul(v, inv);
    }
    for (auto& v : combo) {
      v = GF256::mul(v, inv);
    }
    rows_[*pivot] = std::move(vec);
    coeffs_[*pivot] = std::move(combo);
    return true;
  }

  /// True if `vec` lies in the span; when tracking, `combo_out` receives the
  /// combination of original inputs that produces it.
  bool solve(std::vector<GF256::Elem> vec, std::vector<GF256::Elem>* combo_out) const {
    std::vector<GF256::Elem> combo(track_, 0);
    if (reduce(vec, track_ > 0 ? &combo : nullptr).has_value()) {
      return false;
    }
    if (combo_out != nullptr) {
      // reduce() accumulated the *negated* combination (vec - combo == 0);
      // in GF(2^8) negation is identity, so combo already is the answer.
      *combo_out = std::move(combo);
    }
    return true;
  }

 private:
  std::size_t cols_;
  std::size_t track_;
  std::vector<std::vector<GF256::Elem>> rows_;    // indexed by pivot column
  std::vector<std::vector<GF256::Elem>> coeffs_;  // combination per basis row
};

std::vector<GF256::Elem> matrix_row(const Matrix& m, std::size_t r) {
  return {m.row(r), m.row(r) + m.cols()};
}

}  // namespace

std::size_t RepairPlan::fanout() const {
  std::size_t n = 0;
  std::uint32_t prev = ~0u;
  for (const CellRef c : cells) {  // cells are sorted by shard
    if (c.shard != prev) {
      ++n;
      prev = c.shard;
    }
  }
  return n;
}

std::size_t RepairPlan::cells_on(std::size_t shard) const {
  std::size_t n = 0;
  for (const CellRef c : cells) {
    n += c.shard == shard ? 1 : 0;
  }
  return n;
}

bool ErasureCodec::verify(const std::vector<Shard>& data,
                          const std::vector<Shard>& parity) const {
  if (parity.size() != parity_shards()) {
    return false;
  }
  const std::vector<Shard> expect = encode(data);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    if (parity[i] != expect[i]) {
      return false;
    }
  }
  return true;
}

LinearCodec::LinearCodec(std::string name, std::size_t k, std::size_t m,
                         std::size_t s, Matrix generator)
    : name_(std::move(name)), k_(k), m_(m), s_(s), gen_(std::move(generator)) {
  if (k_ == 0 || m_ == 0 || s_ == 0) {
    throw std::invalid_argument("LinearCodec: need 1<=k, 1<=m, 1<=s");
  }
  if (gen_.rows() != (k_ + m_) * s_ || gen_.cols() != k_ * s_) {
    throw std::invalid_argument("LinearCodec: generator shape mismatch");
  }
  for (std::size_t r = 0; r < k_ * s_; ++r) {
    for (std::size_t c = 0; c < k_ * s_; ++c) {
      if (gen_.at(r, c) != (r == c ? 1 : 0)) {
        throw std::invalid_argument("LinearCodec: generator must be systematic");
      }
    }
  }
  const std::size_t rows = m_ * s_;
  const std::size_t cols = k_ * s_;
  parity_tables_.resize(rows * cols);
  parity_nonzero_.resize(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const GF256::Elem f = gen_.at(k_ * s_ + r, c);
      parity_tables_[r * cols + c].init(f);
      parity_nonzero_[r * cols + c] = f != 0 ? 1 : 0;
    }
  }
}

void LinearCodec::check_data_shards(const std::vector<Shard>& data) const {
  if (data.size() != k_) {
    throw std::invalid_argument("LinearCodec: wrong shard count");
  }
  for (const Shard& sh : data) {
    if (sh.size() != data.front().size()) {
      throw std::invalid_argument("LinearCodec: shards must be equal length");
    }
  }
  if (data.front().size() % s_ != 0) {
    throw std::invalid_argument("LinearCodec: shard length must be a multiple of subshards");
  }
}

void LinearCodec::apply_rows(const std::vector<MulTable>& tables,
                             const std::vector<std::uint8_t>& nonzero,
                             std::size_t rows, std::size_t cols,
                             const std::vector<const std::uint8_t*>& in_cells,
                             const std::vector<std::uint8_t*>& out_cells,
                             std::size_t cell_len) const {
  assert(tables.size() == rows * cols);
  assert(in_cells.size() == cols);
  assert(out_cells.size() == rows);
  if (cell_len == 0) {
    return;
  }
  const KernelKind kind = active_kernel();
  auto run_chunk = [&](std::size_t offset, std::size_t n) {
    for (std::size_t r = 0; r < rows; ++r) {
      std::uint8_t* dst = out_cells[r] + offset;
      bool first = true;
      for (std::size_t c = 0; c < cols; ++c) {
        if (nonzero[r * cols + c] == 0) {
          continue;  // LRC/Hitchhiker rows are sparse; skip zero entries
        }
        if (first) {
          // Overwrite on the first term so stale bytes never survive.
          mul_region(kind, tables[r * cols + c], dst, in_cells[c] + offset, n);
          first = false;
        } else {
          muladd_region(kind, tables[r * cols + c], dst, in_cells[c] + offset, n);
        }
      }
      if (first) {
        std::memset(dst, 0, n);  // all-zero row (degenerate but legal)
      }
    }
  };
  if (pool_ != nullptr && pool_->size() > 1 && cell_len >= kParallelMinBytes) {
    const std::size_t chunks = (cell_len + kChunkBytes - 1) / kChunkBytes;
    pool_->parallel_for(chunks, [&](std::size_t ci) {
      const std::size_t offset = ci * kChunkBytes;
      run_chunk(offset, std::min(kChunkBytes, cell_len - offset));
    });
  } else {
    for (std::size_t offset = 0; offset < cell_len; offset += kChunkBytes) {
      run_chunk(offset, std::min(kChunkBytes, cell_len - offset));
    }
  }
}

std::vector<LinearCodec::Shard> LinearCodec::encode(const std::vector<Shard>& data) const {
  check_data_shards(data);
  const std::size_t len = data.front().size();
  const std::size_t cell = len / s_;
  std::vector<Shard> parity(m_);
  for (auto& p : parity) {
    p.resize(len);
  }
  std::vector<const std::uint8_t*> in(k_ * s_);
  std::vector<std::uint8_t*> out(m_ * s_);
  for (std::size_t i = 0; i < k_; ++i) {
    for (std::size_t t = 0; t < s_; ++t) {
      in[i * s_ + t] = data[i].data() + t * cell;
    }
  }
  for (std::size_t j = 0; j < m_; ++j) {
    for (std::size_t t = 0; t < s_; ++t) {
      out[j * s_ + t] = parity[j].data() + t * cell;
    }
  }
  apply_rows(parity_tables_, parity_nonzero_, m_ * s_, k_ * s_, in, out, cell);
  return parity;
}

bool LinearCodec::reconstruct(std::vector<Shard>& shards,
                              const std::vector<bool>& present) const {
  const std::size_t n = k_ + m_;
  if (shards.size() != n || present.size() != n) {
    throw std::invalid_argument("LinearCodec::reconstruct: wrong shard count");
  }
  bool any_missing = false;
  std::size_t len = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!present[i]) {
      any_missing = true;
    } else if (len == 0) {
      len = shards[i].size();
    } else if (shards[i].size() != len) {
      throw std::invalid_argument("LinearCodec::reconstruct: shard length mismatch");
    }
  }
  if (!any_missing) {
    return true;
  }
  if (len == 0 || len % s_ != 0) {
    return false;  // nothing present, or lengths unusable
  }
  const std::size_t cell = len / s_;
  const std::size_t cols = k_ * s_;

  // Greedily pick k*s independent cell rows from the present shards. For an
  // MDS code this takes the first k shards; for LRC it walks past dependent
  // local parities automatically.
  EchelonBasis basis(cols);
  std::vector<std::size_t> chosen;  // generator row ids
  chosen.reserve(cols);
  for (std::size_t i = 0; i < n && chosen.size() < cols; ++i) {
    if (!present[i]) {
      continue;
    }
    for (std::size_t t = 0; t < s_ && chosen.size() < cols; ++t) {
      const std::size_t row = i * s_ + t;
      if (basis.insert(matrix_row(gen_, row), {})) {
        chosen.push_back(row);
      }
    }
  }
  if (chosen.size() < cols) {
    return false;  // unrecoverable erasure pattern
  }
  const auto inv = gen_.select_rows(chosen).inverted();
  assert(inv.has_value());  // chosen rows are independent by construction

  // Data cells = inv * chosen cells.
  std::vector<MulTable> tables(cols * cols);
  std::vector<std::uint8_t> nonzero(cols * cols);
  for (std::size_t r = 0; r < cols; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const GF256::Elem f = inv->at(r, c);
      tables[r * cols + c].init(f);
      nonzero[r * cols + c] = f != 0 ? 1 : 0;
    }
  }
  std::vector<const std::uint8_t*> in(cols);
  for (std::size_t j = 0; j < cols; ++j) {
    const std::size_t row = chosen[j];
    in[j] = shards[row / s_].data() + (row % s_) * cell;
  }
  std::vector<Shard> data(k_);
  std::vector<std::uint8_t*> out(cols);
  for (std::size_t i = 0; i < k_; ++i) {
    data[i].resize(len);
    for (std::size_t t = 0; t < s_; ++t) {
      out[i * s_ + t] = data[i].data() + t * cell;
    }
  }
  apply_rows(tables, nonzero, cols, cols, in, out, cell);

  bool parity_missing = false;
  for (std::size_t j = 0; j < m_; ++j) {
    parity_missing = parity_missing || !present[k_ + j];
  }
  for (std::size_t i = 0; i < k_; ++i) {
    if (!present[i]) {
      // Copy (not move) when parities also need recomputing from `data`.
      shards[i] = parity_missing ? data[i] : std::move(data[i]);
    } else {
      data[i] = shards[i];  // keep the original bytes for parity recompute
    }
  }
  if (parity_missing) {
    std::vector<Shard> parity = encode(data);
    for (std::size_t j = 0; j < m_; ++j) {
      if (!present[k_ + j]) {
        shards[k_ + j] = std::move(parity[j]);
      }
    }
  }
  return true;
}

bool LinearCodec::recoverable(const std::vector<bool>& present) const {
  if (present.size() != k_ + m_) {
    return false;
  }
  // Only lost *data* rows must lie in the span of the surviving rows;
  // absent parity shards are irrelevant to availability.
  std::vector<std::size_t> rows;
  std::vector<std::size_t> targets;
  for (std::size_t i = 0; i < k_ + m_; ++i) {
    for (std::size_t t = 0; t < s_; ++t) {
      if (present[i]) {
        rows.push_back(i * s_ + t);
      } else if (i < k_) {
        targets.push_back(i * s_ + t);
      }
    }
  }
  return rows_cover(rows, targets);
}

bool LinearCodec::rows_cover(const std::vector<std::size_t>& rows,
                             const std::vector<std::size_t>& targets) const {
  EchelonBasis basis(k_ * s_);
  for (const std::size_t r : rows) {
    basis.insert(matrix_row(gen_, r), {});
  }
  for (const std::size_t t : targets) {
    if (!basis.solve(matrix_row(gen_, t), nullptr)) {
      return false;
    }
  }
  return true;
}

std::optional<RepairPlan> LinearCodec::generic_plan(
    std::size_t lost, const std::vector<bool>& present) const {
  const std::size_t n = k_ + m_;
  if (lost >= n || present.size() != n || present[lost]) {
    return std::nullopt;
  }
  std::vector<std::size_t> targets(s_);
  for (std::size_t t = 0; t < s_; ++t) {
    targets[t] = lost * s_ + t;
  }
  // Greedy: add surviving shards (all their cells) in index order until the
  // lost rows are spanned.
  EchelonBasis basis(k_ * s_);
  std::vector<std::size_t> used;  // shard ids, in the order added
  std::size_t covered = 0;
  for (std::size_t i = 0; i < n && covered < s_; ++i) {
    if (i == lost || !present[i]) {
      continue;
    }
    for (std::size_t t = 0; t < s_; ++t) {
      basis.insert(matrix_row(gen_, i * s_ + t), {});
    }
    used.push_back(i);
    covered = 0;
    for (const std::size_t tr : targets) {
      covered += basis.solve(matrix_row(gen_, tr), nullptr) ? 1 : 0;
    }
  }
  if (covered < s_) {
    return std::nullopt;
  }
  // Prune pass, highest shard first: drop any helper whose removal keeps
  // the lost rows in span. Recovers e.g. the local-group plan for an LRC
  // data loss even without the structured override.
  for (std::size_t di = used.size(); di-- > 0;) {
    std::vector<std::size_t> rows;
    for (std::size_t j = 0; j < used.size(); ++j) {
      if (j == di) {
        continue;
      }
      for (std::size_t t = 0; t < s_; ++t) {
        rows.push_back(used[j] * s_ + t);
      }
    }
    if (rows_cover(rows, targets)) {
      used.erase(used.begin() + static_cast<std::ptrdiff_t>(di));
    }
  }
  RepairPlan plan;
  plan.subshards = static_cast<std::uint16_t>(s_);
  std::sort(used.begin(), used.end());
  for (const std::size_t i : used) {
    for (std::size_t t = 0; t < s_; ++t) {
      plan.cells.push_back({static_cast<std::uint16_t>(i), static_cast<std::uint16_t>(t)});
    }
  }
  return plan;
}

std::optional<RepairPlan> LinearCodec::plan_repair(
    std::size_t lost, const std::vector<bool>& present) const {
  return generic_plan(lost, present);
}

bool LinearCodec::repair(std::vector<Shard>& shards, std::size_t lost,
                         const RepairPlan& plan) const {
  const std::size_t n = k_ + m_;
  if (shards.size() != n || lost >= n || plan.cells.empty()) {
    return false;
  }
  std::size_t len = 0;
  for (const CellRef c : plan.cells) {
    if (c.shard >= n || c.sub >= s_ || c.shard == lost) {
      return false;
    }
    const std::size_t sz = shards[c.shard].size();
    if (sz == 0 || sz % s_ != 0 || (len != 0 && sz != len)) {
      return false;
    }
    len = sz;
  }
  const std::size_t cell = len / s_;
  const std::size_t cols = k_ * s_;

  // Express each lost row as a combination of the plan's cell rows.
  EchelonBasis basis(cols, plan.cells.size());
  for (std::size_t j = 0; j < plan.cells.size(); ++j) {
    std::vector<GF256::Elem> combo(plan.cells.size(), 0);
    combo[j] = 1;
    basis.insert(matrix_row(gen_, plan.cells[j].shard * s_ + plan.cells[j].sub),
                 std::move(combo));
  }
  std::vector<std::vector<GF256::Elem>> combos(s_);
  for (std::size_t t = 0; t < s_; ++t) {
    if (!basis.solve(matrix_row(gen_, lost * s_ + t), &combos[t])) {
      return false;  // plan does not determine the lost shard
    }
  }

  Shard rebuilt(len);
  std::vector<MulTable> tables(s_ * plan.cells.size());
  std::vector<std::uint8_t> nonzero(s_ * plan.cells.size());
  std::vector<const std::uint8_t*> in(plan.cells.size());
  std::vector<std::uint8_t*> out(s_);
  for (std::size_t j = 0; j < plan.cells.size(); ++j) {
    in[j] = shards[plan.cells[j].shard].data() + plan.cells[j].sub * cell;
  }
  for (std::size_t t = 0; t < s_; ++t) {
    out[t] = rebuilt.data() + t * cell;
    for (std::size_t j = 0; j < plan.cells.size(); ++j) {
      tables[t * plan.cells.size() + j].init(combos[t][j]);
      nonzero[t * plan.cells.size() + j] = combos[t][j] != 0 ? 1 : 0;
    }
  }
  apply_rows(tables, nonzero, s_, plan.cells.size(), in, out, cell);
  shards[lost] = std::move(rebuilt);
  return true;
}

Matrix systematic_rs_matrix(std::size_t k, std::size_t m) {
  if (k == 0 || k + m > 255) {
    throw std::invalid_argument("systematic_rs_matrix: need 1<=k, k+m<=255");
  }
  const Matrix v = Matrix::vandermonde(k + m, k);
  std::vector<std::size_t> top(k);
  for (std::size_t i = 0; i < k; ++i) {
    top[i] = i;
  }
  const auto top_inv = v.select_rows(top).inverted();
  assert(top_inv.has_value());  // Vandermonde rows with distinct points
  return v.multiply(*top_inv);
}

RsCodec::RsCodec(std::size_t data_shards, std::size_t parity_shards)
    : LinearCodec("rs", data_shards, parity_shards, 1,
                  systematic_rs_matrix(data_shards, parity_shards)) {}

std::optional<RepairPlan> RsCodec::plan_repair(std::size_t lost,
                                               const std::vector<bool>& present) const {
  const std::size_t n = total_shards();
  if (lost >= n || present.size() != n || present[lost]) {
    return std::nullopt;
  }
  RepairPlan plan;
  plan.subshards = 1;
  for (std::size_t i = 0; i < n && plan.cells.size() < data_shards(); ++i) {
    if (present[i]) {
      plan.cells.push_back({static_cast<std::uint16_t>(i), 0});
    }
  }
  if (plan.cells.size() < data_shards()) {
    return std::nullopt;
  }
  return plan;
}

}  // namespace erms::ec
