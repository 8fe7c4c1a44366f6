#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ec/gf_region.h"
#include "ec/matrix.h"

namespace erms::util {
class ThreadPool;
}  // namespace erms::util

namespace erms::ec {

/// One sub-shard of a stripe: shard index (data shards first, then parity)
/// and sub-shard index within it. Codes without sub-packetization (RS, LRC)
/// always use sub == 0; Hitchhiker splits every shard into two halves.
struct CellRef {
  std::uint16_t shard{0};
  std::uint16_t sub{0};

  friend bool operator==(CellRef a, CellRef b) {
    return a.shard == b.shard && a.sub == b.sub;
  }
  friend bool operator<(CellRef a, CellRef b) {
    return a.shard != b.shard ? a.shard < b.shard : a.sub < b.sub;
  }
};

/// What a single-shard repair must read: the exact set of surviving cells.
/// This is the object the cluster sizes its recovery flows from, so the
/// repair-bandwidth advantage of LRC/Hitchhiker over RS is not a claim — it
/// is the byte count of the flows the simulator actually starts.
struct RepairPlan {
  std::vector<CellRef> cells;  // sorted by (shard, sub)
  std::uint16_t subshards{1};  // the codec's sub-packetization

  /// Distinct shards touched (the degraded-read fanout).
  [[nodiscard]] std::size_t fanout() const;
  /// Bytes read measured in whole-shard units: cells / subshards.
  [[nodiscard]] double shard_equivalents() const {
    return subshards == 0
               ? 0.0
               : static_cast<double>(cells.size()) / static_cast<double>(subshards);
  }
  /// Cells planned on `shard` (0 if untouched).
  [[nodiscard]] std::size_t cells_on(std::size_t shard) const;
  /// Bytes to read from a shard of `shard_bytes` given its planned cells.
  [[nodiscard]] static std::uint64_t bytes_for(std::uint64_t shard_bytes,
                                               std::size_t cells,
                                               std::uint16_t subshards) {
    return subshards == 0 ? 0
                          : (shard_bytes * cells + subshards - 1) / subshards;
  }
};

/// A pluggable erasure code: k data shards, m parity shards, any-single-loss
/// repair with a code-specific read plan. All byte work runs on the
/// gf_region kernels (table/SSSE3/AVX2 dispatch, ERMS_EC_KERNEL override).
///
/// Shards may be sub-packetized: each shard is `subshards()` equal cells,
/// and repair plans are expressed in cells so codes like Hitchhiker-XOR+
/// can read half shards. Shard lengths passed to encode/reconstruct/repair
/// must be multiples of subshards().
class ErasureCodec {
 public:
  using Shard = std::vector<std::uint8_t>;

  virtual ~ErasureCodec() = default;

  /// Registry name ("rs", "azure_lrc", "hh_xor_plus").
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::size_t data_shards() const = 0;
  [[nodiscard]] virtual std::size_t parity_shards() const = 0;
  [[nodiscard]] std::size_t total_shards() const {
    return data_shards() + parity_shards();
  }
  /// Sub-packetization: cells per shard (1 for RS/LRC, 2 for Hitchhiker).
  [[nodiscard]] virtual std::size_t subshards() const = 0;

  /// Borrow a pool for multi-threaded region work; nullptr reverts to
  /// serial. The pool must outlive every encode/reconstruct/repair call.
  virtual void set_thread_pool(util::ThreadPool* pool) = 0;

  /// Compute the m parity shards for k equal-length data shards.
  [[nodiscard]] virtual std::vector<Shard> encode(
      const std::vector<Shard>& data) const = 0;

  /// Reconstruct missing shards in place. `shards` has k+m entries (data
  /// first, then parity); `present[i]` says whether shards[i] holds valid
  /// bytes. Missing shards may be empty; they are resized and filled.
  /// Returns false if the erasure pattern is unrecoverable.
  virtual bool reconstruct(std::vector<Shard>& shards,
                           const std::vector<bool>& present) const = 0;

  /// The cheapest read set this code offers to rebuild shard `lost` from
  /// the surviving shards flagged in `present`. nullopt when the pattern is
  /// unrecoverable. The plan never includes cells of absent shards.
  [[nodiscard]] virtual std::optional<RepairPlan> plan_repair(
      std::size_t lost, const std::vector<bool>& present) const = 0;

  /// Rebuild shard `lost` in place from exactly the cells in `plan` (the
  /// other shards' cells outside the plan are not read). Returns false if
  /// the plan's cells do not determine the lost shard.
  virtual bool repair(std::vector<Shard>& shards, std::size_t lost,
                      const RepairPlan& plan) const = 0;

  /// Rank query: can every data shard be recovered from the shards flagged
  /// in `present`? (Availability test — no bytes touched.)
  [[nodiscard]] virtual bool recoverable(const std::vector<bool>& present) const = 0;

  /// True if the parity shards are consistent with the data shards.
  [[nodiscard]] bool verify(const std::vector<Shard>& data,
                            const std::vector<Shard>& parity) const;

  /// (k+m)/k — the storage cost of the stripe relative to the raw data.
  [[nodiscard]] double storage_overhead() const {
    return static_cast<double>(total_shards()) / static_cast<double>(data_shards());
  }
};

/// Generic machinery for any systematic linear code over GF(2^8) with
/// sub-packetization s, described by a generator matrix G of (k+m)·s rows ×
/// k·s columns: cell (shard i, sub t) is row i·s+t, data cell (i, t) is
/// column i·s+t, and the top k·s rows are the identity.
///
/// Subclasses supply the matrix (and usually a code-specific plan_repair);
/// encode, reconstruct, generic planning and plan-driven repair all fall
/// out of linear algebra on G:
///  - encode applies the parity rows with cached per-entry MulTables,
///    chunked across an optional ThreadPool (see apply_rows);
///  - reconstruct greedily picks k·s independent surviving cell rows and
///    inverts them (works for every recoverable pattern of every code);
///  - plan_repair adds surviving shards in index order until the lost
///    shard's rows lie in their span, then prunes unneeded shards — exact
///    for MDS codes, a fallback for codes that override with a cheaper
///    structured plan;
///  - repair expresses the lost rows as combinations of the plan's cell
///    rows (Gaussian elimination with coefficient tracking) and applies
///    those combinations region-wise.
class LinearCodec : public ErasureCodec {
 public:
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::size_t data_shards() const override { return k_; }
  [[nodiscard]] std::size_t parity_shards() const override { return m_; }
  [[nodiscard]] std::size_t subshards() const override { return s_; }

  void set_thread_pool(util::ThreadPool* pool) override { pool_ = pool; }
  [[nodiscard]] util::ThreadPool* thread_pool() const { return pool_; }

  [[nodiscard]] std::vector<Shard> encode(const std::vector<Shard>& data) const override;
  bool reconstruct(std::vector<Shard>& shards,
                   const std::vector<bool>& present) const override;
  [[nodiscard]] std::optional<RepairPlan> plan_repair(
      std::size_t lost, const std::vector<bool>& present) const override;
  bool repair(std::vector<Shard>& shards, std::size_t lost,
              const RepairPlan& plan) const override;
  [[nodiscard]] bool recoverable(const std::vector<bool>& present) const override;

  /// The full generator matrix ((k+m)·s × k·s, identity on top).
  [[nodiscard]] const Matrix& generator() const { return gen_; }

 protected:
  /// Validates shape (1<=k, 1<=m, 1<=s, identity top) and caches the parity
  /// rows' MulTables.
  LinearCodec(std::string name, std::size_t k, std::size_t m, std::size_t s,
              Matrix generator);

  /// Greedy whole-shard plan + prune pass (see class comment). Subclass
  /// plan_repair overrides fall back to this when their structured helper
  /// set is not fully present.
  [[nodiscard]] std::optional<RepairPlan> generic_plan(
      std::size_t lost, const std::vector<bool>& present) const;

 private:
  void check_data_shards(const std::vector<Shard>& data) const;
  /// out_cells[r] = sum_c tables[r][c] * in_cells[c] over `cell_len` bytes,
  /// skipping zero coefficients; chunked across pool_ for long cells.
  void apply_rows(const std::vector<MulTable>& tables,
                  const std::vector<std::uint8_t>& nonzero, std::size_t rows,
                  std::size_t cols, const std::vector<const std::uint8_t*>& in_cells,
                  const std::vector<std::uint8_t*>& out_cells,
                  std::size_t cell_len) const;
  /// True if the rows (generator row ids) span every row in `targets`.
  [[nodiscard]] bool rows_cover(const std::vector<std::size_t>& rows,
                                const std::vector<std::size_t>& targets) const;

  std::string name_;
  std::size_t k_;
  std::size_t m_;
  std::size_t s_;
  Matrix gen_;                           // (k+m)*s x k*s, identity on top
  std::vector<MulTable> parity_tables_;  // m*s x k*s per-entry tables
  std::vector<std::uint8_t> parity_nonzero_;  // 1 where the entry != 0
  util::ThreadPool* pool_{nullptr};
};

/// Reed–Solomon as a LinearCodec — the paper's cold-file code (§IV.B): the
/// systematic Vandermonde construction (systematic_rs_matrix), s = 1. MDS:
/// any k of the k+m shards reconstruct everything, so the repair plan is the
/// first k present shards in data-then-parity order — byte-for-byte the
/// helper set the cluster's legacy RS recovery used.
class RsCodec final : public LinearCodec {
 public:
  /// Requires 1 <= k, 1 <= m, k + m <= 255.
  RsCodec(std::size_t data_shards, std::size_t parity_shards);

  [[nodiscard]] std::optional<RepairPlan> plan_repair(
      std::size_t lost, const std::vector<bool>& present) const override;
};

/// The systematic (k+m)×k RS matrix E = V · inv(V_top): identity on top,
/// every k-row submatrix invertible. Shared by RsCodec, the LRC global
/// parities and Hitchhiker's base code.
[[nodiscard]] Matrix systematic_rs_matrix(std::size_t k, std::size_t m);

}  // namespace erms::ec
