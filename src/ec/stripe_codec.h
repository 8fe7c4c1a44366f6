#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ec/codec.h"
#include "ec/codec_registry.h"

namespace erms::ec {

/// File-level striping on top of a pluggable ErasureCodec: splits a byte
/// buffer into k equal shards (zero-padded), computes the code's parities,
/// and can rebuild the file from any recoverable set of surviving shards.
/// This mirrors what HDFS-RAID does to a block group when ERMS demotes a
/// cold file — with the code chosen per temperature band (see
/// docs/EC_CODECS.md).
///
/// Attach a util::ThreadPool to encode/decode large stripes with the shards
/// split into concurrently-coded sub-ranges (see LinearCodec).
class StripeCodec {
 public:
  /// Reed–Solomon (k, m) — the historical default shape.
  StripeCodec(std::size_t data_shards, std::size_t parity_shards)
      : codec_(make_codec(
            CodecSpec{CodecKind::kRs, static_cast<std::uint32_t>(parity_shards), 0, 0},
            data_shards)) {}

  /// Any registered code, shaped by `spec` over `data_shards`.
  StripeCodec(const CodecSpec& spec, std::size_t data_shards)
      : codec_(make_codec(spec, data_shards)) {}

  /// Borrow a pool for multi-threaded coding; nullptr reverts to serial.
  /// The pool must outlive every encode/decode call.
  void set_thread_pool(util::ThreadPool* pool) { codec_->set_thread_pool(pool); }

  struct Stripe {
    std::vector<ErasureCodec::Shard> shards;  // k data shards then m parity
    std::uint64_t original_size{0};
  };

  /// Split + encode. The shard length is ceil(size/k), zero-padded (and
  /// rounded up to the codec's sub-packetization).
  [[nodiscard]] Stripe encode(const std::vector<std::uint8_t>& bytes) const;

  /// Rebuild the original bytes. `present[i]` marks surviving shards;
  /// missing shards in `stripe.shards` may be empty. Returns false when the
  /// erasure pattern is unrecoverable for this code.
  bool decode(Stripe& stripe, const std::vector<bool>& present,
              std::vector<std::uint8_t>& out) const;

  [[nodiscard]] const ErasureCodec& code() const { return *codec_; }
  [[nodiscard]] ErasureCodec& code() { return *codec_; }

  /// Storage used by the stripe (all shards) vs. by `r` full replicas — the
  /// overhead comparison the paper's Fig. 5 makes.
  [[nodiscard]] static double storage_ratio(std::size_t k, std::size_t m, std::size_t replicas) {
    return (static_cast<double>(k + m) / static_cast<double>(k)) /
           static_cast<double>(replicas);
  }

 private:
  std::unique_ptr<ErasureCodec> codec_;
};

}  // namespace erms::ec
