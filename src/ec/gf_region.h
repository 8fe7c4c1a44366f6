#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace erms::ec {

/// Bulk GF(2^8) region kernels: the inner loops of Reed-Solomon encode and
/// decode. A coded shard is megabytes long while the coefficient matrix is
/// tiny, so all the time goes into `dst[i] (^)= f * src[i]` over long byte
/// ranges. Three implementations sit behind one dispatch point:
///
///  * kScalar — byte-at-a-time log/exp multiply (the reference; portable).
///  * kTable  — one 256-entry product table per coefficient, byte-at-a-time
///              lookups; f==0/1 degenerate to memset/word-wide XOR.
///  * kSsse3 / kAvx2 — split-nibble PSHUFB: two 16-entry tables (products of
///              the low and high nibble) applied 16/32 bytes per shuffle.
///
/// The default is the fastest kernel the CPU supports (CPUID probe), but the
/// `ERMS_EC_KERNEL` environment variable ("scalar", "table", "ssse3",
/// "avx2", "auto") can pin a specific one for testing and benchmarking.
enum class KernelKind : std::uint8_t { kScalar, kTable, kSsse3, kAvx2 };

/// Per-coefficient multiplication tables, computed once per matrix entry and
/// reused across the whole region (and across encode calls — LinearCodec
/// caches one per parity-matrix entry).
struct MulTable {
  alignas(16) std::uint8_t lo[16];  // f * x          for x in [0,16)
  alignas(16) std::uint8_t hi[16];  // f * (x << 4)   for x in [0,16)
  std::uint8_t full[256];           // f * x          for x in [0,256)
  std::uint8_t factor{0};

  MulTable() = default;
  explicit MulTable(std::uint8_t f) { init(f); }
  void init(std::uint8_t f);
};

/// True if this build/CPU can execute `kind`.
bool kernel_supported(KernelKind kind);

/// The kernel every implicit-kind call uses: ERMS_EC_KERNEL if set (and
/// supported), else the best CPUID-supported kernel. Resolved once.
KernelKind active_kernel();

/// Name for logs/benchmarks ("scalar", "table", "ssse3", "avx2").
std::string_view kernel_name(KernelKind kind);

/// Parse a kernel name (the ERMS_EC_KERNEL syntax). "auto" or an unknown
/// string yields the best supported kernel; a known but unsupported kernel
/// falls back to the best supported one.
KernelKind resolve_kernel(std::string_view name);

/// dst[i] = f * src[i] for i in [0, len). Regions must not overlap.
void mul_region(KernelKind kind, const MulTable& t, std::uint8_t* dst,
                const std::uint8_t* src, std::size_t len);

/// dst[i] ^= f * src[i] for i in [0, len). Regions must not overlap.
void muladd_region(KernelKind kind, const MulTable& t, std::uint8_t* dst,
                   const std::uint8_t* src, std::size_t len);

/// dst[i] ^= src[i], word-at-a-time. The f==1 fast path all kernels share.
void xor_region(std::uint8_t* dst, const std::uint8_t* src, std::size_t len);

/// Convenience overloads using active_kernel().
inline void mul_region(const MulTable& t, std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t len) {
  mul_region(active_kernel(), t, dst, src, len);
}
inline void muladd_region(const MulTable& t, std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t len) {
  muladd_region(active_kernel(), t, dst, src, len);
}

}  // namespace erms::ec
