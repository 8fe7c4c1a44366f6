#include "ec/gf_region.h"

#include <cstdlib>
#include <cstring>

#include "ec/gf256.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace erms::ec {

void MulTable::init(std::uint8_t f) {
  factor = f;
  for (unsigned x = 0; x < 256; ++x) {
    full[x] = GF256::mul(f, static_cast<std::uint8_t>(x));
  }
  for (unsigned x = 0; x < 16; ++x) {
    lo[x] = full[x];
    hi[x] = full[x << 4];
  }
}

void xor_region(std::uint8_t* dst, const std::uint8_t* src, std::size_t len) {
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t a;
    std::uint64_t b;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src + i, 8);
    a ^= b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < len; ++i) {
    dst[i] ^= src[i];
  }
}

namespace {

// ----- scalar reference: log/exp multiply per byte --------------------------------

void mul_scalar(std::uint8_t f, std::uint8_t* dst, const std::uint8_t* src,
                std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    dst[i] = GF256::mul(f, src[i]);
  }
}

void muladd_scalar(std::uint8_t f, std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    dst[i] ^= GF256::mul(f, src[i]);
  }
}

// ----- table kernel: 256-entry product lookups ------------------------------------

void mul_table(const MulTable& t, std::uint8_t* dst, const std::uint8_t* src,
               std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    dst[i] = t.full[src[i]];
  }
}

void muladd_table(const MulTable& t, std::uint8_t* dst, const std::uint8_t* src,
                  std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    dst[i] ^= t.full[src[i]];
  }
}

// ----- split-nibble PSHUFB kernels ------------------------------------------------

#if defined(__x86_64__)

__attribute__((target("ssse3"))) void muladd_ssse3(const MulTable& t, std::uint8_t* dst,
                                                   const std::uint8_t* src,
                                                   std::size_t len) {
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi));
  const __m128i nib = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i l = _mm_and_si128(s, nib);
    const __m128i h = _mm_and_si128(_mm_srli_epi64(s, 4), nib);
    const __m128i p = _mm_xor_si128(_mm_shuffle_epi8(lo, l), _mm_shuffle_epi8(hi, h));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(d, p));
  }
  muladd_table(t, dst + i, src + i, len - i);
}

__attribute__((target("ssse3"))) void mul_ssse3(const MulTable& t, std::uint8_t* dst,
                                                const std::uint8_t* src,
                                                std::size_t len) {
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi));
  const __m128i nib = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i l = _mm_and_si128(s, nib);
    const __m128i h = _mm_and_si128(_mm_srli_epi64(s, 4), nib);
    const __m128i p = _mm_xor_si128(_mm_shuffle_epi8(lo, l), _mm_shuffle_epi8(hi, h));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), p);
  }
  mul_table(t, dst + i, src + i, len - i);
}

__attribute__((target("avx2"))) void muladd_avx2(const MulTable& t, std::uint8_t* dst,
                                                 const std::uint8_t* src,
                                                 std::size_t len) {
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi)));
  const __m256i nib = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i l = _mm256_and_si256(s, nib);
    const __m256i h = _mm256_and_si256(_mm256_srli_epi64(s, 4), nib);
    const __m256i p =
        _mm256_xor_si256(_mm256_shuffle_epi8(lo, l), _mm256_shuffle_epi8(hi, h));
    const __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), _mm256_xor_si256(d, p));
  }
  muladd_table(t, dst + i, src + i, len - i);
}

__attribute__((target("avx2"))) void mul_avx2(const MulTable& t, std::uint8_t* dst,
                                              const std::uint8_t* src, std::size_t len) {
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi)));
  const __m256i nib = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i l = _mm256_and_si256(s, nib);
    const __m256i h = _mm256_and_si256(_mm256_srli_epi64(s, 4), nib);
    const __m256i p =
        _mm256_xor_si256(_mm256_shuffle_epi8(lo, l), _mm256_shuffle_epi8(hi, h));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), p);
  }
  mul_table(t, dst + i, src + i, len - i);
}

#endif  // defined(__x86_64__)

KernelKind best_supported() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) {
    return KernelKind::kAvx2;
  }
  if (__builtin_cpu_supports("ssse3")) {
    return KernelKind::kSsse3;
  }
#endif
  return KernelKind::kTable;
}

}  // namespace

bool kernel_supported(KernelKind kind) {
  switch (kind) {
    case KernelKind::kScalar:
    case KernelKind::kTable:
      return true;
    case KernelKind::kSsse3:
#if defined(__x86_64__)
      return __builtin_cpu_supports("ssse3");
#else
      return false;
#endif
    case KernelKind::kAvx2:
#if defined(__x86_64__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

std::string_view kernel_name(KernelKind kind) {
  switch (kind) {
    case KernelKind::kScalar:
      return "scalar";
    case KernelKind::kTable:
      return "table";
    case KernelKind::kSsse3:
      return "ssse3";
    case KernelKind::kAvx2:
      return "avx2";
  }
  return "unknown";
}

KernelKind resolve_kernel(std::string_view name) {
  KernelKind want = best_supported();
  if (name == "scalar") {
    want = KernelKind::kScalar;
  } else if (name == "table") {
    want = KernelKind::kTable;
  } else if (name == "ssse3" || name == "simd") {
    want = KernelKind::kSsse3;
  } else if (name == "avx2") {
    want = KernelKind::kAvx2;
  }
  return kernel_supported(want) ? want : best_supported();
}

KernelKind active_kernel() {
  static const KernelKind kind = [] {
    const char* env = std::getenv("ERMS_EC_KERNEL");
    return env != nullptr ? resolve_kernel(env) : best_supported();
  }();
  return kind;
}

void mul_region(KernelKind kind, const MulTable& t, std::uint8_t* dst,
                const std::uint8_t* src, std::size_t len) {
  // An empty region may come with null pointers (an empty vector's data()),
  // which memset/memcpy must not see even for zero bytes.
  if (len == 0) {
    return;
  }
  if (t.factor == 0) {
    std::memset(dst, 0, len);
    return;
  }
  if (t.factor == 1) {
    std::memcpy(dst, src, len);
    return;
  }
  switch (kind) {
    case KernelKind::kScalar:
      mul_scalar(t.factor, dst, src, len);
      return;
    case KernelKind::kTable:
      mul_table(t, dst, src, len);
      return;
    case KernelKind::kSsse3:
#if defined(__x86_64__)
      mul_ssse3(t, dst, src, len);
      return;
#else
      break;
#endif
    case KernelKind::kAvx2:
#if defined(__x86_64__)
      mul_avx2(t, dst, src, len);
      return;
#else
      break;
#endif
  }
  mul_table(t, dst, src, len);  // non-x86 fallback for SIMD kinds
}

void muladd_region(KernelKind kind, const MulTable& t, std::uint8_t* dst,
                   const std::uint8_t* src, std::size_t len) {
  if (len == 0) {
    return;
  }
  if (t.factor == 0) {
    return;
  }
  if (t.factor == 1) {
    xor_region(dst, src, len);
    return;
  }
  switch (kind) {
    case KernelKind::kScalar:
      muladd_scalar(t.factor, dst, src, len);
      return;
    case KernelKind::kTable:
      muladd_table(t, dst, src, len);
      return;
    case KernelKind::kSsse3:
#if defined(__x86_64__)
      muladd_ssse3(t, dst, src, len);
      return;
#else
      break;
#endif
    case KernelKind::kAvx2:
#if defined(__x86_64__)
      muladd_avx2(t, dst, src, len);
      return;
#else
      break;
#endif
  }
  muladd_table(t, dst, src, len);  // non-x86 fallback for SIMD kinds
}

}  // namespace erms::ec
