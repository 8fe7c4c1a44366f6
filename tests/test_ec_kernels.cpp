// Differential tests for the GF(256) region kernels (gf_region.h): every
// dispatchable kernel must agree byte-for-byte with the scalar log/exp
// reference over random coefficients, awkward lengths and unaligned
// pointers, and the threaded stripe codec must be bit-identical to serial.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "ec/codec.h"
#include "ec/gf256.h"
#include "ec/gf_region.h"
#include "ec/stripe_codec.h"
#include "util/thread_pool.h"

namespace {

using erms::ec::GF256;
using erms::ec::KernelKind;
using erms::ec::Matrix;
using erms::ec::MulTable;
using erms::ec::RsCodec;
using erms::ec::StripeCodec;
using erms::util::ThreadPool;

std::vector<KernelKind> supported_kernels() {
  std::vector<KernelKind> out;
  for (const KernelKind k : {KernelKind::kScalar, KernelKind::kTable,
                             KernelKind::kSsse3, KernelKind::kAvx2}) {
    if (erms::ec::kernel_supported(k)) {
      out.push_back(k);
    }
  }
  return out;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng{seed};
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) {
    b = static_cast<std::uint8_t>(rng());
  }
  return v;
}

// Lengths that hit every tail path: empty, sub-vector, one vector, word
// remainders, and lengths with len % 64 != 0 (unaligned chunk ends).
const std::size_t kLengths[] = {0, 1, 3, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 1000, 4096, 4097};

TEST(MulTable, MatchesGf256Mul) {
  for (const unsigned f : {0u, 1u, 2u, 3u, 0x1du, 127u, 128u, 254u, 255u}) {
    const MulTable t(static_cast<std::uint8_t>(f));
    for (unsigned x = 0; x < 256; ++x) {
      ASSERT_EQ(t.full[x], GF256::mul(static_cast<std::uint8_t>(f),
                                      static_cast<std::uint8_t>(x)));
    }
    for (unsigned x = 0; x < 16; ++x) {
      ASSERT_EQ(t.lo[x], t.full[x]);
      ASSERT_EQ(t.hi[x], t.full[x << 4]);
    }
  }
}

TEST(GfRegion, EveryKernelMatchesScalarReference) {
  std::mt19937 rng{7};
  const auto kernels = supported_kernels();
  ASSERT_GE(kernels.size(), 2u);  // scalar + table always
  for (const std::size_t len : kLengths) {
    const auto src = random_bytes(len, static_cast<std::uint32_t>(len) + 1);
    const auto base = random_bytes(len, static_cast<std::uint32_t>(len) + 2);
    // Edge factors plus a random sample.
    std::vector<std::uint8_t> factors = {0, 1, 2, 255};
    for (int i = 0; i < 8; ++i) {
      factors.push_back(static_cast<std::uint8_t>(rng()));
    }
    for (const std::uint8_t f : factors) {
      const MulTable t(f);
      std::vector<std::uint8_t> want_mul(len);
      std::vector<std::uint8_t> want_muladd = base;
      for (std::size_t i = 0; i < len; ++i) {
        want_mul[i] = GF256::mul(f, src[i]);
        want_muladd[i] ^= want_mul[i];
      }
      for (const KernelKind k : kernels) {
        std::vector<std::uint8_t> dst(len, 0xee);
        erms::ec::mul_region(k, t, dst.data(), src.data(), len);
        EXPECT_EQ(dst, want_mul) << "mul_region kernel=" << erms::ec::kernel_name(k)
                                 << " f=" << int(f) << " len=" << len;
        dst = base;
        erms::ec::muladd_region(k, t, dst.data(), src.data(), len);
        EXPECT_EQ(dst, want_muladd)
            << "muladd_region kernel=" << erms::ec::kernel_name(k) << " f=" << int(f)
            << " len=" << len;
      }
    }
  }
}

TEST(GfRegion, EmptyRegionsTouchNoMemory) {
  // An empty std::vector's data() may be null; every kernel and every factor
  // class (0 = memset, 1 = memcpy/xor, other = table/SIMD) must accept a
  // zero-length region with null pointers without passing them on (UBSan
  // builds check this).
  for (const KernelKind k : supported_kernels()) {
    for (const std::uint8_t f : {std::uint8_t{0}, std::uint8_t{1}, std::uint8_t{0x53}}) {
      const MulTable t(f);
      erms::ec::mul_region(k, t, nullptr, nullptr, 0);
      erms::ec::muladd_region(k, t, nullptr, nullptr, 0);
    }
  }
  erms::ec::xor_region(nullptr, nullptr, 0);
  std::vector<std::uint8_t> empty;
  erms::ec::mul_region(MulTable(1), empty.data(), empty.data(), 0);
  SUCCEED();
}

TEST(GfRegion, UnalignedPointers) {
  const std::size_t len = 1000;
  const auto kernels = supported_kernels();
  for (std::size_t offset = 1; offset < 4; ++offset) {
    const auto backing_src = random_bytes(len + 64, 11);
    auto backing_dst = random_bytes(len + 64, 12);
    const std::uint8_t* src = backing_src.data() + offset;
    const MulTable t(0x53);
    std::vector<std::uint8_t> want(len);
    for (std::size_t i = 0; i < len; ++i) {
      want[i] = GF256::mul(0x53, src[i]);
    }
    for (const KernelKind k : kernels) {
      std::uint8_t* dst = backing_dst.data() + offset;
      erms::ec::mul_region(k, t, dst, src, len);
      EXPECT_EQ(0, std::memcmp(dst, want.data(), len))
          << "kernel=" << erms::ec::kernel_name(k) << " offset=" << offset;
    }
  }
}

TEST(GfRegion, XorRegionMatchesByteXor) {
  for (const std::size_t len : kLengths) {
    const auto src = random_bytes(len, 21);
    const auto base = random_bytes(len, 22);
    std::vector<std::uint8_t> want(len);
    for (std::size_t i = 0; i < len; ++i) {
      want[i] = static_cast<std::uint8_t>(base[i] ^ src[i]);
    }
    auto dst = base;
    erms::ec::xor_region(dst.data(), src.data(), len);
    EXPECT_EQ(dst, want) << "len=" << len;
  }
}

TEST(GfRegion, ResolveKernelNames) {
  EXPECT_EQ(erms::ec::resolve_kernel("scalar"), KernelKind::kScalar);
  EXPECT_EQ(erms::ec::resolve_kernel("table"), KernelKind::kTable);
  // "auto" and garbage both resolve to something supported.
  EXPECT_TRUE(erms::ec::kernel_supported(erms::ec::resolve_kernel("auto")));
  EXPECT_TRUE(erms::ec::kernel_supported(erms::ec::resolve_kernel("warp9")));
  if (erms::ec::kernel_supported(KernelKind::kSsse3)) {
    EXPECT_EQ(erms::ec::resolve_kernel("ssse3"), KernelKind::kSsse3);
  }
  if (erms::ec::kernel_supported(KernelKind::kAvx2)) {
    EXPECT_EQ(erms::ec::resolve_kernel("avx2"), KernelKind::kAvx2);
  }
  EXPECT_TRUE(erms::ec::kernel_supported(erms::ec::active_kernel()));
}

// The k/m shapes ERMS actually uses: the paper's 1 data + 4 parities, the
// HDFS-RAID-ish 8+4 and 6+4, and small/odd shapes from the examples.
struct Shape {
  std::size_t k;
  std::size_t m;
};
const Shape kShapes[] = {{1, 4}, {6, 4}, {8, 4}, {4, 2}, {5, 4}, {16, 4}};

TEST(ReedSolomonKernels, EncodeMatchesNaiveReference) {
  for (const Shape s : kShapes) {
    for (const std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{129},
                                  std::size_t{65 * 1024 + 13}}) {
      RsCodec rs(s.k, s.m);
      std::vector<RsCodec::Shard> data(s.k);
      for (std::size_t i = 0; i < s.k; ++i) {
        data[i] = random_bytes(len, static_cast<std::uint32_t>(100 * s.k + i));
      }
      const auto parity = rs.encode(data);
      ASSERT_EQ(parity.size(), s.m);
      // Naive per-byte reference straight off the encoding matrix.
      for (std::size_t r = 0; r < s.m; ++r) {
        ASSERT_EQ(parity[r].size(), len);
        for (std::size_t i = 0; i < len; ++i) {
          std::uint8_t want = 0;
          for (std::size_t c = 0; c < s.k; ++c) {
            want ^= GF256::mul(rs.generator().at(s.k + r, c), data[c][i]);
          }
          ASSERT_EQ(parity[r][i], want)
              << "k=" << s.k << " m=" << s.m << " row=" << r << " i=" << i;
        }
      }
      EXPECT_TRUE(rs.verify(data, parity));
    }
  }
}

TEST(ReedSolomonKernels, ReconstructAllShapes) {
  std::mt19937 rng{77};
  for (const Shape s : kShapes) {
    RsCodec rs(s.k, s.m);
    const std::size_t len = 4096 + 17;
    std::vector<RsCodec::Shard> data(s.k);
    for (std::size_t i = 0; i < s.k; ++i) {
      data[i] = random_bytes(len, static_cast<std::uint32_t>(7 * s.k + i));
    }
    auto full = data;
    for (auto& p : rs.encode(data)) {
      full.push_back(std::move(p));
    }
    // Erase m shards at random positions.
    auto shards = full;
    std::vector<bool> present(s.k + s.m, true);
    std::size_t erased = 0;
    while (erased < s.m) {
      const std::size_t victim = rng() % (s.k + s.m);
      if (present[victim]) {
        present[victim] = false;
        shards[victim].clear();
        ++erased;
      }
    }
    ASSERT_TRUE(rs.reconstruct(shards, present));
    EXPECT_EQ(shards, full) << "k=" << s.k << " m=" << s.m;
  }
}

std::uint64_t fnv1a(std::uint64_t h, const std::uint8_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}

// FNV-1a digests of RsCodec's generator (row-major bytes) and of the parity
// of a fixed-seed 1000-byte input, per shape. They were recorded when a
// differential test showed RsCodec equal, entry for entry and byte for byte,
// to an independent RS implementation at every shape here, so a change to
// systematic_rs_matrix or to the encode path fails this test.
struct PinnedShape {
  std::size_t k;
  std::size_t m;
  std::uint64_t generator;
  std::uint64_t parity;
};
const PinnedShape kPinned[] = {
    {1, 4, 0x6f6202b6f92d1e48ull, 0xca6c017f0ecda265ull},
    {6, 4, 0xd61863dcf2aeb0e9ull, 0x356e49563b45cce0ull},
    {8, 4, 0x778ece6bc321e967ull, 0xe048b732daf0a007ull},
    {4, 2, 0x68d118d028ee8a1dull, 0x65c5a3b483eabd63ull},
    {5, 4, 0x890e5b446fc72e34ull, 0x4aef4a98c711e3b2ull},
    {16, 4, 0xde5a02ae37db0089ull, 0x25afd0cf6854bc3eull},
    {10, 4, 0xcc7df5bd9736f557ull, 0xe7c2cf6e50b0a5fbull},
};

TEST(RsCodecPin, GeneratorAndParityDigests) {
  for (const PinnedShape& s : kPinned) {
    const RsCodec rs(s.k, s.m);
    const Matrix& gen = rs.generator();
    std::uint64_t g = 0xcbf29ce484222325ull;
    for (std::size_t r = 0; r < gen.rows(); ++r) {
      g = fnv1a(g, gen.row(r), gen.cols());
    }
    EXPECT_EQ(g, s.generator) << "k=" << s.k << " m=" << s.m;

    std::vector<RsCodec::Shard> data(s.k);
    for (std::size_t i = 0; i < s.k; ++i) {
      data[i] = random_bytes(1000, static_cast<std::uint32_t>(1000 * s.k + i));
    }
    std::uint64_t p = 0xcbf29ce484222325ull;
    for (const auto& shard : rs.encode(data)) {
      p = fnv1a(p, shard.data(), shard.size());
    }
    EXPECT_EQ(p, s.parity) << "k=" << s.k << " m=" << s.m;
  }
}

TEST(StripeCodecThreaded, MatchesSerialBitForBit) {
  ThreadPool pool(4);
  StripeCodec serial(8, 4);
  StripeCodec threaded(8, 4);
  threaded.set_thread_pool(&pool);

  // Large enough that the parallel path engages (>= 2 chunks per shard) and
  // not a multiple of k, so the tail shard is zero-padded.
  const auto file = random_bytes(3 * 1024 * 1024 + 997, 31337);
  auto a = serial.encode(file);
  auto b = threaded.encode(file);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t i = 0; i < a.shards.size(); ++i) {
    EXPECT_EQ(a.shards[i], b.shards[i]) << "shard " << i;
  }

  std::vector<bool> present(12, true);
  for (const std::size_t victim : {0u, 3u, 8u, 11u}) {
    present[victim] = false;
    a.shards[victim].clear();
    b.shards[victim].clear();
  }
  std::vector<std::uint8_t> out_serial;
  std::vector<std::uint8_t> out_threaded;
  ASSERT_TRUE(serial.decode(a, present, out_serial));
  ASSERT_TRUE(threaded.decode(b, present, out_threaded));
  EXPECT_EQ(out_serial, file);
  EXPECT_EQ(out_threaded, file);
}

TEST(StripeCodecThreaded, SmallInputsStaySerialAndCorrect) {
  ThreadPool pool(2);
  StripeCodec codec(4, 2);
  codec.set_thread_pool(&pool);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5}}) {
    const auto file = random_bytes(n, static_cast<std::uint32_t>(n) + 900);
    auto stripe = codec.encode(file);
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(codec.decode(stripe, std::vector<bool>(6, true), out));
    EXPECT_EQ(out, file);
  }
}

}  // namespace
