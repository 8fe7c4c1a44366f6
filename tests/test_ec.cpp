#include <gtest/gtest.h>

#include <random>

#include "ec/codec.h"
#include "ec/gf256.h"
#include "ec/matrix.h"
#include "ec/stripe_codec.h"

namespace erms::ec {
namespace {

// ---------- GF(2^8) ----------

TEST(GF256, AddIsXor) {
  EXPECT_EQ(GF256::add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(GF256::sub(0x53, 0xCA), 0x53 ^ 0xCA);
}

TEST(GF256, MulIdentityAndZero) {
  for (unsigned a = 0; a < 256; ++a) {
    const auto e = static_cast<GF256::Elem>(a);
    EXPECT_EQ(GF256::mul(e, 1), e);
    EXPECT_EQ(GF256::mul(1, e), e);
    EXPECT_EQ(GF256::mul(e, 0), 0);
    EXPECT_EQ(GF256::mul(0, e), 0);
  }
}

TEST(GF256, InverseRoundTrip) {
  for (unsigned a = 1; a < 256; ++a) {
    const auto e = static_cast<GF256::Elem>(a);
    EXPECT_EQ(GF256::mul(e, GF256::inv(e)), 1) << "a=" << a;
    EXPECT_EQ(GF256::div(e, e), 1);
  }
}

TEST(GF256, DivIsMulByInverse) {
  std::mt19937 rng{1};
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<GF256::Elem>(rng() % 256);
    const auto b = static_cast<GF256::Elem>(1 + rng() % 255);
    EXPECT_EQ(GF256::div(a, b), GF256::mul(a, GF256::inv(b)));
  }
}

TEST(GF256, PowMatchesRepeatedMul) {
  for (unsigned a = 1; a < 256; a += 7) {
    GF256::Elem acc = 1;
    for (unsigned n = 0; n < 10; ++n) {
      EXPECT_EQ(GF256::pow(static_cast<GF256::Elem>(a), n), acc);
      acc = GF256::mul(acc, static_cast<GF256::Elem>(a));
    }
  }
}

TEST(GF256, GeneratorHasFullOrder) {
  // 2 generates the multiplicative group: powers 0..254 are distinct.
  std::array<bool, 256> seen{};
  for (unsigned n = 0; n < 255; ++n) {
    const GF256::Elem v = GF256::exp(n);
    EXPECT_FALSE(seen[v]) << "repeat at n=" << n;
    seen[v] = true;
  }
  EXPECT_FALSE(seen[0]);  // zero is never hit
}

TEST(GF256, LogExpRoundTrip) {
  for (unsigned a = 1; a < 256; ++a) {
    EXPECT_EQ(GF256::exp(GF256::log(static_cast<GF256::Elem>(a))), a);
  }
}

/// Field-axiom property tests over sampled triples.
class GfAxiomTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(GfAxiomTest, AssociativeCommutativeDistributive) {
  std::mt19937 rng{GetParam()};
  for (int i = 0; i < 3000; ++i) {
    const auto a = static_cast<GF256::Elem>(rng() % 256);
    const auto b = static_cast<GF256::Elem>(rng() % 256);
    const auto c = static_cast<GF256::Elem>(rng() % 256);
    EXPECT_EQ(GF256::mul(a, b), GF256::mul(b, a));
    EXPECT_EQ(GF256::mul(GF256::mul(a, b), c), GF256::mul(a, GF256::mul(b, c)));
    EXPECT_EQ(GF256::mul(a, GF256::add(b, c)),
              GF256::add(GF256::mul(a, b), GF256::mul(a, c)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GfAxiomTest, ::testing::Values(1u, 2u, 3u, 4u));

// ---------- Matrix ----------

TEST(Matrix, IdentityMultiplication) {
  Matrix m(3, 3);
  std::mt19937 rng{2};
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      m.set(r, c, static_cast<GF256::Elem>(rng() % 256));
    }
  }
  const Matrix id = Matrix::identity(3);
  EXPECT_EQ(m.multiply(id), m);
  EXPECT_EQ(id.multiply(m), m);
}

TEST(Matrix, InverseProducesIdentity) {
  std::mt19937 rng{3};
  for (int attempt = 0; attempt < 20; ++attempt) {
    Matrix m(4, 4);
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        m.set(r, c, static_cast<GF256::Elem>(rng() % 256));
      }
    }
    const auto inv = m.inverted();
    if (!inv) {
      continue;  // singular draw
    }
    EXPECT_EQ(m.multiply(*inv), Matrix::identity(4));
    EXPECT_EQ(inv->multiply(m), Matrix::identity(4));
  }
}

TEST(Matrix, SingularReturnsNullopt) {
  Matrix m(2, 2);  // all zeros
  EXPECT_FALSE(m.inverted().has_value());
  Matrix dup(2, 2);  // duplicate rows
  dup.set(0, 0, 5);
  dup.set(0, 1, 7);
  dup.set(1, 0, 5);
  dup.set(1, 1, 7);
  EXPECT_FALSE(dup.inverted().has_value());
}

TEST(Matrix, VandermondeSubmatricesInvertible) {
  const Matrix v = Matrix::vandermonde(10, 4);
  // Any 4 distinct rows must be invertible.
  std::mt19937 rng{4};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::size_t> rows = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    std::shuffle(rows.begin(), rows.end(), rng);
    rows.resize(4);
    EXPECT_TRUE(v.select_rows(rows).inverted().has_value());
  }
}

TEST(Matrix, SelectRowsOrder) {
  Matrix m(3, 2);
  for (std::size_t r = 0; r < 3; ++r) {
    m.set(r, 0, static_cast<GF256::Elem>(r + 1));
  }
  const Matrix s = m.select_rows({2, 0});
  EXPECT_EQ(s.at(0, 0), 3);
  EXPECT_EQ(s.at(1, 0), 1);
}

TEST(Matrix, ZeroDimensionThrows) { EXPECT_THROW(Matrix(0, 3), std::invalid_argument); }

// ---------- Reed-Solomon ----------

std::vector<RsCodec::Shard> random_shards(std::size_t count, std::size_t len,
                                          unsigned seed) {
  std::mt19937 rng{seed};
  std::vector<RsCodec::Shard> shards(count);
  for (auto& s : shards) {
    s.resize(len);
    for (auto& b : s) {
      b = static_cast<std::uint8_t>(rng() % 256);
    }
  }
  return shards;
}

TEST(ReedSolomon, RejectsBadParameters) {
  EXPECT_THROW(RsCodec(0, 4), std::invalid_argument);
  EXPECT_THROW(RsCodec(4, 0), std::invalid_argument);
  EXPECT_THROW(RsCodec(200, 100), std::invalid_argument);
}

TEST(ReedSolomon, SystematicTopIsIdentity) {
  RsCodec rs(5, 3);
  const Matrix& e = rs.generator();
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_EQ(e.at(r, c), r == c ? 1 : 0);
    }
  }
}

TEST(ReedSolomon, VerifyAcceptsEncodeOutput) {
  RsCodec rs(6, 4);
  const auto data = random_shards(6, 256, 10);
  const auto parity = rs.encode(data);
  EXPECT_TRUE(rs.verify(data, parity));
}

TEST(ReedSolomon, VerifyRejectsCorruption) {
  RsCodec rs(6, 4);
  const auto data = random_shards(6, 256, 11);
  auto parity = rs.encode(data);
  parity[2][17] ^= 0x40;
  EXPECT_FALSE(rs.verify(data, parity));
}

TEST(ReedSolomon, RejectsUnequalShardLengths) {
  RsCodec rs(3, 2);
  auto data = random_shards(3, 64, 12);
  data[1].resize(63);
  EXPECT_THROW(rs.encode(data), std::invalid_argument);
}

TEST(ReedSolomon, ReconstructFailsBelowK) {
  RsCodec rs(4, 2);
  auto data = random_shards(4, 64, 13);
  auto parity = rs.encode(data);
  std::vector<RsCodec::Shard> shards = data;
  shards.insert(shards.end(), parity.begin(), parity.end());
  std::vector<bool> present(6, false);
  present[0] = present[1] = present[2] = true;  // only 3 of k=4
  EXPECT_FALSE(rs.reconstruct(shards, present));
}

/// The core erasure property: for RS(k,4) every erasure pattern of ≤ m
/// shards is recoverable. Parameterized over k.
class RsErasureTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsErasureTest, AllErasurePatternsUpToM) {
  const std::size_t k = GetParam();
  const std::size_t m = 4;  // the paper's parity count
  RsCodec rs(k, m);
  const auto data = random_shards(k, 128, static_cast<unsigned>(20 + k));
  const auto parity = rs.encode(data);
  std::vector<RsCodec::Shard> original = data;
  original.insert(original.end(), parity.begin(), parity.end());
  const std::size_t total = k + m;

  // Enumerate every subset of erased shards with |S| <= m via bitmask.
  for (std::uint32_t mask = 0; mask < (1u << total); ++mask) {
    const int erased = __builtin_popcount(mask);
    if (erased == 0 || erased > static_cast<int>(m)) {
      continue;
    }
    std::vector<RsCodec::Shard> shards = original;
    std::vector<bool> present(total, true);
    for (std::size_t i = 0; i < total; ++i) {
      if (mask & (1u << i)) {
        present[i] = false;
        shards[i].clear();
      }
    }
    ASSERT_TRUE(rs.reconstruct(shards, present)) << "mask=" << mask;
    for (std::size_t i = 0; i < total; ++i) {
      ASSERT_EQ(shards[i], original[i]) << "mask=" << mask << " shard=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DataShards, RsErasureTest, ::testing::Values(1u, 2u, 3u, 5u, 8u));

/// Same erasure property across parity counts m (the paper fixes m=4; the
/// codec must hold for any configuration).
class RsParityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsParityTest, ToleratesExactlyMLosses) {
  const std::size_t m = GetParam();
  const std::size_t k = 6;
  RsCodec rs(k, m);
  const auto data = random_shards(k, 64, static_cast<unsigned>(90 + m));
  const auto parity = rs.encode(data);
  std::vector<RsCodec::Shard> original = data;
  original.insert(original.end(), parity.begin(), parity.end());

  // Losing the first m shards is recoverable...
  {
    std::vector<RsCodec::Shard> shards = original;
    std::vector<bool> present(k + m, true);
    for (std::size_t i = 0; i < m; ++i) {
      present[i] = false;
      shards[i].clear();
    }
    ASSERT_TRUE(rs.reconstruct(shards, present));
    for (std::size_t i = 0; i < k + m; ++i) {
      EXPECT_EQ(shards[i], original[i]);
    }
  }
  // ...losing m+1 is not.
  {
    std::vector<RsCodec::Shard> shards = original;
    std::vector<bool> present(k + m, true);
    for (std::size_t i = 0; i <= m && i < k + m; ++i) {
      present[i] = false;
      shards[i].clear();
    }
    EXPECT_FALSE(rs.reconstruct(shards, present));
  }
}

INSTANTIATE_TEST_SUITE_P(ParityCounts, RsParityTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 8u));

TEST(ReedSolomon, PaperConfiguration) {
  // §IV.B: "a replication factor of one and four coding parities" — RS(k,4)
  // tolerates any 4 shard losses.
  RsCodec rs(10, 4);
  auto data = random_shards(10, 64, 42);
  auto parity = rs.encode(data);
  std::vector<RsCodec::Shard> shards = data;
  shards.insert(shards.end(), parity.begin(), parity.end());
  std::vector<bool> present(14, true);
  // Lose 4 shards: 2 data, 2 parity.
  present[0] = present[5] = present[10] = present[13] = false;
  shards[0].clear();
  shards[5].clear();
  shards[10].clear();
  shards[13].clear();
  ASSERT_TRUE(rs.reconstruct(shards, present));
  EXPECT_EQ(shards[0], data[0]);
  EXPECT_EQ(shards[5], data[5]);
  EXPECT_TRUE(rs.verify({shards.begin(), shards.begin() + 10},
                        {shards.begin() + 10, shards.end()}));
}

// ---------- StripeCodec ----------

TEST(StripeCodec, RoundTripNoErasures) {
  StripeCodec codec(4, 2);
  std::vector<std::uint8_t> bytes(1000);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 31);
  }
  auto stripe = codec.encode(bytes);
  EXPECT_EQ(stripe.shards.size(), 6u);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(codec.decode(stripe, std::vector<bool>(6, true), out));
  EXPECT_EQ(out, bytes);
}

TEST(StripeCodec, RoundTripWithErasures) {
  StripeCodec codec(5, 4);
  std::vector<std::uint8_t> bytes(12345);
  std::mt19937 rng{7};
  for (auto& b : bytes) {
    b = static_cast<std::uint8_t>(rng() % 256);
  }
  auto stripe = codec.encode(bytes);
  std::vector<bool> present(9, true);
  present[0] = present[2] = present[6] = present[8] = false;
  stripe.shards[0].clear();
  stripe.shards[2].clear();
  stripe.shards[6].clear();
  stripe.shards[8].clear();
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(codec.decode(stripe, present, out));
  EXPECT_EQ(out, bytes);
}

TEST(StripeCodec, SizeNotMultipleOfK) {
  StripeCodec codec(3, 2);
  std::vector<std::uint8_t> bytes(7, 0xAB);
  auto stripe = codec.encode(bytes);
  EXPECT_EQ(stripe.original_size, 7u);
  EXPECT_EQ(stripe.shards[0].size(), 3u);  // ceil(7/3)
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(codec.decode(stripe, std::vector<bool>(5, true), out));
  EXPECT_EQ(out, bytes);
}

TEST(StripeCodec, EmptyInput) {
  StripeCodec codec(3, 2);
  auto stripe = codec.encode({});
  std::vector<std::uint8_t> out{1, 2, 3};
  ASSERT_TRUE(codec.decode(stripe, std::vector<bool>(5, true), out));
  EXPECT_TRUE(out.empty());
}

TEST(StripeCodec, StorageRatioMatchesPaperClaim) {
  // RS(k=10, m=4) at rep 1 vs triplication: (14/10)/3 ≈ 0.47 — less than
  // half the storage, the Fig. 5 saving.
  EXPECT_NEAR(StripeCodec::storage_ratio(10, 4, 3), 14.0 / 30.0, 1e-12);
  // A 1-block file with 4 parities is *more* expensive than triplication.
  EXPECT_GT(StripeCodec::storage_ratio(1, 4, 3), 1.0);
}

}  // namespace
}  // namespace erms::ec
