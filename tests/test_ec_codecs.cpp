// Differential suite for the erasure-codec zoo (RS / AzureLRC /
// Hitchhiker-XOR+). Every codec is checked three ways:
//  - encode against a byte-at-a-time GF(2^8) reference that multiplies the
//    generator matrix directly (no region kernels, no table caches);
//  - every single-erasure pattern through both reconstruct() and the
//    plan_repair()/repair() path, byte-identical to the original shards
//    (the issue's acceptance gate);
//  - the repair-bandwidth contracts: LRC reads its local group, Hitchhiker
//    reads (k+|group|)/2 shard-equivalents, RS reads k — these plans are
//    what the cluster sizes its recovery flows from.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "ec/azure_lrc.h"
#include "ec/codec.h"
#include "ec/codec_registry.h"
#include "ec/hh_xor_plus.h"
#include "ec/stripe_codec.h"
#include "util/thread_pool.h"

namespace erms::ec {
namespace {

using Shard = ErasureCodec::Shard;

std::vector<Shard> random_shards(std::size_t count, std::size_t len, unsigned seed) {
  std::mt19937 rng{seed};
  std::vector<Shard> shards(count);
  for (auto& s : shards) {
    s.resize(len);
    for (auto& b : s) {
      b = static_cast<std::uint8_t>(rng() % 256);
    }
  }
  return shards;
}

/// Brute-force reference encode: walk the generator matrix and multiply
/// byte by byte with GF256::mul. Shares nothing with LinearCodec's cached
/// MulTable/region-kernel path.
std::vector<Shard> naive_encode(const LinearCodec& codec, const std::vector<Shard>& data) {
  const Matrix& gen = codec.generator();
  const std::size_t k = codec.data_shards();
  const std::size_t m = codec.parity_shards();
  const std::size_t s = codec.subshards();
  const std::size_t len = data.front().size();
  const std::size_t cell = len / s;
  std::vector<Shard> parity(m, Shard(len, 0));
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t t = 0; t < s; ++t) {
      const std::size_t row = (k + j) * s + t;
      std::uint8_t* dst = parity[j].data() + t * cell;
      for (std::size_t c = 0; c < k * s; ++c) {
        const GF256::Elem f = gen.at(row, c);
        if (f == 0) {
          continue;
        }
        const std::uint8_t* src = data[c / s].data() + (c % s) * cell;
        for (std::size_t b = 0; b < cell; ++b) {
          dst[b] = GF256::add(dst[b], GF256::mul(f, src[b]));
        }
      }
    }
  }
  return parity;
}

// gtest lists each case with the raw bytes of its parameter. The label
// pointer's bytes move with the load address on every run, so it goes last,
// where it leaves the front of each listed name the same from build to build.
struct ZooEntry {
  CodecSpec spec;
  std::size_t k;
  const char* label;
};

/// The shapes the repo's benchmarks and the paper's configs use, plus edge
/// shapes (k=1, tiny groups).
const ZooEntry kZoo[] = {
    {{CodecKind::kRs, 4, 0, 0}, 8, "rs8_4"},
    {{CodecKind::kRs, 4, 0, 0}, 6, "rs6_4"},
    {{CodecKind::kRs, 4, 0, 0}, 1, "rs1_4"},
    {{CodecKind::kAzureLrc, 0, 2, 2}, 8, "azure_lrc8_2_2"},
    {{CodecKind::kAzureLrc, 0, 3, 2}, 6, "azure_lrc6_3_2"},
    {{CodecKind::kAzureLrc, 0, 2, 1}, 5, "azure_lrc5_2_1"},
    {{CodecKind::kHitchhikerXorPlus, 4, 0, 0}, 8, "hh_xor_plus8_4"},
    {{CodecKind::kHitchhikerXorPlus, 3, 0, 0}, 6, "hh_xor_plus6_3"},
    {{CodecKind::kHitchhikerXorPlus, 2, 0, 0}, 4, "hh_xor_plus4_2"},
};

class CodecZooTest : public ::testing::TestWithParam<ZooEntry> {};

TEST_P(CodecZooTest, EncodeMatchesNaiveGfReference) {
  const ZooEntry& e = GetParam();
  auto codec = make_codec(e.spec, e.k);
  auto* linear = dynamic_cast<LinearCodec*>(codec.get());
  ASSERT_NE(linear, nullptr);
  for (const std::size_t len : {std::size_t{2}, std::size_t{64}, std::size_t{1024}}) {
    const auto data = random_shards(e.k, len, static_cast<unsigned>(17 + len));
    const auto fast = codec->encode(data);
    const auto slow = naive_encode(*linear, data);
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t j = 0; j < fast.size(); ++j) {
      ASSERT_EQ(fast[j], slow[j]) << e.label << " parity " << j << " len " << len;
    }
  }
}

TEST_P(CodecZooTest, EverySingleErasureReconstructsByteIdentical) {
  const ZooEntry& e = GetParam();
  auto codec = make_codec(e.spec, e.k);
  const std::size_t n = codec->total_shards();
  const auto data = random_shards(e.k, 256, 31);
  auto parity = codec->encode(data);
  std::vector<Shard> original = data;
  original.insert(original.end(), parity.begin(), parity.end());

  for (std::size_t lost = 0; lost < n; ++lost) {
    // reconstruct() path.
    {
      std::vector<Shard> shards = original;
      std::vector<bool> present(n, true);
      present[lost] = false;
      shards[lost].clear();
      ASSERT_TRUE(codec->reconstruct(shards, present)) << e.label << " lost " << lost;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(shards[i], original[i]) << e.label << " lost " << lost << " shard " << i;
      }
    }
    // plan_repair()/repair() path — and the plan must not touch the lost
    // shard or any cell outside the survivors.
    {
      std::vector<Shard> shards = original;
      std::vector<bool> present(n, true);
      present[lost] = false;
      shards[lost].clear();
      const auto plan = codec->plan_repair(lost, present);
      ASSERT_TRUE(plan.has_value()) << e.label << " lost " << lost;
      for (const CellRef c : plan->cells) {
        ASSERT_NE(c.shard, lost);
        ASSERT_LT(c.sub, codec->subshards());
      }
      ASSERT_TRUE(codec->repair(shards, lost, *plan)) << e.label << " lost " << lost;
      ASSERT_EQ(shards[lost], original[lost]) << e.label << " lost " << lost;
    }
  }
}

TEST_P(CodecZooTest, RepairPlanNeverReadsMoreThanRs) {
  const ZooEntry& e = GetParam();
  auto codec = make_codec(e.spec, e.k);
  const std::size_t n = codec->total_shards();
  std::vector<bool> present(n, true);
  for (std::size_t lost = 0; lost < n; ++lost) {
    present[lost] = false;
    const auto plan = codec->plan_repair(lost, present);
    present[lost] = true;
    ASSERT_TRUE(plan.has_value());
    // RS reads k whole shards; no code in the zoo ever reads more.
    EXPECT_LE(plan->shard_equivalents(), static_cast<double>(e.k) + 1e-9)
        << e.label << " lost " << lost;
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, CodecZooTest, ::testing::ValuesIn(kZoo),
                         [](const ::testing::TestParamInfo<ZooEntry>& info) {
                           return std::string(info.param.label);
                         });

// ---------- repair-bandwidth contracts ----------

TEST(AzureLrc, DataRepairReadsOnlyTheLocalGroup) {
  AzureLrcCodec lrc(8, 2, 2);  // groups {0..3} {4..7}, locals 8,9, globals 10,11
  std::vector<bool> present(12, true);
  for (std::size_t lost = 0; lost < 8; ++lost) {
    present[lost] = false;
    const auto plan = lrc.plan_repair(lost, present);
    present[lost] = true;
    ASSERT_TRUE(plan.has_value());
    // 3 surviving group members + 1 local parity — half of RS(8,4)'s 8.
    EXPECT_EQ(plan->cells.size(), 4u) << "lost " << lost;
    EXPECT_EQ(plan->fanout(), 4u);
    const std::size_t local = 8 + (lost < 4 ? 0 : 1);
    EXPECT_TRUE(std::any_of(plan->cells.begin(), plan->cells.end(),
                            [&](CellRef c) { return c.shard == local; }));
  }
}

TEST(AzureLrc, LocalParityLossReadsItsGroup) {
  AzureLrcCodec lrc(8, 2, 2);
  std::vector<bool> present(12, true);
  present[8] = false;
  const auto plan = lrc.plan_repair(8, present);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->cells.size(), 4u);  // group 0 = {0,1,2,3}
  for (const CellRef c : plan->cells) {
    EXPECT_LT(c.shard, 4u);
  }
}

TEST(AzureLrc, FallsBackWhenLocalParityDead) {
  // Data shard + its local parity both down: the structured plan is
  // impossible, the generic span-based plan (via the globals) takes over.
  AzureLrcCodec lrc(8, 2, 2);
  const auto data = random_shards(8, 128, 77);
  auto parity = lrc.encode(data);
  std::vector<Shard> original = data;
  original.insert(original.end(), parity.begin(), parity.end());

  std::vector<bool> present(12, true);
  present[1] = false;
  present[8] = false;  // group 0's local parity
  const auto plan = lrc.plan_repair(1, present);
  ASSERT_TRUE(plan.has_value());
  auto shards = original;
  shards[1].clear();
  shards[8].clear();
  ASSERT_TRUE(lrc.repair(shards, 1, *plan));
  EXPECT_EQ(shards[1], original[1]);
}

TEST(AzureLrc, AnyTwoLossesRecoverable) {
  // l + g = 4 parities, but the code is not MDS: the guaranteed floor is
  // any g = 2 arbitrary losses (globals alone cover the worst case of both
  // in one group). Enumerate them all.
  AzureLrcCodec lrc(8, 2, 2);
  const auto data = random_shards(8, 64, 78);
  auto parity = lrc.encode(data);
  std::vector<Shard> original = data;
  original.insert(original.end(), parity.begin(), parity.end());
  const std::size_t n = 12;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      auto shards = original;
      std::vector<bool> present(n, true);
      present[a] = present[b] = false;
      shards[a].clear();
      shards[b].clear();
      ASSERT_TRUE(lrc.reconstruct(shards, present)) << a << "," << b;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(shards[i], original[i]) << a << "," << b;
      }
    }
  }
}

TEST(AzureLrc, ReconstructIsHonestOnTripleLosses) {
  // Losses beyond g are recoverable exactly when the surviving rows have
  // full rank; reconstruct() must answer by rank and, when it says yes,
  // produce the original bytes. Three data shards of one group plus that
  // group's local parity is information-theoretically dead — assert that
  // specific refusal too.
  AzureLrcCodec lrc(8, 2, 2);
  const auto data = random_shards(8, 64, 79);
  auto parity = lrc.encode(data);
  std::vector<Shard> original = data;
  original.insert(original.end(), parity.begin(), parity.end());
  const std::size_t n = 12;
  std::size_t recovered = 0;
  std::size_t total = 0;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      for (std::size_t c = b + 1; c < n; ++c) {
        auto shards = original;
        std::vector<bool> present(n, true);
        present[a] = present[b] = present[c] = false;
        shards[a].clear();
        shards[b].clear();
        shards[c].clear();
        ++total;
        if (lrc.reconstruct(shards, present)) {
          ++recovered;
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(shards[i], original[i]) << a << "," << b << "," << c;
          }
        }
      }
    }
  }
  // The structure guarantees a large recoverable fraction (every pattern
  // with at most 2 losses per "dimension"); the exact count is a stable
  // property of the deterministic construction.
  EXPECT_GT(recovered * 10, total * 8) << recovered << "/" << total;
  {
    // 4 losses: a whole group + its local parity = rank-deficient for sure.
    auto shards = original;
    std::vector<bool> present(n, true);
    for (const std::size_t i : {0u, 1u, 2u, 8u}) {
      present[i] = false;
      shards[i].clear();
    }
    EXPECT_FALSE(lrc.reconstruct(shards, present));
  }
}

TEST(HitchhikerXorPlus, DataRepairReadsHalfShards) {
  HitchhikerXorPlusCodec hh(8, 4);  // groups of 3/3/2 across parities 1..3
  std::vector<bool> present(12, true);
  for (std::size_t lost = 0; lost < 8; ++lost) {
    present[lost] = false;
    const auto plan = hh.plan_repair(lost, present);
    present[lost] = true;
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->subshards, 2u);
    // (k - 1) b-halves + parity0 b + group-parity b + (|G| - 1) a-halves
    // = k + |G| cells; |G| ∈ {2, 3} here, so 5.0–5.5 shard-equivalents,
    // strictly below RS's 8.
    const double eq = plan->shard_equivalents();
    EXPECT_GE(eq, 5.0);
    EXPECT_LE(eq, 5.5);
    EXPECT_LT(eq, 8.0);
  }
}

TEST(HitchhikerXorPlus, ToleratesAnyMLossesLikeRs) {
  // The piggyback preserves the base RS fault tolerance: decode the a
  // instance from surviving first halves, strip piggybacks, decode b.
  HitchhikerXorPlusCodec hh(6, 3);
  const auto data = random_shards(6, 128, 91);
  auto parity = hh.encode(data);
  std::vector<Shard> original = data;
  original.insert(original.end(), parity.begin(), parity.end());
  const std::size_t n = 9;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    const int erased = __builtin_popcount(mask);
    if (erased == 0 || erased > 3) {
      continue;
    }
    auto shards = original;
    std::vector<bool> present(n, true);
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        present[i] = false;
        shards[i].clear();
      }
    }
    ASSERT_TRUE(hh.reconstruct(shards, present)) << "mask=" << mask;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(shards[i], original[i]) << "mask=" << mask << " shard=" << i;
    }
  }
  // m + 1 losses must be refused.
  auto shards = original;
  std::vector<bool> present(n, true);
  for (std::size_t i = 0; i < 4; ++i) {
    present[i] = false;
    shards[i].clear();
  }
  EXPECT_FALSE(hh.reconstruct(shards, present));
}

TEST(HitchhikerXorPlus, MultiFailureFallsBackToGenericPlan) {
  HitchhikerXorPlusCodec hh(8, 4);
  const auto data = random_shards(8, 64, 92);
  auto parity = hh.encode(data);
  std::vector<Shard> original = data;
  original.insert(original.end(), parity.begin(), parity.end());
  // Two data shards down: the half-shard plan needs every other data shard,
  // so repairing shard 2 must fall back to a full-rank generic plan.
  std::vector<bool> present(12, true);
  present[2] = present[5] = false;
  const auto plan = hh.plan_repair(2, present);
  ASSERT_TRUE(plan.has_value());
  auto shards = original;
  shards[2].clear();
  shards[5].clear();
  ASSERT_TRUE(hh.repair(shards, 2, *plan));
  EXPECT_EQ(shards[2], original[2]);
}

TEST(RsCodec, PlanIsFirstKPresentShards) {
  // The cluster's legacy RS recovery pulled the first k live shards in
  // data-then-parity order; RsCodec::plan_repair must reproduce exactly
  // that so plan-driven recovery stays byte-identical for RS files.
  RsCodec rs(8, 4);
  std::vector<bool> present(12, true);
  present[3] = false;
  present[1] = false;  // second failure: plan for 3 must skip 1
  const auto plan = rs.plan_repair(3, present);
  ASSERT_TRUE(plan.has_value());
  std::vector<std::uint16_t> shards;
  for (const CellRef c : plan->cells) {
    shards.push_back(c.shard);
  }
  EXPECT_EQ(shards, (std::vector<std::uint16_t>{0, 2, 4, 5, 6, 7, 8, 9}));
}

// ---------- randomized cross-codec differential ----------

TEST(CodecZoo, RandomizedDifferentialAgainstRs) {
  // Same data, every codec, random single erasures: every codec's repair
  // must agree byte-for-byte with RS's reconstruction (both must equal the
  // original shards / original bytes).
  std::mt19937 rng{2026};
  const std::size_t k = 8;
  RsCodec rs(k, 4);
  auto lrc = make_codec({CodecKind::kAzureLrc, 0, 2, 2}, k);
  auto hh = make_codec({CodecKind::kHitchhikerXorPlus, 4, 0, 0}, k);
  for (int trial = 0; trial < 20; ++trial) {
    const auto data = random_shards(k, 128, 1000 + static_cast<unsigned>(trial));
    for (ErasureCodec* codec : {static_cast<ErasureCodec*>(&rs), lrc.get(), hh.get()}) {
      auto parity = codec->encode(data);
      std::vector<Shard> original = data;
      original.insert(original.end(), parity.begin(), parity.end());
      const std::size_t lost = rng() % codec->total_shards();
      auto shards = original;
      std::vector<bool> present(codec->total_shards(), true);
      present[lost] = false;
      shards[lost].clear();
      const auto plan = codec->plan_repair(lost, present);
      ASSERT_TRUE(plan.has_value());
      ASSERT_TRUE(codec->repair(shards, lost, *plan));
      ASSERT_EQ(shards[lost], original[lost])
          << codec->name() << " trial " << trial << " lost " << lost;
    }
  }
}

// ---------- stripe layer + registry + pool ----------

TEST(StripeCodecZoo, RoundTripsEveryCodecWithOddSizes) {
  for (const ZooEntry& e : kZoo) {
    StripeCodec codec(e.spec, e.k);
    for (const std::size_t size : {std::size_t{1}, std::size_t{7919}, std::size_t{65536}}) {
      std::vector<std::uint8_t> bytes(size);
      std::mt19937 rng{static_cast<unsigned>(size)};
      for (auto& b : bytes) {
        b = static_cast<std::uint8_t>(rng() % 256);
      }
      auto stripe = codec.encode(bytes);
      const std::size_t n = codec.code().total_shards();
      ASSERT_EQ(stripe.shards.size(), n);
      ASSERT_EQ(stripe.shards.front().size() % codec.code().subshards(), 0u);
      std::vector<bool> present(n, true);
      present[0] = false;
      stripe.shards[0].clear();
      std::vector<std::uint8_t> out;
      ASSERT_TRUE(codec.decode(stripe, present, out)) << e.label << " size " << size;
      EXPECT_EQ(out, bytes) << e.label << " size " << size;
    }
  }
}

TEST(CodecRegistry, NamesRoundTrip) {
  EXPECT_EQ(registered_codec_names().size(), codec_kind_count());
  for (const std::string_view name : registered_codec_names()) {
    const auto kind = codec_kind_from(name);
    ASSERT_TRUE(kind.has_value());
    EXPECT_EQ(to_string(*kind), name);
  }
  EXPECT_FALSE(codec_kind_from("bogus").has_value());
  EXPECT_EQ(std::string(to_string(CodecKind::kAzureLrc)), "azure_lrc");
}

TEST(CodecRegistry, NormalizeClampsShapes) {
  // l beyond k collapses to k; Hitchhiker below 2 parities is bumped.
  const CodecSpec lrc = normalize_spec({CodecKind::kAzureLrc, 0, 9, 2}, 4);
  EXPECT_EQ(lrc.local_groups, 4u);
  EXPECT_EQ(lrc.total_parities(), 6u);
  const CodecSpec hh = normalize_spec({CodecKind::kHitchhikerXorPlus, 1, 0, 0}, 8);
  EXPECT_EQ(hh.parities, 2u);
  const CodecSpec rs = normalize_spec({CodecKind::kRs, 0, 0, 0}, 8);
  EXPECT_EQ(rs.parities, 1u);
}

TEST(CodecZoo, ThreadedEncodeMatchesSerialBitForBit) {
  util::ThreadPool pool(4);
  for (const ZooEntry& e : kZoo) {
    auto serial = make_codec(e.spec, e.k);
    auto threaded = make_codec(e.spec, e.k);
    threaded->set_thread_pool(&pool);
    // Big enough to cross the parallel threshold (2 x 64 KiB chunks).
    const auto data = random_shards(e.k, 512 * 1024, 55);
    const auto a = serial->encode(data);
    const auto b = threaded->encode(data);
    ASSERT_EQ(a, b) << e.label;
  }
}

}  // namespace
}  // namespace erms::ec
