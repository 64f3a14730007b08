#include "telemetry/gorilla.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "util/rng.hpp"

namespace dust::telemetry {
namespace {

TEST(BitWriter, SingleBits) {
  BitWriter w;
  w.write_bit(true);
  w.write_bit(false);
  w.write_bit(true);
  EXPECT_EQ(w.bit_count(), 3u);
  BitReader r(w.bytes(), w.bit_count());
  EXPECT_TRUE(r.read_bit());
  EXPECT_FALSE(r.read_bit());
  EXPECT_TRUE(r.read_bit());
  EXPECT_TRUE(r.exhausted());
}

TEST(BitWriter, MultiBitValuesRoundTrip) {
  BitWriter w;
  w.write_bits(0b10110, 5);
  w.write_bits(0xdeadbeefcafebabeULL, 64);
  w.write_bits(0, 1);
  BitReader r(w.bytes(), w.bit_count());
  EXPECT_EQ(r.read_bits(5), 0b10110u);
  EXPECT_EQ(r.read_bits(64), 0xdeadbeefcafebabeULL);
  EXPECT_EQ(r.read_bits(1), 0u);
}

TEST(BitWriter, RejectsOver64) {
  BitWriter w;
  EXPECT_THROW(w.write_bits(0, 65), std::invalid_argument);
}

TEST(BitReader, ReadPastEndThrows) {
  BitWriter w;
  w.write_bit(true);
  BitReader r(w.bytes(), w.bit_count());
  r.read_bit();
  EXPECT_THROW(r.read_bit(), std::out_of_range);
}

std::vector<Sample> roundtrip(const std::vector<Sample>& in) {
  CompressedBlock block;
  for (const Sample& s : in) block.append(s);
  return block.decode();
}

TEST(CompressedBlock, EmptyDecodesEmpty) {
  CompressedBlock block;
  EXPECT_TRUE(block.decode().empty());
  EXPECT_EQ(block.sample_count(), 0u);
}

TEST(CompressedBlock, SingleSample) {
  const std::vector<Sample> in{{1234567890123LL, 3.14159}};
  EXPECT_EQ(roundtrip(in), in);
}

TEST(CompressedBlock, RegularIntervalConstantValue) {
  std::vector<Sample> in;
  for (int i = 0; i < 100; ++i) in.push_back({1000LL * i, 42.0});
  EXPECT_EQ(roundtrip(in), in);
}

TEST(CompressedBlock, RegularSeriesCompressesWell) {
  CompressedBlock block;
  for (int i = 0; i < 1000; ++i)
    block.append({1000LL * i, 42.0});
  // Constant value + constant delta: ~1 bit/timestamp + 1 bit/value.
  EXPECT_GT(block.compression_ratio(), 20.0);
}

TEST(CompressedBlock, IrregularTimestamps) {
  std::vector<Sample> in{{0, 1.0},   {7, 2.0},     {8, 3.0},
                         {500, 4.0}, {40000, 5.0}, {40001, 6.0}};
  EXPECT_EQ(roundtrip(in), in);
}

TEST(CompressedBlock, LargeTimestampJumps) {
  std::vector<Sample> in{{0, 1.0},
                         {1LL << 40, 2.0},
                         {(1LL << 40) + 5, 3.0},
                         {(1LL << 41), 4.0}};
  EXPECT_EQ(roundtrip(in), in);
}

// A dod at each bucket edge: the zigzagged value must fit its field (dod =
// 64, 256 and 2048 once overflowed theirs and decoded as 0).
TEST(CompressedBlock, DeltaOfDeltaBucketEdgesRoundTrip) {
  for (std::int64_t edge : {63, 64, 65, 255, 256, 257, 2047, 2048, 2049}) {
    for (std::int64_t dod : {edge, -edge}) {
      const std::int64_t delta = 5000;
      const std::vector<Sample> in{
          {0, 1.0}, {delta, 2.0}, {2 * delta + dod, 3.0}, {3 * delta + dod, 4.0}};
      EXPECT_EQ(roundtrip(in), in) << "dod " << dod;
    }
  }
}

TEST(CompressedBlock, NegativeAndExtremeValues) {
  std::vector<Sample> in{{0, -1.5},
                         {1, 0.0},
                         {2, -0.0},
                         {3, 1e300},
                         {4, -1e-300},
                         {5, std::numeric_limits<double>::max()}};
  const auto out = roundtrip(in);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].timestamp_ms, in[i].timestamp_ms);
    EXPECT_EQ(std::signbit(out[i].value), std::signbit(in[i].value));
    EXPECT_EQ(out[i].value, in[i].value);
  }
}

TEST(CompressedBlock, EqualTimestampsAllowed) {
  std::vector<Sample> in{{5, 1.0}, {5, 2.0}, {5, 3.0}};
  EXPECT_EQ(roundtrip(in), in);
}

TEST(CompressedBlock, RejectsDecreasingTimestamps) {
  CompressedBlock block;
  block.append({10, 1.0});
  EXPECT_THROW(block.append({9, 2.0}), std::invalid_argument);
}

TEST(CompressedBlock, TracksTimestampRange) {
  CompressedBlock block;
  block.append({100, 1.0});
  block.append({200, 2.0});
  block.append({350, 3.0});
  EXPECT_EQ(block.first_timestamp_ms(), 100);
  EXPECT_EQ(block.last_timestamp_ms(), 350);
  EXPECT_EQ(block.sample_count(), 3u);
}

// --- writer equivalence -----------------------------------------------------

// The reference writer: one bit at a time, MSB first, the encoding the
// word-at-a-time BitWriter must reproduce byte for byte.
struct BitAtATimeWriter {
  std::vector<std::uint8_t> data;
  std::size_t bit_count = 0;

  void write_bits(std::uint64_t value, unsigned bits) {
    for (unsigned i = bits; i-- > 0;) {
      if (bit_count / 8 == data.size()) data.push_back(0);
      if ((value >> i) & 1u)
        data[bit_count / 8] |= static_cast<std::uint8_t>(0x80u >> (bit_count % 8));
      ++bit_count;
    }
  }
};

TEST(BitWriter, MatchesBitAtATimeAtEveryWidthAndAlignment) {
  util::Rng rng(0xb17);
  for (unsigned align = 0; align < 8; ++align) {
    for (unsigned width = 0; width <= 64; ++width) {
      for (int trial = 0; trial < 8; ++trial) {
        // Garbage above `width` must be ignored, as the reference does.
        const std::uint64_t value = trial == 0 ? ~std::uint64_t{0} : rng();
        BitWriter writer;
        BitAtATimeWriter ref;
        const std::uint64_t prefix = rng();
        writer.write_bits(prefix, align);
        ref.write_bits(prefix, align);
        writer.write_bits(value, width);
        ref.write_bits(value, width);
        ASSERT_EQ(writer.bit_count(), ref.bit_count)
            << "align " << align << " width " << width;
        ASSERT_EQ(writer.bytes(), ref.data)
            << "align " << align << " width " << width;
      }
    }
  }
}

TEST(BitWriter, RandomWriteSequencesStayExactAfterEveryCall) {
  util::Rng rng(0x5e95);
  for (int round = 0; round < 20; ++round) {
    BitWriter writer;
    BitAtATimeWriter ref;
    for (int call = 0; call < 500; ++call) {
      if (rng.below(8) == 0) {
        const bool bit = rng.below(2) == 1;
        writer.write_bit(bit);
        ref.write_bits(bit ? 1u : 0u, 1);
      } else {
        const auto width = static_cast<unsigned>(rng.below(65));
        const std::uint64_t value = rng();
        writer.write_bits(value, width);
        ref.write_bits(value, width);
      }
      ASSERT_EQ(writer.bit_count(), ref.bit_count);
      ASSERT_EQ(writer.bytes(), ref.data);
    }
  }
}

// --- goldens ----------------------------------------------------------------
//
// Bytes, bit counts and per-append digests recorded from the bit-at-a-time
// writer. Any change to the encoder's output is a wire-format change.

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::uint64_t to_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// Every encoder branch in order: dod = 0, each dod bucket (7/9/12/64 bits,
// both signs), XOR = 0, a first window, a new window, window reuse, the
// leading-zero cap at 31, and a 64-bit meaningful length.
std::vector<Sample> branch_series() {
  std::vector<Sample> s;
  std::int64_t t = 1000;
  std::int64_t delta = 0;
  auto next = [&](std::int64_t dod, double v) {
    delta += dod;
    t += delta;
    s.push_back({t, v});
  };
  s.push_back({t, 1.0});
  next(10, 1.0);        // dod 7-bit, XOR = 0
  next(0, 2.0);         // dod = 0, first window
  next(100, 3.0);       // dod 9-bit, new window (trailing shrinks)
  next(1000, 2.0);      // dod 12-bit, window reuse
  next(100000, 2.0);    // dod 64-bit, XOR = 0
  next(-50, from_bits(to_bits(2.0) ^ 1u));  // dod -7-bit, leading capped at 31
  next(-200, from_bits(to_bits(s.back().value) ^ 0x8000000000000001ULL));
                        // dod -9-bit, length 64
  next(-2000, -7.25);   // dod -12-bit, reuse of the 64-bit window
  next(-3000, -7.25);   // dod -64-bit, XOR = 0
  next(0, 1e300);       // dod = 0, reuse
  next(0, 0.0);
  return s;
}

// A long mixed series: mostly regular timestamps with jitter and gaps,
// values that repeat, drift and jump.
std::vector<Sample> mixed_series() {
  util::Rng rng(2024);
  std::vector<Sample> s;
  std::int64_t t = 1'700'000'000'000LL;
  double v = 50.0;
  for (int i = 0; i < 600; ++i) {
    s.push_back({t, v});
    const std::uint64_t r = rng.below(100);
    if (r < 70) {
      t += 1000;
    } else if (r < 90) {
      t += 1000 + static_cast<std::int64_t>(rng.below(200));
    } else if (r < 98) {
      t += static_cast<std::int64_t>(rng.below(5000));
    } else {
      t += 1'000'000 + static_cast<std::int64_t>(rng.below(1u << 20));
    }
    const std::uint64_t q = rng.below(10);
    if (q < 4) continue;
    v = q < 8 ? v + rng.uniform(-1.0, 1.0) : rng.uniform(-1e6, 1e6);
  }
  return s;
}

// FNV-1a over (bit_count, bytes) after every append: pins the writer's
// exact state at each step, not just at the end.
std::uint64_t step_digest(const std::vector<Sample>& series) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  CompressedBlock block;
  for (const Sample& sample : series) {
    block.append(sample);
    for (int i = 0; i < 8; ++i) mix((block.payload_bit_count() >> (8 * i)) & 0xff);
    for (std::uint8_t byte : block.payload()) mix(byte);
  }
  return h;
}

TEST(GorillaGolden, EveryBranchSeriesBytesAreFixed) {
  const std::vector<Sample> series = branch_series();
  CompressedBlock block;
  for (const Sample& sample : series) block.append(sample);
  const std::vector<std::uint8_t> expected{
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0xe8, 0x3f, 0xf0, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x8a, 0x18, 0x25, 0x7f, 0xfc, 0xc8, 0xcc, 0x03,
      0xcf, 0xa1, 0x7c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0c, 0x35, 0x01, 0x63,
      0xdf, 0x80, 0x00, 0x00, 0x00, 0x03, 0xb1, 0xf8, 0x1f, 0xc0, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0xf7, 0xcf, 0xc0, 0x03, 0xa0, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x1e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2e, 0xde,
      0x57, 0xc5, 0x5c, 0x87, 0x91, 0x00, 0x0e, 0xb3, 0x89, 0xf8, 0xdf, 0x90,
      0xf2, 0x20, 0x01, 0xd6, 0x70};
  EXPECT_EQ(block.payload_bit_count(), 710u);
  EXPECT_EQ(block.payload(), expected);
  EXPECT_EQ(step_digest(series), 0x168c00fdd37a2ce4ULL);
  EXPECT_EQ(block.decode(), series);
}

TEST(GorillaGolden, MixedSeriesDigestIsFixed) {
  const std::vector<Sample> series = mixed_series();
  CompressedBlock block;
  for (const Sample& sample : series) block.append(sample);
  EXPECT_EQ(block.payload_bit_count(), 30098u);
  EXPECT_EQ(block.compressed_bytes(), 3763u);
  EXPECT_EQ(step_digest(series), 0x5bf593be37b75433ULL);
  EXPECT_EQ(block.decode(), series);
}

// --- last_value() on every path ----------------------------------------------

TEST(CompressedBlockLastValue, EmptyBlockIsZero) {
  EXPECT_EQ(CompressedBlock{}.last_value(), 0.0);
}

TEST(CompressedBlockLastValue, TracksEveryAppendBitExactly) {
  CompressedBlock block;
  for (const Sample& sample : branch_series()) {
    block.append(sample);
    EXPECT_EQ(to_bits(block.last_value()), to_bits(sample.value));
  }
  block.append({block.last_timestamp_ms() + 1, -0.0});
  EXPECT_TRUE(std::signbit(block.last_value()));
}

TEST(CompressedBlockLastValue, SurvivesDeserialize) {
  CompressedBlock block;
  for (const Sample& sample : mixed_series()) block.append(sample);
  std::stringstream buffer;
  block.serialize(buffer);
  const CompressedBlock restored = CompressedBlock::deserialize(buffer);
  EXPECT_EQ(restored.last_value(), block.decode().back().value);
}

TEST(CompressedBlockLastValue, FromWireTakesTheDescriptorValue) {
  CompressedBlock block;
  for (const Sample& sample : branch_series()) block.append(sample);
  const CompressedBlock rebuilt = CompressedBlock::from_wire(
      block.payload(), block.payload_bit_count(), block.sample_count(),
      block.first_timestamp_ms(), block.last_timestamp_ms(),
      block.last_value());
  EXPECT_EQ(rebuilt.last_value(), block.decode().back().value);
  EXPECT_EQ(rebuilt.decode(), block.decode());
}

class GorillaRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Property: lossless roundtrip for arbitrary monotone series.
TEST_P(GorillaRandomSweep, RandomWalkRoundTrip) {
  util::Rng rng(GetParam());
  std::vector<Sample> in;
  std::int64_t t = static_cast<std::int64_t>(rng.below(1000000));
  double v = rng.uniform(-100, 100);
  for (int i = 0; i < 500; ++i) {
    in.push_back({t, v});
    t += rng.below(5000);
    v += rng.normal(0.0, 3.0);
    if (rng.bernoulli(0.05)) v = rng.uniform(-1e6, 1e6);  // occasional jump
  }
  EXPECT_EQ(roundtrip(in), in);
}

// Property: smooth gauge-like series (the TSDB's actual workload) compress.
TEST_P(GorillaRandomSweep, SmoothSeriesCompress) {
  util::Rng rng(GetParam() ^ 0x51deca11);
  CompressedBlock block;
  double v = 50.0;
  for (int i = 0; i < 2000; ++i) {
    block.append({1000LL * i, v});
    if (rng.bernoulli(0.1)) v += rng.uniform(-1.0, 1.0);
  }
  EXPECT_GT(block.compression_ratio(), 2.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GorillaRandomSweep,
                         ::testing::Values(1u, 22u, 333u, 4444u, 55555u));

}  // namespace
}  // namespace dust::telemetry
