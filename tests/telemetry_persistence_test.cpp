// TSDB snapshot/restore: blocks stay compressed on the wire, restored
// databases keep accepting appends, corrupt input is rejected.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "telemetry/tsdb.hpp"
#include "util/rng.hpp"

namespace dust::telemetry {
namespace {

TEST(BlockPersistence, EmptyBlockRoundTrips) {
  CompressedBlock block;
  std::stringstream buffer;
  block.serialize(buffer);
  const CompressedBlock restored = CompressedBlock::deserialize(buffer);
  EXPECT_EQ(restored.sample_count(), 0u);
  EXPECT_TRUE(restored.decode().empty());
}

TEST(BlockPersistence, DataAndAppendStateSurvive) {
  CompressedBlock block;
  for (int i = 0; i < 100; ++i) block.append({1000LL * i, 0.5 * i});
  std::stringstream buffer;
  block.serialize(buffer);
  CompressedBlock restored = CompressedBlock::deserialize(buffer);
  EXPECT_EQ(restored.decode(), block.decode());
  // Appends continue seamlessly after restore.
  restored.append({100000, 123.0});
  block.append({100000, 123.0});
  EXPECT_EQ(restored.decode(), block.decode());
  EXPECT_EQ(restored.compressed_bytes(), block.compressed_bytes());
}

TEST(BlockPersistence, RejectsCorruptHeader) {
  std::stringstream buffer("garbage-not-a-block");
  EXPECT_THROW(CompressedBlock::deserialize(buffer), std::runtime_error);
}

TEST(BlockPersistence, RejectsTruncatedPayload) {
  CompressedBlock block;
  for (int i = 0; i < 50; ++i) block.append({10LL * i, double(i)});
  std::stringstream buffer;
  block.serialize(buffer);
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream truncated(bytes);
  EXPECT_THROW(CompressedBlock::deserialize(truncated), std::runtime_error);
}

// Save mid-block at every bit alignment, keep appending: the restored block
// must write exactly the bytes of a twin that was never serialized.
TEST(BlockPersistence, RestoredBlockKeepsAppendingLikeItsTwin) {
  util::Rng rng(11);
  std::vector<Sample> series;
  std::int64_t t = 0;
  double v = 10.0;
  for (int i = 0; i < 120; ++i) {
    t += 900 + static_cast<std::int64_t>(rng.below(200));
    if (rng.below(3) != 0) v += rng.uniform(-2.0, 2.0);
    series.push_back({t, v});
  }
  std::set<std::size_t> alignments;
  for (std::size_t cut = 1; cut < series.size(); ++cut) {
    CompressedBlock twin;
    for (std::size_t i = 0; i < cut; ++i) twin.append(series[i]);
    alignments.insert(twin.payload_bit_count() % 8);
    std::stringstream buffer;
    twin.serialize(buffer);
    CompressedBlock restored = CompressedBlock::deserialize(buffer);
    for (std::size_t i = cut; i < series.size(); ++i) {
      twin.append(series[i]);
      restored.append(series[i]);
      ASSERT_EQ(restored.payload_bit_count(), twin.payload_bit_count());
      ASSERT_EQ(restored.payload(), twin.payload()) << "cut " << cut;
    }
  }
  EXPECT_EQ(alignments.size(), 8u);  // every partial-byte offset was a cut
}

TEST(BlockPersistence, RejectsNonZeroPaddingBits) {
  CompressedBlock block;
  block.append({0, 1.0});
  block.append({1000, 2.0});
  ASSERT_NE(block.payload_bit_count() % 8, 0u);  // has a padded last byte
  std::stringstream buffer;
  block.serialize(buffer);
  std::string bytes = buffer.str();
  bytes.back() = static_cast<char>(bytes.back() | 0x01);  // lowest = padding
  std::stringstream corrupt(bytes);
  EXPECT_THROW(CompressedBlock::deserialize(corrupt), std::runtime_error);
}

TEST(TsdbPersistence, MidBlockSnapshotAppendsLikeItsTwin) {
  Tsdb db;
  const MetricId id = db.register_metric({"cpu", "%", MetricKind::kGauge});
  util::Rng rng(8);
  std::int64_t t = 0;
  auto next = [&] {
    t += 1000 + static_cast<std::int64_t>(rng.below(50));
    return Sample{t, rng.uniform(0.0, 100.0)};
  };
  for (int i = 0; i < 1500; ++i) db.append(id, next());  // ends mid-block
  std::stringstream snapshot;
  db.save(snapshot);
  Tsdb restored = Tsdb::load(snapshot);
  ASSERT_EQ(restored.series(id).last(), db.series(id).last());
  for (int i = 0; i < 1500; ++i) {
    const Sample sample = next();
    db.append(id, sample);
    restored.append(id, sample);
  }
  std::stringstream a, b;
  db.save(a);
  restored.save(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(restored.storage_bytes(), db.storage_bytes());
}

TEST(TsdbPersistence, FullDatabaseRoundTrip) {
  Tsdb db;
  const MetricId cpu =
      db.register_metric({"cpu", "%", MetricKind::kGauge});
  const MetricId pkts =
      db.register_metric({"rx.packets", "pkts", MetricKind::kCounter});
  util::Rng rng(4);
  double total = 0;
  for (int i = 0; i < 3000; ++i) {  // spans multiple sealed blocks
    db.append(cpu, {100LL * i, rng.uniform(0, 100)});
    total += rng.uniform(0, 50);
    db.append(pkts, {100LL * i, total});
  }

  std::stringstream buffer;
  db.save(buffer);
  Tsdb restored = Tsdb::load(buffer);

  ASSERT_EQ(restored.metric_count(), 2u);
  ASSERT_TRUE(restored.find("cpu").has_value());
  ASSERT_TRUE(restored.find("rx.packets").has_value());
  EXPECT_EQ(restored.series(*restored.find("cpu")).descriptor().unit, "%");
  EXPECT_EQ(restored.series(*restored.find("rx.packets")).descriptor().kind,
            MetricKind::kCounter);

  // Same data, sample for sample.
  const auto original = db.query(cpu, 0, 1000000);
  const auto roundtrip = restored.query(*restored.find("cpu"), 0, 1000000);
  ASSERT_EQ(roundtrip.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(roundtrip[i].timestamp_ms, original[i].timestamp_ms);
    EXPECT_EQ(roundtrip[i].value, original[i].value);
  }
  // Aggregates agree, and appends continue.
  EXPECT_EQ(*restored.aggregate(*restored.find("cpu"), 0, 1000000,
                                Aggregation::kMean),
            *db.aggregate(cpu, 0, 1000000, Aggregation::kMean));
  restored.append(*restored.find("cpu"), {400000, 55.0});
  EXPECT_EQ(restored.series(*restored.find("cpu")).last()->value, 55.0);
}

TEST(TsdbPersistence, SnapshotIsCompressed) {
  Tsdb db;
  const MetricId id = db.register_metric({"m", "", MetricKind::kGauge});
  for (int i = 0; i < 5000; ++i) db.append(id, {1000LL * i, 42.0});
  std::stringstream buffer;
  db.save(buffer);
  // Raw would be 5000 * 16 bytes = 80 KB; constant series compresses hard.
  EXPECT_LT(buffer.str().size(), 10000u);
}

TEST(TsdbPersistence, EmptyDatabaseRoundTrips) {
  Tsdb db;
  std::stringstream buffer;
  db.save(buffer);
  Tsdb restored = Tsdb::load(buffer);
  EXPECT_EQ(restored.metric_count(), 0u);
}

TEST(TsdbPersistence, RejectsGarbage) {
  std::stringstream buffer("this is not a tsdb snapshot at all");
  EXPECT_THROW(Tsdb::load(buffer), std::runtime_error);
}

class PersistenceRandomSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PersistenceRandomSweep, RandomSeriesRoundTrip) {
  util::Rng rng(GetParam());
  Tsdb db;
  const MetricId id = db.register_metric({"x", "", MetricKind::kGauge});
  std::int64_t t = 0;
  for (int i = 0; i < 2000; ++i) {
    t += static_cast<std::int64_t>(rng.below(10000));
    db.append(id, {t, rng.normal(0, 1e6)});
  }
  std::stringstream buffer;
  db.save(buffer);
  Tsdb restored = Tsdb::load(buffer);
  const auto a = db.query(id, 0, t);
  const auto b = restored.query(*restored.find("x"), 0, t);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistenceRandomSweep,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace dust::telemetry
