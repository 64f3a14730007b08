// Differential digest test for ResponseTimeCache invalidation decisions.
//
// Each family replays a seeded churn sequence against one cache. Per cycle it
// folds into one FNV-1a digest: the number of rows that survived
// begin_cycle, which queried sources were served from cache (a hit means the
// row was still valid), the served values' bits, and the hit / miss /
// invalidation / bypass counters. The expected digests were recorded from
// the source-major invalidation pass (the SSSP vectors of every improved
// link built up front, then each row tested against all of them) that the
// link-major pass replaced. A row is dropped iff a worsened link is in its
// support or an improved link beats it, whatever order the tests run in, so
// the digests must not move.
//
// The mixed-mode and unbounded fixtures' digests were recorded against the
// cache that still carried a hop-ball fallback for rows without edge
// support; every row now records support, and the cache without that
// fallback must reproduce them bit for bit.
//
// net_response_cache_test.cpp checks that served rows equal a fresh
// evaluation; an over-invalidating cache passes that check. These digests
// also pin which rows stay cached.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "graph/topology.hpp"
#include "net/response_cache.hpp"
#include "util/rng.hpp"

namespace dust::net {
namespace {

class Digest {
 public:
  void add_u64(std::uint64_t value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t k = 0; k < sizeof value; ++k) {
      hash_ ^= bytes[k];
      hash_ *= 0x100000001b3ull;
    }
  }
  void add_double(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add_u64(bits);
  }
  [[nodiscard]] std::string hex() const {
    char buf[19];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

enum class Topo { kFatTree4, kFatTree8, kRandom };
enum class Move { kMixed, kWorsenOnly, kImproveOnly, kNone };

struct Family {
  Topo topo = Topo::kFatTree4;
  std::uint64_t seed = 1;
  /// Source s queries with options[s % options.size()].
  std::vector<ResponseTimeOptions> options;
  double reprice_epsilon = 0.0;
  double lu_quantum = 0.0;
  double link_epsilon = 0.0;
};

graph::Graph make_graph(Topo topo, util::Rng& rng) {
  switch (topo) {
    case Topo::kFatTree4: return graph::FatTree(4).graph();
    case Topo::kFatTree8: return graph::FatTree(8).graph();
    case Topo::kRandom: return graph::make_random_connected(60, 90, rng);
  }
  return graph::FatTree(4).graph();
}

// Higher utilization means more utilized bandwidth Lu, so a lower 1/Lu cost:
// scaling it up improves a link, scaling it down worsens it.
void churn(NetworkState& net, util::Rng& rng, Move move) {
  if (move == Move::kNone) return;
  const std::size_t count = 1 + rng.below(1 + net.edge_count() / 32);
  for (std::size_t i = 0; i < count; ++i) {
    const auto e = static_cast<graph::EdgeId>(rng.below(net.edge_count()));
    LinkState state = net.link(e);
    switch (move) {
      case Move::kMixed:
        state.utilization =
            std::clamp(state.utilization * rng.uniform(0.6, 1.5), 0.01, 1.0);
        break;
      case Move::kWorsenOnly:
        state.utilization =
            std::max(0.01, state.utilization * rng.uniform(0.4, 0.95));
        break;
      case Move::kImproveOnly:
        state.utilization =
            std::min(1.0, state.utilization * rng.uniform(1.05, 1.8));
        break;
      case Move::kNone:
        break;
    }
    net.set_link(e, state);
  }
}

std::string run_family(const Family& family) {
  util::Rng rng(family.seed);
  NetworkState net(make_graph(family.topo, rng));
  for (graph::EdgeId e = 0; e < net.edge_count(); ++e)
    net.set_link(e, LinkState{1000.0, rng.uniform(0.05, 0.95)});
  net.set_link_epsilon(family.link_epsilon);
  ResponseTimeCache cache;
  cache.set_reprice_epsilon(family.reprice_epsilon);
  cache.set_lu_quantum(family.lu_quantum);

  constexpr Move kMoves[] = {Move::kMixed, Move::kWorsenOnly,
                             Move::kImproveOnly, Move::kNone, Move::kMixed};
  Digest d;
  ResponseTimeResult served;
  for (int cycle = 0; cycle < 40; ++cycle) {
    // Cycles 1-3 and 21-23 (after clear()) sync with no cached row.
    if (cycle == 20) cache.clear();
    const bool no_queries = cycle < 4 || (cycle >= 20 && cycle < 24);
    if (cycle > 0) churn(net, rng, kMoves[cycle % 5]);
    cache.begin_cycle(net);
    d.add_u64(cache.cached_rows());
    if (!no_queries) {
      for (graph::NodeId s = 0; s < net.node_count(); ++s) {
        if (!rng.bernoulli(0.6)) continue;
        const ResponseTimeOptions& opt =
            family.options[s % family.options.size()];
        const std::uint64_t hits_before = cache.stats().hits;
        cache.row_into(net, s, rng.uniform(0.5, 50.0), opt, served);
        d.add_u64(s);
        d.add_u64(cache.stats().hits != hits_before ? 1 : 0);
        for (double value : served.trmin_seconds) d.add_double(value);
      }
    }
    const ResponseTimeCacheStats stats = cache.stats();
    d.add_u64(stats.hits);
    d.add_u64(stats.misses);
    d.add_u64(stats.invalidations);
    d.add_u64(stats.bypasses);
  }
  EXPECT_EQ(cache.stats().bypasses, 0u);
  return d.hex();
}

// Shared-frontier and enumerate rows, bounded and unbounded, in one cache.
const std::vector<ResponseTimeOptions> kMixedModes = {
    {3, EvaluatorMode::kSharedFrontier, 0},
    {0, EvaluatorMode::kSharedFrontier, 0},
    {3, EvaluatorMode::kEnumerate, 0},
    {2, EvaluatorMode::kSharedFrontier, 0},
    {4, EvaluatorMode::kSharedFrontier, 0},
};

TEST(ResponseTimeCacheDigest, FatTree4MixedModes) {
  Family f;
  f.topo = Topo::kFatTree4;
  f.seed = 0xF4;
  f.options = kMixedModes;
  EXPECT_EQ(run_family(f), "da42da695bf2101f");
}

TEST(ResponseTimeCacheDigest, FatTree8MixedModes) {
  Family f;
  f.topo = Topo::kFatTree8;
  f.seed = 0xF8;
  f.options = kMixedModes;
  EXPECT_EQ(run_family(f), "05fff51e54b1e05f");
}

TEST(ResponseTimeCacheDigest, RandomGraphMixedModes) {
  Family f;
  f.topo = Topo::kRandom;
  f.seed = 0x4A4D;
  f.options = kMixedModes;
  EXPECT_EQ(run_family(f), "456c40222fab6283");
}

// Supported rows with max_hops = 0 only: the unbounded Dijkstra bound.
TEST(ResponseTimeCacheDigest, UnboundedSupportedRows) {
  Family f;
  f.topo = Topo::kRandom;
  f.seed = 0x0B;
  f.options = {{0, EvaluatorMode::kSharedFrontier, 0}};
  EXPECT_EQ(run_family(f), "2b280c04082eebcd");
}

// Supported rows with mixed hop bounds and none unbounded: the hop-bounded
// segment minima at the loosest bound.
TEST(ResponseTimeCacheDigest, BoundedSupportedRows) {
  Family f;
  f.topo = Topo::kFatTree8;
  f.seed = 0xB0;
  f.options = {{3, EvaluatorMode::kSharedFrontier, 0},
               {4, EvaluatorMode::kSharedFrontier, 0},
               {3, EvaluatorMode::kEnumerate, 0},
               {2, EvaluatorMode::kEnumerate, 0}};
  EXPECT_EQ(run_family(f), "d5ec2dd7697944e2");
}

// One row in eight has the loosest hop bound (4; the rest use 2). In
// cycles where a worsened link drops it, the improved-link bound is still
// taken at 4: it is computed from the rows valid on entry. Recomputing it
// from the surviving rows tightens the bound and changes this digest.
TEST(ResponseTimeCacheDigest, LoosestBoundRowDropped) {
  Family f;
  f.topo = Topo::kFatTree8;
  f.seed = 0xD2;
  f.options.assign(8, {2, EvaluatorMode::kSharedFrontier, 0});
  f.options[0] = {4, EvaluatorMode::kSharedFrontier, 0};
  EXPECT_EQ(run_family(f), "e23ca39607907575");
}

TEST(ResponseTimeCacheDigest, RepriceEpsilon) {
  Family f;
  f.topo = Topo::kFatTree8;
  f.seed = 0xE9;
  f.options = kMixedModes;
  f.reprice_epsilon = 0.1;
  EXPECT_EQ(run_family(f), "a6f51db54efd5b2e");
}

TEST(ResponseTimeCacheDigest, LuQuantum) {
  Family f;
  f.topo = Topo::kFatTree8;
  f.seed = 0x0C;
  f.options = kMixedModes;
  f.lu_quantum = 0.5;
  EXPECT_EQ(run_family(f), "bdcf716fd8158608");
}

// Both bands together on the random graph, behind a link epsilon.
TEST(ResponseTimeCacheDigest, RepriceAndQuantumOnRandomGraph) {
  Family f;
  f.topo = Topo::kRandom;
  f.seed = 0xEC;
  f.options = kMixedModes;
  f.reprice_epsilon = 0.1;
  f.lu_quantum = 0.5;
  f.link_epsilon = 0.02;
  EXPECT_EQ(run_family(f), "2245f1a5c3a800cf");
}

}  // namespace
}  // namespace dust::net
