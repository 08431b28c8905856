#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/updatable_index.h"
#include "test_util.h"
#include "util/rng.h"

namespace adaptidx {
namespace {

IndexConfig CrackConfig() {
  IndexConfig config;
  config.method = IndexMethod::kCrack;
  return config;
}

TEST(UpdatableIndexTest, ReadOnlyMatchesBase) {
  Column col = Column::UniqueRandom("A", 2000, 1);
  RangeOracle oracle(col);
  UpdatableIndex index(col, CrackConfig());
  QueryContext ctx;
  uint64_t count;
  int64_t sum;
  ASSERT_TRUE(index.RangeCount(ValueRange{100, 900}, &ctx, &count).ok());
  EXPECT_EQ(count, oracle.Count(100, 900));
  ASSERT_TRUE(index.RangeSum(ValueRange{100, 900}, &ctx, &sum).ok());
  EXPECT_EQ(sum, oracle.Sum(100, 900));
  EXPECT_EQ(index.num_rows(), 2000u);
  EXPECT_EQ(index.Name(), "updatable(crack)");
}

TEST(UpdatableIndexTest, InsertVisibleImmediately) {
  Column col = Column::UniqueRandom("A", 1000, 2);
  UpdatableIndex index(col, CrackConfig());
  QueryContext ctx;
  ctx.txn_id = 1;
  RowId id;
  ASSERT_TRUE(index.Insert(500, &ctx, &id).ok());
  EXPECT_GE(id, 1000u);  // fresh row id beyond the base
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{500, 501}, &ctx, &count).ok());
  EXPECT_EQ(count, 2u);  // base value 500 plus the insert
  int64_t sum;
  ASSERT_TRUE(index.RangeSum(ValueRange{500, 501}, &ctx, &sum).ok());
  EXPECT_EQ(sum, 1000);
  EXPECT_EQ(index.num_rows(), 1001u);
  EXPECT_EQ(index.pending_inserts(), 1u);
}

TEST(UpdatableIndexTest, DeleteBaseRowViaAntiMatter) {
  Column col = Column::UniqueRandom("A", 1000, 3);
  UpdatableIndex index(col, CrackConfig());
  // Find the row holding value 42.
  RowId target = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col[i] == 42) target = static_cast<RowId>(i);
  }
  QueryContext ctx;
  ctx.txn_id = 2;
  ASSERT_TRUE(index.Delete(42, target, &ctx).ok());
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{42, 43}, &ctx, &count).ok());
  EXPECT_EQ(count, 0u);
  EXPECT_EQ(index.pending_deletes(), 1u);
  EXPECT_EQ(index.num_rows(), 999u);
  // Double delete is NotFound.
  EXPECT_TRUE(index.Delete(42, target, &ctx).IsNotFound());
}

TEST(UpdatableIndexTest, DeletePendingInsertCancels) {
  Column col = Column::UniqueRandom("A", 100, 4);
  UpdatableIndex index(col, CrackConfig());
  QueryContext ctx;
  ctx.txn_id = 3;
  RowId id;
  ASSERT_TRUE(index.Insert(1000, &ctx, &id).ok());
  ASSERT_TRUE(index.Delete(1000, id, &ctx).ok());
  EXPECT_EQ(index.pending_inserts(), 0u);
  EXPECT_EQ(index.pending_deletes(), 0u);  // cancelled, no anti-matter
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{1000, 1001}, &ctx, &count).ok());
  EXPECT_EQ(count, 0u);
}

TEST(UpdatableIndexTest, DeleteMissingTupleIsNotFound) {
  Column col("A", {10, 20, 30});
  UpdatableIndex index(col, CrackConfig());
  QueryContext ctx;
  EXPECT_TRUE(index.Delete(99, 0, &ctx).IsNotFound());   // wrong value
  EXPECT_TRUE(index.Delete(10, 5, &ctx).IsNotFound());   // row beyond base
}

TEST(UpdatableIndexTest, RowIdsReflectDifferentials) {
  Column col("A", {10, 20, 30, 40});
  UpdatableIndex index(col, CrackConfig());
  QueryContext ctx;
  ctx.txn_id = 4;
  ASSERT_TRUE(index.Delete(20, 1, &ctx).ok());
  RowId new_id;
  ASSERT_TRUE(index.Insert(25, &ctx, &new_id).ok());
  std::vector<RowId> ids;
  ASSERT_TRUE(index.RangeRowIds(ValueRange{0, 100}, &ctx, &ids).ok());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<RowId>{0, 2, 3, new_id}));
}

TEST(UpdatableIndexTest, CheckpointFoldsDifferentials) {
  Column col = Column::UniqueRandom("A", 1000, 5);
  UpdatableIndex index(col, CrackConfig());
  QueryContext ctx;
  ctx.txn_id = 5;
  for (Value v = 5000; v < 5100; ++v) {
    ASSERT_TRUE(index.Insert(v, &ctx).ok());
  }
  RowId target = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col[i] == 7) target = static_cast<RowId>(i);
  }
  ASSERT_TRUE(index.Delete(7, target, &ctx).ok());

  const size_t rows_before = index.num_rows();
  ASSERT_TRUE(index.Checkpoint().ok());
  EXPECT_EQ(index.num_rows(), rows_before);
  EXPECT_EQ(index.pending_inserts(), 0u);
  EXPECT_EQ(index.pending_deletes(), 0u);

  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{5000, 5100}, &ctx, &count).ok());
  EXPECT_EQ(count, 100u);
  ASSERT_TRUE(index.RangeCount(ValueRange{7, 8}, &ctx, &count).ok());
  EXPECT_EQ(count, 0u);
}

TEST(UpdatableIndexTest, MixedWorkloadMatchesOracle) {
  // Apply a random update stream and mirror it into a multiset oracle.
  Column col = Column::UniformRandom("A", 2000, 0, 1000, 6);
  UpdatableIndex index(col, CrackConfig());
  std::multiset<Value> oracle(col.values().begin(), col.values().end());
  std::vector<std::pair<Value, RowId>> live;
  for (size_t i = 0; i < col.size(); ++i) {
    live.emplace_back(col[i], static_cast<RowId>(i));
  }
  Rng rng(7);
  QueryContext ctx;
  for (int i = 0; i < 500; ++i) {
    ctx.txn_id = static_cast<uint64_t>(i) + 10;
    const int op = static_cast<int>(rng.Uniform(10));
    if (op < 4) {
      const Value v = rng.UniformRange(0, 1000);
      RowId id;
      ASSERT_TRUE(index.Insert(v, &ctx, &id).ok());
      oracle.insert(v);
      live.emplace_back(v, id);
    } else if (op < 6 && !live.empty()) {
      const size_t pick = rng.Uniform(live.size());
      const auto [v, id] = live[pick];
      ASSERT_TRUE(index.Delete(v, id, &ctx).ok());
      oracle.erase(oracle.find(v));
      live.erase(live.begin() + static_cast<long>(pick));
    } else {
      Value lo = rng.UniformRange(0, 1000);
      Value hi = rng.UniformRange(0, 1000);
      if (lo > hi) std::swap(lo, hi);
      uint64_t count;
      ASSERT_TRUE(index.RangeCount(ValueRange{lo, hi}, &ctx, &count).ok());
      const uint64_t expected = std::distance(oracle.lower_bound(lo),
                                              oracle.lower_bound(hi));
      ASSERT_EQ(count, expected) << "range [" << lo << "," << hi << ")";
    }
    if (i == 250) {
      // Checkpoint re-assigns row ids; rebuild the live list through the
      // public rowID interface.
      ASSERT_TRUE(index.Checkpoint().ok());
      live.clear();
      for (Value v = 0; v < 1000; ++v) {
        std::vector<RowId> ids;
        ASSERT_TRUE(
            index.RangeRowIds(ValueRange{v, v + 1}, &ctx, &ids).ok());
        for (RowId id : ids) live.emplace_back(v, id);
      }
      ASSERT_EQ(live.size(), oracle.size());
    }
  }
  EXPECT_EQ(index.num_rows(), oracle.size());
}

TEST(UpdatableIndexTest, UpdaterLocksForceRefinementSkip) {
  // Section 3.3: while a user transaction holds a conflicting lock, the
  // system transaction forgoes refinement — wired end-to-end here.
  Column col = Column::UniqueRandom("A", 2000, 8);
  LockManager lm;
  UpdatableIndex index(col, CrackConfig(), &lm, "R/A");

  // A long-running user transaction holds a key lock (not auto-committed:
  // acquired directly on the lock manager, as a multi-statement txn would).
  ASSERT_TRUE(lm.Acquire(77, "R/A/key:123", LockMode::kX).ok());

  QueryContext ctx;
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{100, 200}, &ctx, &count).ok());
  EXPECT_TRUE(ctx.stats.refinement_skipped);  // IX on R/A conflicts with X probe

  lm.ReleaseAll(77);
  QueryContext ctx2;
  ASSERT_TRUE(index.RangeCount(ValueRange{100, 200}, &ctx2, &count).ok());
  EXPECT_FALSE(ctx2.stats.refinement_skipped);
}

TEST(UpdatableIndexTest, ConcurrentReadersAndWriters) {
  Column col = Column::UniqueRandom("A", 5000, 9);
  UpdatableIndex index(col, CrackConfig());
  std::atomic<bool> ok{true};
  std::atomic<uint64_t> txn{100};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t + 50);
      QueryContext ctx;
      for (int i = 0; i < 100 && ok.load(); ++i) {
        ctx.txn_id = txn.fetch_add(1);
        if (t % 3 == 0) {
          if (!index.Insert(rng.UniformRange(0, 5000), &ctx).ok()) {
            ok.store(false);
          }
        } else {
          Value lo = rng.UniformRange(0, 5000);
          uint64_t count;
          if (!index.RangeCount(ValueRange{lo, lo + 100}, &ctx, &count)
                   .ok()) {
            ok.store(false);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(ok.load());
  // 2 writer threads x 100 inserts.
  EXPECT_EQ(index.num_rows(), 5000u + 200u);
  // Global invariant: full-domain count equals the logical row count.
  QueryContext ctx;
  uint64_t count;
  ASSERT_TRUE(
      index.RangeCount(ValueRange{-1000000, 1000000}, &ctx, &count).ok());
  EXPECT_EQ(count, index.num_rows());
  // Every read is a snapshot read: none took the side-table latch.
  EXPECT_EQ(index.latch_stats().read_acquires(), 0u);
  EXPECT_GE(index.latch_stats().snapshot_reads(), 4u * 100u + 1u);
}

class UpdatableOverMethodsTest : public ::testing::TestWithParam<IndexMethod> {
};

TEST_P(UpdatableOverMethodsTest, DifferentialsWorkOverAnyBase) {
  Column col = Column::UniqueRandom("A", 3000, 10);
  IndexConfig config;
  config.method = GetParam();
  config.merge.run_size = 512;
  config.hybrid.partition_size = 512;
  config.btree.run_size = 512;
  UpdatableIndex index(col, config);
  QueryContext ctx;
  ctx.txn_id = 1;
  ASSERT_TRUE(index.Insert(1500, &ctx).ok());
  RowId target = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col[i] == 1500) target = static_cast<RowId>(i);
  }
  ASSERT_TRUE(index.Delete(1500, target, &ctx).ok());
  uint64_t count;
  ASSERT_TRUE(index.RangeCount(ValueRange{1000, 2000}, &ctx, &count).ok());
  EXPECT_EQ(count, 1000u);  // net unchanged: one in, one out
}

INSTANTIATE_TEST_SUITE_P(Methods, UpdatableOverMethodsTest,
                         ::testing::Values(IndexMethod::kScan,
                                           IndexMethod::kSort,
                                           IndexMethod::kCrack,
                                           IndexMethod::kAdaptiveMerge,
                                           IndexMethod::kHybrid,
                                           IndexMethod::kBTreeMerge),
                         [](const auto& info) {
                           std::string n = ToString(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace adaptidx
