#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/random.h"
#include "index/bptree.h"
#include "index/hash_index.h"
#include "index/join_index.h"
#include "index/key_codec.h"
#include "index/rtree.h"
#include "storage/storage_manager.h"
#include "tests/test_util.h"

namespace mood {
namespace {

using testing::TempDir;

class IndexFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    StorageOptions opts;
    opts.pool_pages = 512;
    MOOD_ASSERT_OK(storage_.Open(dir_.Path("db"), opts));
  }
  TempDir dir_;
  StorageManager storage_;
};

TEST(KeyCodecTest, IntegerOrderPreserved) {
  std::vector<int32_t> values = {-2000000, -5, -1, 0, 1, 7, 2000000};
  for (size_t i = 0; i + 1 < values.size(); i++) {
    std::string a = MakeIndexKey(MoodValue::Integer(values[i]));
    std::string b = MakeIndexKey(MoodValue::Integer(values[i + 1]));
    EXPECT_LT(Slice(a).compare(Slice(b)), 0) << values[i] << " vs " << values[i + 1];
  }
}

TEST(KeyCodecTest, DoubleOrderPreserved) {
  std::vector<double> values = {-1e30, -2.5, -0.0, 0.0, 1e-10, 3.25, 1e30};
  for (size_t i = 0; i + 1 < values.size(); i++) {
    std::string a = MakeIndexKey(MoodValue::Float(values[i]));
    std::string b = MakeIndexKey(MoodValue::Float(values[i + 1]));
    EXPECT_LE(Slice(a).compare(Slice(b)), 0) << values[i];
  }
}

TEST(KeyCodecTest, RandomizedOrderProperty) {
  Random rng(99);
  for (int trial = 0; trial < 500; trial++) {
    int64_t x = rng.Range(-1000000, 1000000);
    int64_t y = rng.Range(-1000000, 1000000);
    std::string kx = MakeIndexKey(MoodValue::LongInteger(x));
    std::string ky = MakeIndexKey(MoodValue::LongInteger(y));
    int c = Slice(kx).compare(Slice(ky));
    EXPECT_EQ(c < 0, x < y);
    EXPECT_EQ(c == 0, x == y);
  }
}

TEST_F(IndexFixture, BPlusTreeInsertSearch) {
  MOOD_ASSERT_OK_AND_ASSIGN(auto tree,
                            BPlusTree::Create(storage_.buffer_pool(), &storage_, false));
  for (int i = 0; i < 100; i++) {
    MOOD_ASSERT_OK(tree->Insert(MakeIndexKey(MoodValue::Integer(i)),
                                static_cast<uint64_t>(i * 10)));
  }
  MOOD_ASSERT_OK_AND_ASSIGN(auto hits, tree->SearchEqual(MakeIndexKey(MoodValue::Integer(42))));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 420u);
  MOOD_ASSERT_OK_AND_ASSIGN(auto miss, tree->SearchEqual(MakeIndexKey(MoodValue::Integer(1000))));
  EXPECT_TRUE(miss.empty());
}

TEST_F(IndexFixture, BPlusTreeDuplicateKeys) {
  MOOD_ASSERT_OK_AND_ASSIGN(auto tree,
                            BPlusTree::Create(storage_.buffer_pool(), &storage_, false));
  std::string key = MakeIndexKey(MoodValue::Integer(7));
  for (uint64_t v = 0; v < 50; v++) MOOD_ASSERT_OK(tree->Insert(key, v));
  MOOD_ASSERT_OK_AND_ASSIGN(auto hits, tree->SearchEqual(key));
  EXPECT_EQ(hits.size(), 50u);
}

TEST_F(IndexFixture, BPlusTreeUniqueRejectsDuplicates) {
  MOOD_ASSERT_OK_AND_ASSIGN(auto tree,
                            BPlusTree::Create(storage_.buffer_pool(), &storage_, true));
  std::string key = MakeIndexKey(MoodValue::Integer(7));
  MOOD_ASSERT_OK(tree->Insert(key, 1));
  EXPECT_TRUE(tree->Insert(key, 2).IsAlreadyExists());
}

TEST_F(IndexFixture, BPlusTreeSplitsAndRangeScan) {
  MOOD_ASSERT_OK_AND_ASSIGN(auto tree,
                            BPlusTree::Create(storage_.buffer_pool(), &storage_, false));
  const int n = 5000;
  // Insert in shuffled order.
  std::vector<int> order(n);
  for (int i = 0; i < n; i++) order[static_cast<size_t>(i)] = i;
  Random rng(5);
  for (int i = n - 1; i > 0; i--) {
    std::swap(order[static_cast<size_t>(i)], order[rng.Uniform(static_cast<uint64_t>(i + 1))]);
  }
  for (int v : order) {
    MOOD_ASSERT_OK(tree->Insert(MakeIndexKey(MoodValue::Integer(v)),
                                static_cast<uint64_t>(v)));
  }
  BPlusTreeStats stats = tree->stats();
  EXPECT_GT(stats.levels, 1u);
  EXPECT_GT(stats.leaves, 1u);
  EXPECT_EQ(stats.entries, static_cast<uint64_t>(n));
  MOOD_ASSERT_OK_AND_ASSIGN(uint64_t counted, tree->CountLeaves());
  EXPECT_EQ(counted, stats.leaves);

  // Range scan [1000, 2000] returns exactly those values in order.
  std::string lo = MakeIndexKey(MoodValue::Integer(1000));
  std::string hi = MakeIndexKey(MoodValue::Integer(2000));
  std::vector<uint64_t> seen;
  MOOD_ASSERT_OK(tree->Scan(&lo, &hi, [&](Slice, uint64_t v) {
    seen.push_back(v);
    return Status::OK();
  }));
  ASSERT_EQ(seen.size(), 1001u);
  EXPECT_EQ(seen.front(), 1000u);
  EXPECT_EQ(seen.back(), 2000u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));

  // Unbounded scans.
  size_t all = 0;
  MOOD_ASSERT_OK(tree->Scan(nullptr, nullptr, [&](Slice, uint64_t) {
    all++;
    return Status::OK();
  }));
  EXPECT_EQ(all, static_cast<size_t>(n));
}

TEST_F(IndexFixture, BPlusTreeDelete) {
  MOOD_ASSERT_OK_AND_ASSIGN(auto tree,
                            BPlusTree::Create(storage_.buffer_pool(), &storage_, false));
  for (int i = 0; i < 500; i++) {
    MOOD_ASSERT_OK(tree->Insert(MakeIndexKey(MoodValue::Integer(i)),
                                static_cast<uint64_t>(i)));
  }
  for (int i = 0; i < 500; i += 2) {
    MOOD_ASSERT_OK(tree->Delete(MakeIndexKey(MoodValue::Integer(i)),
                                static_cast<uint64_t>(i)));
  }
  EXPECT_TRUE(tree->Delete(MakeIndexKey(MoodValue::Integer(0)), 0).IsNotFound());
  for (int i = 0; i < 500; i++) {
    MOOD_ASSERT_OK_AND_ASSIGN(auto hits,
                              tree->SearchEqual(MakeIndexKey(MoodValue::Integer(i))));
    EXPECT_EQ(hits.size(), i % 2 == 0 ? 0u : 1u) << i;
  }
  EXPECT_EQ(tree->stats().entries, 250u);
}

TEST_F(IndexFixture, BPlusTreePersistsAcrossReopen) {
  PageId meta;
  {
    MOOD_ASSERT_OK_AND_ASSIGN(
        auto tree, BPlusTree::Create(storage_.buffer_pool(), &storage_, false));
    meta = tree->meta_page();
    for (int i = 0; i < 1000; i++) {
      MOOD_ASSERT_OK(tree->Insert(MakeIndexKey(MoodValue::Integer(i)),
                                  static_cast<uint64_t>(i)));
    }
  }
  MOOD_ASSERT_OK(storage_.Checkpoint());
  MOOD_ASSERT_OK(storage_.Close());
  StorageManager reopened;
  MOOD_ASSERT_OK(reopened.Open(dir_.Path("db")));
  MOOD_ASSERT_OK_AND_ASSIGN(auto tree,
                            BPlusTree::Open(reopened.buffer_pool(), &reopened, meta));
  EXPECT_EQ(tree->stats().entries, 1000u);
  MOOD_ASSERT_OK_AND_ASSIGN(auto hits, tree->SearchEqual(MakeIndexKey(MoodValue::Integer(777))));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 777u);
}

TEST_F(IndexFixture, BPlusTreeStringKeys) {
  MOOD_ASSERT_OK_AND_ASSIGN(auto tree,
                            BPlusTree::Create(storage_.buffer_pool(), &storage_, false));
  std::vector<std::string> names = {"BMW", "Audi", "Zonda", "Fiat", "Mercedes"};
  for (size_t i = 0; i < names.size(); i++) {
    MOOD_ASSERT_OK(tree->Insert(MakeIndexKey(MoodValue::String(names[i])), i));
  }
  MOOD_ASSERT_OK_AND_ASSIGN(auto hits,
                            tree->SearchEqual(MakeIndexKey(MoodValue::String("BMW"))));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 0u);
  // Lexicographic range Audi..Fiat.
  std::string lo = MakeIndexKey(MoodValue::String("Audi"));
  std::string hi = MakeIndexKey(MoodValue::String("Fiat"));
  size_t count = 0;
  MOOD_ASSERT_OK(tree->Scan(&lo, &hi, [&](Slice, uint64_t) {
    count++;
    return Status::OK();
  }));
  EXPECT_EQ(count, 3u);  // Audi, BMW, Fiat
}

class BPlusTreeModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BPlusTreeModelTest, MatchesMultimapModel) {
  TempDir dir;
  StorageManager storage;
  StorageOptions opts;
  opts.pool_pages = 512;
  MOOD_ASSERT_OK(storage.Open(dir.Path("db"), opts));
  MOOD_ASSERT_OK_AND_ASSIGN(auto tree,
                            BPlusTree::Create(storage.buffer_pool(), &storage, false));
  Random rng(GetParam());
  std::multimap<int64_t, uint64_t> model;
  for (int step = 0; step < 3000; step++) {
    int64_t key = rng.Range(0, 200);
    if (rng.Uniform(3) != 0) {
      uint64_t value = rng.Next() % 1000000;
      MOOD_ASSERT_OK(tree->Insert(MakeIndexKey(MoodValue::LongInteger(key)), value));
      model.emplace(key, value);
    } else {
      auto range = model.equal_range(key);
      if (range.first != range.second) {
        MOOD_ASSERT_OK(tree->Delete(MakeIndexKey(MoodValue::LongInteger(key)),
                                    range.first->second));
        model.erase(range.first);
      }
    }
  }
  for (int64_t key = 0; key <= 200; key++) {
    MOOD_ASSERT_OK_AND_ASSIGN(
        auto hits, tree->SearchEqual(MakeIndexKey(MoodValue::LongInteger(key))));
    std::multiset<uint64_t> got(hits.begin(), hits.end());
    std::multiset<uint64_t> want;
    auto range = model.equal_range(key);
    for (auto it = range.first; it != range.second; ++it) want.insert(it->second);
    EXPECT_EQ(got, want) << "key " << key;
  }
  EXPECT_EQ(tree->stats().entries, model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreeModelTest, ::testing::Values(101, 202, 303));

TEST_F(IndexFixture, HashIndexBasics) {
  MOOD_ASSERT_OK_AND_ASSIGN(auto idx,
                            HashIndex::Create(storage_.buffer_pool(), &storage_, 16));
  for (int i = 0; i < 2000; i++) {
    MOOD_ASSERT_OK(idx->Insert(MakeIndexKey(MoodValue::Integer(i % 100)),
                               static_cast<uint64_t>(i)));
  }
  MOOD_ASSERT_OK_AND_ASSIGN(auto hits, idx->SearchEqual(MakeIndexKey(MoodValue::Integer(5))));
  EXPECT_EQ(hits.size(), 20u);
  EXPECT_EQ(idx->entries(), 2000u);
  MOOD_ASSERT_OK_AND_ASSIGN(double chain, idx->AverageChainLength());
  EXPECT_GE(chain, 1.0);
  MOOD_ASSERT_OK(idx->Delete(MakeIndexKey(MoodValue::Integer(5)), hits[0]));
  MOOD_ASSERT_OK_AND_ASSIGN(auto hits2, idx->SearchEqual(MakeIndexKey(MoodValue::Integer(5))));
  EXPECT_EQ(hits2.size(), 19u);
  EXPECT_TRUE(idx->Delete(MakeIndexKey(MoodValue::Integer(999)), 1).IsNotFound());
}

TEST_F(IndexFixture, HashIndexPersistsAcrossReopen) {
  PageId meta;
  {
    MOOD_ASSERT_OK_AND_ASSIGN(auto idx,
                              HashIndex::Create(storage_.buffer_pool(), &storage_, 8));
    meta = idx->meta_page();
    MOOD_ASSERT_OK(idx->Insert(MakeIndexKey(MoodValue::String("key")), 42));
  }
  MOOD_ASSERT_OK(storage_.Checkpoint());
  MOOD_ASSERT_OK(storage_.Close());
  StorageManager reopened;
  MOOD_ASSERT_OK(reopened.Open(dir_.Path("db")));
  MOOD_ASSERT_OK_AND_ASSIGN(auto idx,
                            HashIndex::Open(reopened.buffer_pool(), &reopened, meta));
  MOOD_ASSERT_OK_AND_ASSIGN(auto hits, idx->SearchEqual(MakeIndexKey(MoodValue::String("key"))));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 42u);
}

TEST_F(IndexFixture, HashIndexRejectsBadBucketCounts) {
  EXPECT_FALSE(HashIndex::Create(storage_.buffer_pool(), &storage_, 0).ok());
  EXPECT_FALSE(HashIndex::Create(storage_.buffer_pool(), &storage_, 100000).ok());
}

TEST_F(IndexFixture, RTreeInsertSearchWindow) {
  MOOD_ASSERT_OK_AND_ASSIGN(auto tree, RTree::Create(storage_.buffer_pool(), &storage_));
  // 20x20 grid of unit squares.
  for (int x = 0; x < 20; x++) {
    for (int y = 0; y < 20; y++) {
      Rect r{static_cast<double>(x), static_cast<double>(y), x + 1.0, y + 1.0};
      MOOD_ASSERT_OK(tree->Insert(r, static_cast<uint64_t>(x * 100 + y)));
    }
  }
  EXPECT_EQ(tree->entries(), 400u);
  MOOD_ASSERT_OK(tree->CheckInvariants());
  // Window covering a 3x3 block (inclusive borders touch neighbours).
  MOOD_ASSERT_OK_AND_ASSIGN(auto hits, tree->Search(Rect{5.5, 5.5, 7.5, 7.5}));
  EXPECT_EQ(hits.size(), 9u);
  // Point query.
  MOOD_ASSERT_OK_AND_ASSIGN(auto point, tree->Search(Rect::Point(10.5, 10.5)));
  ASSERT_EQ(point.size(), 1u);
  EXPECT_EQ(point[0].second, 1010u);
}

TEST_F(IndexFixture, RTreeMatchesBruteForce) {
  MOOD_ASSERT_OK_AND_ASSIGN(auto tree, RTree::Create(storage_.buffer_pool(), &storage_));
  Random rng(7);
  std::vector<std::pair<Rect, uint64_t>> all;
  for (uint64_t i = 0; i < 500; i++) {
    double x = rng.NextDouble() * 100, y = rng.NextDouble() * 100;
    Rect r{x, y, x + rng.NextDouble() * 5, y + rng.NextDouble() * 5};
    MOOD_ASSERT_OK(tree->Insert(r, i));
    all.emplace_back(r, i);
  }
  MOOD_ASSERT_OK(tree->CheckInvariants());
  for (int trial = 0; trial < 20; trial++) {
    double x = rng.NextDouble() * 90, y = rng.NextDouble() * 90;
    Rect window{x, y, x + 10, y + 10};
    MOOD_ASSERT_OK_AND_ASSIGN(auto hits, tree->Search(window));
    std::set<uint64_t> got;
    for (const auto& [r, v] : hits) got.insert(v);
    std::set<uint64_t> want;
    for (const auto& [r, v] : all) {
      if (r.Intersects(window)) want.insert(v);
    }
    EXPECT_EQ(got, want);
  }
}

TEST_F(IndexFixture, RTreeDelete) {
  MOOD_ASSERT_OK_AND_ASSIGN(auto tree, RTree::Create(storage_.buffer_pool(), &storage_));
  Rect r{1, 1, 2, 2};
  MOOD_ASSERT_OK(tree->Insert(r, 5));
  MOOD_ASSERT_OK(tree->Insert(Rect{3, 3, 4, 4}, 6));
  MOOD_ASSERT_OK(tree->Delete(r, 5));
  EXPECT_EQ(tree->entries(), 1u);
  MOOD_ASSERT_OK_AND_ASSIGN(auto hits, tree->Search(Rect{0, 0, 10, 10}));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].second, 6u);
  EXPECT_TRUE(tree->Delete(r, 5).IsNotFound());
}

TEST_F(IndexFixture, BinaryJoinIndexBothDirections) {
  MOOD_ASSERT_OK_AND_ASSIGN(auto bji,
                            BinaryJoinIndex::Create(storage_.buffer_pool(), &storage_));
  Oid c1{1, 10, 0}, c2{1, 10, 1}, d1{2, 20, 0}, d2{2, 20, 1};
  MOOD_ASSERT_OK(bji->Add(c1, d1));
  MOOD_ASSERT_OK(bji->Add(c2, d1));
  MOOD_ASSERT_OK(bji->Add(c2, d2));
  MOOD_ASSERT_OK_AND_ASSIGN(auto targets, bji->Targets(c2));
  EXPECT_EQ(targets.size(), 2u);
  MOOD_ASSERT_OK_AND_ASSIGN(auto sources, bji->Sources(d1));
  EXPECT_EQ(sources.size(), 2u);
  EXPECT_EQ(bji->pair_count(), 3u);
  MOOD_ASSERT_OK(bji->Remove(c2, d1));
  MOOD_ASSERT_OK_AND_ASSIGN(auto sources2, bji->Sources(d1));
  ASSERT_EQ(sources2.size(), 1u);
  EXPECT_EQ(sources2[0], c1);
}

}  // namespace
}  // namespace mood
