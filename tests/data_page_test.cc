#include "src/pagestore/data_page.h"

#include <gtest/gtest.h>

#include <vector>

namespace bmeh {
namespace {

Record R(uint32_t a, uint32_t b, uint64_t payload) {
  return Record{PseudoKey({a, b}), payload};
}

TEST(DataPageTest, InsertFindLookup) {
  auto page = DataPage::Make(1, 4);
  ASSERT_TRUE(page->Insert(R(1, 2, 100)).ok());
  ASSERT_TRUE(page->Insert(R(3, 4, 200)).ok());
  EXPECT_EQ(page->size(), 2);
  EXPECT_TRUE(page->Contains(PseudoKey({1u, 2u})));
  EXPECT_FALSE(page->Contains(PseudoKey({2u, 1u})));
  EXPECT_EQ(page->Lookup(PseudoKey({3u, 4u})).value(), 200u);
  EXPECT_FALSE(page->Lookup(PseudoKey({9u, 9u})).has_value());
}

TEST(DataPageTest, DuplicateKeyRejected) {
  auto page = DataPage::Make(1, 4);
  ASSERT_TRUE(page->Insert(R(1, 2, 100)).ok());
  Status st = page->Insert(R(1, 2, 999));
  EXPECT_TRUE(st.IsAlreadyExists()) << st;
  EXPECT_EQ(page->size(), 1);
}

TEST(DataPageTest, CapacityEnforced) {
  auto page = DataPage::Make(1, 2);
  ASSERT_TRUE(page->Insert(R(1, 1, 0)).ok());
  ASSERT_TRUE(page->Insert(R(2, 2, 0)).ok());
  EXPECT_TRUE(page->full());
  EXPECT_TRUE(page->Insert(R(3, 3, 0)).IsCapacityError());
}

TEST(DataPageTest, RemoveExistingAndMissing) {
  auto page = DataPage::Make(1, 4);
  ASSERT_TRUE(page->Insert(R(1, 1, 0)).ok());
  ASSERT_TRUE(page->Insert(R(2, 2, 0)).ok());
  EXPECT_TRUE(page->Remove(PseudoKey({1u, 1u})).ok());
  EXPECT_EQ(page->size(), 1);
  EXPECT_TRUE(page->Remove(PseudoKey({1u, 1u})).IsKeyError());
  EXPECT_TRUE(page->Remove(PseudoKey({2u, 2u})).ok());
  EXPECT_TRUE(page->empty());
}

TEST(DataPageTest, PartitionMovesMatchingRecords) {
  auto left = DataPage::Make(1, 8);
  auto right = DataPage::Make(2, 8);
  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(left->Insert(R(i, 0, i)).ok());
  }
  left->Partition([](const Record& r) { return r.key.component(0) % 2 == 1; },
                 right.get());
  EXPECT_EQ(left->size(), 4);
  EXPECT_EQ(right->size(), 4);
  for (const Record& rec : left->records()) {
    EXPECT_EQ(rec.key.component(0) % 2, 0u);
  }
  for (const Record& rec : right->records()) {
    EXPECT_EQ(rec.key.component(0) % 2, 1u);
  }
}

TEST(DataPageTest, PartitionNothingAndEverything) {
  auto left = DataPage::Make(1, 4);
  auto right = DataPage::Make(2, 4);
  for (uint32_t i = 0; i < 4; ++i) ASSERT_TRUE(left->Insert(R(i, 0, 0)).ok());
  left->Partition([](const Record&) { return false; }, right.get());
  EXPECT_EQ(left->size(), 4);
  EXPECT_EQ(right->size(), 0);
  left->Partition([](const Record&) { return true; }, right.get());
  EXPECT_EQ(left->size(), 0);
  EXPECT_EQ(right->size(), 4);
}

TEST(DataPageTest, SerializeDeserializeRoundTrip) {
  auto page = DataPage::Make(7, 5);
  ASSERT_TRUE(page->Insert(R(11, 22, 1001)).ok());
  ASSERT_TRUE(page->Insert(R(33, 44, 2002)).ok());
  std::vector<uint8_t> buf(DataPage::SerializedSize(5, 2));
  page->Serialize(2, buf);
  auto r = DataPage::Deserialize(7, 5, 2, buf);
  ASSERT_TRUE(r.ok()) << r.status();
  const DataPage& back = **r;
  EXPECT_EQ(back.id(), 7u);
  EXPECT_EQ(back.size(), 2);
  EXPECT_EQ(back.Lookup(PseudoKey({11u, 22u})).value(), 1001u);
  EXPECT_EQ(back.Lookup(PseudoKey({33u, 44u})).value(), 2002u);
}

TEST(DataPageTest, SerializeEmptyPage) {
  auto page = DataPage::Make(1, 3);
  std::vector<uint8_t> buf(DataPage::SerializedSize(3, 2));
  page->Serialize(2, buf);
  auto r = DataPage::Deserialize(1, 3, 2, buf);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)->empty());
}

TEST(DataPageTest, DeserializeRejectsOverCapacityCount) {
  auto page = DataPage::Make(1, 3);
  ASSERT_TRUE(page->Insert(R(1, 1, 0)).ok());
  std::vector<uint8_t> buf(DataPage::SerializedSize(3, 2));
  page->Serialize(2, buf);
  buf[0] = 200;  // corrupt the record count
  auto r = DataPage::Deserialize(1, 3, 2, buf);
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(DataPageTest, DeserializeRejectsShortBuffer) {
  std::vector<uint8_t> tiny(3);
  auto r = DataPage::Deserialize(1, 3, 2, tiny);
  EXPECT_TRUE(r.status().IsCorruption());
}

// The header and every record slot share one block whatever the page
// capacity; these run the whole page API at a few capacities.
class DataPageCapacityTest : public ::testing::TestWithParam<int> {};

TEST_P(DataPageCapacityTest, CloneCopiesRecordsIntoAnIndependentPage) {
  const int cap = GetParam();
  auto page = DataPage::Make(3, cap);
  for (int i = 0; i < cap; i += 2) {
    ASSERT_TRUE(page->Insert(R(i, 1, i)).ok());
  }
  auto copy = page->Clone();
  EXPECT_EQ(copy->id(), 3u);
  EXPECT_EQ(copy->capacity(), cap);
  ASSERT_EQ(copy->size(), page->size());
  for (int i = 0; i < page->size(); ++i) {
    EXPECT_EQ(copy->records()[i], page->records()[i]);
  }
  // The copy fills to its full capacity without touching the original.
  const int before = page->size();
  for (int i = 1; i < cap; i += 2) {
    ASSERT_TRUE(copy->Insert(R(i, 1, i)).ok());
  }
  EXPECT_EQ(copy->size(), cap);
  EXPECT_EQ(page->size(), before);
}

TEST_P(DataPageCapacityTest, FillToCapacityThenCapacityError) {
  const int cap = GetParam();
  auto page = DataPage::Make(1, cap);
  for (int i = 0; i < cap; ++i) {
    EXPECT_FALSE(page->full());
    ASSERT_TRUE(page->Insert(R(i, 7, 10 + i)).ok());
  }
  EXPECT_TRUE(page->full());
  EXPECT_TRUE(page->Insert(R(cap, 7, 0)).IsCapacityError());
  EXPECT_TRUE(page->Insert(R(0, 7, 0)).IsAlreadyExists());
  for (int i = 0; i < cap; ++i) {
    EXPECT_EQ(page->Lookup(PseudoKey({static_cast<uint32_t>(i), 7u})),
              static_cast<uint64_t>(10 + i));
  }
}

TEST_P(DataPageCapacityTest, RemoveEveryRecordInAnyOrder) {
  const int cap = GetParam();
  auto page = DataPage::Make(1, cap);
  for (int i = 0; i < cap; ++i) ASSERT_TRUE(page->Insert(R(i, 0, i)).ok());
  auto key = [](int i) { return PseudoKey({static_cast<uint32_t>(i), 0u}); };
  // Odd keys first: each removal moves the last slot into the hole.
  for (int i = 1; i < cap; i += 2) {
    ASSERT_TRUE(page->Remove(key(i)).ok());
    EXPECT_TRUE(page->Remove(key(i)).IsKeyError());
  }
  EXPECT_EQ(page->size(), (cap + 1) / 2);
  for (int i = 0; i < cap; i += 2) {
    EXPECT_EQ(page->Lookup(key(i)), static_cast<uint64_t>(i));
  }
  for (int i = 0; i < cap; i += 2) ASSERT_TRUE(page->Remove(key(i)).ok());
  EXPECT_TRUE(page->empty());
  ASSERT_TRUE(page->Insert(R(5, 5, 5)).ok());
  EXPECT_EQ(page->size(), 1);
}

TEST_P(DataPageCapacityTest, PartitionSplitsAFullPage) {
  const int cap = GetParam();
  auto left = DataPage::Make(1, cap);
  auto right = DataPage::Make(2, cap);
  for (int i = 0; i < cap; ++i) ASSERT_TRUE(left->Insert(R(i, 0, i)).ok());
  left->Partition([](const Record& r) { return r.key.component(0) >= 1; },
                  right.get());
  EXPECT_EQ(left->size(), 1);
  EXPECT_EQ(right->size(), cap - 1);
  EXPECT_EQ(left->records()[0].key.component(0), 0u);
  for (int i = 1; i < cap; ++i) {
    EXPECT_TRUE(right->Contains(PseudoKey({static_cast<uint32_t>(i), 0u})));
  }
}

TEST_P(DataPageCapacityTest, SerializeDeserializeRoundTrip) {
  const int cap = GetParam();
  for (const int fill : {0, cap / 2, cap}) {
    auto page = DataPage::Make(9, cap);
    for (int i = 0; i < fill; ++i) {
      ASSERT_TRUE(page->Insert(R(i * 3, i, 1000 + i)).ok());
    }
    std::vector<uint8_t> buf(DataPage::SerializedSize(cap, 2));
    page->Serialize(2, buf);
    auto r = DataPage::Deserialize(9, cap, 2, buf);
    ASSERT_TRUE(r.ok()) << r.status();
    const DataPage& back = **r;
    EXPECT_EQ(back.capacity(), cap);
    ASSERT_EQ(back.size(), fill);
    for (int i = 0; i < fill; ++i) {
      EXPECT_EQ(back.records()[i], page->records()[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, DataPageCapacityTest,
                         ::testing::Values(1, 4, 32, 100));

}  // namespace
}  // namespace bmeh
