#include "plinda/tuple_space.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/random.h"

namespace fpdm::plinda {
namespace {

TEST(TupleSpaceTest, OutThenIn) {
  TupleSpace space;
  space.Out(MakeTuple("task", 1));
  EXPECT_EQ(space.size(), 1u);
  Tuple t;
  ASSERT_TRUE(space.TryIn(MakeTemplate(A("task"), F(ValueType::kInt)), &t));
  EXPECT_EQ(GetInt(t, 1), 1);
  EXPECT_TRUE(space.empty());
}

TEST(TupleSpaceTest, TryInOnEmptyFails) {
  TupleSpace space;
  EXPECT_FALSE(space.TryIn(MakeTemplate(A("task")), nullptr));
}

TEST(TupleSpaceTest, RdDoesNotRemove) {
  TupleSpace space;
  space.Out(MakeTuple("x", 5));
  Tuple t;
  ASSERT_TRUE(space.TryRd(MakeTemplate(A("x"), F(ValueType::kInt)), &t));
  EXPECT_EQ(space.size(), 1u);
  ASSERT_TRUE(space.TryIn(MakeTemplate(A("x"), F(ValueType::kInt)), &t));
  EXPECT_TRUE(space.empty());
}

TEST(TupleSpaceTest, FifoOrderAmongMatches) {
  TupleSpace space;
  space.Out(MakeTuple("t", 1));
  space.Out(MakeTuple("t", 2));
  space.Out(MakeTuple("t", 3));
  Tuple t;
  Template q = MakeTemplate(A("t"), F(ValueType::kInt));
  ASSERT_TRUE(space.TryIn(q, &t));
  EXPECT_EQ(GetInt(t, 1), 1);
  ASSERT_TRUE(space.TryIn(q, &t));
  EXPECT_EQ(GetInt(t, 1), 2);
  ASSERT_TRUE(space.TryIn(q, &t));
  EXPECT_EQ(GetInt(t, 1), 3);
}

TEST(TupleSpaceTest, FifoOrderAcrossBuckets) {
  // A formal first field must consult every bucket of the arity and still
  // return the globally oldest match.
  TupleSpace space;
  space.Out(MakeTuple("b", 1));
  space.Out(MakeTuple("a", 2));
  Tuple t;
  Template q = MakeTemplate(F(ValueType::kString), F(ValueType::kInt));
  ASSERT_TRUE(space.TryIn(q, &t));
  EXPECT_EQ(GetString(t, 0), "b");
  ASSERT_TRUE(space.TryIn(q, &t));
  EXPECT_EQ(GetString(t, 0), "a");
}

TEST(TupleSpaceTest, NonStringFirstField) {
  TupleSpace space;
  space.Out(MakeTuple(10, "payload"));
  Tuple t;
  ASSERT_TRUE(
      space.TryIn(MakeTemplate(A(int64_t{10}), F(ValueType::kString)), &t));
  EXPECT_EQ(GetString(t, 1), "payload");
}

TEST(TupleSpaceTest, MatchingRespectsActualValues) {
  TupleSpace space;
  space.Out(MakeTuple("task", 1, "a"));
  space.Out(MakeTuple("task", 2, "b"));
  Tuple t;
  ASSERT_TRUE(space.TryIn(
      MakeTemplate(A("task"), A(int64_t{2}), F(ValueType::kString)), &t));
  EXPECT_EQ(GetString(t, 2), "b");
  EXPECT_EQ(space.size(), 1u);
}

TEST(TupleSpaceTest, CountMatches) {
  TupleSpace space;
  space.Out(MakeTuple("t", 1));
  space.Out(MakeTuple("t", 2));
  space.Out(MakeTuple("u", 3));
  EXPECT_EQ(space.CountMatches(MakeTemplate(A("t"), F(ValueType::kInt))), 2u);
  EXPECT_EQ(space.CountMatches(
                MakeTemplate(F(ValueType::kString), F(ValueType::kInt))),
            3u);
}

TEST(TupleSpaceTest, ClearEmptiesEverything) {
  TupleSpace space;
  space.Out(MakeTuple("t", 1));
  space.Out(MakeTuple(2.5));
  space.Clear();
  EXPECT_TRUE(space.empty());
  EXPECT_FALSE(space.TryIn(MakeTemplate(F(ValueType::kDouble)), nullptr));
}

TEST(TupleSpaceTest, CheckpointRestoreRoundTrip) {
  TupleSpace space;
  space.Out(MakeTuple("t", 1));
  space.Out(MakeTuple("t", 2));
  space.Out(MakeTuple("u", 3.5, "x"));
  std::string checkpoint = space.Checkpoint();

  TupleSpace restored;
  ASSERT_TRUE(restored.Restore(checkpoint));
  EXPECT_EQ(restored.size(), 3u);
  // FIFO order must be preserved across restore (rollback recovery).
  Tuple t;
  Template q = MakeTemplate(A("t"), F(ValueType::kInt));
  ASSERT_TRUE(restored.TryIn(q, &t));
  EXPECT_EQ(GetInt(t, 1), 1);
  ASSERT_TRUE(restored.TryIn(q, &t));
  EXPECT_EQ(GetInt(t, 1), 2);
}

TEST(TupleSpaceTest, RestoreRejectsCorruptCheckpoint) {
  TupleSpace space;
  EXPECT_FALSE(space.Restore("not a checkpoint"));
  EXPECT_TRUE(space.empty());
}

TEST(TupleSpaceTest, EmptyCheckpoint) {
  // An empty space still produces a (non-empty) header so that Restore can
  // distinguish "empty space" from "no checkpoint at all".
  TupleSpace space;
  const std::string checkpoint = space.Checkpoint();
  EXPECT_FALSE(checkpoint.empty());
  TupleSpace restored;
  restored.Out(MakeTuple("stale", 1));
  EXPECT_TRUE(restored.Restore(checkpoint));
  EXPECT_TRUE(restored.empty());
  // The empty string is NOT a valid checkpoint.
  EXPECT_FALSE(restored.Restore(""));
  EXPECT_TRUE(restored.empty());
}

// Property (chaos hardening): no corruption of a valid checkpoint may be
// silently accepted. Every strict prefix and every single-byte flip must
// make Restore return false and leave the space empty — never crash, never
// restore a partial image. Before the checksummed header, a prefix ending
// on a tuple boundary restored "successfully" with tuples missing.
class CheckpointCorruptionTest : public ::testing::Test {
 protected:
  static std::string ValidCheckpoint() {
    TupleSpace space;
    space.Out(MakeTuple("task", 1, "payload"));
    space.Out(MakeTuple("task", 2, "x"));
    space.Out(MakeTuple(3.25, int64_t{-7}));
    space.Out(MakeTuple("result", 42));
    return space.Checkpoint();
  }

  static void ExpectRejected(const std::string& corrupt, const char* what,
                             size_t index) {
    TupleSpace space;
    space.Out(MakeTuple("pre-existing", 0));  // must be gone afterwards too
    EXPECT_FALSE(space.Restore(corrupt)) << what << " at " << index;
    EXPECT_TRUE(space.empty()) << what << " at " << index;
  }
};

TEST_F(CheckpointCorruptionTest, EveryPrefixRejected) {
  const std::string checkpoint = ValidCheckpoint();
  for (size_t len = 0; len < checkpoint.size(); ++len) {
    ExpectRejected(checkpoint.substr(0, len), "prefix", len);
  }
}

TEST_F(CheckpointCorruptionTest, EverySingleByteFlipRejected) {
  // Exhaustive: every other value at every offset — magic, header words and
  // payload. The checksum is exact for one changed byte, not just likely.
  const std::string checkpoint = ValidCheckpoint();
  for (size_t i = 0; i < checkpoint.size(); ++i) {
    std::string corrupt = checkpoint;
    for (int delta = 1; delta < 256; ++delta) {
      corrupt[i] = static_cast<char>(checkpoint[i] + delta);
      ExpectRejected(corrupt, "byte change", i);
    }
  }
}

TEST_F(CheckpointCorruptionTest, RandomMutationsRejected) {
  const std::string checkpoint = ValidCheckpoint();
  util::Rng rng(20260807);
  for (int trial = 0; trial < 500; ++trial) {
    std::string corrupt = checkpoint;
    const size_t i = rng.NextBounded(corrupt.size());
    const char flipped =
        static_cast<char>(rng.NextBounded(256));
    if (flipped == corrupt[i]) continue;
    corrupt[i] = flipped;
    ExpectRejected(corrupt, "random mutation", static_cast<size_t>(trial));
  }
}

TEST_F(CheckpointCorruptionTest, TrailingGarbageRejected) {
  const std::string checkpoint = ValidCheckpoint();
  ExpectRejected(checkpoint + "x", "trailing garbage", 0);
  ExpectRejected(checkpoint + checkpoint, "doubled checkpoint", 0);
}

// Golden placement indices. BucketStripeIndex decides which stripe and
// which server own a bucket, so a change of hash must not move them: a
// restarted server would look for its tuples on the wrong stripe.
TEST(TupleSpaceTest, BucketStripeIndexIsPinned) {
  struct Golden {
    size_t arity;
    const char* key;
    size_t index[5];  // for n = 2, 3, 4, 7, 1024
  };
  const Golden goldens[] = {
      {0, "", {1, 1, 3, 2, 315}},
      {1, "", {0, 0, 2, 1, 314}},
      {2, "result", {0, 1, 0, 3, 908}},
      {3, "cost", {0, 2, 2, 0, 654}},
      {4, "task", {0, 0, 0, 1, 480}},
      {2, "persist", {0, 1, 0, 5, 828}},
      {3, "cont", {0, 0, 2, 6, 990}},
      {5, "a longer bucket key", {1, 2, 3, 6, 587}},
  };
  const size_t ns[] = {2, 3, 4, 7, 1024};
  for (const Golden& g : goldens) {
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(BucketStripeIndex({g.arity, g.key}, ns[j]), g.index[j])
          << g.arity << "/" << g.key << " n=" << ns[j];
    }
    EXPECT_EQ(BucketStripeIndex({g.arity, g.key}, 1), 0u);
  }
}

TEST(TupleSpaceTest, ManyTuplesStressFifo) {
  TupleSpace space;
  for (int i = 0; i < 1000; ++i) space.Out(MakeTuple("task", i));
  Template q = MakeTemplate(A("task"), F(ValueType::kInt));
  for (int i = 0; i < 1000; ++i) {
    Tuple t;
    ASSERT_TRUE(space.TryIn(q, &t));
    EXPECT_EQ(GetInt(t, 1), i);
  }
  EXPECT_TRUE(space.empty());
}

TEST(TupleSpaceTest, TakeAllInOrderPreservesOutOrder) {
  TupleSpace space;
  for (int i = 0; i < 10; ++i) {
    space.Out(MakeTuple("k" + std::to_string(i % 3), int64_t{i}));
  }
  std::vector<Tuple> all = space.TakeAllInOrder();
  ASSERT_EQ(all.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(GetInt(all[static_cast<size_t>(i)], 1), i);
  }
  EXPECT_TRUE(space.empty());
}

}  // namespace
}  // namespace fpdm::plinda
