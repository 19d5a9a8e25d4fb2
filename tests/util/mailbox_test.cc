#include "util/mailbox.h"

#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace webmon {
namespace {

std::optional<int> Accept(int v) { return v; }

TEST(MailboxTest, StampsSequenceAndEpoch) {
  SeqMailbox<int> box;
  EXPECT_TRUE(box.Push([](uint64_t seq, int64_t epoch) {
    EXPECT_EQ(seq, 0u);
    EXPECT_EQ(epoch, 0);
    return Accept(10);
  }));
  EXPECT_TRUE(box.Push([](uint64_t seq, int64_t epoch) {
    EXPECT_EQ(seq, 1u);
    EXPECT_EQ(epoch, 0);
    return Accept(11);
  }));
  EXPECT_EQ(box.pending(), 2u);

  std::vector<SeqMailbox<int>::Entry> batch;
  box.DrainAndAdvance(1, batch);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].seq, 0u);
  EXPECT_EQ(batch[0].epoch, 0);
  EXPECT_EQ(batch[0].item, 10);
  EXPECT_EQ(batch[1].seq, 1u);
  EXPECT_EQ(batch[1].item, 11);
  EXPECT_EQ(box.pending(), 0u);
  EXPECT_EQ(box.epoch(), 1);
}

TEST(MailboxTest, RejectionConsumesNoSequenceNumber) {
  SeqMailbox<int> box;
  EXPECT_FALSE(box.Push(
      [](uint64_t, int64_t) -> std::optional<int> { return std::nullopt; }));
  EXPECT_EQ(box.pending(), 0u);
  EXPECT_TRUE(box.Push([](uint64_t seq, int64_t) {
    EXPECT_EQ(seq, 0u) << "a rejected push must not burn a sequence number";
    return Accept(7);
  }));
}

TEST(MailboxTest, EpochAdvancesStampNewArrivals) {
  SeqMailbox<int> box(5);
  EXPECT_EQ(box.epoch(), 5);
  ASSERT_TRUE(box.Push([](uint64_t, int64_t epoch) {
    EXPECT_EQ(epoch, 5);
    return Accept(1);
  }));
  std::vector<SeqMailbox<int>::Entry> batch;
  box.DrainAndAdvance(6, batch);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].epoch, 5);
  ASSERT_TRUE(box.Push([](uint64_t seq, int64_t epoch) {
    EXPECT_EQ(seq, 1u) << "sequence numbers continue across drains";
    EXPECT_EQ(epoch, 6);
    return Accept(2);
  }));
}

TEST(MailboxTest, DrainOnEmptyMailboxStillAdvances) {
  SeqMailbox<int> box;
  std::vector<SeqMailbox<int>::Entry> batch = {{7, 0, 1}};
  box.DrainAndAdvance(3, batch);
  EXPECT_TRUE(batch.empty()) << "the drain discards the previous batch";
  EXPECT_EQ(box.epoch(), 3);
}

// The drain trades the pending buffer for the consumer's batch buffer, so
// a consumer that keeps its batch recycles both. With the batch sized for
// one round, a second round of the same size fills the consumer's buffer
// in place and a third fills the first round's: no round after the first
// allocates. A reallocation would have to place the entries in a buffer
// other than the two, since std::vector allocates the new one before it
// frees the old.
TEST(MailboxTest, SecondDrainRoundOfTheSameSizeAllocatesNothing) {
  constexpr int kItems = 300;
  SeqMailbox<int> box;
  std::vector<SeqMailbox<int>::Entry> batch;
  batch.reserve(kItems);
  const SeqMailbox<int>::Entry* consumer_buffer = batch.data();
  auto round = [&](int64_t next_epoch) {
    for (int i = 0; i < kItems; ++i) {
      box.Push([i](uint64_t, int64_t) { return Accept(i); });
    }
    box.DrainAndAdvance(next_epoch, batch);
    EXPECT_EQ(batch.size(), static_cast<size_t>(kItems));
    EXPECT_EQ(batch.back().item, kItems - 1);
    return batch.data();
  };
  const SeqMailbox<int>::Entry* first_round_buffer = round(1);
  EXPECT_NE(first_round_buffer, consumer_buffer);
  for (int64_t epoch = 2; epoch <= 5; ++epoch) {
    const auto* expected =
        epoch % 2 == 0 ? consumer_buffer : first_round_buffer;
    EXPECT_EQ(round(epoch), expected)
        << "round " << epoch << " regrew a buffer instead of reusing one";
    EXPECT_GE(batch.capacity(), static_cast<size_t>(kItems));
  }
}

// Producers race; the drained union must be exactly the accepted items, with
// dense unique sequence numbers and per-producer FIFO order preserved.
TEST(MailboxTest, ConcurrentProducersGetDenseUniqueStamps) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  SeqMailbox<std::pair<int, int>> box;
  std::atomic<bool> go{false};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, &go, p] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kPerProducer; ++i) {
        box.Push([&](uint64_t, int64_t) {
          return std::optional<std::pair<int, int>>({p, i});
        });
      }
    });
  }
  go.store(true, std::memory_order_release);

  // Drain concurrently with the producers, then once more after the join to
  // pick up stragglers.
  std::vector<SeqMailbox<std::pair<int, int>>::Entry> all;
  std::vector<SeqMailbox<std::pair<int, int>>::Entry> batch;
  for (int round = 1; all.size() < kProducers * kPerProducer; ++round) {
    box.DrainAndAdvance(round, batch);
    all.insert(all.end(), batch.begin(), batch.end());
    std::this_thread::yield();
  }
  for (auto& t : producers) t.join();
  ASSERT_EQ(all.size(), static_cast<size_t>(kProducers * kPerProducer));

  std::set<uint64_t> seqs;
  std::vector<int> next_per_producer(kProducers, 0);
  uint64_t prev = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_TRUE(seqs.insert(all[i].seq).second) << "duplicate seq";
    if (i > 0) {
      EXPECT_GT(all[i].seq, prev) << "drain out of sequence order";
    }
    prev = all[i].seq;
    const auto& [p, v] = all[i].item;
    EXPECT_EQ(v, next_per_producer[static_cast<size_t>(p)]++)
        << "producer " << p << " items reordered";
  }
  EXPECT_EQ(*seqs.begin(), 0u);
  EXPECT_EQ(*seqs.rbegin(), static_cast<uint64_t>(kProducers * kPerProducer) - 1)
      << "sequence numbers must be dense";
}

}  // namespace
}  // namespace webmon
