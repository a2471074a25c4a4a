// PartitionedExchange wakeup and routing: a consumer sleeps through other
// partitions' traffic yet never misses a page, end-of-stream, or a failure;
// and hash routing leaves each consuming task keys its own tables spread
// over every slot.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "presto/common/clock.h"
#include "presto/common/metrics.h"
#include "presto/exec/exchange.h"
#include "presto/exec/kernels/kernels.h"

namespace presto {
namespace {

TEST(ExchangeWakeupTest, ConsumerSleepsThroughOtherPartitionsTraffic) {
  MetricsRegistry metrics;
  PartitionedExchange exchange(2, 64 << 20, &metrics);
  exchange.SetProducerCount(1);
  std::atomic<bool> saw_end{false};
  std::thread consumer([&] {
    auto page = exchange.Next(1);
    saw_end.store(page.ok() && !page->has_value());
  });
  // Let the consumer reach its wait; if it has not yet, it simply waits
  // after the pushes and is woken once by ProducerDone.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (int64_t i = 0; i < 1000; ++i) {
    exchange.Push(0, Page({MakeBigintVector({i})}));
  }
  exchange.ProducerDone();
  consumer.join();
  EXPECT_TRUE(saw_end.load()) << "partition 1 must see end-of-stream";
  // Partition 0's pages are all buffered, so draining it never waits: every
  // tick is the partition 1 consumer's. One for end-of-stream, one spare
  // for a spurious wakeup; the shared wait queue woke it for every page.
  EXPECT_LE(metrics.FindOrRegister("exchange.consumer.wakeups")->Get(), 2);
  int64_t pages = 0;
  while (true) {
    auto page = exchange.Next(0);
    ASSERT_TRUE(page.ok());
    if (!page->has_value()) break;
    ++pages;
  }
  EXPECT_EQ(pages, 1000);
}

// Drives 3 producers into 4 partitions with 4 consumers each through a
// budget of a few pages. Each page carries a unique tag; every consumer
// records what it got and how its stream ended.
enum class MidStream { kNone, kFail, kConsumerDone, kDeadline };

struct ShuffleOutcome {
  std::vector<std::vector<int64_t>> tags;  // per consumer
  std::vector<Status> ends;                // per consumer; OK = end-of-stream
  std::vector<int> partition_of;           // per consumer
  int64_t pages_pushed = 0;
  int64_t buffered_bytes = 0;
};

constexpr int kPartitions = 4;
constexpr int kConsumersPerPartition = 4;
constexpr int kProducers = 3;
constexpr int64_t kPagesPerProducer = 1000;

ShuffleOutcome RunShuffle(MidStream event) {
  const Page sample({MakeBigintVector({0})});
  PartitionedExchange exchange(kPartitions, sample.EstimateBytes() * 8);
  exchange.SetProducerCount(kProducers);
  if (event == MidStream::kDeadline) {
    exchange.SetDeadlineNanos(SteadyNowNanos() + 200'000'000);
  }
  // Producers hold ProducerDone back until the mid-stream event has
  // happened, so no consumer can reach end-of-stream before it. A deadline
  // counts as happened once some consumer has seen it.
  std::atomic<bool> event_done{event == MidStream::kNone};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int64_t i = 0; i < kPagesPerProducer; ++i) {
        const int64_t tag = p * kPagesPerProducer + i;
        exchange.Push(static_cast<int>(tag % kPartitions),
                      Page({MakeBigintVector({tag})}));
      }
      while (!event_done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      exchange.ProducerDone();
    });
  }
  constexpr int kConsumers = kPartitions * kConsumersPerPartition;
  ShuffleOutcome out;
  out.tags.resize(kConsumers);
  out.ends.resize(kConsumers);
  out.partition_of.resize(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    out.partition_of[c] = c % kPartitions;
    consumers.emplace_back([&, c] {
      while (true) {
        auto page = exchange.Next(out.partition_of[c]);
        if (!page.ok()) {
          out.ends[c] = page.status();
          event_done.store(true);
          return;
        }
        if (!page->has_value()) return;
        out.tags[c].push_back((*page)->column(0)->GetValue(0).int_value());
      }
    });
  }
  if (event == MidStream::kFail || event == MidStream::kConsumerDone) {
    while (exchange.pages_pushed() < 100) std::this_thread::yield();
    if (event == MidStream::kFail) {
      exchange.Fail(Status::Internal("task died"));
    } else {
      for (int p = 0; p < kPartitions; ++p) exchange.ConsumerDone(p);
    }
    event_done.store(true);
  }
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();
  out.pages_pushed = exchange.pages_pushed();
  out.buffered_bytes = exchange.buffered_bytes();
  return out;
}

// No tag is consumed twice and each went to a consumer of its partition;
// returns how many tags were consumed.
int64_t ExpectConsumedAtMostOnce(const ShuffleOutcome& out) {
  std::set<int64_t> seen;
  int64_t consumed = 0;
  for (size_t c = 0; c < out.tags.size(); ++c) {
    for (int64_t tag : out.tags[c]) {
      EXPECT_TRUE(seen.insert(tag).second) << "tag " << tag << " twice";
      EXPECT_EQ(tag % kPartitions, out.partition_of[c]) << "tag " << tag;
      ++consumed;
    }
  }
  return consumed;
}

TEST(ExchangeWakeupTest, EveryPageConsumedOnceAndEveryConsumerExits) {
  ShuffleOutcome out = RunShuffle(MidStream::kNone);
  EXPECT_EQ(ExpectConsumedAtMostOnce(out), kProducers * kPagesPerProducer);
  for (const Status& end : out.ends) EXPECT_TRUE(end.ok()) << end.ToString();
  EXPECT_EQ(out.buffered_bytes, 0);
}

TEST(ExchangeWakeupTest, FailMidStreamWakesEveryConsumer) {
  ShuffleOutcome out = RunShuffle(MidStream::kFail);
  EXPECT_LE(ExpectConsumedAtMostOnce(out), out.pages_pushed);
  for (const Status& end : out.ends) {
    EXPECT_EQ(end.code(), StatusCode::kInternal) << end.ToString();
  }
  EXPECT_EQ(out.buffered_bytes, 0);
}

TEST(ExchangeWakeupTest, ConsumerDoneMidStreamEndsEveryStream) {
  ShuffleOutcome out = RunShuffle(MidStream::kConsumerDone);
  EXPECT_LE(ExpectConsumedAtMostOnce(out), out.pages_pushed);
  for (const Status& end : out.ends) EXPECT_TRUE(end.ok()) << end.ToString();
  EXPECT_EQ(out.buffered_bytes, 0);
}

TEST(ExchangeWakeupTest, DeadlineMidStreamFailsEveryConsumer) {
  ShuffleOutcome out = RunShuffle(MidStream::kDeadline);
  EXPECT_LE(ExpectConsumedAtMostOnce(out), out.pages_pushed);
  for (const Status& end : out.ends) {
    EXPECT_EQ(end.code(), StatusCode::kDeadlineExceeded) << end.ToString();
  }
  EXPECT_EQ(out.buffered_bytes, 0);
}

// Routing on the raw content hash would hand partition p only keys whose
// hash is p modulo the partition count, i.e. keys sharing the low bits the
// consuming task's tables index by: they would crowd onto 1/n of the home
// slots and probe 2.5 (8 partitions) to 4.1 (16) times per row.
TEST(ExchangeRoutingTest, PartitionKeysSpreadOverTheConsumersTableSlots) {
  std::vector<int64_t> keys(100'000);
  std::iota(keys.begin(), keys.end(), 0);
  for (int partitions : {8, 16}) {
    PartitionedExchange exchange(partitions, int64_t{1} << 30);
    exchange.SetProducerCount(1);
    exchange.PushPartitioned(Page({MakeBigintVector(keys)}), {0});
    exchange.ProducerDone();
    kernels::NormalizedKeyTable table({TypeKind::kBigint});
    std::vector<int32_t> group_ids;
    int64_t rows = 0;
    int64_t probes = 0;
    while (true) {
      auto page = exchange.Next(0);
      ASSERT_TRUE(page.ok());
      if (!page->has_value()) break;
      auto mapped = table.MapRows(**page, {0}, /*insert_missing=*/true,
                                  /*skip_null_keys=*/false, &group_ids);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      probes += *mapped;
      rows += static_cast<int64_t>((*page)->num_rows());
    }
    ASSERT_GT(rows, 0);
    EXPECT_EQ(table.num_groups(), static_cast<size_t>(rows));
    EXPECT_LT(static_cast<double>(probes) / static_cast<double>(rows), 1.5)
        << partitions << " partitions";
  }
}

}  // namespace
}  // namespace presto
