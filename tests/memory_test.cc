// Memory-management tests: the hierarchical MemoryPool subsystem and its
// degradation ladder — revocable spill (aggregation/order-by), admission
// control at the coordinator, and the low-memory killer — plus the
// byte-weighted caches and exchange memory accounting that feed the same
// pool tree. Spill correctness is differential: a query forced to spill
// must produce exactly the rows of the same query run fully in memory.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>

#include "presto/cache/lru_cache.h"
#include "presto/cluster/cluster.h"
#include "presto/common/clock.h"
#include "presto/common/fault_injection.h"
#include "presto/common/memory_pool.h"
#include "presto/connectors/memory/memory_connector.h"
#include "presto/exec/exchange.h"
#include "presto/exec/kernels/kernels.h"
#include "presto/exec/spill.h"
#include "presto/fs/memory_file_system.h"
#include "presto/vector/vector_builder.h"
#include "reference_eval.h"

namespace presto {
namespace {

// Rows of a result, boxed and sorted for order-insensitive comparison.
std::vector<std::string> SortedRows(const QueryResult& result) {
  std::vector<std::string> rows;
  for (const Page& page : result.pages) {
    for (size_t r = 0; r < page.num_rows(); ++r) {
      std::string row;
      for (size_t c = 0; c < page.num_columns(); ++c) {
        row += page.column(c)->GetValue(r).ToString();
        row += "|";
      }
      rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Row strings in arrival order, for ORDER BY results.
std::vector<std::string> OrderedRows(const QueryResult& result) {
  std::vector<std::string> rows;
  for (const Page& page : result.pages) {
    for (size_t r = 0; r < page.num_rows(); ++r) {
      std::string row;
      for (size_t c = 0; c < page.num_columns(); ++c) {
        row += page.column(c)->GetValue(r).ToString();
        row += "|";
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

bool JournalHasKind(const Coordinator& coordinator, int64_t query_id,
                    QueryEventKind kind) {
  for (const QueryEvent& event : coordinator.journal().EventsForQuery(query_id)) {
    if (event.kind == kind) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// MemoryPool hierarchy
// ---------------------------------------------------------------------------

TEST(MemoryPoolTest, HierarchicalCapsAndClassification) {
  MetricsRegistry metrics;
  auto worker = MemoryPool::CreateRoot("worker", 1000, &metrics);
  auto query = worker->AddChild("query.1");
  auto user = query->AddChild("user", 400);

  EXPECT_TRUE(user->Reserve(300).ok());
  EXPECT_EQ(user->reserved_bytes(), 300);
  EXPECT_EQ(query->reserved_bytes(), 300);
  EXPECT_EQ(worker->reserved_bytes(), 300);

  // Query-cap failure: classified by failed_pool == the user pool.
  const MemoryPool* failed = nullptr;
  Status at_query = user->Reserve(200, &failed);
  EXPECT_EQ(at_query.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(failed, user.get());
  // Failed walks reserve nothing anywhere.
  EXPECT_EQ(user->reserved_bytes(), 300);
  EXPECT_EQ(worker->reserved_bytes(), 300);

  // Worker-cap failure: a sibling query hits the root level.
  auto other = worker->AddChild("query.2")->AddChild("user", 10'000);
  failed = nullptr;
  Status at_worker = other->Reserve(800, &failed);
  EXPECT_EQ(at_worker.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(failed, worker.get());

  user->Release(300);
  EXPECT_EQ(worker->reserved_bytes(), 0);
  EXPECT_EQ(worker->peak_bytes(), 300);
  // Cumulative reservation traffic counter lives on the root's registry.
  EXPECT_EQ(metrics.Get("memory.reserved.bytes"), 300);
}

TEST(MemoryPoolTest, ConcurrentReservationsNeverOverCommit) {
  const int64_t kCap = 100'000;
  auto root = MemoryPool::CreateRoot("worker", kCap);
  std::atomic<bool> over_cap{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&root, &over_cap, t] {
      uint64_t state = 1000 + static_cast<uint64_t>(t);
      auto next = [&state] {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state >> 33;
      };
      auto leaf = root->AddChild("leaf." + std::to_string(t));
      int64_t held = 0;
      for (int i = 0; i < 2000; ++i) {
        int64_t bytes = 1 + static_cast<int64_t>(next() % 512);
        if (next() % 3 != 0) {
          if (leaf->Reserve(bytes).ok()) held += bytes;
        } else if (held > 0) {
          int64_t release = std::min<int64_t>(held, bytes);
          leaf->Release(release);
          held -= release;
        }
        if (root->reserved_bytes() > kCap) over_cap.store(true);
      }
      leaf->Release(held);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(over_cap.load()) << "root exceeded its capacity";
  EXPECT_EQ(root->reserved_bytes(), 0);
  EXPECT_LE(root->peak_bytes(), kCap);
}

// A consumer's reservation moves in whole quanta (1 MiB).
TEST(MemoryPoolTest, ReservationRaii) {
  constexpr int64_t kMiB = MemoryConsumer::kQuantum;
  auto root = MemoryPool::CreateRoot("worker", 100 * kMiB);
  {
    MemoryConsumer consumer;
    consumer.Init(root, /*query=*/nullptr, /*metrics=*/nullptr);
    EXPECT_TRUE(consumer.Reserve(60 * kMiB).ok());
    EXPECT_EQ(root->reserved_bytes(), 60 * kMiB);
    EXPECT_TRUE(consumer.Reserve(30 * kMiB).ok());  // shrink always succeeds
    EXPECT_EQ(root->reserved_bytes(), 30 * kMiB);
    Status grow = consumer.Reserve(200 * kMiB);
    EXPECT_EQ(grow.code(), StatusCode::kResourceExhausted) << grow.ToString();
    EXPECT_EQ(root->reserved_bytes(), 30 * kMiB)
        << "failed grow leaves the old amount";
  }
  EXPECT_EQ(root->reserved_bytes(), 0) << "destructor releases";
}

// ---------------------------------------------------------------------------
// Spill runs
// ---------------------------------------------------------------------------

TEST(SpillerTest, RunRoundTripsTypedAndNullData) {
  MemoryFileSystem fs;
  MetricsRegistry metrics;
  Spiller spiller(&fs, "spill/run0", &metrics);

  std::vector<Page> pages;
  for (int p = 0; p < 3; ++p) {
    VectorBuilder keys(Type::Bigint());
    VectorBuilder names(Type::Varchar());
    VectorBuilder vals(Type::Double());
    for (int i = 0; i < 100; ++i) {
      if (i % 9 == 0) {
        keys.AppendNull();
      } else {
        ASSERT_TRUE(keys.Append(Value::Int(p * 100 + i)).ok());
      }
      ASSERT_TRUE(names.Append(Value::String("name-" + std::to_string(i))).ok());
      if (i % 7 == 0) {
        vals.AppendNull();
      } else {
        ASSERT_TRUE(vals.Append(Value::Double(i / 8.0)).ok());
      }
    }
    pages.push_back(Page({keys.Build(), names.Build(), vals.Build()}));
  }
  ASSERT_TRUE(spiller.SpillRun(pages).ok());
  EXPECT_GT(spiller.total_bytes(), 0);
  EXPECT_EQ(metrics.Get("spill.run.written"), 1);

  auto readers = spiller.OpenAllRuns();
  ASSERT_TRUE(readers.ok()) << readers.status().ToString();
  ASSERT_EQ(readers->size(), 1u);
  auto& reader = readers->front();
  size_t page_index = 0;
  while (true) {
    int64_t block_bytes = 0;
    auto batch = reader->Next(&block_bytes);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (!batch->has_value()) break;
    ASSERT_LT(page_index, pages.size());
    const Page& expected = pages[page_index];
    ASSERT_EQ((*batch)->num_rows(), expected.num_rows());
    for (size_t c = 0; c < expected.num_columns(); ++c) {
      for (size_t r = 0; r < expected.num_rows(); ++r) {
        EXPECT_EQ((*batch)->column(c)->GetValue(r).ToString(),
                  expected.column(c)->GetValue(r).ToString())
            << "page " << page_index << " col " << c << " row " << r;
      }
    }
    ++page_index;
  }
  EXPECT_EQ(page_index, pages.size());
  EXPECT_GT(metrics.Get("spill.byte.read"), 0);
  EXPECT_EQ(metrics.Get("spill.byte.read"), spiller.total_bytes())
      << "the file header counts on read as it does on write";
}

// ---------------------------------------------------------------------------
// Spill run merges
// ---------------------------------------------------------------------------

using KeyTag = std::pair<int64_t, int64_t>;

// Pages of `page_rows` rows over (key, tag) pairs: column 0 the key, column
// 1 a tag naming the pair's run (tag / 1000) and position.
std::vector<Page> MakeRunPages(const std::vector<KeyTag>& rows,
                               size_t page_rows) {
  std::vector<Page> pages;
  for (size_t start = 0; start < rows.size(); start += page_rows) {
    std::vector<int64_t> keys, tags;
    for (size_t i = start; i < std::min(rows.size(), start + page_rows); ++i) {
      keys.push_back(rows[i].first);
      tags.push_back(rows[i].second);
    }
    pages.push_back(Page({MakeBigintVector(std::move(keys)),
                          MakeBigintVector(std::move(tags))}));
  }
  return pages;
}

KeyTag RowAt(const Page& page, size_t row) {
  return {page.column(0)->GetValue(row).int_value(),
          page.column(1)->GetValue(row).int_value()};
}

// Eight spilled runs and one in-memory run, each sorted with duplicate keys
// inside and across runs, and each cut into pages at a different size. The
// heap merge must give exactly what a stable sort of the runs concatenated
// in run order gives: equal keys come out lowest run first.
TEST(SpillMergeTest, SortedMergeIsStableInRunOrder) {
  MemoryFileSystem fs;
  MetricsRegistry metrics;
  Spiller spiller(&fs, "spill/sorted", &metrics);
  uint64_t state = 99;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  constexpr int kRuns = 9;
  std::vector<KeyTag> concatenated;
  std::vector<Page> memory_run;
  for (int r = 0; r < kRuns; ++r) {
    size_t n = 50 + next() % 200;
    std::vector<int64_t> keys(n);
    for (int64_t& key : keys) key = static_cast<int64_t>(next() % 40);
    std::sort(keys.begin(), keys.end());
    std::vector<KeyTag> run;
    for (size_t i = 0; i < n; ++i) {
      run.push_back({keys[i], r * 1000 + static_cast<int64_t>(i)});
    }
    concatenated.insert(concatenated.end(), run.begin(), run.end());
    std::vector<Page> pages = MakeRunPages(run, 7 + r);
    if (r < kRuns - 1) {
      ASSERT_TRUE(spiller.SpillRun(pages).ok());
    } else {
      memory_run = std::move(pages);
    }
  }
  auto readers = spiller.OpenAllRuns();
  ASSERT_TRUE(readers.ok()) << readers.status().ToString();
  SpillMergeCursor cursor(
      std::move(*readers), std::move(memory_run),
      [](const Page& a, size_t a_row, const Page& b, size_t b_row) {
        return a.column(0)->CompareAt(a_row, *b.column(0), b_row);
      });
  std::vector<KeyTag> merged;
  while (true) {
    auto more = cursor.Advance();
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    merged.push_back(RowAt(cursor.page(), cursor.row()));
  }
  std::stable_sort(
      concatenated.begin(), concatenated.end(),
      [](const KeyTag& a, const KeyTag& b) { return a.first < b.first; });
  EXPECT_EQ(merged, concatenated);
  EXPECT_EQ(metrics.Get("spill.byte.read"), metrics.Get("spill.byte.written"));
}

// Eight spilled runs and two in-memory runs ordered by key hash, the way a
// revoked aggregation writes them. Every row comes back exactly once, every
// key's rows land in one batch, each batch but the last holds at least the
// asked-for rows, and a batch lists its slices in source order.
TEST(SpillMergeTest, HashMergeKeepsEveryKeyInOneBatch) {
  MemoryFileSystem fs;
  Spiller spiller(&fs, "spill/hashed", nullptr);
  uint64_t state = 7;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  constexpr int kRuns = 10;
  constexpr int kSpilledRuns = 8;
  std::vector<KeyTag> expected;
  std::vector<std::vector<Page>> memory_runs;
  for (int r = 0; r < kRuns; ++r) {
    size_t n = 200 + next() % 400;
    std::vector<int64_t> keys(n);
    for (int64_t& key : keys) key = static_cast<int64_t>(next() % 1500);
    std::vector<uint64_t> hashes;
    kernels::HashPage(Page({MakeBigintVector(keys)}), {0}, &hashes);
    std::vector<std::pair<uint64_t, int32_t>> order(n);
    for (size_t i = 0; i < n; ++i) {
      order[i] = {hashes[i], static_cast<int32_t>(i)};
    }
    std::sort(order.begin(), order.end());
    std::vector<KeyTag> run;
    for (const auto& [hash, i] : order) {
      run.push_back({keys[i], r * 1000 + static_cast<int64_t>(run.size())});
    }
    expected.insert(expected.end(), run.begin(), run.end());
    std::vector<Page> pages = MakeRunPages(run, 64 + 9 * r);
    if (r < kSpilledRuns) {
      ASSERT_TRUE(spiller.SpillRun(pages).ok());
    } else {
      memory_runs.push_back(std::move(pages));
    }
  }
  auto readers = spiller.OpenAllRuns();
  ASSERT_TRUE(readers.ok()) << readers.status().ToString();
  HashOrderedMerge merge(std::move(*readers), std::move(memory_runs),
                         /*num_keys=*/1);
  constexpr size_t kMinRows = 100;
  std::vector<KeyTag> merged;
  std::map<int64_t, int> batch_of_key;
  std::vector<size_t> batch_rows;
  while (true) {
    auto batch = merge.NextBatch(kMinRows);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (batch->empty()) break;
    int batch_index = static_cast<int>(batch_rows.size());
    size_t rows = 0;
    int64_t last_run = -1;
    for (const HashOrderedMerge::Slice& slice : *batch) {
      std::vector<uint64_t> hashes;
      kernels::HashPage(slice.page, {0}, &hashes);
      ASSERT_EQ(hashes, *slice.hashes);
      for (size_t r = slice.begin; r < slice.end; ++r) {
        KeyTag row = RowAt(slice.page, r);
        EXPECT_GE(row.second / 1000, last_run) << "slices out of source order";
        last_run = row.second / 1000;
        auto [it, inserted] = batch_of_key.emplace(row.first, batch_index);
        EXPECT_EQ(it->second, batch_index)
            << "key " << row.first << " split across batches";
        merged.push_back(row);
        ++rows;
      }
    }
    batch_rows.push_back(rows);
  }
  ASSERT_GT(batch_rows.size(), 2u);
  for (size_t b = 0; b + 1 < batch_rows.size(); ++b) {
    EXPECT_GE(batch_rows[b], kMinRows) << "batch " << b;
  }
  std::sort(merged.begin(), merged.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(merged, expected);
}

// Fifty revocations of one operator append fifty runs to one block file, and
// a full merge reads back exactly the bytes written, file header included.
TEST(SpillMergeTest, ManyRunsShareOneFile) {
  MemoryFileSystem fs;
  MetricsRegistry metrics;
  constexpr int kRuns = 50;
  {
    Spiller spiller(&fs, "spill/many", &metrics);
    std::vector<KeyTag> expected;
    for (int r = 0; r < kRuns; ++r) {
      std::vector<KeyTag> run;
      for (int64_t i = 0; i < 30; ++i) {
        run.push_back({i * 3 + r % 3, r * 1000 + i});
      }
      expected.insert(expected.end(), run.begin(), run.end());
      ASSERT_TRUE(spiller.SpillRun(MakeRunPages(run, 8)).ok());
    }
    EXPECT_EQ(spiller.num_runs(), kRuns);
    EXPECT_EQ(metrics.Get("spill.run.written"), kRuns);
    auto readers = spiller.OpenAllRuns();
    ASSERT_TRUE(readers.ok()) << readers.status().ToString();
    ASSERT_EQ(readers->size(), static_cast<size_t>(kRuns));
    auto files = fs.ListFiles("spill/many");
    ASSERT_TRUE(files.ok());
    EXPECT_EQ(files->size(), 1u) << "one file per spiller, not one per run";

    SpillMergeCursor cursor(
        std::move(*readers), {},
        [](const Page& a, size_t a_row, const Page& b, size_t b_row) {
          return a.column(0)->CompareAt(a_row, *b.column(0), b_row);
        });
    std::vector<KeyTag> merged;
    while (true) {
      auto more = cursor.Advance();
      ASSERT_TRUE(more.ok()) << more.status().ToString();
      if (!*more) break;
      merged.push_back(RowAt(cursor.page(), cursor.row()));
    }
    std::stable_sort(
        expected.begin(), expected.end(),
        [](const KeyTag& a, const KeyTag& b) { return a.first < b.first; });
    EXPECT_EQ(merged, expected);
    EXPECT_EQ(metrics.Get("spill.byte.read"),
              metrics.Get("spill.byte.written"));
    EXPECT_FALSE(spiller.SpillRun(MakeRunPages({{1, 1}}, 8)).ok())
        << "a run spilled after the runs were opened would never be read";
  }
  EXPECT_TRUE(fs.ListFiles("spill/many")->empty())
      << "the spiller deletes its file";
}

// ---------------------------------------------------------------------------
// Exchange memory accounting
// ---------------------------------------------------------------------------

TEST(ExchangeMemoryTest, PoolReconcilesWithBufferedBytes) {
  auto root = MemoryPool::CreateRoot("worker");
  auto pool = root->AddChild("exchange.1");
  PartitionedExchange exchange(1, 1 << 20);
  exchange.SetMemoryPool(pool);
  exchange.SetProducerCount(1);

  for (int i = 0; i < 4; ++i) {
    std::vector<int64_t> values(100, i);
    exchange.Push(0, Page({MakeBigintVector(std::move(values))}));
    EXPECT_EQ(pool->reserved_bytes(), exchange.buffered_bytes());
  }
  EXPECT_GT(pool->reserved_bytes(), 0);
  EXPECT_EQ(pool->peak_bytes(), exchange.peak_buffered_bytes());

  auto page = exchange.Next(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(pool->reserved_bytes(), exchange.buffered_bytes());

  exchange.ConsumerDone(0);
  EXPECT_EQ(pool->reserved_bytes(), 0) << "closing a partition releases";
  EXPECT_EQ(exchange.buffered_bytes(), 0);
}

TEST(ExchangeMemoryTest, BlockedProducerHoldsNoReservation) {
  // A producer waiting on backpressure has not reserved its page yet: the
  // pool holds only what the buffer holds, and the waiting page reserves
  // once it gets in.
  auto root = MemoryPool::CreateRoot("worker");
  auto pool = root->AddChild("exchange.1");
  PartitionedExchange exchange(1, /*capacity_bytes=*/1);
  exchange.SetMemoryPool(pool);
  exchange.SetProducerCount(1);
  exchange.Push(0, Page({MakeBigintVector(std::vector<int64_t>(100, 1))}));
  const int64_t first = exchange.buffered_bytes();
  ASSERT_EQ(pool->reserved_bytes(), first);

  std::thread producer([&] {
    exchange.Push(0, Page({MakeBigintVector(std::vector<int64_t>(300, 2))}));
    exchange.ProducerDone();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(pool->reserved_bytes(), first) << "blocked page reserved early";

  auto page = exchange.Next(0);  // makes room for the blocked page
  ASSERT_TRUE(page.ok());
  producer.join();
  EXPECT_GT(exchange.buffered_bytes(), first);
  EXPECT_EQ(pool->reserved_bytes(), exchange.buffered_bytes());
  EXPECT_EQ(pool->peak_bytes(), exchange.peak_buffered_bytes());
}

TEST(ExchangeMemoryTest, DictionaryPagesPayTheirShareOfTheBase) {
  // A join's output pages wrap one probe page each: eight 8,192-row pages
  // over one 65,536-row base pay the base about once between them, not
  // once each.
  std::vector<int64_t> values(65'536);
  std::iota(values.begin(), values.end(), 0);
  VectorPtr base = MakeBigintVector(std::move(values));
  const int64_t base_bytes = base->EstimateBytes();
  auto root = MemoryPool::CreateRoot("worker");
  auto pool = root->AddChild("exchange.1");
  PartitionedExchange exchange(1, int64_t{64} << 20);
  exchange.SetMemoryPool(pool);
  exchange.SetProducerCount(1);
  constexpr int kPages = 8;
  constexpr int kRows = 8'192;
  for (int i = 0; i < kPages; ++i) {
    std::vector<int32_t> indices(kRows);
    std::iota(indices.begin(), indices.end(), i * kRows);
    exchange.Push(0, Page({std::make_shared<DictionaryVector>(
                      base, std::move(indices))}));
    EXPECT_EQ(pool->reserved_bytes(), exchange.buffered_bytes());
  }
  const int64_t indices_bytes =
      int64_t{kPages} * kRows * static_cast<int64_t>(sizeof(int32_t));
  EXPECT_LE(exchange.bytes_pushed(), base_bytes + indices_bytes);
  EXPECT_GE(exchange.bytes_pushed(), indices_bytes);
  exchange.ConsumerDone(0);
  EXPECT_EQ(pool->reserved_bytes(), 0);
}

TEST(ExchangeMemoryTest, FailedReservationLatchesClassifiedError) {
  auto root = MemoryPool::CreateRoot("worker", 64);  // absurdly small worker
  PartitionedExchange exchange(1, 1 << 20);
  exchange.SetMemoryPool(root->AddChild("exchange.1"));
  exchange.SetProducerCount(1);

  std::vector<int64_t> values(1000, 7);
  exchange.Push(0, Page({MakeBigintVector(std::move(values))}));
  auto page = exchange.Next(0);
  EXPECT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(root->reserved_bytes(), 0);
}

TEST(ExchangeMemoryTest, RefusedPushWaitsForTheArbiterToKillTheHog) {
  // A hog with nothing revocable (spill off) holds the whole worker. A small
  // query's 8-byte push must reach the arbiter, which kills the hog and
  // waits for its memory, instead of failing the small query outright.
  constexpr int64_t kWorker = 4 << 20;
  auto worker = MemoryPool::CreateRoot("worker", kWorker);
  MemoryArbiter arbiter(worker);
  auto add_query = [&](int64_t id) {
    auto q = std::make_shared<QueryMemory>();
    q->query_id = id;
    q->query = worker->AddChild("query." + std::to_string(id));
    q->user = q->query->AddChild("user");
    q->system = q->query->AddChild("system");
    q->deadline_steady_nanos = SteadyNowNanos() + 30'000'000'000LL;
    arbiter.AddQuery(q.get());
    return q;
  };
  auto hog = add_query(1);
  auto small = add_query(2);
  ASSERT_TRUE(hog->user->Reserve(kWorker).ok());
  std::atomic<bool> test_done{false};
  std::thread hog_exit([&] {
    // The killed hog unwinds: its memory goes back and it leaves the worker.
    while (!hog->killed.load() && !test_done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    hog->user->Release(kWorker);
    arbiter.RemoveQuery(hog.get());
  });

  PartitionedExchange exchange(1, 1 << 20);
  exchange.SetMemoryPool(small->system->AddChild("exchange.1"), small);
  exchange.SetProducerCount(1);
  exchange.Push(0, Page({MakeBigintVector({42})}));
  exchange.ProducerDone();
  auto page = exchange.Next(0);
  test_done.store(true);
  hog_exit.join();

  ASSERT_TRUE(page.ok()) << page.status().ToString();
  ASSERT_TRUE(page->has_value());
  EXPECT_EQ((*page)->column(0)->GetValue(0), Value::Int(42));
  EXPECT_TRUE(hog->killed.load());
  EXPECT_FALSE(small->killed.load());
  EXPECT_EQ(small->system->reserved_bytes(), 0);
  arbiter.RemoveQuery(small.get());
}

// ---------------------------------------------------------------------------
// Byte-weighted LRU cache
// ---------------------------------------------------------------------------

TEST(LruCacheWeightTest, EvictsByWeightAndChargesPool) {
  auto root = MemoryPool::CreateRoot("cache-root");
  LruCache<int> cache(100, "cache.test");
  cache.SetMemoryPool(root->AddChild("cache.test"));

  cache.Put("a", std::make_shared<const int>(1), 40);
  cache.Put("b", std::make_shared<const int>(2), 40);
  EXPECT_EQ(root->reserved_bytes(), 80);
  ASSERT_TRUE(cache.Get("a").has_value());  // a becomes most recent
  cache.Put("c", std::make_shared<const int>(3), 40);
  EXPECT_FALSE(cache.Get("b").has_value()) << "b was least recently used";
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
  EXPECT_EQ(cache.metrics().Get("cache.test.evictions"), 1);
  EXPECT_EQ(cache.metrics().Get("cache.test.evicted.bytes"), 40);
  EXPECT_EQ(cache.weight_bytes(), 80);
  EXPECT_EQ(root->reserved_bytes(), 80);

  // An oversized entry evicts everything else but is itself retained.
  cache.Put("big", std::make_shared<const int>(4), 500);
  EXPECT_TRUE(cache.Get("big").has_value());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(root->reserved_bytes(), 500);

  cache.Clear();
  EXPECT_EQ(root->reserved_bytes(), 0);
}

// ---------------------------------------------------------------------------
// End-to-end: spill differential, admission control, low-memory killer
// ---------------------------------------------------------------------------

// Randomized facts table exercising dictionary encodings and NULLs in both
// keys and values — the encodings a spilled run must round-trip exactly.
void LoadRandomFacts(MemoryConnector* memory, int pages, size_t rows_per_page) {
  TypePtr facts_type =
      Type::Row({"k_int", "k_str", "v_int", "v_double", "seq"},
                {Type::Bigint(), Type::Varchar(), Type::Bigint(),
                 Type::Double(), Type::Bigint()});
  ASSERT_TRUE(memory->CreateTable("raw", "facts", facts_type).ok());
  uint64_t state = 4242;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  const std::vector<std::string> words = {"ash", "birch", "cedar", "dogwood",
                                          "elm",  "fir",   "ginkgo", ""};
  int64_t seq_base = 0;
  for (int p = 0; p < pages; ++p) {
    size_t n = rows_per_page;
    std::vector<int64_t> k_int(n), v_int(n), seq(n);
    std::vector<uint8_t> k_int_nulls(n), v_int_nulls(n), v_double_nulls(n);
    std::vector<std::string> k_str(n);
    std::vector<double> v_double(n);
    for (size_t i = 0; i < n; ++i) {
      k_int[i] = static_cast<int64_t>(next() % 401) - 13;
      k_int_nulls[i] = next() % 10 == 0;
      k_str[i] = words[next() % words.size()];
      v_int[i] = static_cast<int64_t>(next() % 1000) - 500;
      v_int_nulls[i] = next() % 7 == 0;
      v_double[i] = (static_cast<int64_t>(next() % 2000) - 1000) / 8.0;
      v_double_nulls[i] = next() % 9 == 0;
      seq[i] = seq_base++;
    }
    std::vector<VectorPtr> columns = {
        std::make_shared<Int64Vector>(Type::Bigint(), k_int, k_int_nulls),
        std::make_shared<StringVector>(Type::Varchar(), k_str,
                                       std::vector<uint8_t>{}),
        std::make_shared<Int64Vector>(Type::Bigint(), v_int, v_int_nulls),
        std::make_shared<DoubleVector>(Type::Double(), v_double,
                                       v_double_nulls),
        MakeBigintVector(std::move(seq))};
    if (p % 2 == 1) {
      // Dictionary-encode the key columns with dictionary-level nulls.
      for (size_t c = 0; c < 2; ++c) {
        std::vector<int32_t> indices(n);
        std::vector<uint8_t> top_nulls(n);
        for (size_t i = 0; i < n; ++i) {
          indices[i] = static_cast<int32_t>(next() % n);
          top_nulls[i] = next() % 13 == 0;
        }
        columns[c] = std::make_shared<DictionaryVector>(
            columns[c], std::move(indices), std::move(top_nulls));
      }
    }
    ASSERT_TRUE(
        memory->AppendPage("raw", "facts", Page(std::move(columns), n)).ok());
  }
}

// Group keys at the edges of equality, 16 pages of 4000 rows: a DOUBLE key
// holding -0.0, 0.0, NaN, -NaN and NULL among ~12000 ordinary values, a
// VARCHAR and BIGINT key pair with NULLs in both, and the same pair as a
// ROW(a, b) key with NULL rows on top, dictionary-encoded on odd pages.
// There are enough groups that the spilled merge cuts many batches, so a key
// whose rows hashed differently in two runs would be split across batches
// and emitted twice.
void LoadEdgeKeys(MemoryConnector* memory) {
  TypePtr row_type = Type::Row({"a", "b"}, {Type::Bigint(), Type::Varchar()});
  TypePtr edge_type =
      Type::Row({"k_double", "k_str", "k_int", "v", "k_row"},
                {Type::Double(), Type::Varchar(), Type::Bigint(),
                 Type::Bigint(), row_type});
  ASSERT_TRUE(memory->CreateTable("raw", "edge", edge_type).ok());
  const std::vector<double> edges = {-0.0, 0.0,
                                     std::numeric_limits<double>::quiet_NaN(),
                                     -std::numeric_limits<double>::quiet_NaN()};
  const std::vector<std::string> words = {"ash", "birch", "cedar", "",
                                          "elm", "fir",   "ginkgo"};
  constexpr size_t kPageRows = 4000;
  for (int p = 0; p < 16; ++p) {
    std::vector<double> k_double(kPageRows);
    std::vector<uint8_t> k_double_nulls(kPageRows), k_str_nulls(kPageRows),
        k_int_nulls(kPageRows), k_row_nulls(kPageRows);
    std::vector<int32_t> shuffle(kPageRows);
    std::vector<std::string> k_str(kPageRows);
    std::vector<int64_t> k_int(kPageRows), v(kPageRows);
    for (size_t i = 0; i < kPageRows; ++i) {
      int64_t row = p * static_cast<int64_t>(kPageRows) + static_cast<int64_t>(i);
      if (row % 8 < 4) {
        k_double[i] = edges[row % 8];
      } else if (row % 8 == 4) {
        k_double_nulls[i] = 1;
      } else {
        k_double[i] = static_cast<double>(row % 12007) / 4.0 - 50.0;
      }
      k_str[i] = words[row % 7];
      k_str_nulls[i] = row % 11 == 0;
      k_int[i] = row % 4001 - 20;
      k_int_nulls[i] = row % 17 == 0;
      v[i] = row % 1000 - 500;
      k_row_nulls[i] = row % 13 == 0;
      shuffle[i] = static_cast<int32_t>((i * 7) % kPageRows);
    }
    VectorPtr str = std::make_shared<StringVector>(Type::Varchar(), k_str,
                                                   k_str_nulls);
    VectorPtr num =
        std::make_shared<Int64Vector>(Type::Bigint(), k_int, k_int_nulls);
    VectorPtr k_row = std::make_shared<RowVector>(
        row_type, kPageRows, std::vector<VectorPtr>{num, str}, k_row_nulls);
    if (p % 2 == 1) {
      k_row = std::make_shared<DictionaryVector>(k_row, std::move(shuffle));
    }
    ASSERT_TRUE(memory
                    ->AppendPage("raw", "edge",
                                 Page({std::make_shared<DoubleVector>(
                                           Type::Double(), k_double,
                                           k_double_nulls),
                                       str, num, MakeBigintVector(std::move(v)),
                                       k_row},
                                      kPageRows))
                    .ok());
  }
}

class SpillDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cluster_ = new PrestoCluster("spill-diff", 2, 2);
    auto memory = std::make_shared<MemoryConnector>();
    LoadRandomFacts(memory.get(), 20, 400);
    LoadEdgeKeys(memory.get());
    ASSERT_TRUE(cluster_->catalogs().RegisterCatalog("mem", memory).ok());
  }

  // Runs `sql` comfortably in memory and again under a cap tiny enough to
  // force spilling, both on top of the `roomy` session's properties; both
  // row sets must match exactly (and match `expected`, the reference
  // evaluator's rows, when given) and the constrained run must actually
  // have spilled.
  static void ExpectSpillMatchesInMemory(
      const std::string& sql, bool ordered, bool require_spill = true,
      Session roomy = Session(),
      const std::optional<std::vector<std::string>>& expected = std::nullopt) {
    auto reference = cluster_->Execute(sql, roomy);
    ASSERT_TRUE(reference.ok()) << sql << "\n" << reference.status().ToString();

    Session tight = roomy;
    tight.properties["query_max_memory"] = "65536";
    tight.properties["spill_path"] = "/tmp/presto_spill_test";
    auto spilled = cluster_->Execute(sql, tight);
    ASSERT_TRUE(spilled.ok()) << sql << "\n" << spilled.status().ToString();

    if (ordered) {
      EXPECT_EQ(OrderedRows(*spilled), OrderedRows(*reference)) << sql;
    } else {
      EXPECT_EQ(SortedRows(*spilled), SortedRows(*reference)) << sql;
    }
    if (expected.has_value()) {
      EXPECT_EQ(SortedRows(*reference), *expected)
          << "in-memory run diverged from the reference evaluator on\n"
          << sql;
    }
    EXPECT_GT(spilled->exec_metrics.at("memory.query.peak_bytes"), 0);
    // A fully merged spill reads back exactly the bytes it wrote; only a
    // LIMIT may stop the merge before every run is read to its end.
    if (sql.find(" LIMIT ") == std::string::npos) {
      EXPECT_EQ(spilled->exec_metrics["spill.byte.read"],
                spilled->exec_metrics["spill.byte.written"])
          << sql;
    }
    if (!require_spill) return;
    auto runs = spilled->exec_metrics.find("spill.run.written");
    ASSERT_NE(runs, spilled->exec_metrics.end())
        << sql << " never spilled under a 64 KiB cap";
    EXPECT_GT(runs->second, 0) << sql;
    EXPECT_TRUE(JournalHasKind(cluster_->coordinator(), spilled->query_id,
                               QueryEventKind::kOperatorSpilled))
        << sql;
  }

  // The reference evaluator's rows for a GROUP BY over a plain scan of the
  // same table (scan columns are the group keys, then aggregate inputs).
  static std::vector<std::string> ReferenceGroupBy(
      const std::string& scan_sql, const std::vector<int>& keys,
      const std::vector<reference::Agg>& aggs) {
    auto scan = cluster_->Execute(scan_sql, Session());
    EXPECT_TRUE(scan.ok()) << scan_sql << "\n" << scan.status().ToString();
    if (!scan.ok()) return {};
    auto grouped = reference::GroupBy(reference::FromResult(*scan), keys, aggs);
    EXPECT_TRUE(grouped.ok()) << grouped.status().ToString();
    return grouped.ok() ? reference::Render(*grouped)
                        : std::vector<std::string>();
  }

  // The edge-key cases run at 1 and 4 chains, with one final aggregation
  // task so that its merge sees every partial result and cuts many batches.
  static Session EdgeKeySession(int task_threads) {
    Session session;
    session.properties["task_threads"] = std::to_string(task_threads);
    session.properties["hash_partition_count"] = "1";
    return session;
  }

  static PrestoCluster* cluster_;
};

PrestoCluster* SpillDifferentialTest::cluster_ = nullptr;

// -0.0 and 0.0 are one group (reported as 0.0), as are all NaN payloads
// and all NULLs. A spilled run must hash each of them like every other run
// and like the in-memory remainder, or the merge would emit the group twice.
TEST_F(SpillDifferentialTest, GroupByEdgeDoubleKeys) {
  const std::string sql =
      "SELECT k_double, count(*), sum(v), min(v), max(v) FROM mem.raw.edge "
      "GROUP BY k_double";
  const std::vector<std::string> expected = ReferenceGroupBy(
      "SELECT k_double, v FROM mem.raw.edge", {0},
      {{"count", {}}, {"sum", {1}}, {"min", {1}}, {"max", {1}}});
  auto count_key = [&](const std::string& key) {
    return std::count_if(expected.begin(), expected.end(), [&](auto& row) {
      return row.rfind(key + "|", 0) == 0;
    });
  };
  // quiet_NaN() and -quiet_NaN() are one group; so are -0.0 and 0.0.
  EXPECT_EQ(count_key("nan") + count_key("-nan"), 1);
  EXPECT_EQ(count_key("0.000000") + count_key("-0.000000"), 1);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " task_threads");
    ExpectSpillMatchesInMemory(sql, /*ordered=*/false, /*require_spill=*/true,
                               EdgeKeySession(threads), expected);
  }
}

TEST_F(SpillDifferentialTest, GroupByVarcharBigintKeys) {
  const std::string sql =
      "SELECT k_str, k_int, count(*), sum(v) FROM mem.raw.edge "
      "GROUP BY k_str, k_int";
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " task_threads");
    ExpectSpillMatchesInMemory(sql, /*ordered=*/false, /*require_spill=*/true,
                               EdgeKeySession(threads));
  }
}

// ROW keys intern to dense ids in the key table (Value::Hash /
// Value::Equals); spill order hashes them like every other run.
TEST_F(SpillDifferentialTest, GroupByRowKey) {
  const std::vector<std::string> expected = ReferenceGroupBy(
      "SELECT k_row, v FROM mem.raw.edge", {0}, {{"count", {}}, {"sum", {1}}});
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " task_threads");
    ExpectSpillMatchesInMemory(
        "SELECT k_row, count(*), sum(v) FROM mem.raw.edge GROUP BY k_row",
        /*ordered=*/false, /*require_spill=*/true, EdgeKeySession(threads),
        expected);
  }
}

// 65 keys, one past a 64-bit word of null flags: 64 BIGINT expressions of
// k_int, then k_str, whose NULLs are independent of k_int's and so live only
// in each row's second null word. A quarter of the rows keeps it quick.
TEST_F(SpillDifferentialTest, GroupBy65Keys) {
  std::string keys = "k_int";
  for (int c = 1; c < 64; ++c) keys += ", k_int + " + std::to_string(c);
  keys += ", k_str";
  std::vector<int> key_columns(65);
  std::iota(key_columns.begin(), key_columns.end(), 0);
  const std::vector<std::string> expected = ReferenceGroupBy(
      "SELECT " + keys + ", v FROM mem.raw.edge WHERE v >= 250", key_columns,
      {{"count", {}}, {"sum", {65}}});
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " task_threads");
    ExpectSpillMatchesInMemory(
        "SELECT " + keys + ", count(*), sum(v) FROM mem.raw.edge "
            "WHERE v >= 250 GROUP BY " + keys,
        /*ordered=*/false, /*require_spill=*/true, EdgeKeySession(threads),
        expected);
  }
}

// Aggregates without a columnar kernel fold through the per-group
// Accumulator adapter, next to kernels, on the same key table; their
// intermediates (BIGINT, HyperLogLog VARCHAR, ARRAY of distinct values)
// round-trip through spill runs.
TEST_F(SpillDifferentialTest, GroupByAdapterAggregates) {
  const std::vector<std::string> expected = ReferenceGroupBy(
      "SELECT k_int, v_int, v_int > 0 FROM mem.raw.facts", {0},
      {{"count", {}},
       {"sum", {1}},
       {"count_if", {2}},
       {"approx_distinct", {1}},
       {"count_distinct", {1}}});
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " task_threads");
    ExpectSpillMatchesInMemory(
        "SELECT k_int, count(*), sum(v_int), count_if(v_int > 0), "
        "approx_distinct(v_int), count(DISTINCT v_int) FROM mem.raw.facts "
        "GROUP BY k_int",
        /*ordered=*/false, /*require_spill=*/true, EdgeKeySession(threads),
        expected);
  }
}

TEST_F(SpillDifferentialTest, GroupByKernelPath) {
  ExpectSpillMatchesInMemory(
      "SELECT k_int, count(*), sum(v_int), min(v_double), max(v_double) "
      "FROM mem.raw.facts GROUP BY k_int",
      /*ordered=*/false);
}

TEST_F(SpillDifferentialTest, OrderByUniqueKeys) {
  // seq is unique, so the spilled merge order is fully determined and must
  // equal the in-memory sort row for row.
  ExpectSpillMatchesInMemory(
      "SELECT seq, k_int, v_int FROM mem.raw.facts ORDER BY seq DESC",
      /*ordered=*/true);
}

TEST_F(SpillDifferentialTest, OrderByWithLimit) {
  // ORDER BY + LIMIT keeps only the top rows in memory, so a 64 KiB cap is
  // routinely satisfied without revoking — the differential check still must
  // hold, spilling is optional.
  ExpectSpillMatchesInMemory(
      "SELECT seq, v_double FROM mem.raw.facts ORDER BY seq LIMIT 137",
      /*ordered=*/true, /*require_spill=*/false);
}

TEST_F(SpillDifferentialTest, SpillDisabledFailsClassified) {
  Session session;
  session.properties["query_max_memory"] = "65536";
  session.properties["spill_enabled"] = "false";
  auto result = cluster_->Execute(
      "SELECT k_int, k_str, count(*), sum(v_int) FROM mem.raw.facts "
      "GROUP BY k_int, k_str",
      session);
  ASSERT_FALSE(result.ok()) << "64 KiB cap without spill must fail";
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
}

TEST_F(SpillDifferentialTest, ExplainAnalyzeShowsSpillStats) {
  Session session;
  session.properties["query_max_memory"] = "65536";
  auto result = cluster_->Execute(
      "EXPLAIN ANALYZE SELECT k_int, count(*), sum(v_int) FROM mem.raw.facts "
      "GROUP BY k_int",
      session);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->total_rows, 1);
  std::string text = result->Row(0)[0].ToString();
  EXPECT_NE(text.find("spilled:"), std::string::npos)
      << "EXPLAIN ANALYZE lost per-operator spill stats:\n"
      << text;
}

// Chaos: spill-area I/O faults must surface as classified errors (or be
// recovered by query restart), never crash, hang, or corrupt results.
TEST_F(SpillDifferentialTest, SpillWriteFaultSurfacesClean) {
  // The wide two-key group-by: a single task's hash table alone exceeds the
  // 64 KiB cap, so every run spills regardless of how task reservations
  // interleave (a narrower query can dodge the cap under unlucky
  // scheduling, and then the armed fault never fires).
  const std::string sql =
      "SELECT k_int, k_str, count(*), sum(v_int) FROM mem.raw.facts "
      "GROUP BY k_int, k_str";
  Session tight;
  tight.properties["query_max_memory"] = "65536";
  auto reference = cluster_->Execute(sql, tight);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_GT(reference->exec_metrics["spill.run.written"], 0)
      << "reference run under the tight cap must itself spill";
  const auto expected = SortedRows(*reference);

  FaultInjector::Global().ArmScripted("spill.write", {1},
                                      StatusCode::kIoError);
  auto faulted = cluster_->Execute(sql, tight);
  FaultInjector::Global().Reset();
  ASSERT_FALSE(faulted.ok()) << "first spill write was scripted to fail";
  EXPECT_TRUE(IsRetryableStatus(faulted.status()) ||
              faulted.status().code() == StatusCode::kResourceExhausted)
      << faulted.status().ToString();

  // Probabilistic chaos over both spill points: identical rows or a
  // classified failure, across several seeds.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    FaultInjector::Global().Seed(seed);
    FaultInjector::Global().ArmProbabilistic("spill.write", 0.05,
                                             StatusCode::kIoError);
    FaultInjector::Global().ArmProbabilistic("spill.read", 0.05,
                                             StatusCode::kIoError);
    auto chaotic = cluster_->Execute(sql, tight);
    if (chaotic.ok()) {
      EXPECT_EQ(SortedRows(*chaotic), expected) << "seed " << seed;
    } else {
      EXPECT_TRUE(IsRetryableStatus(chaotic.status()) ||
                  chaotic.status().code() == StatusCode::kResourceExhausted)
          << "seed " << seed << ": " << chaotic.status().ToString();
    }
  }
  FaultInjector::Global().Reset();

  // The spill area is healthy again afterwards.
  auto recovered = cluster_->Execute(sql, tight);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(SortedRows(*recovered), expected);
}

// Acceptance-scale spill: a group-by over ten million rows whose hash tables
// cannot fit the query cap completes by spilling and matches the uncapped
// run exactly. PRESTO_SPILL_SCALE_ROWS shrinks the table for sanitizer runs.
TEST(SpillLargeScaleTest, TenMillionRowGroupBySpillsAndMatches) {
  PrestoCluster cluster("spill-10m", 2, 2);
  auto memory = std::make_shared<MemoryConnector>();
  TypePtr facts_type = Type::Row({"k", "v"}, {Type::Bigint(), Type::Bigint()});
  ASSERT_TRUE(memory->CreateTable("raw", "big", facts_type).ok());
  uint64_t state = 7;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  int64_t kRows = 10'000'000;
  if (const char* env = std::getenv("PRESTO_SPILL_SCALE_ROWS")) {
    int64_t parsed = std::strtoll(env, nullptr, 10);
    if (parsed > 0) kRows = parsed;
  }
  constexpr size_t kPageRows = 250'000;
  for (int64_t done = 0; done < kRows; done += kPageRows) {
    std::vector<int64_t> k(kPageRows), v(kPageRows);
    for (size_t i = 0; i < kPageRows; ++i) {
      k[i] = static_cast<int64_t>(next() % 200'000);
      v[i] = static_cast<int64_t>(next() % 1000);
    }
    ASSERT_TRUE(memory
                    ->AppendPage("raw", "big",
                                 Page({MakeBigintVector(std::move(k)),
                                       MakeBigintVector(std::move(v))}))
                    .ok());
  }
  ASSERT_TRUE(cluster.catalogs().RegisterCatalog("mem", memory).ok());

  const std::string sql =
      "SELECT k, count(*), sum(v) FROM mem.raw.big GROUP BY k";
  auto reference = cluster.Execute(sql, Session());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  Session tight;
  tight.properties["query_max_memory"] = "4194304";  // 4 MiB across all tasks
  auto spilled = cluster.Execute(sql, tight);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  EXPECT_EQ(spilled->total_rows, reference->total_rows);
  EXPECT_EQ(SortedRows(*spilled), SortedRows(*reference));
  EXPECT_GT(spilled->exec_metrics.at("spill.run.written"), 0);
  EXPECT_GT(spilled->exec_metrics.at("spill.byte.written"), 0);
}

// Who is revoked: in a two-stage group-by the leaf partial aggregation (it
// reads the table) holds nearly all of the query's memory, while the final
// aggregation folds a few hundred thousand partial rows. A final chain whose
// reservation fails must not be the one that spills over and over: the
// memory arbiter revokes the largest state, and a spilled partial spills its
// remainders before its output phase instead of holding the cap through it.
// Over five runs the final node writes fewer runs than the leaf partial.
TEST(SpillAttributionTest, FinalAggregationWritesFewerRunsThanLeafPartial) {
  PrestoCluster cluster("spill-attribution", 2, 2);
  auto memory = std::make_shared<MemoryConnector>();
  ASSERT_TRUE(memory
                  ->CreateTable("raw", "t",
                                Type::Row({"k", "v"},
                                          {Type::Bigint(), Type::Bigint()}))
                  .ok());
  uint64_t state = 5;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  constexpr size_t kPageRows = 8192;
  for (int p = 0; p < 122; ++p) {  // ~1M rows, 100k keys
    std::vector<int64_t> k(kPageRows), v(kPageRows);
    for (size_t i = 0; i < kPageRows; ++i) {
      k[i] = static_cast<int64_t>(next() % 100'000);
      v[i] = static_cast<int64_t>(next() % 1000);
    }
    ASSERT_TRUE(memory
                    ->AppendPage("raw", "t",
                                 Page({MakeBigintVector(std::move(k)),
                                       MakeBigintVector(std::move(v))}))
                    .ok());
  }
  ASSERT_TRUE(cluster.catalogs().RegisterCatalog("mem", memory).ok());

  const std::string sql = "SELECT k, count(*), sum(v) FROM mem.raw.t GROUP BY k";
  auto reference = cluster.Execute(sql, Session());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  Session tight;
  tight.properties["query_max_memory"] = std::to_string(8 << 20);
  tight.properties["task_threads"] = "1";
  tight.properties["hash_partition_count"] = "2";
  tight.properties["spill_path"] = "/tmp/presto_spill_test";
  int64_t leaf_runs = 0, final_runs = 0;
  for (int run = 0; run < 5; ++run) {
    auto result = cluster.Execute(sql, tight);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(SortedRows(*result), SortedRows(*reference));
    int aggregations = 0;
    for (const auto& [node_id, op] : result->stats.operators) {
      if (op.operator_type != "HashAggregation") continue;
      ++aggregations;
      // The final node emits the result; the partial emits one row per
      // group per leaf task.
      (op.output_rows == result->total_rows ? final_runs : leaf_runs) +=
          op.spilled_runs;
    }
    ASSERT_EQ(aggregations, 2) << "expected a partial and a final node";
  }
  EXPECT_GT(leaf_runs, 0) << "the cap must make the partial spill";
  EXPECT_LT(final_runs, leaf_runs)
      << "the final aggregation wrote " << final_runs << " runs, the leaf "
      << "partial that holds the memory " << leaf_runs;
}

// A spilled aggregation whose runs all hold the same keys merges them in
// hash batches of a few hundred groups each. Its output still comes in full
// 4096-group pages: one leaf task spills at least eight runs over the same
// 12,288 keys and emits exactly three pages, with the in-memory rows.
TEST(SpillMergeTest, SpilledAggregationEmitsFullPages) {
  constexpr int64_t kKeys = 3 * 4096;
  constexpr int kPages = 12;
  PrestoCluster cluster("spill-pages", /*num_workers=*/1, 2);
  auto memory = std::make_shared<MemoryConnector>();
  ASSERT_TRUE(memory
                  ->CreateTable("raw", "t",
                                Type::Row({"k", "v"},
                                          {Type::Bigint(), Type::Bigint()}))
                  .ok());
  for (int p = 0; p < kPages; ++p) {
    // Every page holds every key once, in a different order.
    std::vector<int64_t> k(kKeys), v(kKeys);
    for (int64_t i = 0; i < kKeys; ++i) {
      k[i] = (i * 7919 + p * 131) % kKeys;
      v[i] = p * kKeys + i;
    }
    ASSERT_TRUE(memory
                    ->AppendPage("raw", "t",
                                 Page({MakeBigintVector(std::move(k)),
                                       MakeBigintVector(std::move(v))}))
                    .ok());
  }
  ASSERT_TRUE(cluster.catalogs().RegisterCatalog("mem", memory).ok());

  const std::string sql = "SELECT k, count(*), sum(v) FROM mem.raw.t GROUP BY k";
  auto reference = cluster.Execute(sql, Session());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  Session tight;
  tight.properties["query_max_memory"] = "65536";
  tight.properties["task_threads"] = "1";
  tight.properties["hash_partition_count"] = "1";
  tight.properties["spill_path"] = "/tmp/presto_spill_test";
  auto result = cluster.Execute(sql, tight);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SortedRows(*result), SortedRows(*reference));
  const OperatorStats* partial = nullptr;
  for (const auto& [node_id, op] : result->stats.operators) {
    if (op.operator_type == "HashAggregation" &&
        op.input_rows == kKeys * kPages) {
      partial = &op;
    }
  }
  ASSERT_NE(partial, nullptr) << "no aggregation read the whole table";
  EXPECT_GE(partial->spilled_runs, 8);
  EXPECT_EQ(partial->output_rows, kKeys);
  EXPECT_EQ(partial->output_pages, (kKeys + 4095) / 4096);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

class AdmissionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CoordinatorOptions options;
    options.worker_memory_bytes = 16 << 20;
    options.admission_high_water = 0.5;  // queue above 8 MiB reserved
    cluster_ = std::make_unique<PrestoCluster>("admission", 1, 2, options);
    auto memory = std::make_shared<MemoryConnector>();
    ASSERT_TRUE(
        memory->CreateTable("raw", "t", Type::Row({"x"}, {Type::Bigint()}))
            .ok());
    ASSERT_TRUE(
        memory->AppendPage("raw", "t", Page({MakeBigintVector({1, 2, 3})}))
            .ok());
    ASSERT_TRUE(cluster_->catalogs().RegisterCatalog("mem", memory).ok());
  }

  std::unique_ptr<PrestoCluster> cluster_;
};

TEST_F(AdmissionTest, QueriesQueueUntilMemoryDrains) {
  Coordinator& coordinator = cluster_->coordinator();
  // Simulate other queries holding worker memory above the high-water mark.
  ASSERT_TRUE(coordinator.worker_pool()->Reserve(10 << 20).ok());

  std::atomic<bool> done{false};
  std::thread client([&] {
    auto result = cluster_->Execute("SELECT sum(x) FROM mem.raw.t", Session());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    done.store(true);
  });

  // The query must park in the admission queue, journaling query_queued.
  bool queued = false;
  for (int i = 0; i < 500 && !queued; ++i) {
    for (const QueryEvent& event : coordinator.journal().Events()) {
      if (event.kind == QueryEventKind::kQueued) queued = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(queued) << "query never queued under memory pressure";
  EXPECT_FALSE(done.load()) << "query ran while the worker was over the mark";

  // Draining the pressure admits it.
  coordinator.worker_pool()->Release(10 << 20);
  client.join();
  EXPECT_TRUE(done.load());
  bool admitted = false;
  for (const QueryEvent& event : coordinator.journal().Events()) {
    if (event.kind == QueryEventKind::kAdmitted) admitted = true;
  }
  EXPECT_TRUE(admitted);
  EXPECT_GE(coordinator.metrics().Get("query.queued"), 1);
}

TEST_F(AdmissionTest, FullQueueFailsImmediately) {
  Coordinator& coordinator = cluster_->coordinator();
  ASSERT_TRUE(coordinator.worker_pool()->Reserve(10 << 20).ok());

  Session session;
  session.properties["query_queue_max"] = "0";
  auto result = cluster_->Execute("SELECT sum(x) FROM mem.raw.t", session);
  ASSERT_FALSE(result.ok());
  // Load shed: a full admission queue is kRejected (overload), distinct from
  // kResourceExhausted (out of memory) so the gateway backs off instead of
  // blind-failing-over.
  EXPECT_EQ(result.status().code(), StatusCode::kRejected)
      << result.status().ToString();

  coordinator.worker_pool()->Release(10 << 20);
  auto ok_again = cluster_->Execute("SELECT sum(x) FROM mem.raw.t", session);
  EXPECT_TRUE(ok_again.ok()) << ok_again.status().ToString();
}

TEST_F(AdmissionTest, QueuedQueryHonorsDeadline) {
  Coordinator& coordinator = cluster_->coordinator();
  ASSERT_TRUE(coordinator.worker_pool()->Reserve(10 << 20).ok());

  Session session;
  session.properties["query_timeout_millis"] = "50";
  auto result = cluster_->Execute("SELECT sum(x) FROM mem.raw.t", session);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("query deadline exceeded"),
            std::string::npos)
      << result.status().ToString();
  coordinator.worker_pool()->Release(10 << 20);
}

// ---------------------------------------------------------------------------
// Low-memory killer
// ---------------------------------------------------------------------------

TEST(LowMemoryKillerTest, KillsOnlyTheLargestQuery) {
  CoordinatorOptions options;
  options.worker_memory_bytes = 48 << 20;
  // The small-query loop below journals several events per iteration for as
  // long as the hog lives; under TSan that is tens of thousands of events,
  // and the default 1024-entry ring would evict the hog's kill event before
  // the victim scan at the end.
  options.journal_capacity = 1 << 18;
  PrestoCluster cluster("killer", 2, 2, options);
  auto memory = std::make_shared<MemoryConnector>();
  TypePtr hog_type = Type::Row({"k", "v"}, {Type::Bigint(), Type::Bigint()});
  ASSERT_TRUE(memory->CreateTable("raw", "hog", hog_type).ok());
  uint64_t state = 11;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int p = 0; p < 8; ++p) {
    constexpr size_t n = 250'000;
    std::vector<int64_t> k(n), v(n);
    for (size_t i = 0; i < n; ++i) {
      // Nearly all-distinct keys: the hash tables must hold ~2M groups,
      // far beyond the 48 MiB worker budget.
      k[i] = static_cast<int64_t>(p) * n + static_cast<int64_t>(i);
      v[i] = static_cast<int64_t>(next() % 100);
    }
    ASSERT_TRUE(memory
                    ->AppendPage("raw", "hog",
                                 Page({MakeBigintVector(std::move(k)),
                                       MakeBigintVector(std::move(v))}))
                    .ok());
  }
  ASSERT_TRUE(memory->CreateTable("raw", "small",
                                  Type::Row({"x"}, {Type::Bigint()}))
                  .ok());
  ASSERT_TRUE(
      memory->AppendPage("raw", "small", Page({MakeBigintVector({1, 2, 3})}))
          .ok());
  ASSERT_TRUE(cluster.catalogs().RegisterCatalog("mem", memory).ok());

  // The hog: a huge-cardinality group-by whose own cap exceeds the worker
  // budget, with spill off — its only exits are the worker cap and the
  // killer.
  Session hog_session;
  hog_session.properties["query_max_memory"] =
      std::to_string(1LL << 30);
  hog_session.properties["spill_enabled"] = "false";
  std::atomic<bool> hog_done{false};
  Status hog_status;
  std::thread hog([&] {
    auto result = cluster.Execute(
        "SELECT k, count(*), sum(v) FROM mem.raw.hog GROUP BY k", hog_session);
    hog_status = result.ok() ? Status::OK() : result.status();
    hog_done.store(true);
  });

  // Small queries run throughout; every one must survive (queueing briefly
  // at admission is fine, dying is not).
  std::vector<Status> small_statuses;
  while (!hog_done.load()) {
    auto small = cluster.Execute("SELECT sum(x) FROM mem.raw.small", Session());
    small_statuses.push_back(small.ok() ? Status::OK() : small.status());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  hog.join();

  ASSERT_FALSE(hog_status.ok()) << "the hog cannot fit the worker";
  EXPECT_EQ(hog_status.code(), StatusCode::kResourceExhausted)
      << hog_status.ToString();
  EXPECT_NE(hog_status.message().find("killed"), std::string::npos)
      << hog_status.ToString();
  for (const Status& status : small_statuses) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_GE(cluster.coordinator().metrics().Get("query.killed.memory"), 1);

  // The journal names the victim; no small query was ever the victim.
  int64_t victims = 0;
  int64_t hog_victim_events = 0;
  for (const QueryEvent& event : cluster.coordinator().journal().Events()) {
    if (event.kind != QueryEventKind::kKilledMemory) continue;
    ++victims;
    // The hog failed, so its id never landed in a QueryResult; recover it
    // from the kFailed journal event instead.
    for (const QueryEvent& failed : cluster.coordinator().journal().Events()) {
      if (failed.kind == QueryEventKind::kFailed &&
          failed.query_id == event.query_id) {
        ++hog_victim_events;
      }
    }
  }
  EXPECT_GE(victims, 1);
  EXPECT_EQ(victims, hog_victim_events)
      << "a kill landed on a query that did not fail (i.e. not the hog)";

  // The worker recovers: the same hog query spills its way through when
  // allowed to.
  Session spilling = hog_session;
  spilling.properties["spill_enabled"] = "true";
  spilling.properties["query_max_memory"] = std::to_string(8 << 20);
  auto retry = cluster.Execute(
      "SELECT k, count(*), sum(v) FROM mem.raw.hog GROUP BY k", spilling);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

// ---------------------------------------------------------------------------
// End-to-end counters
// ---------------------------------------------------------------------------

TEST(MemoryCountersTest, ReservationsVisibleOnHappyPath) {
  PrestoCluster cluster("memory-counters", 1, 2);
  auto memory = std::make_shared<MemoryConnector>();
  ASSERT_TRUE(
      memory->CreateTable("raw", "t", Type::Row({"k", "v"},
                                                {Type::Bigint(), Type::Bigint()}))
          .ok());
  std::vector<int64_t> k(5000), v(5000);
  for (size_t i = 0; i < k.size(); ++i) {
    k[i] = static_cast<int64_t>(i % 100);
    v[i] = static_cast<int64_t>(i);
  }
  ASSERT_TRUE(memory
                  ->AppendPage("raw", "t",
                               Page({MakeBigintVector(std::move(k)),
                                     MakeBigintVector(std::move(v))}))
                  .ok());
  ASSERT_TRUE(cluster.catalogs().RegisterCatalog("mem", memory).ok());

  auto result = cluster.Execute(
      "SELECT k, count(*), sum(v) FROM mem.raw.t GROUP BY k", Session());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->exec_metrics.at("memory.query.peak_bytes"), 0);
  EXPECT_GT(cluster.coordinator().metrics().Get("memory.reserved.bytes"), 0);
  // All pools drain after the query: nothing left reserved on the worker.
  EXPECT_EQ(cluster.coordinator().worker_pool()->reserved_bytes(), 0);

  // memory_accounting=false switches the whole subsystem off.
  Session off;
  off.properties["memory_accounting"] = "false";
  auto unaccounted = cluster.Execute(
      "SELECT k, count(*), sum(v) FROM mem.raw.t GROUP BY k", off);
  ASSERT_TRUE(unaccounted.ok()) << unaccounted.status().ToString();
  EXPECT_EQ(unaccounted->exec_metrics.count("memory.query.peak_bytes"), 0u);
}

// A 1 %-selective filter feeding ORDER BY: the sort holds only the rows
// that passed. Were Project to forward the filter's sparse selections, every
// held page would pin, and be charged for, its whole input page, and the
// query's peak would come close to that of the unfiltered sort.
TEST(MemoryCountersTest, SelectiveFilterIntoOrderByReservesOnlyItsRows) {
  PrestoCluster cluster("memory-selective-sort", 1, 2);
  auto memory = std::make_shared<MemoryConnector>();
  ASSERT_TRUE(
      memory->CreateTable("raw", "t", Type::Row({"k", "v"},
                                                {Type::Bigint(), Type::Bigint()}))
          .ok());
  constexpr int64_t kPageRows = 1 << 16;
  for (int p = 0; p < 8; ++p) {
    std::vector<int64_t> k(kPageRows), v(kPageRows);
    for (int64_t i = 0; i < kPageRows; ++i) {
      k[i] = i % 7;
      v[i] = (i * 7919 + p) % 100;
    }
    ASSERT_TRUE(memory
                    ->AppendPage("raw", "t",
                                 Page({MakeBigintVector(std::move(k)),
                                       MakeBigintVector(std::move(v))}))
                    .ok());
  }
  ASSERT_TRUE(cluster.catalogs().RegisterCatalog("mem", memory).ok());

  auto peak = [&](const std::string& where) -> int64_t {
    auto result = cluster.Execute(
        "SELECT v, k + 1 AS k1 FROM mem.raw.t WHERE " + where + " ORDER BY v",
        Session());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return -1;
    return result->exec_metrics.at("memory.query.peak_bytes");
  };
  const int64_t all = peak("v >= 0");
  const int64_t selective = peak("v = 3");
  RecordProperty("peak_bytes_all", std::to_string(all));
  RecordProperty("peak_bytes_selective", std::to_string(selective));
  EXPECT_GT(all, 0);
  EXPECT_GT(selective, 0);
  EXPECT_LT(selective * 4, all) << "selective " << selective << " all " << all;
}

// Two coordinators in one process share a spill_path and both number their
// queries from 1. Each must spill under its own directory, so neither reads
// or deletes the other's run files, and each removes that directory when it
// is destroyed. The wide two-key group-by runs four times on each cluster at
// once: every run must return the rows of an unconstrained run and must have
// spilled, and the area must be empty once both clusters are gone.
TEST(SpillIsolationTest, TwoClustersShareSpillPathConcurrently) {
  const std::string counter = "spill.run.written";
  Session shared;
  shared.properties["query_max_memory"] = "65536";
  const std::string spill_path = ::testing::TempDir() +
                                 "presto_spill_isolation_" +
                                 std::to_string(::getpid());
  shared.properties["spill_path"] = spill_path;
  const std::string sql =
      "SELECT k_int, k_str, count(*), sum(v_int) FROM mem.raw.facts "
      "GROUP BY k_int, k_str";
  std::vector<std::unique_ptr<PrestoCluster>> clusters;
  for (int c = 0; c < 2; ++c) {
    clusters.push_back(std::make_unique<PrestoCluster>(
        "spill-isolation-" + std::to_string(c), 2, 2));
    auto memory = std::make_shared<MemoryConnector>();
    LoadRandomFacts(memory.get(), 20, 400);
    ASSERT_TRUE(
        clusters.back()->catalogs().RegisterCatalog("mem", memory).ok());
  }
  auto reference = clusters[0]->Execute(sql, Session());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::vector<std::string> expected = SortedRows(*reference);

  std::vector<std::vector<std::string>> failures(clusters.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clusters.size(); ++c) {
    threads.emplace_back([&, c] {
      for (int run = 0; run < 4; ++run) {
        auto result = clusters[c]->Execute(sql, shared);
        std::string label = "run " + std::to_string(run) + ": ";
        if (!result.ok()) {
          failures[c].push_back(label + result.status().ToString());
        } else if (result->exec_metrics[counter] == 0) {
          failures[c].push_back(label + counter + " stayed 0");
        } else if (SortedRows(*result) != expected) {
          failures[c].push_back(label + "returned wrong rows");
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t c = 0; c < clusters.size(); ++c) {
    for (const std::string& failure : failures[c]) {
      ADD_FAILURE() << "cluster " << c << " " << failure;
    }
  }

  clusters.clear();
  EXPECT_TRUE(!std::filesystem::exists(spill_path) ||
              std::filesystem::is_empty(spill_path))
      << "spill files left behind under " << spill_path;
  std::error_code ignored;
  std::filesystem::remove_all(spill_path, ignored);
}

// A coordinator's first spill into an area sweeps the marked "<pid>-<seq>"
// roots of processes that died without removing them. A live process's root,
// a root marked from another host or pid namespace, and unmarked directories
// (even ones named like a root) are left alone.
TEST(SpillRootSweepTest, RemovesOnlyRootsOfDeadProcesses) {
  const std::string spill_path = ::testing::TempDir() + "presto_spill_sweep_" +
                                 std::to_string(::getpid());
  std::error_code ignored;
  std::filesystem::remove_all(spill_path, ignored);
  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);  // reaped: the pid is dead

  const std::string dead = spill_path + "/" + std::to_string(child) + "-1";
  const std::string live =
      spill_path + "/" + std::to_string(::getpid()) + "-999";
  const std::string unmarked = spill_path + "/" + std::to_string(child) + "-2";
  const std::string foreign = spill_path + "/" + std::to_string(child) + "-3";
  const std::string dated = spill_path + "/2024-06";
  const std::string other = spill_path + "/not-a-root";
  Coordinator::MarkSpillRoot(dead, child);
  std::filesystem::create_directories(dead + "/query-1");
  std::ofstream(dead + "/query-1/run-0-0.spill") << "stale run";
  Coordinator::MarkSpillRoot(live, ::getpid());
  std::filesystem::create_directories(unmarked);
  std::filesystem::create_directories(foreign);
  std::ofstream(foreign + "/.presto_spill_root")
      << child << " another-boot/pid:[1]\n";
  std::filesystem::create_directories(dated);
  std::filesystem::create_directories(other);

  {
    PrestoCluster cluster("spill-sweep", 2, 2);
    auto memory = std::make_shared<MemoryConnector>();
    LoadRandomFacts(memory.get(), 20, 400);
    ASSERT_TRUE(cluster.catalogs().RegisterCatalog("mem", memory).ok());
    Session tight;
    tight.properties["query_max_memory"] = "65536";
    tight.properties["spill_path"] = spill_path;
    auto result = cluster.Execute(
        "SELECT k_int, k_str, count(*), sum(v_int) FROM mem.raw.facts "
        "GROUP BY k_int, k_str",
        tight);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->exec_metrics["spill.run.written"], 0);
    EXPECT_FALSE(std::filesystem::exists(dead)) << "dead root not swept";
    EXPECT_TRUE(std::filesystem::exists(live)) << "live root swept";
    EXPECT_TRUE(std::filesystem::exists(unmarked)) << "unmarked root swept";
    EXPECT_TRUE(std::filesystem::exists(foreign))
        << "root of another pid namespace swept";
    EXPECT_TRUE(std::filesystem::exists(dated)) << "dated directory swept";
    EXPECT_TRUE(std::filesystem::exists(other)) << "other directory swept";
  }
  std::filesystem::remove_all(spill_path, ignored);
}

}  // namespace
}  // namespace presto
