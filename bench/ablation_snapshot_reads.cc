/// \file Cost of the one read path of the differential-file layer
/// (Section 4.2/4.3): every `UpdatableIndex` read is a snapshot read that
/// folds the pinned delta-chain suffix over its consolidated base. Two
/// parts, each at a fixed amount of read work:
///
///  1. Read latency against delta-chain length. A converged cracking index
///     answers a fixed number of 0.01%-selectivity COUNTs over 64 ranges
///     with 0, 16, 650 and 2500 unconsolidated deltas (inserts and deletes
///     3:1, uniform over the domain) chained behind its base. Reported per
///     cell: read p50/p99.
///  2. A long scan beside the update stream. One thread runs a fixed
///     number of full-range SUMs over a plain-scan base (the longest read
///     the layer can produce) while one updater commits inserts until the
///     scans finish. Reported: the side-table writer's blocked wait (reads
///     never take that latch, so it should stay near zero) and the update
///     latency distribution.
///
/// Writes BENCH_snapshot.json (override with AI_BENCH_SNAPSHOT_JSON).
/// Scale: AI_BENCH_ROWS (1M), AI_BENCH_SNAPSHOT_READS (reads per chain
/// cell, 20000), AI_BENCH_SNAPSHOT_SCANS (scans beside the updater, 200).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/updatable_index.h"
#include "util/stopwatch.h"

namespace adaptidx {
namespace bench {
namespace {

constexpr size_t kRanges = 64;
constexpr size_t kChainLengths[] = {0, 16, 650, 2500};

double PercentileUs(std::vector<int64_t>* ns, double p) {
  if (ns->empty()) return 0;
  const size_t k = std::min(
      ns->size() - 1, static_cast<size_t>(p * static_cast<double>(ns->size())));
  std::nth_element(ns->begin(), ns->begin() + static_cast<long>(k), ns->end());
  return static_cast<double>((*ns)[k]) / 1e3;
}

struct ChainCell {
  size_t chain_length = 0;
  size_t pending = 0;
  double read_p50_us = 0;
  double read_p99_us = 0;
};

/// Part 1: one cell of the chain-length sweep.
ChainCell RunChainCell(const Column& column, size_t chain_length,
                       size_t reads) {
  IndexConfig config;
  // Never consolidate: the cell's chain length is exactly what it commits.
  config.snapshot_consolidate_min = size_t{1} << 30;
  config.snapshot_consolidate_max = size_t{1} << 30;
  UpdatableIndex index(column, config);
  const Value domain = static_cast<Value>(column.size());
  const Value width = std::max<Value>(1, domain / 10000);  // 0.01%

  Rng rng(chain_length + 7);
  std::vector<ValueRange> ranges;
  for (size_t i = 0; i < kRanges; ++i) {
    const Value lo = rng.UniformRange(0, domain - width);
    ranges.push_back(ValueRange{lo, lo + width});
  }
  QueryContext ctx;
  uint64_t count = 0;
  // Converge: crack every range's bounds before anything is timed.
  for (int pass = 0; pass < 3; ++pass) {
    for (const ValueRange& r : ranges) (void)index.RangeCount(r, &ctx, &count);
  }

  // Chain: inserts and base-row deletes 3:1, uniform over the domain.
  QueryContext uctx;
  size_t committed = 0;
  while (committed < chain_length) {
    uctx.txn_id = committed + 1;
    if (committed % 4 != 3) {
      if (index.Insert(rng.UniformRange(0, domain), &uctx).ok()) ++committed;
    } else {
      const RowId id = static_cast<RowId>(rng.Uniform(column.size()));
      if (index.Delete(column[id], id, &uctx).ok()) ++committed;
    }
  }

  std::vector<int64_t> ns;
  ns.reserve(reads);
  for (size_t i = 0; i < reads; ++i) {
    const int64_t t0 = NowNanos();
    (void)index.RangeCount(ranges[i % kRanges], &ctx, &count);
    ns.push_back(NowNanos() - t0);
  }
  ChainCell cell;
  cell.chain_length = index.snapshots().chain_length();
  cell.pending = index.pending_inserts() + index.pending_deletes();
  cell.read_p50_us = PercentileUs(&ns, 0.50);
  cell.read_p99_us = PercentileUs(&ns, 0.99);
  return cell;
}

struct ScanResult {
  size_t scans = 0;
  double scan_secs = 0;
  uint64_t updates = 0;
  double update_p50_us = 0;
  double update_p99_us = 0;
  double update_max_us = 0;
  double write_wait_ms = 0;  ///< side-table latch: writers blocked (total)
  uint64_t write_conflicts = 0;
  uint64_t read_acquires = 0;
  uint64_t snapshot_reads = 0;
  uint64_t max_epoch_lag = 0;
};

/// Part 2: a fixed number of full scans beside one updater.
ScanResult RunScanBesideWriter(const Column& column, size_t scans) {
  IndexConfig config;
  config.method = IndexMethod::kScan;
  UpdatableIndex index(column, config);
  const Value domain = static_cast<Value>(column.size());

  std::atomic<bool> stop{false};
  std::vector<int64_t> latencies;
  std::thread updater([&] {
    Rng rng(3);
    QueryContext ctx;
    for (uint64_t txn = 1; !stop.load(std::memory_order_acquire); ++txn) {
      ctx.txn_id = txn;
      const int64_t t0 = NowNanos();
      (void)index.Insert(rng.UniformRange(0, domain), &ctx);
      latencies.push_back(NowNanos() - t0);
    }
  });
  StopWatch wall;
  QueryContext ctx;
  for (size_t i = 0; i < scans; ++i) {
    int64_t sum = 0;
    (void)index.RangeSum(ValueRange{0, domain * 2}, &ctx, &sum);
  }
  const double scan_secs = wall.ElapsedSeconds();
  stop.store(true, std::memory_order_release);
  updater.join();

  ScanResult r;
  r.scans = scans;
  r.scan_secs = scan_secs;
  r.updates = latencies.size();
  r.update_max_us =
      latencies.empty()
          ? 0
          : static_cast<double>(
                *std::max_element(latencies.begin(), latencies.end())) /
                1e3;
  r.update_p50_us = PercentileUs(&latencies, 0.50);
  r.update_p99_us = PercentileUs(&latencies, 0.99);
  const LatchStats& ls = index.latch_stats();
  r.write_wait_ms = static_cast<double>(ls.write_wait_ns()) / 1e6;
  r.write_conflicts = ls.write_conflicts();
  r.read_acquires = ls.read_acquires();
  r.snapshot_reads = ls.snapshot_reads();
  r.max_epoch_lag = ls.snapshot_max_epoch_lag();
  return r;
}

void Run() {
  const size_t rows = EnvSize("AI_BENCH_ROWS", 1000000);
  const size_t reads = EnvSize("AI_BENCH_SNAPSHOT_READS", 20000);
  const size_t scans = EnvSize("AI_BENCH_SNAPSHOT_SCANS", 200);
  PrintHeader("Ablation: the snapshot read path (fold cost vs chain length, "
              "long scan beside an updater)",
              "rows=" + std::to_string(rows) + " reads/cell=" +
                  std::to_string(reads) + " ranges=64 sel=0.01% scans=" +
                  std::to_string(scans) + " updaters=1");

  Column column = MakeUniqueRandomColumn(rows);
  std::vector<ChainCell> cells;
  std::printf("\n%12s %9s %12s %12s\n", "chain_len", "pending", "read_p50_us",
              "read_p99_us");
  for (size_t len : kChainLengths) {
    cells.push_back(RunChainCell(column, len, reads));
    const ChainCell& c = cells.back();
    std::printf("%12zu %9zu %12.3f %12.3f\n", c.chain_length, c.pending,
                c.read_p50_us, c.read_p99_us);
  }

  const ScanResult s = RunScanBesideWriter(column, scans);
  std::printf(
      "\nscan beside updater: %zu scans in %.3f s, %llu updates, update "
      "p50/p99/max %.1f/%.1f/%.1f us, side-table writer blocked-wait "
      "%.3f ms, read acquires %llu\n",
      s.scans, s.scan_secs, static_cast<unsigned long long>(s.updates),
      s.update_p50_us, s.update_p99_us, s.update_max_us, s.write_wait_ms,
      static_cast<unsigned long long>(s.read_acquires));

  const char* json_env = std::getenv("AI_BENCH_SNAPSHOT_JSON");
  const std::string json_path = json_env != nullptr && *json_env != '\0'
                                    ? json_env
                                    : "BENCH_snapshot.json";
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"ablation_snapshot_reads\",\n"
               "  \"rows\": %zu,\n  \"hardware_threads\": %u,\n"
               "  \"reads_per_cell\": %zu,\n  \"ranges\": %zu,\n"
               "  \"selectivity\": 0.0001,\n  \"chain_cells\": [\n",
               rows, std::thread::hardware_concurrency(), reads, kRanges);
  for (size_t i = 0; i < cells.size(); ++i) {
    const ChainCell& c = cells[i];
    std::fprintf(f,
                 "    {\"chain_length\": %zu, \"pending\": %zu, "
                 "\"read_p50_us\": %.3f, \"read_p99_us\": %.3f}%s\n",
                 c.chain_length, c.pending, c.read_p50_us, c.read_p99_us,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(
      f,
      "  ],\n  \"scan_beside_writer\": {\"scans\": %zu, \"scan_secs\": %.6f, "
      "\"updates\": %llu, \"update_p50_us\": %.3f, \"update_p99_us\": %.3f, "
      "\"update_max_us\": %.3f, \"write_wait_ms\": %.4f, "
      "\"write_conflicts\": %llu, \"read_acquires\": %llu, "
      "\"snapshot_reads\": %llu, \"max_epoch_lag\": %llu}\n}\n",
      s.scans, s.scan_secs, static_cast<unsigned long long>(s.updates),
      s.update_p50_us, s.update_p99_us, s.update_max_us, s.write_wait_ms,
      static_cast<unsigned long long>(s.write_conflicts),
      static_cast<unsigned long long>(s.read_acquires),
      static_cast<unsigned long long>(s.snapshot_reads),
      static_cast<unsigned long long>(s.max_epoch_lag));
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
}

}  // namespace
}  // namespace bench
}  // namespace adaptidx

int main() {
  adaptidx::bench::Run();
  return 0;
}
