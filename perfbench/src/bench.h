#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "storage/types.h"

namespace perfbench {

using adaptidx::RowId;
using adaptidx::Value;

/// Rows of the served column: a random permutation of [0, kRows), the
/// paper's unique-integer data set. 32 MB of values (48 MB as a cracker
/// array): 16x a 2 MB per-core L2, a third of the 105 MB shared L3 of the
/// 4-vCPU Xeon the sizes were chosen on.
constexpr size_t kRows = 4'000'000;
/// A run holds at least this many independent rounds; every reported value
/// is the median of the rounds.
constexpr size_t kMinRounds = 3;
/// On a slowed-down host a run stops starting rounds once it has taken
/// this many times its `--seconds` (after kMinRounds), so that its wall
/// time stays bounded; the median is then over fewer rounds.
constexpr double kMaxWallFactor = 2.0;
/// A round during which the hypervisor stole more than this share of the
/// guest's CPU time measured the host, not the program: it is repeated, at
/// most once per four rounds of a run (then the least disturbed are kept).
constexpr double kMaxStealFrac = 0.02;
/// Clean stops and restarts from disk at the end of each round; every one
/// is timed until its first query is answered, then checked.
constexpr size_t kRestartsPerRound = 3;
/// 0.01% selectivity.
constexpr Value kRangeWidth = static_cast<Value>(kRows / 10000);
/// The fixed dashboard ranges of hot_wire and durable_mix.
constexpr size_t kHotRanges = 64;
/// Commits of the single-connection commit probe that closes each round of
/// the read-only workloads (so write latency is measured on every workload;
/// 2000 samples put 100 above the p95).
constexpr size_t kProbeCommits = 2000;

/// One operation of a generated stream.
struct Op {
  enum class Kind : uint8_t { kCount, kSum, kInsert, kDelete };
  Kind kind = Kind::kCount;
  Value lo = 0;  ///< read: range start; insert: the value
  Value hi = 0;  ///< read: range end (exclusive)
  /// Read: hot-range index (kNoSlot for a cold range); delete: ordinal of
  /// the insert of this stream it removes.
  uint32_t slot = 0;

  bool is_read() const { return kind == Kind::kCount || kind == Kind::kSum; }
};

constexpr uint32_t kNoSlot = UINT32_MAX;

/// What one workload runs; see `WorkloadByName` for the three.
struct Workload {
  std::string name;
  size_t connections = 0;
  /// Fixed work per round, split evenly across connections; a faster
  /// program finishes the same work sooner.
  size_t ops_per_round = 0;
  /// A run holds one round per this many seconds of its `--seconds`
  /// budget. The workload whose rounds vary most gets the most rounds.
  double seconds_per_round = 1;
  bool hot = false;     ///< reads repeat the hot ranges
  bool writes = false;  ///< 20% inserts/deletes (3:1) inside the hot ranges
  /// Auto-checkpoint interval in commits (0 = none).
  uint64_t checkpoint_interval = 0;
};

/// Returns false for an unknown name.
bool WorkloadByName(const std::string& name, Workload* out);

/// Everything a round replays, generated from the seed alone.
struct Streams {
  std::vector<std::pair<Value, Value>> hot_ranges;
  std::vector<Op> warmup;                 ///< set-up ops (client 0)
  std::vector<std::vector<Op>> measured;  ///< one stream per connection
  std::vector<Op> probe;                  ///< commit probe (client 0)
  /// Per hot range: count and sum of every insert the streams make into
  /// it — a read racing the inserts sees at most base plus these.
  std::vector<uint64_t> max_extra_count;
  std::vector<int64_t> max_extra_sum;
};

Streams Generate(const Workload& w, uint64_t seed, size_t ops_per_round);

/// Answers COUNT/SUM over a multiset of values from a sorted copy and its
/// prefix sums; independent of every index under test.
class Oracle {
 public:
  Oracle() = default;
  explicit Oracle(std::vector<Value> values);
  uint64_t Count(Value lo, Value hi) const;
  int64_t Sum(Value lo, Value hi) const;
  size_t size() const { return sorted_.size(); }

 private:
  std::pair<size_t, size_t> Bounds(Value lo, Value hi) const;
  std::vector<Value> sorted_;
  std::vector<int64_t> prefix_;  ///< prefix_[i] = sum of sorted_[0, i)
};

// ---- statistics --------------------------------------------------------

/// Nearest-rank percentile (p in [0, 1]) of `v`; sorts a copy.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

int64_t NowNs();

// ---- results -----------------------------------------------------------

/// A named metric with its unit, in output order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The last line of a run.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> wrong;  ///< first wrong answers, for stderr

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Wrong(const std::string& what);
};

std::string ToJson(const RunResult& r);

struct RunConfig {
  Workload workload;
  uint64_t seed = 1;
  int seconds = 10;
  std::string work_dir;    ///< the run's data dirs live under here
  std::string spans_path;  ///< traced run: where the spans go
};

/// The end-to-end run: rounds against the real server over loopback TCP.
RunResult RunEndToEnd(const RunConfig& cfg);

/// The traced run: the same op streams replayed at each in-process
/// boundary, plus the outside-in layer probes.
RunResult RunTraced(const RunConfig& cfg);

// ---- shared by both runs -------------------------------------------------

/// Rounds of a run of `cfg`.
size_t Rounds(const RunConfig& cfg);

/// The served configuration every workload uses: a cracking index behind
/// the differential layer with MVCC snapshot reads, durable in `data_dir`
/// under group commit (the default fsync policy).
adaptidx::server::ServerOptions ServeOptions(const Workload& w,
                                             const std::string& data_dir);

/// Connects and opens a snapshot-reads session.
adaptidx::Status ConnectClient(uint16_t port, adaptidx::server::Client* c);

/// An insert a stream made, by ordinal; deletes address it.
struct Acked {
  Value value = 0;
  RowId row_id = 0;
  bool live = false;
};

/// Runs `op` over the wire. Inserts record their ack in `inserts` (sized
/// by `InsertSlots`); deletes remove the insert they name.
adaptidx::Status ExecOnClient(adaptidx::server::Client* c, const Op& op,
                              std::vector<Acked>* inserts, uint64_t* count,
                              int64_t* sum);

/// Number of insert ordinals `ops` uses.
size_t InsertSlots(const std::vector<Op>& ops);

/// Checks read answers against the base oracle: exactly, or — while
/// `racing` inserts are in flight — within base plus the stream's inserts.
struct ReadChecker {
  const Oracle* base = nullptr;
  const Streams* streams = nullptr;
  bool racing = false;
  /// Empty when the answer is right; else a description.
  std::string Check(const Op& op, uint64_t count, int64_t sum) const;
};

/// One traced interval: a boundary crossing of one request, or a phase.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;      ///< index of the enclosing span, -1 for none
  uint64_t request_id = 0;  ///< (connection << 32) | op index
};

/// What one connection's replay of a stream saw.
struct ReplayOut {
  std::vector<double> read_us;
  std::vector<double> write_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> wrong;   ///< first wrong answers
  std::vector<std::string> errors;  ///< first failed ops (not answers)
  std::vector<Acked> inserts;       ///< acks by insert ordinal
};

/// Values of the inserts still live in `outs` (after quiescing).
std::vector<Value> LiveInserts(const std::vector<ReplayOut>& outs);

/// Closed loop over `ops`: each op is issued when the previous one
/// returned. `exec(op, &inserts, &count, &sum)` performs one op at the
/// boundary under test. Read answers go through `check` when given.
/// With `spans`, every op also leaves a span named `name`.
template <typename Exec>
void Replay(const std::vector<Op>& ops, const ReadChecker* check, Exec&& exec,
            ReplayOut* out, std::vector<Span>* spans = nullptr,
            const char* name = "", int64_t parent = -1,
            uint64_t request_base = 0) {
  if (out->inserts.size() < InsertSlots(ops)) {
    out->inserts.resize(InsertSlots(ops));
  }
  out->read_us.reserve(out->read_us.size() + ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    uint64_t count = 0;
    int64_t sum = 0;
    const int64_t t0 = NowNs();
    const adaptidx::Status s = exec(op, &out->inserts, &count, &sum);
    const int64_t t1 = NowNs();
    ++out->attempted;
    if (spans != nullptr) {
      spans->push_back(Span{name, t0, t1, parent, request_base + i});
    }
    if (!s.ok()) {
      ++out->failed;
      if (out->errors.size() < 5) out->errors.push_back(s.ToString());
      continue;
    }
    const double us = static_cast<double>(t1 - t0) / 1e3;
    if (op.is_read()) {
      out->read_us.push_back(us);
      if (check != nullptr) {
        std::string bad = check->Check(op, count, sum);
        if (!bad.empty() && out->wrong.size() < 5) {
          out->wrong.push_back(std::move(bad));
        }
      }
    } else {
      out->write_us.push_back(us);
    }
  }
}

/// Raw `fdatasync` latency p50 in microseconds of a small append in `dir`.
double FsyncFloorUs(const std::string& dir, size_t samples);

/// Share of all CPU time the hypervisor gave to other guests since boot
/// ("steal" in /proc/stat), as cumulative (steal, total) ticks; a round's
/// delta shows whether the host took CPUs away from it.
std::pair<uint64_t, uint64_t> StealTicks();

/// Host fingerprint line (JSON object) recorded with every result.
std::string HostFingerprint(const RunConfig& cfg, double fsync_floor_us);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
