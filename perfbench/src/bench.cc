#include "bench.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "util/rng.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

bool WorkloadByName(const std::string& name, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "cold_converge") {
    // A fresh index per round; uniform 0.01% ranges from 2 connections, so
    // cracking, the piece map and the piece latches do the work.
    w.connections = 2;
    w.ops_per_round = 3000;
    w.seconds_per_round = 1.5;
  } else if (name == "hot_wire") {
    // A converged index answering 64 repeated ranges: the wire, the server
    // and the Session front end do the work.
    w.connections = 4;
    w.ops_per_round = 72000;
    w.seconds_per_round = 5;
    w.hot = true;
  } else if (name == "durable_mix") {
    // hot_wire's reads plus 20% durable writes into the same ranges:
    // the differential layer, MVCC, the WAL, checkpoints and recovery.
    w.connections = 3;
    w.ops_per_round = 51000;
    w.seconds_per_round = 3;
    w.hot = true;
    w.writes = true;
    w.checkpoint_interval = 1500;
  } else {
    return false;
  }
  *out = w;
  return true;
}

size_t Rounds(const RunConfig& cfg) {
  return std::max<size_t>(
      kMinRounds,
      static_cast<size_t>(cfg.seconds / cfg.workload.seconds_per_round));
}

namespace {

Op Read(adaptidx::Rng* rng, Value lo, Value hi, uint32_t slot) {
  Op op;
  op.kind = (rng->Next() & 1) ? Op::Kind::kCount : Op::Kind::kSum;
  op.lo = lo;
  op.hi = hi;
  op.slot = slot;
  return op;
}

}  // namespace

Streams Generate(const Workload& w, uint64_t seed, size_t ops_per_round) {
  Streams s;
  adaptidx::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  const Value max_lo = static_cast<Value>(kRows) - kRangeWidth;
  for (size_t r = 0; r < kHotRanges; ++r) {
    const Value lo = rng.UniformRange(0, max_lo + 1);
    s.hot_ranges.emplace_back(lo, lo + kRangeWidth);
  }
  s.max_extra_count.assign(kHotRanges, 0);
  s.max_extra_sum.assign(kHotRanges, 0);

  if (w.hot) {
    // Crack every hot range so the measured phase finds them converged.
    for (uint32_t r = 0; r < kHotRanges; ++r) {
      Op op = Read(&rng, s.hot_ranges[r].first, s.hot_ranges[r].second, r);
      op.kind = Op::Kind::kCount;
      s.warmup.push_back(op);
      op.kind = Op::Kind::kSum;
      s.warmup.push_back(op);
    }
  } else {
    // Materializes the cracker array (lazy set-up) without cracking: the
    // full domain needs no bound.
    Op op;
    op.kind = Op::Kind::kCount;
    op.lo = 0;
    op.hi = static_cast<Value>(kRows);
    op.slot = kNoSlot;
    s.warmup.push_back(op);
  }

  const size_t per_conn = std::max<size_t>(1, ops_per_round / w.connections);
  s.measured.resize(w.connections);
  for (size_t c = 0; c < w.connections; ++c) {
    adaptidx::Rng crng(seed * 1000003 + 7919 * (c + 1));
    std::vector<Op>& ops = s.measured[c];
    ops.reserve(per_conn);
    std::vector<uint32_t> live;  // ordinals of this stream's live inserts
    uint32_t inserts = 0;
    size_t next_hot = c * kHotRanges / w.connections;
    for (size_t i = 0; i < per_conn; ++i) {
      if (w.writes && crng.NextDouble() < 0.2) {
        Op op;
        if (!live.empty() && crng.NextDouble() < 0.25) {
          const size_t pick = crng.Uniform(live.size());
          op.kind = Op::Kind::kDelete;
          op.slot = live[pick];
          live[pick] = live.back();
          live.pop_back();
        } else {
          const auto& range = s.hot_ranges[crng.Uniform(kHotRanges)];
          op.kind = Op::Kind::kInsert;
          op.lo = crng.UniformRange(range.first, range.second);
          op.slot = inserts;
          live.push_back(inserts++);
          for (size_t r = 0; r < kHotRanges; ++r) {
            if (op.lo >= s.hot_ranges[r].first &&
                op.lo < s.hot_ranges[r].second) {
              ++s.max_extra_count[r];
              s.max_extra_sum[r] += op.lo;
            }
          }
        }
        ops.push_back(op);
      } else if (w.hot) {
        const uint32_t r = static_cast<uint32_t>(next_hot++ % kHotRanges);
        ops.push_back(Read(&crng, s.hot_ranges[r].first,
                           s.hot_ranges[r].second, r));
      } else {
        const Value lo = crng.UniformRange(0, max_lo + 1);
        ops.push_back(Read(&crng, lo, lo + kRangeWidth, kNoSlot));
      }
    }
  }

  if (!w.writes) {
    // Insert-then-delete pairs: net zero, so read answers keep their base
    // oracle through the restart.
    for (uint32_t i = 0; i < kProbeCommits / 2; ++i) {
      Op ins;
      ins.kind = Op::Kind::kInsert;
      ins.lo = rng.UniformRange(0, static_cast<Value>(kRows));
      ins.slot = i;
      Op del;
      del.kind = Op::Kind::kDelete;
      del.slot = i;
      s.probe.push_back(ins);
      s.probe.push_back(del);
    }
  }
  return s;
}

Oracle::Oracle(std::vector<Value> values) : sorted_(std::move(values)) {
  std::sort(sorted_.begin(), sorted_.end());
  prefix_.resize(sorted_.size() + 1);
  prefix_[0] = 0;
  for (size_t i = 0; i < sorted_.size(); ++i) {
    prefix_[i + 1] = prefix_[i] + sorted_[i];
  }
}

std::pair<size_t, size_t> Oracle::Bounds(Value lo, Value hi) const {
  if (hi <= lo) return {0, 0};
  const size_t a = static_cast<size_t>(
      std::lower_bound(sorted_.begin(), sorted_.end(), lo) - sorted_.begin());
  const size_t b = static_cast<size_t>(
      std::lower_bound(sorted_.begin(), sorted_.end(), hi) - sorted_.begin());
  return {a, b};
}

uint64_t Oracle::Count(Value lo, Value hi) const {
  const auto [a, b] = Bounds(lo, hi);
  return b - a;
}

int64_t Oracle::Sum(Value lo, Value hi) const {
  const auto [a, b] = Bounds(lo, hi);
  return prefix_[b] - prefix_[a];
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RunResult::Wrong(const std::string& what) {
  correct = false;
  if (wrong.size() < 20) wrong.push_back(what);
}

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

std::string ToJson(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + Escape(m.name) + "\": {\"value\": " + Number(m.value) +
           ", \"unit\": \"" + Escape(m.unit) + "\"}";
  }
  out += "}}";
  return out;
}

adaptidx::server::ServerOptions ServeOptions(const Workload& w,
                                             const std::string& data_dir) {
  adaptidx::server::ServerOptions o;
  o.index_config.snapshot_reads = true;
  o.durability.data_dir = data_dir;
  o.durability.fsync_policy = adaptidx::FsyncPolicy::kGroup;
  o.durability.checkpoint_interval = w.checkpoint_interval;
  return o;
}

adaptidx::Status ConnectClient(uint16_t port, adaptidx::server::Client* c) {
  adaptidx::Status s = c->Connect("127.0.0.1", port);
  if (!s.ok()) return s;
  return c->OpenSession(/*snapshot_reads=*/true);
}

adaptidx::Status ExecOnClient(adaptidx::server::Client* c, const Op& op,
                              std::vector<Acked>* inserts, uint64_t* count,
                              int64_t* sum) {
  switch (op.kind) {
    case Op::Kind::kCount:
      return c->Count(op.lo, op.hi, count);
    case Op::Kind::kSum:
      return c->Sum(op.lo, op.hi, sum);
    case Op::Kind::kInsert: {
      RowId row_id = 0;
      adaptidx::Status s = c->Insert(op.lo, &row_id);
      if (s.ok()) (*inserts)[op.slot] = Acked{op.lo, row_id, true};
      return s;
    }
    case Op::Kind::kDelete: {
      Acked& a = (*inserts)[op.slot];
      if (!a.live) return adaptidx::Status::Aborted("insert not acknowledged");
      adaptidx::Status s = c->Delete(a.value, a.row_id);
      if (s.ok()) a.live = false;
      return s;
    }
  }
  return adaptidx::Status::InvalidArgument("unknown op");
}

std::vector<Value> LiveInserts(const std::vector<ReplayOut>& outs) {
  std::vector<Value> live;
  for (const ReplayOut& o : outs) {
    for (const Acked& a : o.inserts) {
      if (a.live) live.push_back(a.value);
    }
  }
  return live;
}

size_t InsertSlots(const std::vector<Op>& ops) {
  size_t n = 0;
  for (const Op& op : ops) {
    if (op.kind == Op::Kind::kInsert) n = std::max<size_t>(n, op.slot + 1);
  }
  return n;
}

std::string ReadChecker::Check(const Op& op, uint64_t count,
                               int64_t sum) const {
  const bool is_count = op.kind == Op::Kind::kCount;
  const int64_t got = is_count ? static_cast<int64_t>(count) : sum;
  const int64_t want =
      is_count ? static_cast<int64_t>(base->Count(op.lo, op.hi))
               : base->Sum(op.lo, op.hi);
  int64_t most = want;
  if (racing && op.slot != kNoSlot) {
    most += is_count
                ? static_cast<int64_t>(streams->max_extra_count[op.slot])
                : streams->max_extra_sum[op.slot];
  }
  if (got >= want && got <= most) return "";
  return std::string(is_count ? "COUNT" : "SUM") + "[" +
         std::to_string(op.lo) + "," + std::to_string(op.hi) + ") = " +
         std::to_string(got) + ", expected " + std::to_string(want) +
         (most != want ? ".." + std::to_string(most) : "");
}

double FsyncFloorUs(const std::string& dir, size_t samples) {
  const std::string path = dir + "/fsync-probe";
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return 0;
  std::vector<double> us;
  char buf[64] = {1};
  for (size_t i = 0; i < samples; ++i) {
    if (::write(fd, buf, sizeof(buf)) != static_cast<ssize_t>(sizeof(buf))) {
      break;
    }
    const int64_t t0 = NowNs();
    if (::fdatasync(fd) != 0) break;
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  ::close(fd);
  ::unlink(path.c_str());
  return Median(us);
}

std::pair<uint64_t, uint64_t> StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t total = 0, steal = 0;
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

std::string HostFingerprint(const RunConfig& cfg, double fsync_floor_us) {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  std::string out = "{\"host\": {\"nproc\": ";
  out += std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu\": \"" + Escape(cpu) + "\"";
  out += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  out += ", \"fsync_policy\": \"group\"";
  out += ", \"fsync_floor_p50_us\": " + Number(fsync_floor_us);
  out += ", \"workload\": \"" + Escape(cfg.workload.name) + "\"";
  out += ", \"seed\": " + std::to_string(cfg.seed);
  out += ", \"seconds\": " + std::to_string(cfg.seconds);
  out += ", \"rows\": " + std::to_string(kRows);
  out += ", \"rounds\": " + std::to_string(Rounds(cfg));
  out += ", \"connections\": " + std::to_string(cfg.workload.connections);
  out += ", \"ops_per_round\": " + std::to_string(cfg.workload.ops_per_round);
  out += "}}";
  return out;
}

}  // namespace perfbench
