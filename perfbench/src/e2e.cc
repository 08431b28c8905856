// The end-to-end run: every round sets up a fresh durable server, drives
// the workload's closed-loop connections over loopback TCP, checks the
// answers, stops the server cleanly and restarts it from disk.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "bench.h"
#include "storage/column.h"

namespace perfbench {
namespace {

using adaptidx::Column;
using adaptidx::Status;
using adaptidx::server::Client;
using adaptidx::server::Server;
using adaptidx::server::StatsMsg;

/// STATS keys whose deltas a round exports: WAL, checkpoint and recovery
/// counters, the differential layer's pending sizes, and latch conflicts.
bool Exported(const std::string& key) {
  auto starts = [&key](const char* p) { return key.rfind(p, 0) == 0; };
  auto ends = [&key](const char* p) {
    const std::string suffix(p);
    return key.size() >= suffix.size() &&
           key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  return starts("wal.") || starts("checkpoint.") || starts("recovery.") ||
         starts("index.pending_") || key == "index.num_pieces" ||
         (starts("index.") && ends("_conflicts")) ||
         starts("admission.shed_total");
}

std::map<std::string, double> Delta(const StatsMsg& before,
                                    const StatsMsg& after) {
  std::map<std::string, double> out;
  for (const auto& [key, value] : after.entries) {
    if (!Exported(key)) continue;
    uint64_t old = 0;
    before.Find(key, &old);
    out[key] = static_cast<double>(value) - static_cast<double>(old);
  }
  return out;
}

/// Checks every hot range and the full domain against base + live
/// inserts on a quiesced server.
void CheckState(Client* c, const Oracle& base, const Oracle& inserted,
                const Streams& s, const char* when, RunResult* res) {
  std::vector<std::pair<Value, Value>> ranges = s.hot_ranges;
  ranges.emplace_back(0, static_cast<Value>(kRows));
  for (const auto& [lo, hi] : ranges) {
    uint64_t count = 0;
    int64_t sum = 0;
    Status cs = c->Count(lo, hi, &count);
    Status ss = c->Sum(lo, hi, &sum);
    const uint64_t want_count = base.Count(lo, hi) + inserted.Count(lo, hi);
    const int64_t want_sum = base.Sum(lo, hi) + inserted.Sum(lo, hi);
    if (!cs.ok() || !ss.ok() || count != want_count || sum != want_sum) {
      res->Wrong(std::string(when) + ": [" + std::to_string(lo) + "," +
                 std::to_string(hi) + ") count " + std::to_string(count) +
                 " sum " + std::to_string(sum) + ", expected " +
                 std::to_string(want_count) + " / " +
                 std::to_string(want_sum) +
                 (cs.ok() && ss.ok() ? "" : " (" + cs.ToString() + ")"));
    }
  }
}

struct Round {
  double setup_s = 0;
  double ops_per_s = 0;
  double read_p50_us = 0;
  double read_p99_us = 0;
  double write_p50_us = 0;
  double write_p95_us = 0;
  double restart_s = 0;  ///< mean of the round's restarts
  double steal_frac = 0;  ///< host CPU steal over the round
  size_t reads = 0;
  size_t writes = 0;
  std::map<std::string, double> stats;
};

std::string RoundJson(size_t r, const Round& rd) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"round\": %zu, \"setup_s\": %.6f, \"ops_per_s\": %.1f, "
                "\"reads\": %zu, \"read_p50_us\": %.2f, \"read_p99_us\": %.2f, "
                "\"writes\": %zu, \"write_p50_us\": %.2f, "
                "\"write_p95_us\": %.2f, \"restart_s\": %.6f, "
                "\"steal_frac\": %.4f, \"stats_delta\": {",
                r, rd.setup_s, rd.ops_per_s, rd.reads, rd.read_p50_us,
                rd.read_p99_us, rd.writes, rd.write_p50_us, rd.write_p95_us,
                rd.restart_s, rd.steal_frac);
  std::string out = buf;
  bool first = true;
  for (const auto& [k, v] : rd.stats) {
    out += (first ? "\"" : ", \"") + k + "\": " + std::to_string(v);
    first = false;
  }
  return out + "}}";
}

bool Fail(RunResult* res, const std::string& what, const Status& s) {
  if (s.ok()) return false;
  res->Wrong(what + ": " + s.ToString());
  return true;
}

Round RunRound(const RunConfig& cfg, const Streams& s, const Oracle& base,
               size_t r, RunResult* res) {
  const Workload& w = cfg.workload;
  Round rd;
  const std::string dir = cfg.work_dir + "/round-" + std::to_string(r);
  std::filesystem::remove_all(dir);
  const auto opts = ServeOptions(w, dir);

  const auto steal0 = StealTicks();

  // ---- set-up: data generation + server start + warm-up -----------------
  // The set-up and the restart each start, as in a new process, without
  // freed memory held by the allocator: otherwise whether the cracker
  // array lands on pages already mapped by the previous server varies by
  // round and thread arena, and the timing with it (by 2x, measured).
  malloc_trim(0);
  int64_t t0 = NowNs();
  Column col = Column::UniqueRandom("A", kRows, cfg.seed);
  int64_t setup_ns = NowNs() - t0;
  // Only a virgin data dir reads the seed; kept untimed for the restart.
  Column restart_seed("A", col.values());

  t0 = NowNs();
  auto server = std::make_unique<Server>(std::move(col), opts);
  if (Fail(res, "server start", server->Start())) return rd;
  std::vector<std::unique_ptr<Client>> clients;
  for (size_t c = 0; c < w.connections; ++c) {
    clients.push_back(std::make_unique<Client>());
    if (Fail(res, "connect", ConnectClient(server->port(), clients[c].get()))) {
      return rd;
    }
  }
  const ReadChecker exact{&base, &s, false};
  auto wire = [](Client* c) {
    return [c](const Op& op, std::vector<Acked>* ins, uint64_t* count,
               int64_t* sum) { return ExecOnClient(c, op, ins, count, sum); };
  };
  ReplayOut warm;
  Replay(s.warmup, &exact, wire(clients[0].get()), &warm);
  setup_ns += NowNs() - t0;
  rd.setup_s = static_cast<double>(setup_ns) / 1e9;

  StatsMsg before;
  if (Fail(res, "stats", clients[0]->Stats(&before))) return rd;

  // ---- measured phase: one closed-loop thread per connection --------------
  const ReadChecker checker{&base, &s, w.writes};
  std::vector<ReplayOut> outs(w.connections);
  std::vector<std::thread> threads;
  const int64_t m0 = NowNs();
  for (size_t c = 0; c < w.connections; ++c) {
    threads.emplace_back([&, c] {
      Replay(s.measured[c], &checker, wire(clients[c].get()), &outs[c]);
    });
  }
  for (auto& t : threads) t.join();
  const int64_t m1 = NowNs();

  // The commit probe of the read-only workloads, on an otherwise idle
  // server; durable_mix measures its own writes. The read-only workloads
  // take no checkpoint, so their restart seeds the column and replays the
  // probe's log: an image is ~80 MB of synced writes, and one per round
  // made every timing of the run follow the host's storage load.
  ReplayOut probe;
  Replay(s.probe, nullptr, wire(clients[0].get()), &probe);

  StatsMsg after;
  if (Fail(res, "stats", clients[0]->Stats(&after))) return rd;
  rd.stats = Delta(before, after);

  std::vector<double> reads, writes = probe.write_us;
  uint64_t measured_ops = 0;
  for (const ReplayOut& o : outs) {
    reads.insert(reads.end(), o.read_us.begin(), o.read_us.end());
    writes.insert(writes.end(), o.write_us.begin(), o.write_us.end());
    measured_ops += o.attempted - o.failed;
  }
  for (const ReplayOut* o : {&warm, &probe}) {
    res->attempted += o->attempted;
    res->failed += o->failed;
  }
  for (const ReplayOut& o : outs) {
    res->attempted += o.attempted;
    res->failed += o.failed;
    for (const auto& e : o.errors) {
      std::fprintf(stderr, "op error: %s\n", e.c_str());
    }
    for (const auto& bad : o.wrong) res->Wrong(bad);
  }
  for (const auto& bad : warm.wrong) res->Wrong("warm-up " + bad);
  rd.reads = reads.size();
  rd.writes = writes.size();
  rd.ops_per_s = static_cast<double>(measured_ops) /
                 (static_cast<double>(m1 - m0) / 1e9);
  rd.read_p50_us = Percentile(reads, 0.50);
  rd.read_p99_us = Percentile(reads, 0.99);
  rd.write_p50_us = Percentile(writes, 0.50);
  rd.write_p95_us = Percentile(writes, 0.95);

  // ---- answers after quiescing, then a clean stop and restart -----------
  const Oracle inserted(LiveInserts(outs));
  CheckState(clients[0].get(), base, inserted, s, "quiesced", res);
  clients.clear();
  server->Stop();
  server.reset();

  for (size_t k = 0; k < kRestartsPerRound; ++k) {
    Column seed("A", restart_seed.values());
    malloc_trim(0);
    t0 = NowNs();
    server = std::make_unique<Server>(std::move(seed), opts);
    Client c;
    uint64_t count = 0;
    if (Fail(res, "restart", server->Start()) ||
        Fail(res, "reconnect", ConnectClient(server->port(), &c)) ||
        Fail(res, "first query",
             c.Count(0, static_cast<Value>(kRows), &count))) {
      return rd;
    }
    rd.restart_s += static_cast<double>(NowNs() - t0) / 1e9 /
                    static_cast<double>(kRestartsPerRound);
    if (count != base.size() + inserted.size()) {
      res->Wrong("first query after restart: " + std::to_string(count));
    }
    CheckState(&c, base, inserted, s, "after restart", res);
    StatsMsg recovered;
    uint64_t v = 0;
    if (k == 0 && c.Stats(&recovered).ok() &&
        recovered.Find("recovery.records_replayed", &v)) {
      rd.stats["recovery.records_replayed"] = static_cast<double>(v);
    }
    c.Close();
    server->Stop();
    server.reset();
  }
  std::filesystem::remove_all(dir);
  const auto steal1 = StealTicks();
  rd.steal_frac =
      static_cast<double>(steal1.first - steal0.first) /
      static_cast<double>(std::max<uint64_t>(1, steal1.second - steal0.second));
  return rd;
}

}  // namespace

RunResult RunEndToEnd(const RunConfig& cfg) {
  RunResult res;
  const Streams s =
      Generate(cfg.workload, cfg.seed, cfg.workload.ops_per_round);
  const Oracle base(Column::UniqueRandom("A", kRows, cfg.seed).values());

  const size_t want = Rounds(cfg);
  const size_t max_repeats = std::max<size_t>(1, want / 4);
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(kMaxWallFactor * cfg.seconds * 1e9);
  std::vector<Round> rounds, disturbed;
  for (size_t r = 0;
       rounds.size() < want && r < want + max_repeats && res.correct; ++r) {
    if (r >= kMinRounds && NowNs() > deadline) break;
    Round rd = RunRound(cfg, s, base, r, &res);
    std::printf("%s\n", RoundJson(r, rd).c_str());
    std::fflush(stdout);
    (rd.steal_frac <= kMaxStealFrac ? rounds : disturbed).push_back(rd);
  }
  std::sort(disturbed.begin(), disturbed.end(),
            [](const Round& a, const Round& b) {
              return a.steal_frac < b.steal_frac;
            });
  const size_t repeated = disturbed.size();
  for (size_t i = 0; rounds.size() < want && i < disturbed.size(); ++i) {
    rounds.push_back(disturbed[i]);
  }
  std::printf("{\"rounds_kept\": %zu, \"rounds_disturbed_by_steal\": %zu}\n",
              rounds.size(), repeated);
  auto med = [&rounds](double Round::*field) {
    std::vector<double> v;
    for (const Round& rd : rounds) v.push_back(rd.*field);
    return Median(v);
  };
  res.Add("setup_s", med(&Round::setup_s), "s");
  res.Add("ops_per_s", med(&Round::ops_per_s), "1/s");
  res.Add("read_p50_us", med(&Round::read_p50_us), "us");
  res.Add("read_p99_us", med(&Round::read_p99_us), "us");
  res.Add("write_p50_us", med(&Round::write_p50_us), "us");
  res.Add("write_p95_us", med(&Round::write_p95_us), "us");
  // The mean, not the median: a restart's first query materializes the
  // cracker array, and whether that lands on pages recovery just freed
  // depends on which engine thread serves it, so restart times fall into
  // two modes ~40 ms apart. The median of such samples jumps between the
  // modes from run to run; the mean moves with their mix.
  double restart_sum = 0;
  for (const Round& rd : rounds) restart_sum += rd.restart_s;
  res.Add("restart_s",
          restart_sum / static_cast<double>(std::max<size_t>(1, rounds.size())),
          "s");
  res.Add("op_ok_frac",
          res.attempted == 0
              ? 0
              : 1.0 - static_cast<double>(res.failed) /
                          static_cast<double>(res.attempted),
          "frac");
  return res;
}

}  // namespace perfbench
