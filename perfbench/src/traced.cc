// The traced run: the workload's generated op streams replayed at each
// in-process boundary in turn (CrackingIndex, UpdatableIndex, Session,
// DurableIndex) and over the wire, each boundary with a fresh instance,
// plus outside-in probes of single layers. Spans are recorded around the
// calls into each layer from here; self time comes from differencing
// adjacent boundaries.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "bench.h"
#include "core/index_factory.h"
#include "core/updatable_index.h"
#include "cracking/piece_map.h"
#include "cracking/span_kernels.h"
#include "durability/durable_index.h"
#include "engine/session.h"
#include "server/protocol.h"
#include "storage/column.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using adaptidx::AdaptiveIndex;
using adaptidx::Column;
using adaptidx::IndexConfig;
using adaptidx::Query;
using adaptidx::QueryContext;
using adaptidx::QueryResult;
using adaptidx::QueryStats;
using adaptidx::Status;
using adaptidx::UpdatableIndex;

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

Query ToQuery(const Op& op) {
  return op.kind == Op::Kind::kCount ? Query::Count("", "", op.lo, op.hi)
                                     : Query::Sum("", "", op.lo, op.hi);
}

/// Spans of the whole run; replay threads fill their own vectors, merged
/// after each join.
class SpanLog {
 public:
  int64_t BeginPhase(const char* name) {
    spans_.push_back(Span{name, NowNs(), 0, -1, 0});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void EndPhase(int64_t id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }
  void Merge(std::vector<Span>* more) {
    spans_.insert(spans_.end(), more->begin(), more->end());
    more->clear();
  }
  void Write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    out << "# name\tstart_ns\tend_ns\tparent\trequest_id\n";
    for (const Span& s : spans_) {
      out << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
          << s.parent << '\t' << s.request_id << '\n';
    }
  }

 private:
  std::vector<Span> spans_;
};

/// One boundary's replay of a round: warm-up (connection 0), the measured
/// streams (one thread per connection), then the commit probe
/// (connection 0) — the same order the end-to-end round uses.
struct Boundary {
  std::vector<ReplayOut> conns;
  ReplayOut warm;
  ReplayOut probe;

  std::vector<double> Reads() const {
    std::vector<double> v;
    for (const ReplayOut& o : conns) {
      v.insert(v.end(), o.read_us.begin(), o.read_us.end());
    }
    return v;
  }
  std::vector<double> Writes() const {
    std::vector<double> v = probe.write_us;
    for (const ReplayOut& o : conns) {
      v.insert(v.end(), o.write_us.begin(), o.write_us.end());
    }
    return v;
  }
};

/// `make_exec(c)` returns the op executor of connection `c`.
template <typename MakeExec>
Boundary ReplayRound(const Streams& s,
                     const std::vector<std::vector<Op>>& streams,
                     bool racing, const Oracle& base, MakeExec make_exec,
                     const char* name, SpanLog* log, RunResult* res,
                     bool trace = true) {
  Boundary b;
  const ReadChecker exact{&base, &s, false};
  const ReadChecker checker{&base, &s, racing};
  Replay(s.warmup, &exact, make_exec(0), &b.warm);
  const int64_t phase = trace ? log->BeginPhase(name) : -1;
  b.conns.resize(streams.size());
  std::vector<std::vector<Span>> spans(streams.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < streams.size(); ++c) {
    threads.emplace_back([&, c] {
      Replay(streams[c], &checker, make_exec(c), &b.conns[c],
             trace ? &spans[c] : nullptr, name, phase,
             static_cast<uint64_t>(c) << 32);
    });
  }
  for (auto& t : threads) t.join();
  if (trace) {
    log->EndPhase(phase);
    for (auto& v : spans) log->Merge(&v);
  }
  Replay(s.probe, nullptr, make_exec(0), &b.probe);
  for (const ReplayOut* o : {&b.warm, &b.probe}) {
    res->attempted += o->attempted;
    res->failed += o->failed;
    for (const auto& bad : o->wrong) res->Wrong(std::string(name) + ": " + bad);
  }
  for (const ReplayOut& o : b.conns) {
    res->attempted += o.attempted;
    res->failed += o.failed;
    for (const auto& bad : o.wrong) res->Wrong(std::string(name) + ": " + bad);
    for (const auto& e : o.errors) {
      std::fprintf(stderr, "%s op error: %s\n", name, e.c_str());
    }
  }
  return b;
}

std::vector<std::vector<Op>> ReadsOnly(const std::vector<std::vector<Op>>& in) {
  std::vector<std::vector<Op>> out(in.size());
  for (size_t c = 0; c < in.size(); ++c) {
    for (const Op& op : in[c]) {
      if (op.is_read()) out[c].push_back(op);
    }
  }
  return out;
}

/// Quiesced answers of an in-process index against base + live inserts.
void CheckIndex(AdaptiveIndex* index, const Oracle& base,
                const std::vector<Value>& live, const Streams& s,
                const std::string& when, RunResult* res) {
  const Oracle inserted(live);
  std::vector<std::pair<Value, Value>> ranges = s.hot_ranges;
  ranges.emplace_back(0, static_cast<Value>(kRows));
  for (const auto& [lo, hi] : ranges) {
    QueryContext ctx;
    QueryResult count, sum;
    Status cs = index->Execute(Query::Count("", "", lo, hi), &ctx, &count);
    Status ss = index->Execute(Query::Sum("", "", lo, hi), &ctx, &sum);
    if (!cs.ok() || !ss.ok() ||
        count.count != base.Count(lo, hi) + inserted.Count(lo, hi) ||
        sum.sum != base.Sum(lo, hi) + inserted.Sum(lo, hi)) {
      res->Wrong(when + ": [" + std::to_string(lo) + "," +
                 std::to_string(hi) + ") count " +
                 std::to_string(count.count));
    }
  }
}

// Executors for the ops of one connection at each in-process boundary.
// Reads at the updatable and engine boundaries split between their two
// paths, so both see the same mix of ranges and index states.

Status UpdateOn(UpdatableIndex* idx, const Op& op, std::vector<Acked>* ins) {
  QueryContext ctx;
  if (op.kind == Op::Kind::kInsert) {
    RowId row_id = 0;
    Status s = idx->Insert(op.lo, &ctx, &row_id);
    if (s.ok()) (*ins)[op.slot] = Acked{op.lo, row_id, true};
    return s;
  }
  Acked& a = (*ins)[op.slot];
  if (!a.live) return Status::Aborted("insert not acknowledged");
  Status s = idx->Delete(a.value, a.row_id, &ctx);
  if (s.ok()) a.live = false;
  return s;
}

/// Which of a boundary's two read paths the `n`-th read takes: a fixed
/// pseudo-random half, so neither path is tied to a range of the cycle.
bool FirstPath(uint64_t n) { return ((n + 1) * 0x9E3779B97F4A7C15ULL) >> 63; }

std::vector<double> Flatten(const std::vector<std::vector<double>>& v) {
  std::vector<double> out;
  for (const auto& x : v) out.insert(out.end(), x.begin(), x.end());
  return out;
}

void Store(const QueryResult& r, uint64_t* count, int64_t* sum) {
  *count = r.count;
  *sum = r.sum;
}

// ---- outside-in probes ---------------------------------------------------

/// `PieceMap::Split` at `pieces` pieces: builds the map by interior splits
/// of the tail piece, then times the last splits one by one.
double SplitUs(size_t pieces) {
  constexpr size_t kTimed = 32;
  pieces = std::max<size_t>(pieces, kTimed + 2);
  adaptidx::PieceMap map(kRows, 0, static_cast<Value>(kRows),
                         adaptidx::CrackingOptions{}.scheduling);
  const size_t step = kRows / pieces;
  std::shared_ptr<adaptidx::Piece> tail = map.FindByPosition(0);
  std::vector<double> us;
  for (size_t i = 1; i < pieces; ++i) {
    const auto pos = static_cast<adaptidx::Position>(i * step);
    const int64_t t0 = NowNs();
    tail = map.Split(tail, pos, static_cast<Value>(pos));
    if (i + kTimed >= pieces) us.push_back(Us(NowNs() - t0));
  }
  return Median(us);
}

/// One two-way crack over a column-sized array, per element.
double KernelNsPerElem(const Column& col) {
  std::vector<double> ns;
  std::vector<Value> values;
  std::vector<RowId> rows(col.size());
  for (int rep = 0; rep < 5; ++rep) {
    values = col.values();
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<RowId>(i);
    const int64_t t0 = NowNs();
    adaptidx::CrackInTwoSpan(values.data(), rows.data(), 0, values.size(),
                             static_cast<Value>(kRows / 2),
                             adaptidx::BestKernelTier());
    ns.push_back(static_cast<double>(NowNs() - t0) /
                 static_cast<double>(values.size()));
  }
  return Median(ns);
}

bool IoFull(int fd, char* buf, size_t n, bool write) {
  size_t done = 0;
  while (done < n) {
    const ssize_t k = write ? ::send(fd, buf + done, n - done, MSG_NOSIGNAL)
                            : ::recv(fd, buf + done, n - done, 0);
    if (k <= 0) return false;
    done += static_cast<size_t>(k);
  }
  return true;
}

/// Raw loopback TCP round trip carrying a query frame out and a result
/// frame back — the floor under `server.rtt_p50_us`.
double LoopbackFloorUs(size_t samples) {
  namespace proto = adaptidx::server;
  proto::QueryReq req;
  req.kind = adaptidx::QueryKind::kSum;
  req.lo = 1;
  req.hi = 401;
  proto::ResultMsg reply;
  reply.kind = static_cast<uint8_t>(adaptidx::QueryKind::kSum);
  reply.sum = 123456789;
  const size_t req_size =
      proto::EncodeFrame(proto::FrameType::kQuery, 1, req.Encode()).size();
  const size_t reply_size =
      proto::EncodeFrame(proto::FrameType::kResult, 1, reply.Encode()).size();

  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(lfd, 1) != 0 ||
      ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(lfd);
    return 0;
  }
  const int one = 1;
  std::thread echo([&] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) return;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::vector<char> in(req_size), out(reply_size, 'r');
    while (IoFull(fd, in.data(), req_size, false) &&
           IoFull(fd, out.data(), reply_size, true)) {
    }
    ::close(fd);
  });
  std::vector<double> us;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::vector<char> out(req_size, 'q'), in(reply_size);
    for (size_t i = 0; i < samples; ++i) {
      const int64_t t0 = NowNs();
      if (!IoFull(fd, out.data(), req_size, true) ||
          !IoFull(fd, in.data(), reply_size, false)) {
        break;
      }
      us.push_back(Us(NowNs() - t0));
    }
  }
  if (fd >= 0) ::close(fd);  // ends the echo loop
  ::shutdown(lfd, SHUT_RDWR);  // wakes an accept that never got a peer
  echo.join();
  ::close(lfd);
  return Median(us);
}

}  // namespace

RunResult RunTraced(const RunConfig& cfg) {
  RunResult res;
  const Workload& w = cfg.workload;
  const Streams s = Generate(w, cfg.seed, w.ops_per_round);
  SpanLog log;
  IndexConfig config;
  config.snapshot_reads = true;

  // ---- storage: column generation ----------------------------------------
  std::vector<double> gen_s;
  Column col;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t t0 = NowNs();
    col = Column::UniqueRandom("A", kRows, cfg.seed);
    gen_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const Oracle base(col.values());

  // ---- core.cracking: CrackingIndex via MakeIndex ------------------------
  double early_us = 0, late_us = 0, crack_frac = 0, cracks_per_query = 0,
         skip_frac = 0, wait_frac = 0;
  uint64_t conflicts_early = 0, conflicts_late = 0;
  size_t pieces_end = 0;
  {
    std::unique_ptr<AdaptiveIndex> idx = adaptidx::MakeIndex(&col, config);
    const auto streams = ReadsOnly(s.measured);
    std::vector<std::vector<QueryStats>> stats(streams.size());
    auto make = [&](size_t c) {
      return [&, c](const Op& op, std::vector<Acked>*, uint64_t* count,
                    int64_t* sum) {
        QueryContext ctx;
        QueryResult r;
        Status st = idx->Execute(ToQuery(op), &ctx, &r);
        Store(r, count, sum);
        stats[c].push_back(ctx.stats);
        return st;
      };
    };
    Streams reads = s;  // the commit probe has no place on a read-only index
    reads.probe.clear();
    Boundary b = ReplayRound(reads, streams, false, base, make,
                             "core.cracking", &log, &res);
    double early_sum = 0, late_sum = 0, elapsed = 0, crack_ns = 0, wait_ns = 0;
    size_t early_n = 0, late_n = 0, queries = 0, skipped = 0, cracks = 0;
    for (size_t c = 0; c < streams.size(); ++c) {
      // stats[c] starts with the warm-up op(s) of connection 0.
      const size_t skip = c == 0 ? s.warmup.size() : 0;
      const std::vector<double>& lat = b.conns[c].read_us;
      const size_t n = std::min(lat.size(), stats[c].size() - skip);
      const size_t quarter = n / 4;
      for (size_t i = 0; i < n; ++i) {
        const QueryStats& q = stats[c][skip + i];
        elapsed += lat[i] * 1e3;
        crack_ns += static_cast<double>(q.crack_ns);
        wait_ns += static_cast<double>(q.wait_ns);
        cracks += q.cracks;
        skipped += q.refinement_skipped ? 1 : 0;
        ++queries;
        if (i < quarter) {
          early_sum += lat[i];
          conflicts_early += q.conflicts;
          ++early_n;
        } else if (i >= n - quarter) {
          late_sum += lat[i];
          conflicts_late += q.conflicts;
          ++late_n;
        }
      }
    }
    early_us = early_n ? early_sum / early_n : 0;
    late_us = late_n ? late_sum / late_n : 0;
    crack_frac = elapsed > 0 ? crack_ns / elapsed : 0;
    wait_frac = elapsed > 0 ? wait_ns / elapsed : 0;
    cracks_per_query = queries ? static_cast<double>(cracks) / queries : 0;
    skip_frac = queries ? static_cast<double>(skipped) / queries : 0;
    pieces_end = idx->NumPieces();
  }
  const double split_us = SplitUs(pieces_end);
  const double kernel_ns = KernelNsPerElem(col);

  // ---- core.updatable: UpdatableIndex, latched and snapshot reads -------
  double upd_read_us = 0, snap_read_us = 0, insert_us = 0;
  double pending_end = 0, chain_max = 0, consolidations = 0;
  {
    UpdatableIndex idx(Column("A", col.values()), config);
    std::vector<std::vector<double>> latched(s.measured.size()),
        snapshot(s.measured.size()), inserts(s.measured.size());
    auto make = [&](size_t c) {
      return [&, c, n = size_t{0}](const Op& op, std::vector<Acked>* ins,
                                   uint64_t* count, int64_t* sum) mutable {
        const int64_t t0 = NowNs();
        Status st;
        if (!op.is_read()) {
          st = UpdateOn(&idx, op, ins);
          if (op.kind == Op::Kind::kInsert) {
            inserts[c].push_back(Us(NowNs() - t0));
          }
          return st;
        }
        QueryContext ctx;
        QueryResult r;
        if (FirstPath(n++)) {
          st = idx.Execute(ToQuery(op), &ctx, &r);
          latched[c].push_back(Us(NowNs() - t0));
        } else {
          adaptidx::Snapshot snap = idx.CaptureSnapshot();
          st = idx.ExecuteSnapshot(ToQuery(op), snap, &ctx, &r);
          snapshot[c].push_back(Us(NowNs() - t0));
        }
        Store(r, count, sum);
        return st;
      };
    };
    Boundary b = ReplayRound(s, s.measured, w.writes, base, make,
                             "core.updatable", &log, &res);
    CheckIndex(&idx, base, LiveInserts(b.conns), s, "updatable quiesced",
               &res);
    upd_read_us = Percentile(Flatten(latched), 0.5);
    snap_read_us = Percentile(Flatten(snapshot), 0.5);
    insert_us = Percentile(Flatten(inserts), 0.5);
    pending_end =
        static_cast<double>(idx.pending_inserts() + idx.pending_deletes());
    chain_max = static_cast<double>(idx.latch_stats().delta_chain_max());
    consolidations = static_cast<double>(idx.latch_stats().consolidations());
  }

  // ---- engine: Session sync Execute and Submit+Wait ----------------------
  double sync_us = 0, submit_us = 0;
  {
    UpdatableIndex idx(Column("A", col.values()), config);
    adaptidx::ThreadPool pool(adaptidx::ThreadPool::DefaultConcurrency(1));
    adaptidx::SessionOptions sopts;
    sopts.config = config;
    sopts.snapshot_reads = true;
    std::vector<std::unique_ptr<adaptidx::Session>> sessions;
    for (size_t c = 0; c < s.measured.size(); ++c) {
      sessions.push_back(adaptidx::Session::OnIndex(&idx, &pool, sopts));
    }
    std::vector<std::vector<double>> sync(s.measured.size()),
        submit(s.measured.size());
    auto make = [&](size_t c) {
      return [&, c, n = size_t{0}](const Op& op, std::vector<Acked>* ins,
                                   uint64_t* count, int64_t* sum) mutable {
        adaptidx::Session* session = sessions[c].get();
        if (!op.is_read()) {
          if (op.kind == Op::Kind::kInsert) {
            RowId row_id = 0;
            Status st = session->Insert(&idx, op.lo, &row_id);
            if (st.ok()) (*ins)[op.slot] = Acked{op.lo, row_id, true};
            return st;
          }
          Acked& a = (*ins)[op.slot];
          if (!a.live) return Status::Aborted("insert not acknowledged");
          Status st = session->Delete(&idx, a.value, a.row_id);
          if (st.ok()) a.live = false;
          return st;
        }
        const int64_t t0 = NowNs();
        if (FirstPath(n++)) {
          QueryResult r;
          Status st = session->Execute(ToQuery(op), &r);
          sync[c].push_back(Us(NowNs() - t0));
          Store(r, count, sum);
          return st;
        }
        adaptidx::QueryTicket ticket = session->Submit(ToQuery(op));
        ticket.Wait();
        submit[c].push_back(Us(NowNs() - t0));
        Store(ticket.result(), count, sum);
        return ticket.status();
      };
    };
    ReplayRound(s, s.measured, w.writes, base, make, "engine.session", &log,
                &res);
    sync_us = Percentile(Flatten(sync), 0.5);
    submit_us = Percentile(Flatten(submit), 0.5);
    sessions.clear();
  }

  // ---- durability: DurableIndex commits, recovery, checkpoints -----------
  const std::string dir = cfg.work_dir + "/traced";
  std::filesystem::remove_all(dir);
  const double fsync_us = FsyncFloorUs(cfg.work_dir, 200);
  double commit_us = 0, open_s = 0, replayed = 0, ckpt_s = 0;
  {
    adaptidx::DurabilityOptions dopts;
    dopts.data_dir = dir + "/durable";
    dopts.fsync_policy = adaptidx::FsyncPolicy::kGroup;
    dopts.checkpoint_interval = w.checkpoint_interval;
    std::unique_ptr<adaptidx::DurableIndex> di;
    Status st = adaptidx::DurableIndex::Open(col, config, dopts, nullptr,
                                             "served/A", &di);
    if (!st.ok()) {
      res.Wrong("durable open: " + st.ToString());
    } else {
      UpdatableIndex* idx = di->index();
      auto make = [&](size_t) {
        return [idx](const Op& op, std::vector<Acked>* ins, uint64_t* count,
                     int64_t* sum) {
          if (!op.is_read()) return UpdateOn(idx, op, ins);
          QueryContext ctx;
          ctx.snapshot_reads = true;
          QueryResult r;
          Status st = idx->Execute(ToQuery(op), &ctx, &r);
          Store(r, count, sum);
          return st;
        };
      };
      Boundary b = ReplayRound(s, s.measured, w.writes, base, make,
                               "durability.durable_index", &log, &res);
      commit_us = Percentile(b.Writes(), 0.5);
      const std::vector<Value> live = LiveInserts(b.conns);
      di.reset();
      const int64_t t0 = NowNs();
      st = adaptidx::DurableIndex::Open(col, config, dopts, nullptr,
                                        "served/A", &di);
      open_s = static_cast<double>(NowNs() - t0) / 1e9;
      if (!st.ok()) {
        res.Wrong("durable reopen: " + st.ToString());
      } else {
        replayed = static_cast<double>(di->recovery_stats().records_replayed);
        CheckIndex(di->index(), base, live, s, "recovered", &res);
        std::vector<double> ck;
        for (int rep = 0; rep < 3; ++rep) {
          const int64_t c0 = NowNs();
          st = di->Checkpoint();
          ck.push_back(static_cast<double>(NowNs() - c0) / 1e9);
          if (!st.ok()) res.Wrong("checkpoint: " + st.ToString());
        }
        ckpt_s = Median(ck);
      }
    }
  }

  // ---- server: the Client round trip, traced then untraced --------------
  double rtt_us = 0, untraced_us = 0, busy_frac = 0, records_per_fsync = 0,
         bytes_per_record = 0, checkpoints = 0;
  for (int traced = 1; traced >= 0; --traced) {
    const std::string sdir = dir + "/server" + std::to_string(traced);
    adaptidx::server::Server server(Column("A", col.values()),
                                    ServeOptions(w, sdir));
    if (!server.Start().ok()) {
      res.Wrong("server start");
      break;
    }
    std::vector<std::unique_ptr<adaptidx::server::Client>> clients;
    for (size_t c = 0; c < w.connections; ++c) {
      clients.push_back(std::make_unique<adaptidx::server::Client>());
      if (!ConnectClient(server.port(), clients[c].get()).ok()) {
        res.Wrong("connect");
        return res;
      }
    }
    adaptidx::server::StatsMsg before, after;
    auto make = [&](size_t c) {
      adaptidx::server::Client* cl = clients[c].get();
      return [cl](const Op& op, std::vector<Acked>* ins, uint64_t* count,
                  int64_t* sum) {
        return ExecOnClient(cl, op, ins, count, sum);
      };
    };
    // STATS brackets the measured streams and the probe, not the warm-up.
    Streams body = s;
    body.warmup.clear();
    ReplayOut warm;
    const ReadChecker exact{&base, &s, false};
    Replay(s.warmup, &exact, make(0), &warm);
    res.attempted += warm.attempted;
    res.failed += warm.failed;
    for (const auto& bad : warm.wrong) res.Wrong("server warm-up: " + bad);
    clients[0]->Stats(&before);
    Boundary b = ReplayRound(body, s.measured, w.writes, base, make,
                             "server.client_rtt", &log, &res, traced == 1);
    clients[0]->Stats(&after);
    const double p50 = Percentile(b.Reads(), 0.5);
    if (traced == 0) {
      untraced_us = p50;
      continue;
    }
    rtt_us = p50;
    uint64_t busy = 0, attempts = b.probe.attempted;
    for (const auto& cl : clients) busy += cl->busy_seen();
    for (const ReplayOut& o : b.conns) attempts += o.attempted;
    busy_frac = static_cast<double>(busy) /
                static_cast<double>(std::max<uint64_t>(1, attempts));
    auto delta = [&](const char* key) {
      uint64_t a = 0, z = 0;
      before.Find(key, &a);
      after.Find(key, &z);
      return static_cast<double>(z) - static_cast<double>(a);
    };
    const double records = delta("wal.records_appended");
    records_per_fsync = records / std::max(1.0, delta("wal.fsync_count"));
    bytes_per_record = delta("wal.bytes_written") / std::max(1.0, records);
    checkpoints = delta("checkpoint.taken");
  }
  std::filesystem::remove_all(dir);
  const double loopback_us = LoopbackFloorUs(5000);

  res.Add("core.cracking.early_mean_us", early_us, "us");
  res.Add("core.cracking.late_mean_us", late_us, "us");
  res.Add("core.cracking.crack_frac", crack_frac, "frac");
  res.Add("core.cracking.cracks_per_query", cracks_per_query, "count");
  res.Add("core.cracking.pieces_end", static_cast<double>(pieces_end), "count");
  res.Add("core.cracking.skip_frac", skip_frac, "frac");
  res.Add("cracking.piece_map.split_us", split_us, "us");
  res.Add("cracking.kernel.ns_per_elem", kernel_ns, "ns");
  res.Add("latch.conflicts_early", static_cast<double>(conflicts_early),
          "count");
  res.Add("latch.conflicts_late", static_cast<double>(conflicts_late),
          "count");
  res.Add("latch.wait_frac", wait_frac, "frac");
  res.Add("server.rtt_p50_us", rtt_us, "us");
  res.Add("server.self_p50_us", rtt_us - submit_us, "us");
  res.Add("server.loopback_floor_p50_us", loopback_us, "us");
  res.Add("server.busy_frac", busy_frac, "frac");
  res.Add("server.front_end_frac",
          rtt_us > 0 ? 1.0 - snap_read_us / rtt_us : 0, "frac");
  res.Add("engine.sync_p50_us", sync_us, "us");
  res.Add("engine.submit_wait_p50_us", submit_us, "us");
  res.Add("engine.queue_hop_p50_us", submit_us - sync_us, "us");
  res.Add("core.updatable.read_p50_us", upd_read_us, "us");
  res.Add("core.updatable.snapshot_read_p50_us", snap_read_us, "us");
  res.Add("core.updatable.insert_p50_us", insert_us, "us");
  res.Add("core.updatable.pending_end", pending_end, "count");
  res.Add("core.snapshot.delta_chain_max", chain_max, "count");
  res.Add("core.snapshot.consolidations", consolidations, "count");
  res.Add("durability.wal.commit_p50_us", commit_us, "us");
  res.Add("durability.wal.records_per_fsync", records_per_fsync, "count");
  res.Add("durability.wal.bytes_per_record", bytes_per_record, "B");
  res.Add("durability.fsync_floor_p50_us", fsync_us, "us");
  res.Add("durability.checkpoint.s", ckpt_s, "s");
  res.Add("durability.checkpoint.count", checkpoints, "count");
  res.Add("durability.recovery.open_s", open_s, "s");
  res.Add("durability.recovery.records_replayed", replayed, "count");
  res.Add("storage.column_gen_s", Median(gen_s), "s");
  res.Add("trace.overhead_frac",
          untraced_us > 0 ? rtt_us / untraced_us - 1.0 : 0, "frac");
  log.Write(cfg.spans_path);
  return res;
}

}  // namespace perfbench
