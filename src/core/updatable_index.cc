#include "core/updatable_index.h"

#include <algorithm>

#include "util/stopwatch.h"

namespace adaptidx {

namespace {

/// Acquires `mu` exclusively and accounts the acquisition on `stats`:
/// uncontended fast path via try-lock, otherwise the blocked wait is
/// timed. Reads never take `mu`, so this is writer-against-writer (and
/// against introspection) interference only — what the snapshot-read
/// ablation reports beside a long scan.
std::unique_lock<std::shared_mutex> AccountedWriteLock(std::shared_mutex& mu,
                                                       LatchStats* stats) {
  std::unique_lock<std::shared_mutex> lk(mu, std::try_to_lock);
  if (lk.owns_lock()) {
    stats->RecordWrite(0, false);
    return lk;
  }
  const int64_t t0 = NowNanos();
  lk.lock();
  stats->RecordWrite(NowNanos() - t0, true);
  return lk;
}

/// `config` with the refinement conflict probe wired to the update path's
/// lock manager (cracking only; other methods have no probe).
IndexConfig WithLockProbe(IndexConfig config, LockManager* lock_manager,
                          const std::string& lock_resource) {
  if (config.method == IndexMethod::kCrack && lock_manager != nullptr) {
    config.cracking.lock_manager = lock_manager;
    config.cracking.lock_resource = lock_resource;
  }
  return config;
}

/// A pinned snapshot's differentials restricted to one query range: the
/// consolidated base plus those deltas of the era-local suffix whose value
/// lies in the range, gathered in one pass over the chain into three
/// sorted vectors (all empty when the snapshot is exactly a consolidated
/// state). Every value a query looks up — a base row it returns, an insert
/// it walks — lies in the range, so the deltas outside it are never
/// needed. The arithmetic leans on (value, rowID) uniqueness — row ids are
/// never reused, so a chained kCancelInsert names exactly one insert that
/// the base or the chain currently counts, and anti-matter is purely
/// additive until a checkpoint resets both stores. Fold cost is one chain
/// walk plus O(k log k) for the k in-range deltas; the consolidation
/// threshold bounds the walk.
struct DeltaChainView {
  const SideStoreVersion& base;
  const ValueRange range;
  std::vector<std::pair<Value, RowId>> chain_inserts;
  std::vector<std::pair<Value, RowId>> chain_anti;
  std::vector<std::pair<Value, RowId>> cancels;

  DeltaChainView(const Snapshot& snapshot, const ValueRange& query_range)
      : base(snapshot.version()), range(query_range) {
    for (const SideStoreDelta* d = snapshot.delta_head(); d != nullptr;
         d = d->prev.get()) {
      if (!range.Contains(d->value)) continue;
      const std::pair<Value, RowId> entry{d->value, d->row_id};
      switch (d->op) {
        case SideStoreDelta::Op::kInsert:
          chain_inserts.push_back(entry);
          break;
        case SideStoreDelta::Op::kAntiMatter:
          chain_anti.push_back(entry);
          break;
        case SideStoreDelta::Op::kCancelInsert:
          cancels.push_back(entry);
          break;
      }
    }
    std::sort(chain_inserts.begin(), chain_inserts.end());
    std::sort(chain_anti.begin(), chain_anti.end());
    std::sort(cancels.begin(), cancels.end());
  }

  /// Adds every entry of an in-range vector.
  static void AddAll(const std::vector<std::pair<Value, RowId>>& v,
                     uint64_t* count, int64_t* sum) {
    for (const auto& entry : v) {
      ++*count;
      *sum += entry.first;
    }
  }

  void InsertCountSum(uint64_t* count, int64_t* sum) const {
    // Each cancelled (value, rowID) is currently counted exactly once —
    // in the base if it was pending at consolidation, in the chain if it
    // was inserted after — so subtracting the in-range cancels nets the
    // live pending-insert population.
    base.InsertCountSum(range, count, sum);
    AddAll(chain_inserts, count, sum);
    uint64_t cancel_count = 0;
    int64_t cancel_sum = 0;
    AddAll(cancels, &cancel_count, &cancel_sum);
    *count -= cancel_count;
    *sum -= cancel_sum;
  }
  void AntiMatterCountSum(uint64_t* count, int64_t* sum) const {
    base.AntiMatterCountSum(range, count, sum);
    AddAll(chain_anti, count, sum);
  }
  /// Whether any anti-matter falls in the range — the predicate that
  /// decides whether base answers need filtering.
  bool AnyAntiMatter() const {
    return !chain_anti.empty() || base.AnyAntiMatterIn(range);
  }
  /// Whether base row (`value`, `id`), `value` in range, is deleted.
  bool HidesRow(Value value, RowId id) const {
    return base.HidesRow(value, id) ||
           std::binary_search(chain_anti.begin(), chain_anti.end(),
                              std::make_pair(value, id));
  }
  bool Cancelled(Value value, RowId id) const {
    return std::binary_search(cancels.begin(), cancels.end(),
                              std::make_pair(value, id));
  }
  /// Calls `fn(value, rowID)` for every live pending insert in the range.
  template <typename Fn>
  void ForEachInsert(Fn fn) const {
    for (size_t i = base.FirstInsertAtOrAbove(range.lo);
         i < base.inserts.size() && base.inserts[i].first < range.hi; ++i) {
      if (Cancelled(base.inserts[i].first, base.inserts[i].second)) continue;
      fn(base.inserts[i].first, base.inserts[i].second);
    }
    for (const auto& [value, id] : chain_inserts) {
      if (!Cancelled(value, id)) fn(value, id);
    }
  }
};

/// THE query evaluation of the differential layer: combines the answer of
/// the snapshot generation's base index/column with the snapshot's
/// differentials in the query range. The caller holds the pin, which keeps
/// the generation alive for the duration.
Status CombineWithDifferentials(const Query& query, const Snapshot& snapshot,
                                QueryContext* ctx, QueryResult* result) {
  const BaseGeneration& gen = *snapshot.version().generation;
  const Column& base = gen.base;
  AdaptiveIndex* index = gen.index.get();
  const ValueRange& range = query.range;
  const DeltaChainView diff(snapshot, range);
  switch (query.kind) {
    case QueryKind::kCount:
    case QueryKind::kSum: {
      QueryResult base_result;
      Status s = index->Execute(query, ctx, &base_result);
      if (!s.ok()) return s;
      uint64_t ins_c;
      int64_t ins_s;
      uint64_t del_c;
      int64_t del_s;
      diff.InsertCountSum(&ins_c, &ins_s);
      diff.AntiMatterCountSum(&del_c, &del_s);
      if (query.kind == QueryKind::kCount) {
        result->count = base_result.count + ins_c - del_c;
      } else {
        result->sum = base_result.sum + ins_s - del_s;
      }
      return Status::OK();
    }
    case QueryKind::kRowIds: {
      QueryResult base_result;
      Status s = index->Execute(query, ctx, &base_result);
      if (!s.ok()) return s;
      result->row_ids = std::move(base_result.row_ids);
      if (diff.AnyAntiMatter()) {
        // Filter out rows hidden by anti-matter; values come from the base
        // column (row ids of base rows are positions).
        auto hidden = [&](RowId id) { return diff.HidesRow(base[id], id); };
        result->row_ids.erase(std::remove_if(result->row_ids.begin(),
                                             result->row_ids.end(), hidden),
                              result->row_ids.end());
      }
      diff.ForEachInsert([&](Value, RowId id) {
        result->row_ids.push_back(id);
      });
      return Status::OK();
    }
    case QueryKind::kMinMax: {
      MinMaxAccumulator acc;
      if (!diff.AnyAntiMatter()) {
        // The base answer cannot name a deleted extreme; combine it with
        // the pending insertions directly.
        QueryResult base_result;
        Status s = index->Execute(query, ctx, &base_result);
        if (!s.ok()) return s;
        if (base_result.has_minmax) {
          acc.Feed(base_result.min_value, base_result.max_value);
        }
      } else {
        // A deleted row may have been the extreme; re-derive from the base
        // column skipping hidden rows. Deletions in the queried range are
        // the rare case, so the O(n) pass stays off the common path.
        for (size_t i = 0; i < base.size(); ++i) {
          const Value v = base[i];
          if (!range.Contains(v)) continue;
          if (diff.HidesRow(v, static_cast<RowId>(i))) continue;
          acc.Feed(v);
        }
      }
      diff.ForEachInsert([&](Value v, RowId) { acc.Feed(v); });
      acc.Store(result);
      return Status::OK();
    }
    case QueryKind::kSumOther:
      return Status::NotSupported("updatable index holds no second column");
  }
  return Status::InvalidArgument("unknown query kind");
}

}  // namespace

BaseGeneration::BaseGeneration(Column base_in, const IndexConfig& config)
    : base(std::move(base_in)), index(MakeIndex(&base, config)) {}

UpdatableIndex::UpdatableIndex(Column base, IndexConfig config,
                               LockManager* lock_manager,
                               std::string lock_resource)
    : config_(WithLockProbe(std::move(config), lock_manager, lock_resource)),
      lock_manager_(lock_manager),
      lock_resource_(std::move(lock_resource)),
      gen_(std::make_shared<BaseGeneration>(std::move(base), config_)),
      next_row_id_(static_cast<RowId>(gen_->base.size())),
      snapshots_(MaterializeVersionLocked()) {}

UpdatableIndex::~UpdatableIndex() {
  // Wait for every outstanding pin. Once the registry is empty every
  // Snapshot handle has run Release() (which nulls its manager pointer),
  // so no destructor of a surviving handle can reach back into freed
  // memory.
  snapshots_.Drain();
}

std::string UpdatableIndex::Name() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return "updatable(" + gen_->index->Name() + ")";
}

AdaptiveIndex* UpdatableIndex::base_index() {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return gen_->index.get();
}

size_t UpdatableIndex::NumPieces() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return gen_->index->NumPieces();
}

std::shared_ptr<SideStoreVersion> UpdatableIndex::MaterializeVersionLocked()
    const {
  auto v = std::make_shared<SideStoreVersion>();
  v->epoch = commit_epoch_.load(std::memory_order_relaxed);
  v->next_row_id = next_row_id_;
  // Both copies come out (value, rowID)-sorted: the multimap preserves
  // insertion order within equal values and row ids are assigned
  // monotonically, so equal-value runs are rowID-ascending; the anti-matter
  // set is ordered by the pair directly.
  v->inserts.assign(inserts_.begin(), inserts_.end());
  v->anti_matter.assign(anti_matter_.begin(), anti_matter_.end());
  v->generation = gen_;
  return v;
}

size_t UpdatableIndex::ConsolidateThresholdLocked() const {
  const size_t pending = inserts_.size() + anti_matter_.size();
  const size_t floor =
      std::max<size_t>(config_.snapshot_consolidate_min, 1);
  const size_t cap = std::max(config_.snapshot_consolidate_max, floor);
  return std::min(cap, std::max(floor, pending / 8));
}

void UpdatableIndex::CommitEpochLocked(SideStoreDelta::Op op, Value v,
                                       RowId row_id) {
  const uint64_t epoch =
      commit_epoch_.fetch_add(1, std::memory_order_release) + 1;
  // O(1) publication; the chain is consolidated into a flat base before
  // readers would fold a suffix longer than the adaptive threshold
  // (>= floor so tiny stores don't thrash, pending/8 so the occasional
  // O(pending) materialization stays amortized-O(1) per commit, capped so
  // per-read fold work is bounded).
  const size_t chain =
      snapshots_.PublishDelta(op, v, row_id, epoch, next_row_id_);
  latch_stats_.RecordDeltaPublish(chain);
  if (chain >= ConsolidateThresholdLocked()) {
    snapshots_.Install(MaterializeVersionLocked());
    latch_stats_.RecordConsolidation(chain);
  }
}

Snapshot UpdatableIndex::CaptureSnapshot() const {
  // The write path maintains the chain: the capture is one short pin on
  // the manager, no side-table latch at all.
  return snapshots_.Acquire();
}

Status UpdatableIndex::ExecuteSnapshot(const Query& query,
                                       const Snapshot& snapshot,
                                       QueryContext* ctx,
                                       QueryResult* result) {
  result->Reset(query.kind);
  if (!snapshot.valid()) {
    return Status::InvalidArgument("snapshot is empty/released");
  }
  if (snapshot.mgr_ != &snapshots_) {
    return Status::InvalidArgument("snapshot belongs to another index");
  }
  if (query.range.Empty()) return Status::OK();
  // No side-table latch for the duration of the read: the pin reaches the
  // base column and wrapped index only through its own generation, which
  // it keeps alive across any concurrent checkpoint.
  Status s = CombineWithDifferentials(query, snapshot, ctx, result);
  if (s.ok() && query.kind == QueryKind::kRowIds) {
    result->count = result->row_ids.size();
  }
  latch_stats_.RecordSnapshotRead(commit_epoch() - snapshot.epoch());
  return s;
}

Status UpdatableIndex::ExecuteImpl(const Query& query, QueryContext* ctx,
                                   QueryResult* result) {
  if (ctx != nullptr && ctx->snapshot_scope != nullptr) {
    // Transactional scope: every query of the scope reads at the ONE epoch
    // its first query pinned for this index (repeatable reads across a
    // multi-query transaction). A scope closed mid-flight (EndSnapshot
    // racing an async submission) refuses adoption; fall through to a
    // per-query capture.
    SnapshotScope* scope = ctx->snapshot_scope.get();
    const Snapshot* pinned = scope->Find(this);
    if (pinned == nullptr) pinned = scope->Adopt(this, CaptureSnapshot());
    if (pinned != nullptr) {
      return ExecuteSnapshot(query, *pinned, ctx, result);
    }
  }
  // Per-query capture: each execution (each ticket of an async batch) pins
  // its own epoch, so every answer is individually consistent.
  Snapshot snapshot = CaptureSnapshot();
  return ExecuteSnapshot(query, snapshot, ctx, result);
}

Status UpdatableIndex::Insert(Value v, QueryContext* ctx, RowId* row_id) {
  // User transaction: exclusive key lock under the column resource.
  const bool locking = lock_manager_ != nullptr && !lock_resource_.empty();
  if (locking) {
    Status s = lock_manager_->Acquire(
        ctx->txn_id, lock_resource_ + "/key:" + std::to_string(v),
        LockMode::kX);
    if (!s.ok()) return s;
  }
  RowId assigned;
  CommitSink* sink = nullptr;
  uint64_t lsn = 0;
  {
    auto lk = AccountedWriteLock(mu_, &latch_stats_);
    assigned = next_row_id_++;
    inserts_.emplace(v, assigned);
    // Write-ahead: the record is sequenced at the commit point, before the
    // epoch advance makes the insert visible — log order == commit order.
    // LogCommit only buffers; the fsync wait happens after the latch drops.
    if (sink_ != nullptr) {
      sink = sink_;
      lsn = sink->LogCommit(CommitSink::OpType::kInsert, v, assigned);
    }
    CommitEpochLocked(SideStoreDelta::Op::kInsert, v, assigned);
  }
  if (locking) lock_manager_->ReleaseAll(ctx->txn_id);  // auto-commit
  if (sink != nullptr) {
    Status ds = sink->WaitDurable(lsn);
    if (!ds.ok()) return ds;
  }
  if (row_id != nullptr) *row_id = assigned;
  return Status::OK();
}

Status UpdatableIndex::Delete(Value v, RowId row_id, QueryContext* ctx) {
  const bool locking = lock_manager_ != nullptr && !lock_resource_.empty();
  if (locking) {
    Status s = lock_manager_->Acquire(
        ctx->txn_id, lock_resource_ + "/key:" + std::to_string(v),
        LockMode::kX);
    if (!s.ok()) return s;
  }
  Status result = Status::OK();
  CommitSink* sink = nullptr;
  uint64_t lsn = 0;
  {
    auto lk = AccountedWriteLock(mu_, &latch_stats_);
    // A pending insertion is cancelled directly.
    bool cancelled = false;
    for (auto it = inserts_.lower_bound(v);
         it != inserts_.end() && it->first == v; ++it) {
      if (it->second == row_id) {
        inserts_.erase(it);
        cancelled = true;
        break;
      }
    }
    if (!cancelled) {
      const Column& base = gen_->base;
      const bool in_base = row_id < base.size() && base[row_id] == v;
      if (!in_base || anti_matter_.count({v, row_id}) > 0) {
        result = Status::NotFound("no live tuple (" + std::to_string(v) +
                                  ", " + std::to_string(row_id) + ")");
      } else {
        anti_matter_.emplace(v, row_id);
      }
    }
    if (result.ok()) {
      if (sink_ != nullptr) {
        sink = sink_;
        lsn = sink->LogCommit(CommitSink::OpType::kDelete, v, row_id);
      }
      CommitEpochLocked(cancelled ? SideStoreDelta::Op::kCancelInsert
                                  : SideStoreDelta::Op::kAntiMatter,
                        v, row_id);
    }
  }
  if (locking) lock_manager_->ReleaseAll(ctx->txn_id);
  if (sink != nullptr) {
    Status ds = sink->WaitDurable(lsn);
    if (!ds.ok()) return ds;
  }
  return result;
}

Status UpdatableIndex::Checkpoint() {
  // No drain: pinned readers keep the old generation alive through their
  // versions, so the fold builds the next one under the writer latch and
  // publishes it without waiting for any pin. Unless a pin still holds
  // it, the old generation dies with `retired`, after the latch drops.
  std::shared_ptr<const BaseGeneration> retired;
  std::unique_lock<std::shared_mutex> lk(mu_);
  retired = gen_;
  const Column& old_base = retired->base;
  std::vector<Value> values;
  values.reserve(old_base.size() + inserts_.size() - anti_matter_.size());
  for (size_t i = 0; i < old_base.size(); ++i) {
    const Value v = old_base[i];
    if (anti_matter_.count({v, static_cast<RowId>(i)}) > 0) continue;
    values.push_back(v);
  }
  for (const auto& [v, id] : inserts_) values.push_back(v);
  gen_ = std::make_shared<BaseGeneration>(
      Column(old_base.name(), std::move(values)), config_);
  inserts_.clear();
  anti_matter_.clear();
  next_row_id_ = static_cast<RowId>(gen_->base.size());
  // The fold is one logged, committed system transaction: folding is a
  // pure function of the pre-fold state, so a single kFold record replays
  // it deterministically (recovery calls Checkpoint() with no sink bound).
  CommitSink* sink = sink_;
  uint64_t lsn = 0;
  if (sink != nullptr) {
    lsn = sink->LogCommit(CommitSink::OpType::kFold, 0, 0);
  }
  // The fold advances the epoch and publishes the post-checkpoint
  // (empty-differential) version of the next base generation.
  commit_epoch_.fetch_add(1, std::memory_order_release);
  snapshots_.Install(MaterializeVersionLocked());
  lk.unlock();
  if (sink != nullptr) return sink->WaitDurable(lsn);
  return Status::OK();
}

void UpdatableIndex::SetCommitSink(CommitSink* sink) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  sink_ = sink;
}

void UpdatableIndex::RestoreState(
    const std::vector<std::pair<Value, RowId>>& inserts,
    const std::vector<std::pair<Value, RowId>>& anti_matter,
    RowId next_row_id, uint64_t epoch) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  inserts_.clear();
  anti_matter_.clear();
  for (const auto& [v, id] : inserts) inserts_.emplace(v, id);
  anti_matter_.insert(anti_matter.begin(), anti_matter.end());
  next_row_id_ = next_row_id;
  commit_epoch_.store(epoch, std::memory_order_release);
  // Re-seed the version chain at the restored epoch so the first snapshot
  // capture after recovery sees the restored differentials (monotonic
  // epochs hold: the constructor-time state sits at epoch 0, at or below
  // any restored epoch).
  snapshots_.Install(MaterializeVersionLocked());
}

size_t UpdatableIndex::num_rows() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return gen_->base.size() + inserts_.size() - anti_matter_.size();
}

size_t UpdatableIndex::pending_inserts() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return inserts_.size();
}

size_t UpdatableIndex::pending_deletes() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return anti_matter_.size();
}

}  // namespace adaptidx
