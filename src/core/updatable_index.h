#ifndef ADAPTIDX_CORE_UPDATABLE_INDEX_H_
#define ADAPTIDX_CORE_UPDATABLE_INDEX_H_

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/commit_sink.h"
#include "core/index_factory.h"
#include "core/snapshot.h"
#include "lock/lock_manager.h"

namespace adaptidx {

/// \brief One generation of the read-only half of an `UpdatableIndex`:
/// the immutable base column and the adaptive index built over it.
///
/// A checkpoint folds the differentials into the next generation and
/// publishes it with the post-fold version, "as in dropping and
/// re-creating an optional index" (Section 4.2). A reader pinned to the
/// old generation needs nothing from the new one, so the old generation
/// simply lives on (shared ownership through `SideStoreVersion`) until its
/// last pin is released; no reader or checkpoint ever waits for the other.
///
/// Thread-safety: `base` is immutable; `index` answers concurrent queries
/// under its own latching.
struct BaseGeneration {
  /// \brief Takes the column and builds `config`'s adaptive index over it.
  BaseGeneration(Column base_in, const IndexConfig& config);
  BaseGeneration(const BaseGeneration&) = delete;
  BaseGeneration& operator=(const BaseGeneration&) = delete;

  /// \brief The base column; row ids of base rows are its positions.
  Column base;
  /// \brief The wrapped adaptive index, built over (and pointing into)
  /// `base`.
  std::unique_ptr<AdaptiveIndex> index;
};

/// \brief Read-write layer over an adaptive index, built on differential
/// files (Section 4.2): "adaptive merging relies on a form of differential
/// files for high update rates ... updates and deletions may be applied
/// immediately in place or they may be deferred by insertion of
/// 'anti-matter' (deletion markers)".
///
/// Design:
///  - The base column stays immutable, so the wrapped adaptive index keeps
///    refining it with latch-only system transactions, untouched by updates.
///  - Insertions accumulate in a value-ordered side store; deletions become
///    anti-matter markers (deleting a still-pending insertion cancels it
///    directly).
///  - Every query is a snapshot read: it combines the base index's answer
///    with the differentials of a pinned immutable version (below), with
///    no side-table latch held at all.
///  - `Checkpoint()` is a maintenance system transaction that folds the
///    differentials into a fresh base column, builds the adaptive index
///    over it from scratch (re-entering state 4 of Figure 5) as the next
///    `BaseGeneration`, and re-assigns row ids — the rebuild "can exploit
///    knowledge gained during earlier query execution" only in the sense
///    that queries will re-crack it adaptively.
///
/// Transactional interplay (Section 3.3): when a LockManager is configured,
/// every update runs as a *user transaction* taking an exclusive key lock
/// under the column resource. While such locks are held, the wrapped
/// cracking index's refinement probe sees the conflict and forgoes
/// optimization; queries still answer correctly by scanning.
///
/// MVCC snapshot reads (Section 4.3: "merge steps can run as multi-version
/// system transactions"): every committed update advances a monotonically
/// increasing `commit_epoch()` and publishes the commit to the version
/// chain as one O(1) `SideStoreDelta` node (op, value, rowID, epoch)
/// linked onto the current version, periodically consolidated into a flat
/// `SideStoreVersion` so readers never fold an unbounded suffix. The chain
/// is maintained on every index, whatever its config. Every query
/// captures a `Snapshot` (one short pin, O(1)) and answers
/// count/sum/rowIDs/minmax against exactly that epoch and its base
/// generation *without holding the side-table latch during the read* — a
/// long analytical scan never blocks the update stream. A query carrying a
/// `QueryContext::snapshot_scope` instead reuses the scope's pinned epoch
/// across every query of the scope (transactional repeatable reads).
/// Version, delta and generation reclamation is epoch-based — state is
/// dropped once no pin can observe it — so a checkpoint never waits for a
/// reader, and a thread may checkpoint while holding its own snapshot.
///
/// Thread-safety: all methods may be called concurrently from any number
/// of threads; updates and checkpoints serialize on an internal writer
/// latch, reads are latch-free.
///
/// Observability: `latch_stats()` of this wrapper reports the *side-table*
/// writer latch (write acquisitions with blocked wait time; reads never
/// take it, so `read_acquires()` stays 0) plus the snapshot-read/epoch-lag
/// and delta-chain counters; the wrapped index accounts its own
/// piece/column latch traffic separately under
/// `base_index()->latch_stats()`.
class UpdatableIndex : public AdaptiveIndex {
 public:
  /// \brief Takes ownership of the base data. `config` selects and
  /// configures the wrapped adaptive method. When `lock_manager` is given,
  /// it is wired into both the update path (user transactions) and, for
  /// cracking, the refinement conflict probe on `lock_resource`.
  UpdatableIndex(Column base, IndexConfig config,
                 LockManager* lock_manager = nullptr,
                 std::string lock_resource = "");

  /// \brief Drains outstanding snapshots — blocks until every `Snapshot`
  /// of this index is released — so a live pin can never dangle into a
  /// destroyed index (a released pin's destructor touches nothing of the
  /// index). Never destroy the index on a thread holding its own snapshot.
  ~UpdatableIndex() override;

  /// \brief "updatable(<wrapped method>)". Thread-safe.
  std::string Name() const override;

  /// \brief Inserts a new tuple with value `v` as user transaction
  /// `ctx->txn_id`; a fresh row id is assigned and returned via `*row_id`
  /// (optional). Commits one epoch; thread-safe.
  Status Insert(Value v, QueryContext* ctx, RowId* row_id = nullptr);

  /// \brief Deletes the tuple (`v`, `row_id`) by planting anti-matter (or
  /// cancelling a pending insertion). NotFound when no such live tuple
  /// exists. A successful delete commits one epoch; thread-safe.
  Status Delete(Value v, RowId row_id, QueryContext* ctx);

  /// \brief Folds differentials into a fresh base column and rebuilds the
  /// adaptive index; row ids are re-assigned (a rebuild, as in dropping and
  /// re-creating an optional index, Section 4.2). Builds the next
  /// `BaseGeneration` under the writer latch and publishes it, bumping the
  /// snapshot base generation, without waiting for anyone: a held
  /// snapshot keeps answering against its own generation, and a fresh
  /// capture sees the folded state. Thread-safe, also on a thread holding
  /// a snapshot of this index.
  Status Checkpoint();

  // ---- snapshot reads ---------------------------------------------------

  /// \brief Pins a consistent view at the current commit epoch and base
  /// generation: one short O(1) pin on the version chain, no side-table
  /// latch, never blocked by a checkpoint. Thread-safe; a held snapshot
  /// keeps its chain suffix and generation alive, so release it promptly.
  Snapshot CaptureSnapshot() const;

  /// \brief Answers `query` against `snapshot` — repeatable: the same
  /// snapshot always yields the identical result regardless of concurrent
  /// commits. Holds no side-table latch during the read. kSumOther is
  /// NotSupported (no second column); an invalid snapshot is
  /// InvalidArgument. Thread-safe.
  Status ExecuteSnapshot(const Query& query, const Snapshot& snapshot,
                         QueryContext* ctx, QueryResult* result);

  /// \brief Monotonic count of committed updates (0 = pristine base; the
  /// checkpoint fold also commits one epoch). Thread-safe, lock-free read.
  uint64_t commit_epoch() const {
    return commit_epoch_.load(std::memory_order_acquire);
  }

  /// \brief Version-chain bookkeeping (active pins, delta and
  /// consolidation counters) for tests and benchmarks. Thread-safe.
  const SnapshotManager& snapshots() const { return snapshots_; }

  // ---- durability hooks -------------------------------------------------

  /// \brief Attaches (or detaches with nullptr) the write-ahead sink. Every
  /// subsequent committed Insert/Delete/Checkpoint is logged at its commit
  /// point (under the writer latch, before the epoch advances) and
  /// acknowledged only after `CommitSink::WaitDurable` returns. Call while
  /// no updates are in flight (open/recovery time); thread-safe.
  void SetCommitSink(CommitSink* sink);

  /// \brief Overwrites the differential state wholesale — the recovery
  /// entry point, called once after construction (from a checkpoint image)
  /// and before any update/query traffic. `inserts`/`anti_matter` must be
  /// (value, rowID)-sorted as a checkpoint captured them; `next_row_id`
  /// and `epoch` resume the id sequence and commit epoch of the captured
  /// state so WAL replay reproduces the original run exactly. Thread-safe
  /// but not meant for concurrent use.
  void RestoreState(const std::vector<std::pair<Value, RowId>>& inserts,
                    const std::vector<std::pair<Value, RowId>>& anti_matter,
                    RowId next_row_id, uint64_t epoch);

  // ---- introspection ---------------------------------------------------

  /// \brief Logical row count (base − anti-matter + pending inserts).
  /// Thread-safe.
  size_t num_rows() const;

  /// \brief Pending (not yet checkpointed) insertions. Thread-safe.
  size_t pending_inserts() const;

  /// \brief Pending anti-matter markers. Thread-safe.
  size_t pending_deletes() const;

  /// \brief The current generation's wrapped adaptive index, for
  /// single-threaded inspection (recovery, tests). The pointer dies with
  /// its generation, which a concurrent `Checkpoint()` may free; a
  /// concurrent caller reads `CaptureSnapshot().version().generation`
  /// instead, which the pin keeps alive.
  AdaptiveIndex* base_index();

  /// \brief Pieces of the current generation's wrapped index. Thread-safe.
  size_t NumPieces() const override;

 protected:
  /// \brief Answers against the scope's pinned snapshot when the context
  /// carries a `snapshot_scope`, against a freshly captured one otherwise.
  Status ExecuteImpl(const Query& query, QueryContext* ctx,
                     QueryResult* result) override;

 private:
  /// Materializes the current differential state as an immutable version
  /// of the current generation, stamped with the current commit epoch.
  /// mu_ held (shared suffices).
  std::shared_ptr<SideStoreVersion> MaterializeVersionLocked() const;

  /// Commits one epoch and publishes it as one O(1) delta node describing
  /// (`op`, `v`, `row_id`), consolidating when the chain reaches the
  /// adaptive threshold. Requires mu_ held exclusively.
  void CommitEpochLocked(SideStoreDelta::Op op, Value v, RowId row_id);

  /// Chain length at which the next commit consolidates:
  /// min(consolidate_max, max(consolidate_min, pending/8)). Requires mu_
  /// held (shared suffices).
  size_t ConsolidateThresholdLocked() const;

  IndexConfig config_;
  LockManager* lock_manager_;
  std::string lock_resource_;

  mutable std::shared_mutex mu_;
  /// Current generation: replaced by `Checkpoint()` under mu_ exclusive,
  /// published with every installed version.
  std::shared_ptr<const BaseGeneration> gen_;
  /// Pending insertions, value-ordered: value -> row id.
  std::multimap<Value, RowId> inserts_;
  /// Anti-matter markers against base rows, ordered by (value, row id).
  std::set<std::pair<Value, RowId>> anti_matter_;
  RowId next_row_id_;

  /// Write-ahead sink; nullptr when the index is not durable. Written at
  /// open/recovery time, read at every commit point under mu_.
  CommitSink* sink_ = nullptr;

  /// Committed-update counter; written under mu_ exclusive, read lock-free
  /// (epoch-lag accounting).
  std::atomic<uint64_t> commit_epoch_{0};
  /// Version chain + snapshot registry (epoch reclamation, destructor
  /// drain). Seeded with the pristine version; declared last.
  mutable SnapshotManager snapshots_;
};

}  // namespace adaptidx

#endif  // ADAPTIDX_CORE_UPDATABLE_INDEX_H_
