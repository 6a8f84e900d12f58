/**
 * @file
 * A shard router over N independent ResultStore journals — the durable
 * half of the sharded hpe_serve daemon.
 *
 * Layout: `<dir>/shard-<i>/` holds shard i's journal segments, each a
 * complete self-describing ResultStore directory with its own `LOCK`.
 * The wrapper additionally flocks `<dir>/LOCK` before touching any
 * shard, so two daemons pointed at one root exclude each other before
 * either reads or migrates a shard.
 *
 * Routing: shardOf() hashes the fingerprint (FNV-1a) modulo the shard
 * count.  The mapping is deterministic and pinned by tests — the same
 * fingerprint always lands on the same shard for a given count — and
 * after open() the shard vector is immutable, so append() routes with
 * no wrapper lock: journal appends on different shards never contend.
 *
 * Reopening with a *different* shard count is a supported migration,
 * not corruption: open() replays every journal it finds — current
 * shard dirs and orphan `shard-<j>` dirs with j >= the new count —
 * re-appends records that no longer live in their owning shard to the
 * right one, and deletes the drained sources.  Every frame a previous
 * incarnation wrote survives; a crash mid-migration merely redoes it
 * (re-appends supersede).
 *
 * Bare `journal-*.log` segments in the root (the retired unsharded
 * layout, which no writer produces: even one shard lives in
 * `shard-0/`) make open() fail with the segments untouched.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/result_store.hpp"

namespace hpe::serve {

/** Fingerprint-sharded durable result store; see file comment. */
class ShardedResultStore
{
  public:
    /** @p cfg.dir is the root; each shard journals in `dir/shard-<i>`.
     *  @p shards must be >= 1. */
    ShardedResultStore(const ResultStoreConfig &cfg, unsigned shards);
    ~ShardedResultStore();

    ShardedResultStore(const ShardedResultStore &) = delete;
    ShardedResultStore &operator=(const ShardedResultStore &) = delete;

    /** Lock the root, open every shard, migrate orphan shards (see
     *  file comment).  @return false with @p error filled on the first
     *  failure (root locked, unsharded segments in the root,
     *  unopenable shard, ...). */
    bool open(std::string &error);

    /** Close every shard and release the root lock (idempotent).
     *  append() after close() is a safe no-op, like ResultStore's. */
    void close();

    /** The owning shard of @p fingerprint under @p shards shards. */
    static unsigned shardOf(const std::string &fingerprint, unsigned shards);

    /** Union of every shard's recovery snapshot, shard-major in each
     *  shard's last-write order.  Empty after releaseRecovered(). */
    const std::vector<ResultStore::Record> &recovered() const
    {
        return recovered_;
    }
    void releaseRecovered();

    /** Append one completed result to its owning shard. */
    void append(const std::string &fingerprint, const std::string &payload,
                bool failed);
    /** Append a delete marker to the owning shard. */
    void appendTombstone(const std::string &fingerprint);

    unsigned shards() const { return shardCount_; }
    /** Shard @p index's underlying store (valid after open()). */
    ResultStore &shard(unsigned index) { return *shards_.at(index); }

    /** @{ Aggregates of the per-shard counters. */
    std::uint64_t appendCount() const;
    std::uint64_t tombstoneCount() const;
    std::uint64_t recoveredCount() const { return recoveredCount_; }
    std::uint64_t tornTruncations() const;
    std::uint64_t compactions() const;
    std::uint64_t segmentCount() const;
    std::uint64_t liveCount() const;
    /** False once any shard degraded to memory-only. */
    bool healthy() const;
    /** Records re-homed by the last open() (resharding). */
    std::uint64_t migratedRecords() const { return migrated_; }
    /** @} */

  private:
    std::string shardDir(unsigned index) const;
    /** Drain an orphan shard directory into the current shards,
     *  collecting its records into @p migrants. */
    bool migrateDir(const std::string &dir,
                    std::vector<ResultStore::Record> &migrants,
                    std::string &error);

    const ResultStoreConfig cfg_;
    const unsigned shardCount_;

    int rootLockFd_ = -1;
    bool opened_ = false;
    std::vector<std::unique_ptr<ResultStore>> shards_;
    std::vector<ResultStore::Record> recovered_;
    std::uint64_t recoveredCount_ = 0;
    std::uint64_t migrated_ = 0;
};

} // namespace hpe::serve
