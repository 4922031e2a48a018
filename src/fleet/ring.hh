/**
 * @file
 * Consistent-hash ring over fleet shards.
 *
 * Each shard contributes `vnodes` points to a 64-bit ring, at
 * fmix64(FNV-1a-64("<address>#<vnode-index>")): the serving content
 * key's hash, passed through murmur3's 64-bit finalizer so that vnode
 * names differing in one digit land far apart. A key is owned by the
 * shard of the first ring point at or clockwise after
 * fmix64(FNV-1a-64(key)); its replicas are the next rf-1 *distinct*
 * shards further clockwise. Properties the fleet relies on:
 *
 *  - Determinism: every client and shard computes identical placement
 *    from the shared Topology — there is no placement metadata
 *    service, the math *is* the metadata.
 *  - Stability: removing one shard remaps only the keys it owned
 *    (onto their clockwise successors); the other shards' keys do
 *    not move. That is what makes a rolling restart cheap.
 *  - Replica walk: replicas(key, rf) is the failover order — a
 *    router that cannot reach the primary tries the same list the
 *    replication writes targeted, so a warm copy is always next in
 *    line.
 */

#ifndef GANACC_FLEET_RING_HH
#define GANACC_FLEET_RING_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fleet/topology.hh"

namespace ganacc {
namespace fleet {

/** The placement function of a fleet (immutable once built). */
class Ring
{
  public:
    /** Build from an ordered shard list. */
    Ring(const std::vector<std::string> &shards, int vnodes);

    explicit Ring(const Topology &topo)
        : Ring(topo.shards, topo.vnodes)
    {
    }

    int shardCount() const { return shardCount_; }

    /** The shard index owning `key` (its primary). */
    int primary(const std::string &key) const;

    /**
     * The `rf` distinct shards holding `key`, primary first, in
     * clockwise ring order (the replication targets and the failover
     * order). rf is clamped to the shard count.
     */
    std::vector<int> replicas(const std::string &key, int rf) const;

    /** The ring points (hash, shard), sorted — exposed for tests. */
    const std::vector<std::pair<std::uint64_t, int>> &
    points() const
    {
        return points_;
    }

  private:
    int shardCount_;
    std::vector<std::pair<std::uint64_t, int>> points_;
};

} // namespace fleet
} // namespace ganacc

#endif // GANACC_FLEET_RING_HH
