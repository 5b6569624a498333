package objstore

import (
	"fmt"

	"repro/internal/placement"
)

// FailDisk takes a virtual disk out of service, dropping its shards. It
// returns the number of shards lost. Reads continue in degraded mode as
// long as every collection keeps at least m shards.
//
// The shard and checksum maps are cleared in place, not reallocated, so
// repeated fail/recover cycles (crash-loop tests, churn experiments)
// reuse the maps' buckets instead of churning the allocator.
//
//farm:hotpath clear()-reuse failure path, gated by TestFailDiskAllocationStable
func (s *Store) FailDisk(id int) int {
	d := s.disks[id]
	if !d.alive {
		return 0
	}
	d.alive = false
	lost := len(d.shards)
	clear(d.shards)
	clear(d.sums)
	for _, col := range s.collections {
		for rep, cd := range col.disks {
			if cd == id {
				col.disks[rep] = -1
			}
		}
	}
	return lost
}

// ReviveDisk returns a failed disk to service, empty (its contents were
// lost with the failure). Recovery may then choose it as a target again.
func (s *Store) ReviveDisk(id int) {
	s.disks[id].alive = true
}

// CorruptShardRegion silently flips bytes in one block-sized region of a
// resident shard — a fault-injection hook modelling latent sector
// corruption. The stored checksum is left untouched, so the damage is
// discovered only by the next verified read, Recover, or CheckIntegrity.
// Returns false if the shard is not resident (disk down or shard lost).
func (s *Store) CorruptShardRegion(cID, rep, region int) bool {
	if cID < 0 || cID >= len(s.collections) || rep < 0 || rep >= s.cfg.Scheme.N {
		return false
	}
	if region < 0 || region >= s.slotsPerRow {
		return false
	}
	col := s.collections[cID]
	d := col.disks[rep]
	if d < 0 || !s.disks[d].alive {
		return false
	}
	data, ok := s.disks[d].shards[shardKey{cID, rep}]
	if !ok {
		return false
	}
	data[region*s.cfg.BlockBytes] ^= 0xff
	return true
}

// RecoverStats reports what a Recover pass did.
type RecoverStats struct {
	// ShardsRebuilt counts shards re-created on new disks.
	ShardsRebuilt int
	// Unrecoverable counts shards that could not be rebuilt (fewer than
	// m survivors — data loss).
	Unrecoverable int
	// TargetsUsed is the number of distinct disks that received rebuilt
	// shards (FARM declustering: many, not one).
	TargetsUsed int
	// CorruptShards counts survivor shards whose checksums failed
	// verification during the pass (treated as erasures);
	// ShardsRepaired counts those rewritten in place from the
	// reconstruction.
	CorruptShards  int
	ShardsRepaired int
}

// Recover rebuilds every lost shard FARM-style: each missing shard of
// each collection is reconstructed from any m survivors and written to a
// new disk chosen from the collection's candidate stream — alive, not
// already holding a shard of the collection (rule (b)). Lost collections
// (fewer than m survivors) are counted, not resurrected.
func (s *Store) Recover() RecoverStats {
	var stats RecoverStats
	targets := map[int]bool{}
	var exclude placement.Excluder
	for _, col := range s.collections {
		var missing []int
		exclude.Reset(len(s.disks), nil)
		for rep, d := range col.disks {
			if d < 0 {
				missing = append(missing, rep)
			} else {
				exclude.Add(d)
			}
		}
		// Assemble survivors once, verifying every region checksum; a
		// survivor with a corrupt region is an erasure too — using it
		// would launder the corruption into the rebuilt shards.
		shards := make([][]byte, s.cfg.Scheme.N)
		var corrupt []int
		present := 0
		for rep, d := range col.disks {
			if d < 0 {
				continue
			}
			data, err := s.shard(col, rep)
			if err != nil {
				continue
			}
			ok := true
			for off := 0; off < s.shardBytes; off += s.cfg.BlockBytes {
				if !s.regionOK(col, rep, off, data[off:off+s.cfg.BlockBytes]) {
					ok = false
					break
				}
			}
			if !ok {
				stats.CorruptShards++
				s.stats.CorruptionsDetected++
				corrupt = append(corrupt, rep)
				continue
			}
			shards[rep] = append([]byte(nil), data...)
			present++
		}
		if len(missing) == 0 && len(corrupt) == 0 {
			continue
		}
		if present < s.cfg.Scheme.M {
			stats.Unrecoverable += len(missing) + len(corrupt)
			continue
		}
		if err := s.codec.Reconstruct(shards); err != nil {
			stats.Unrecoverable += len(missing) + len(corrupt)
			continue
		}
		// Repair corrupt survivors in place on their live disks.
		for _, rep := range corrupt {
			s.storeShard(col.disks[rep], shardKey{col.id, rep}, shards[rep])
			s.stats.CorruptionsRepaired++
			stats.ShardsRepaired++
		}
		for _, rep := range missing {
			target, _, err := s.hasher.RecoveryTarget(
				storeView{s}, uint64(col.id), rep, int64(s.shardBytes), &exclude, 0)
			if err != nil {
				stats.Unrecoverable++
				continue
			}
			s.storeShard(target, shardKey{col.id, rep}, shards[rep])
			col.disks[rep] = target
			exclude.Add(target)
			targets[target] = true
			stats.ShardsRebuilt++
		}
	}
	stats.TargetsUsed = len(targets)
	return stats
}

// AddDisk grows the cluster with a fresh virtual disk and returns its ID.
func (s *Store) AddDisk() int {
	id := len(s.disks)
	s.disks = append(s.disks, newVdisk(id))
	return id
}

// CheckIntegrity verifies every collection: shards live where the
// metadata says, group parity verifies, and no disk holds two shards of
// one collection. Returns the first violation.
func (s *Store) CheckIntegrity() error {
	for _, col := range s.collections {
		seen := map[int]bool{}
		shards := make([][]byte, s.cfg.Scheme.N)
		complete := true
		for rep, d := range col.disks {
			if d < 0 {
				complete = false
				continue
			}
			if seen[d] {
				return fmt.Errorf("objstore: collection %d has two shards on disk %d", col.id, d)
			}
			seen[d] = true
			data, ok := s.disks[d].shards[shardKey{col.id, rep}]
			if !ok {
				return fmt.Errorf("objstore: collection %d shard %d missing from disk %d", col.id, rep, d)
			}
			for off := 0; off < s.shardBytes; off += s.cfg.BlockBytes {
				if !s.regionOK(col, rep, off, data[off:off+s.cfg.BlockBytes]) {
					return fmt.Errorf("objstore: collection %d shard %d region %d checksum mismatch on disk %d",
						col.id, rep, off/s.cfg.BlockBytes, d)
				}
			}
			shards[rep] = data
		}
		if complete {
			ok, err := s.codec.Verify(shards)
			if err != nil {
				return fmt.Errorf("objstore: verifying collection %d: %w", col.id, err)
			}
			if !ok {
				return fmt.Errorf("objstore: collection %d parity mismatch", col.id)
			}
		}
	}
	return nil
}
