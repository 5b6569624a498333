// Package objstore implements the paper's data path (Figure 1) on real
// bytes: files are broken into fixed-size blocks (1 MB by default),
// blocks are gathered into collections by hashing, each collection is
// made redundant as an m/n redundancy group (mirroring, parity, or
// erasure coding via internal/erasure), and the group's n block-shards
// are placed on distinct virtual disks by the RUSH-style algorithm in
// internal/placement.
//
// The store supports degraded reads (reconstructing through the codec
// when a shard's disk is down), FARM-style recovery (re-creating every
// lost shard on a different surviving disk chosen from the candidate
// stream), and the §2.2 small-write optimization: updating one data
// block propagates only the delta to the check shards instead of
// re-encoding the group.
//
// Everything is in memory; the package is the byte-level counterpart of
// the reliability simulator, sharing its scheme, placement, and codec
// substrates.
package objstore

import (
	"errors"
	"fmt"

	"repro/internal/erasure"
	"repro/internal/placement"
	"repro/internal/redundancy"
)

// Config sizes a Store.
type Config struct {
	// Scheme is the redundancy configuration of every collection.
	Scheme redundancy.Scheme
	// BlockBytes is the file-block size (the paper's default: 1 MB).
	BlockBytes int
	// BlocksPerCollection is the user-data capacity of one collection in
	// blocks; must be a positive multiple of Scheme.M.
	BlocksPerCollection int
	// NumCollections fixes the collection table (and thus total user
	// capacity = NumCollections × BlocksPerCollection × BlockBytes).
	NumCollections int
	// NumDisks is the virtual disk population; must exceed Scheme.N.
	NumDisks int
	// PlacementSeed drives the deterministic placement.
	PlacementSeed uint64
}

// DefaultConfig returns a small store with the paper's 1 MB blocks and
// two-way mirroring.
func DefaultConfig() Config {
	return Config{
		Scheme:              redundancy.Scheme{M: 1, N: 2},
		BlockBytes:          1 << 20,
		BlocksPerCollection: 16,
		NumCollections:      64,
		NumDisks:            16,
		PlacementSeed:       1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Scheme.M < 1 || c.Scheme.N <= c.Scheme.M:
		return fmt.Errorf("objstore: invalid scheme %v", c.Scheme)
	case c.BlockBytes <= 0:
		return errors.New("objstore: non-positive block size")
	case c.BlocksPerCollection <= 0 || c.BlocksPerCollection%c.Scheme.M != 0:
		return fmt.Errorf("objstore: blocks per collection %d not a positive multiple of m=%d",
			c.BlocksPerCollection, c.Scheme.M)
	case c.NumCollections <= 0:
		return errors.New("objstore: non-positive collection count")
	case c.NumDisks <= c.Scheme.N:
		return fmt.Errorf("objstore: %d disks cannot host %d-wide groups with recovery headroom",
			c.NumDisks, c.Scheme.N)
	}
	return nil
}

// shardKey identifies one shard of one collection on a disk.
type shardKey struct {
	collection int
	rep        int
}

// vdisk is one virtual storage device: a shard map plus liveness. sums
// holds one CRC32C per block-sized shard region, written alongside the
// data; a region whose stored bytes no longer match its sum is silent
// corruption, detected on the next read or integrity check.
type vdisk struct {
	id     int
	alive  bool
	shards map[shardKey][]byte
	sums   map[shardKey][]uint32
}

// collection is one redundancy group of the store.
type collection struct {
	id int
	// disks[rep] is the disk holding shard rep, -1 while lost.
	disks []int
	// used counts occupied block slots.
	used int
	// slots[i] is true if block slot i holds a live block.
	slots []bool
}

// blockAddr locates one file block inside a collection.
type blockAddr struct {
	collection int
	slot       int
}

// fileMeta records a stored file.
type fileMeta struct {
	name   string
	size   int
	blocks []blockAddr
}

// Store is an in-memory object storage cluster.
type Store struct {
	cfg         Config
	codec       erasure.Code
	hasher      *placement.Hasher
	disks       []*vdisk
	collections []*collection
	files       map[string]*fileMeta
	shardBytes  int
	slotsPerRow int // block slots per data shard = BlocksPerCollection / M
	// coefs caches the check-shard generator coefficients (nil for
	// mirroring), probed from the codec once at construction.
	coefs [][]byte
	stats StoreStats
}

// StoreStats counts fault-path activity over the store's lifetime.
type StoreStats struct {
	// DegradedReads counts region reads served through codec
	// reconstruction (shard disk down or shard region corrupt).
	DegradedReads int
	// CorruptionsDetected counts shard regions whose checksum failed on a
	// read or integrity pass; CorruptionsRepaired counts those rewritten
	// in place from reconstructed bytes.
	CorruptionsDetected int
	CorruptionsRepaired int
}

// Stats returns the store's fault-path counters.
func (s *Store) Stats() StoreStats { return s.stats }

// Errors returned by Store operations.
var (
	ErrExists      = errors.New("objstore: file already exists")
	ErrNotFound    = errors.New("objstore: file not found")
	ErrFull        = errors.New("objstore: no collection has room")
	ErrUnavailable = errors.New("objstore: data unavailable (too many disks down)")
)

// New builds an empty store with all collections pre-placed (the paper's
// system allocates redundancy groups up front and fills them with
// collections of blocks).
func New(cfg Config) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	codec, err := erasure.New(cfg.Scheme.M, cfg.Scheme.N)
	if err != nil {
		return nil, err
	}
	s := &Store{
		cfg:         cfg,
		codec:       codec,
		hasher:      placement.NewHasher(cfg.PlacementSeed),
		files:       make(map[string]*fileMeta),
		slotsPerRow: cfg.BlocksPerCollection / cfg.Scheme.M,
	}
	s.shardBytes = s.slotsPerRow * cfg.BlockBytes
	if cfg.Scheme.M > 1 {
		coefs, cerr := checkCoefficients(codec, cfg.Scheme.M, cfg.Scheme.N)
		if cerr != nil {
			return nil, cerr
		}
		s.coefs = coefs
	}
	for i := 0; i < cfg.NumDisks; i++ {
		s.disks = append(s.disks, newVdisk(i))
	}
	for cID := 0; cID < cfg.NumCollections; cID++ {
		ids, err := s.hasher.PlaceGroup(storeView{s}, uint64(cID), cfg.Scheme.N, int64(s.shardBytes))
		if err != nil {
			return nil, fmt.Errorf("objstore: placing collection %d: %w", cID, err)
		}
		col := &collection{
			id:    cID,
			disks: ids,
			slots: make([]bool, cfg.BlocksPerCollection),
		}
		for rep, d := range ids {
			s.storeShard(d, shardKey{cID, rep}, make([]byte, s.shardBytes))
		}
		s.collections = append(s.collections, col)
	}
	return s, nil
}

// storeView adapts the store to placement.View. Virtual disks have no
// byte budget (the shard map is the capacity), so eligibility is
// liveness and balance is shard count.
type storeView struct{ s *Store }

func (v storeView) NumDisks() int { return len(v.s.disks) }

func (v storeView) Eligible(id int, _ int64) bool { return v.s.disks[id].alive }

func (v storeView) UsedBytes(id int) int64 {
	return int64(len(v.s.disks[id].shards)) * int64(v.s.shardBytes)
}

// Scheme returns the store's redundancy configuration.
func (s *Store) Scheme() redundancy.Scheme { return s.cfg.Scheme }

// NumDisks returns the virtual disk population.
func (s *Store) NumDisks() int { return len(s.disks) }

// AliveDisks counts disks in service.
func (s *Store) AliveDisks() int {
	n := 0
	for _, d := range s.disks {
		if d.alive {
			n++
		}
	}
	return n
}

// CapacityBlocks returns the total user block slots.
func (s *Store) CapacityBlocks() int {
	return s.cfg.NumCollections * s.cfg.BlocksPerCollection
}

// UsedBlocks returns occupied user block slots.
func (s *Store) UsedBlocks() int {
	n := 0
	for _, c := range s.collections {
		n += c.used
	}
	return n
}

// slotLocation maps a collection slot to its data shard and byte offset.
func (s *Store) slotLocation(slot int) (rep, offset int) {
	return slot / s.slotsPerRow, (slot % s.slotsPerRow) * s.cfg.BlockBytes
}

// chooseCollection maps a block to a collection: hash of (file, index)
// with deterministic linear probing past full collections — the
// decentralized block→collection mapping of Figure 1.
func (s *Store) chooseCollection(name string, index int) (int, error) {
	h := s.hasher.Candidate(hashString(name)+uint64(index)*0x9e3779b97f4a7c15,
		0, 0, s.cfg.NumCollections)
	for probe := 0; probe < s.cfg.NumCollections; probe++ {
		cID := (h + probe) % s.cfg.NumCollections
		if s.collections[cID].used < s.cfg.BlocksPerCollection {
			return cID, nil
		}
	}
	return 0, ErrFull
}

// hashString is a small FNV-1a for block keys.
func hashString(v string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= 1099511628211
	}
	return h
}
