package objstore

import (
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/gf256"
)

// castagnoli is the CRC32C polynomial table used for shard-region sums
// (hardware-accelerated on the platforms that matter).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// newVdisk returns a fresh, alive virtual disk.
func newVdisk(id int) *vdisk {
	return &vdisk{
		id:     id,
		alive:  true,
		shards: make(map[shardKey][]byte),
		sums:   make(map[shardKey][]uint32),
	}
}

// storeShard installs a whole shard on a disk, computing all region sums.
func (s *Store) storeShard(d int, key shardKey, data []byte) {
	dk := s.disks[d]
	dk.shards[key] = data
	sums := make([]uint32, s.slotsPerRow)
	for i := range sums {
		lo := i * s.cfg.BlockBytes
		sums[i] = crc32.Checksum(data[lo:lo+s.cfg.BlockBytes], castagnoli)
	}
	dk.sums[key] = sums
}

// setRegionSum refreshes one region's checksum after a legitimate write.
func (s *Store) setRegionSum(col *collection, rep, offset int, region []byte) {
	d := col.disks[rep]
	s.disks[d].sums[shardKey{col.id, rep}][offset/s.cfg.BlockBytes] =
		crc32.Checksum(region, castagnoli)
}

// regionOK verifies one region of a resident shard against its sum.
func (s *Store) regionOK(col *collection, rep, offset int, region []byte) bool {
	d := col.disks[rep]
	sums, ok := s.disks[d].sums[shardKey{col.id, rep}]
	if !ok {
		return false
	}
	return crc32.Checksum(region, castagnoli) == sums[offset/s.cfg.BlockBytes]
}

// Put stores a file under name. The data is split into BlockBytes blocks
// (the last block zero-padded on disk, exact length kept in metadata);
// each block lands in a collection chosen by hashing and the check
// shards are updated with the §2.2 delta rule.
func (s *Store) Put(name string, data []byte) error {
	if _, dup := s.files[name]; dup {
		return ErrExists
	}
	blocks := (len(data) + s.cfg.BlockBytes - 1) / s.cfg.BlockBytes
	if blocks == 0 {
		blocks = 1 // empty files still occupy one (zero) block
	}
	meta := &fileMeta{name: name, size: len(data)}
	for b := 0; b < blocks; b++ {
		cID, err := s.chooseCollection(name, b)
		if err != nil {
			return err
		}
		col := s.collections[cID]
		slot := -1
		for i, taken := range col.slots {
			if !taken {
				slot = i
				break
			}
		}
		if slot < 0 {
			return ErrFull // chooseCollection said there was room; defensive
		}
		lo := b * s.cfg.BlockBytes
		hi := lo + s.cfg.BlockBytes
		if hi > len(data) {
			hi = len(data)
		}
		var chunk []byte
		if lo < len(data) {
			chunk = data[lo:hi]
		}
		if err := s.writeSlot(col, slot, chunk); err != nil {
			return err
		}
		col.slots[slot] = true
		col.used++
		meta.blocks = append(meta.blocks, blockAddr{collection: cID, slot: slot})
	}
	s.files[name] = meta
	return nil
}

// writeSlot writes block bytes into a collection slot and propagates the
// delta to every check shard: newCheck = oldCheck ⊕ coef·(new ⊕ old),
// the paper's RAID-5-style small write (§2.2). Mirrors (m == 1) copy the
// block into every replica directly.
func (s *Store) writeSlot(col *collection, slot int, chunk []byte) error {
	rep, offset := s.slotLocation(slot)
	data, err := s.shard(col, rep)
	if err != nil {
		return err
	}
	region := data[offset : offset+s.cfg.BlockBytes]
	if !s.regionOK(col, rep, offset, region) {
		// The old bytes are corrupt; the delta rule needs the true old
		// region, so repair it first (readRegion reconstructs and rewrites
		// in place when the disk is alive — it is, shard() just succeeded).
		if _, rerr := s.readRegion(col, rep, offset); rerr != nil {
			return rerr
		}
	}

	// Compute the delta before overwriting.
	delta := make([]byte, s.cfg.BlockBytes)
	copy(delta, region)
	for i := range delta {
		var nb byte
		if i < len(chunk) {
			nb = chunk[i]
		}
		delta[i] ^= nb
	}
	// Overwrite the data region.
	for i := range region {
		if i < len(chunk) {
			region[i] = chunk[i]
		} else {
			region[i] = 0
		}
	}
	s.setRegionSum(col, rep, offset, region)
	return s.propagateDelta(col, rep, offset, delta, region)
}

// propagateDelta folds a data-region delta into the check shards.
func (s *Store) propagateDelta(col *collection, dataRep, offset int, delta, newRegion []byte) error {
	m, n := s.cfg.Scheme.M, s.cfg.Scheme.N
	if m == 1 {
		// Mirroring: replicas hold the same bytes; copy the new region.
		// The full-region overwrite incidentally heals any silent
		// corruption of the replica region.
		for rep := 1; rep < n; rep++ {
			shard, err := s.shard(col, rep)
			if err != nil {
				return err
			}
			copy(shard[offset:offset+s.cfg.BlockBytes], newRegion)
			s.setRegionSum(col, rep, offset, shard[offset:offset+s.cfg.BlockBytes])
		}
		return nil
	}
	for rep := m; rep < n; rep++ {
		shard, err := s.shard(col, rep)
		if err != nil {
			return err
		}
		region := shard[offset : offset+s.cfg.BlockBytes]
		if !s.regionOK(col, rep, offset, region) {
			// The old check bytes are corrupt: folding a delta into garbage
			// yields garbage. Rebuild the region from the (verified) data
			// regions instead — the data rep was just overwritten, so the
			// recomputation lands on the new contents directly.
			s.stats.CorruptionsDetected++
			for i := range region {
				region[i] = 0
			}
			for d := 0; d < m; d++ {
				dreg, derr := s.readRegion(col, d, offset)
				if derr != nil {
					return derr
				}
				gf256.MulSlice(s.coefs[rep-m][d], dreg, region)
			}
			s.stats.CorruptionsRepaired++
			s.setRegionSum(col, rep, offset, region)
			continue
		}
		gf256.MulSlice(s.coefs[rep-m][dataRep], delta, region)
		s.setRegionSum(col, rep, offset, region)
	}
	return nil
}

// checkCoefficients returns the generator coefficients of each check
// shard over the data shards: XOR parity uses all-ones; Reed–Solomon
// uses its Cauchy rows, recovered by probing the codec with unit
// vectors once per store (cached in Store.coefs by New). A codec that
// rejects the probe surfaces as a constructor error, not a panic.
func checkCoefficients(codec interface {
	DataShards() int
	TotalShards() int
	Encode([][]byte) error
}, m, n int) ([][]byte, error) {
	k := n - m
	out := make([][]byte, k)
	shards := make([][]byte, n)
	for i := range shards {
		shards[i] = make([]byte, 1)
	}
	for c := range out {
		out[c] = make([]byte, m)
	}
	for d := 0; d < m; d++ {
		for i := 0; i < m; i++ {
			shards[i][0] = 0
		}
		shards[d][0] = 1
		if err := codec.Encode(shards); err != nil {
			return nil, fmt.Errorf("objstore: probing codec: %w", err)
		}
		for c := 0; c < k; c++ {
			out[c][d] = shards[m+c][0]
		}
	}
	return out, nil
}

// shard fetches a live shard's bytes, failing if its disk is down.
func (s *Store) shard(col *collection, rep int) ([]byte, error) {
	d := col.disks[rep]
	if d < 0 || !s.disks[d].alive {
		return nil, fmt.Errorf("%w: collection %d shard %d", ErrUnavailable, col.id, rep)
	}
	data, ok := s.disks[d].shards[shardKey{col.id, rep}]
	if !ok {
		return nil, fmt.Errorf("objstore: shard %d/%d missing from disk %d", col.id, rep, d)
	}
	return data, nil
}

// Get reads a file back, reconstructing through the codec when data
// shards are unreachable (degraded read). Fails with ErrUnavailable when
// more than n−m shards of some needed collection are down.
func (s *Store) Get(name string) ([]byte, error) {
	meta, ok := s.files[name]
	if !ok {
		return nil, ErrNotFound
	}
	out := make([]byte, meta.size)
	for b, addr := range meta.blocks {
		col := s.collections[addr.collection]
		rep, offset := s.slotLocation(addr.slot)
		region, err := s.readRegion(col, rep, offset)
		if err != nil {
			return nil, err
		}
		lo := b * s.cfg.BlockBytes
		n := copy(out[lo:], region)
		_ = n
	}
	return out, nil
}

// readRegion returns a data shard region. A shard on a failed disk or a
// region whose checksum does not verify is treated as an erasure: the
// region is reconstructed from the survivors' verified regions, and
// corrupt regions on live disks are repaired in place with the
// reconstructed bytes.
func (s *Store) readRegion(col *collection, rep, offset int) ([]byte, error) {
	if data, err := s.shard(col, rep); err == nil {
		region := data[offset : offset+s.cfg.BlockBytes]
		if s.regionOK(col, rep, offset, region) {
			return region, nil
		}
		s.stats.CorruptionsDetected++
	}
	// Degraded read: assemble the surviving verified regions and
	// reconstruct the missing/corrupt ones. Reconstruction is per region
	// (the codecs are bytewise), so only BlockBytes per shard move.
	s.stats.DegradedReads++
	shards := make([][]byte, s.cfg.Scheme.N)
	var corrupt []int
	present := 0
	for r := range shards {
		data, err := s.shard(col, r)
		if err != nil {
			continue
		}
		region := data[offset : offset+s.cfg.BlockBytes]
		if !s.regionOK(col, r, offset, region) {
			if r != rep { // rep's corruption was already counted above
				s.stats.CorruptionsDetected++
			}
			corrupt = append(corrupt, r)
			continue
		}
		// Reconstruct on copies: a degraded read must not mutate state.
		shards[r] = append([]byte(nil), region...)
		present++
	}
	if present < s.cfg.Scheme.M {
		return nil, fmt.Errorf("%w: collection %d has %d of %d shards",
			ErrUnavailable, col.id, present, s.cfg.Scheme.M)
	}
	if err := s.codec.Reconstruct(shards); err != nil {
		return nil, err
	}
	// Repair corrupt regions in place on their live disks so the next
	// read is clean (scrub-on-read).
	for _, r := range corrupt {
		data, err := s.shard(col, r)
		if err != nil {
			continue
		}
		copy(data[offset:offset+s.cfg.BlockBytes], shards[r])
		s.setRegionSum(col, r, offset, data[offset:offset+s.cfg.BlockBytes])
		s.stats.CorruptionsRepaired++
	}
	return shards[rep], nil
}

// WriteAt overwrites part of an existing file in place, starting at
// offset off. It cannot extend the file. Each touched block goes through
// the §2.2 delta path: only the changed block and the group's check
// shards are written, not the whole group.
func (s *Store) WriteAt(name string, p []byte, off int) error {
	meta, ok := s.files[name]
	if !ok {
		return ErrNotFound
	}
	if off < 0 || off+len(p) > meta.size {
		return fmt.Errorf("objstore: WriteAt range [%d, %d) outside file of %d bytes",
			off, off+len(p), meta.size)
	}
	for len(p) > 0 {
		b := off / s.cfg.BlockBytes
		inner := off % s.cfg.BlockBytes
		n := s.cfg.BlockBytes - inner
		if n > len(p) {
			n = len(p)
		}
		addr := meta.blocks[b]
		col := s.collections[addr.collection]
		rep, shardOff := s.slotLocation(addr.slot)
		// Read the current block (degraded if needed), splice, rewrite.
		cur, err := s.readRegion(col, rep, shardOff)
		if err != nil {
			return err
		}
		block := append([]byte(nil), cur...)
		copy(block[inner:], p[:n])
		// Trim the trailing zero padding implied for the final block.
		logical := meta.size - b*s.cfg.BlockBytes
		if logical > s.cfg.BlockBytes {
			logical = s.cfg.BlockBytes
		}
		if err := s.writeSlot(col, addr.slot, block[:logical]); err != nil {
			return err
		}
		p = p[n:]
		off += n
	}
	return nil
}

// ReadAt reads len(p) bytes from the file starting at offset off,
// reconstructing through the codec for blocks on failed disks.
func (s *Store) ReadAt(name string, p []byte, off int) error {
	meta, ok := s.files[name]
	if !ok {
		return ErrNotFound
	}
	if off < 0 || off+len(p) > meta.size {
		return fmt.Errorf("objstore: ReadAt range [%d, %d) outside file of %d bytes",
			off, off+len(p), meta.size)
	}
	for len(p) > 0 {
		b := off / s.cfg.BlockBytes
		inner := off % s.cfg.BlockBytes
		n := s.cfg.BlockBytes - inner
		if n > len(p) {
			n = len(p)
		}
		addr := meta.blocks[b]
		col := s.collections[addr.collection]
		rep, shardOff := s.slotLocation(addr.slot)
		region, err := s.readRegion(col, rep, shardOff)
		if err != nil {
			return err
		}
		copy(p[:n], region[inner:])
		p = p[n:]
		off += n
	}
	return nil
}

// Delete removes a file, freeing its slots (block bytes are zeroed so
// parity stays consistent).
func (s *Store) Delete(name string) error {
	meta, ok := s.files[name]
	if !ok {
		return ErrNotFound
	}
	for _, addr := range meta.blocks {
		col := s.collections[addr.collection]
		if err := s.writeSlot(col, addr.slot, nil); err != nil {
			return err
		}
		col.slots[addr.slot] = false
		col.used--
	}
	delete(s.files, name)
	return nil
}

// Files lists stored file names in lexical order. (It previously
// returned map-iteration order, which Go randomizes per run — harmless
// for membership checks but a reproducibility leak for any caller that
// prints or iterates the listing.)
func (s *Store) Files() []string {
	out := make([]string, 0, len(s.files))
	for name := range s.files { //farm:orderinvariant keys are sorted on the next line
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Size returns a file's byte length.
func (s *Store) Size(name string) (int, error) {
	meta, ok := s.files[name]
	if !ok {
		return 0, ErrNotFound
	}
	return meta.size, nil
}
