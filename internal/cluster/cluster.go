// Package cluster tracks the state of the simulated storage system: the
// disk population, every redundancy group's block locations, the
// disk→block index needed to react to a failure, and per-disk utilization.
//
// The paper's system stores 2 PB of user data in redundancy groups of
// 1–100 GB placed over up to 15,000 one-terabyte drives, with each drive
// initially ~40% utilized so that recovered blocks always find space.
//
// Group state is materialized lazily: a healthy group exists only as its
// row of the flat int32 placement arena (disk per replica), with
// availability implied to be the full scheme width. Mutable bookkeeping —
// the availability count and the data-loss latch — is created on the first
// failure touching a group and recycled through a free pool once the group
// is repaired back to full health, so resident group state scales with
// concurrent damage rather than fleet size.
package cluster

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/disk"
	"repro/internal/placement"
	"repro/internal/redundancy"
	"repro/internal/topology"
)

// BlockRef identifies one block: replica Rep of group Group.
type BlockRef struct {
	Group int32
	Rep   int32
}

// groupState is the mutable bookkeeping of one damaged group. Healthy
// groups have none; the placement arena alone describes them.
type groupState struct {
	// avail is the number of blocks currently intact.
	avail int32
	// lost is latched true the first time avail drops below m. Lost
	// groups keep their state resident forever (the latch must survive).
	lost bool
}

// Config sizes a cluster.
type Config struct {
	Scheme             redundancy.Scheme
	GroupBytes         int64 // user data per redundancy group
	NumGroups          int
	DiskModel          disk.Model
	InitialUtilization float64 // target fill fraction at build time (paper: 0.40)
	PlacementSeed      uint64
	// ExtraDisks adds headroom beyond the computed population (unused by
	// the paper's experiments; handy for stress tests).
	ExtraDisks int
	// Net, when non-nil, is the run's network fabric: disks in dark
	// racks stop being eligible sources/targets, and with RackAware set
	// every placement — the initial build and every later block move —
	// spreads each group over distinct racks (see BuddyExcludes). Nil
	// keeps the flat (topology-free) behaviour bit-for-bit.
	Net *topology.Network
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.GroupBytes <= 0 {
		return fmt.Errorf("cluster: non-positive group size %d", c.GroupBytes)
	}
	if c.NumGroups <= 0 {
		return fmt.Errorf("cluster: non-positive group count %d", c.NumGroups)
	}
	if c.InitialUtilization <= 0 || c.InitialUtilization > 1 {
		return fmt.Errorf("cluster: initial utilization %v out of (0,1]", c.InitialUtilization)
	}
	if c.Scheme.M < 1 || c.Scheme.N <= c.Scheme.M {
		return fmt.Errorf("cluster: invalid scheme %v", c.Scheme)
	}
	return c.DiskModel.Validate()
}

// DisksFor returns the drive population needed to hold the configured
// groups at the initial utilization target.
func (c Config) DisksFor() int {
	raw := c.Scheme.GroupRawBytes(c.GroupBytes) * int64(c.NumGroups)
	perDisk := float64(c.DiskModel.CapacityBytes) * c.InitialUtilization
	n := int(float64(raw)/perDisk + 0.999999)
	if n < c.Scheme.N {
		n = c.Scheme.N // at least one disk per block of a group
	}
	return n + c.ExtraDisks
}

// Cluster is the mutable system state for one simulation run.
type Cluster struct {
	Cfg        Config
	BlockBytes int64 // size of one block on disk
	Disks      []*disk.Drive
	hasher     *placement.Hasher
	// groupDisks is the flat placement arena: groupDisks[g*N+rep] is the
	// disk holding block rep of group g, or -1 while the block is
	// lost/being rebuilt. One allocation for the whole fleet.
	groupDisks []int32
	// stateIdx[g] indexes the group's materialized state in states, or -1
	// while the group is healthy and carries no mutable bookkeeping.
	stateIdx []int32
	// states holds materialized group records; stateOwner[i] is the group
	// owning record i (-1 when the record is in the free pool). Records
	// are recycled through freeStates when a group returns to full
	// health, so len(states) tracks the damage high-water mark.
	states     []groupState
	stateOwner []int32
	freeStates []int32
	// byDisk[d] lists the blocks resident on disk d. The lists of the
	// initial fleet, and of each batch AddDisksModel adds, are carved
	// from one backing array per batch (carveLists).
	byDisk [][]BlockRef
	// indexed counts the blocks listed in byDisk, so a batch of new
	// disks can reserve the fleet's current blocks per disk.
	indexed int
	// aliveCount tracks the alive drive population.
	aliveCount int
	// LostGroups counts groups that have lost data (latched).
	LostGroups int
	// suspect flags drives a health monitor (S.M.A.R.T., §2.3) expects
	// to fail; suspects are excluded from placement and recovery-target
	// choice and are typically being drained. One bit per disk slot.
	suspect []uint64
	// readOnly flags drives fenced for writes by an operator (a rolling-
	// upgrade window): they still serve reads — rebuild sources, user
	// traffic — but accept no new data until the fence lifts. Allocated
	// lazily; nil until the first fence, so the zero-maintenance config
	// costs nothing.
	readOnly []uint64
	// excl is the reusable epoch-stamped target-exclusion scratch
	// BuddyExcludes fills; resetting it is O(1) and refilling it
	// allocates nothing, so steady-state target choice produces no
	// garbage (the former per-rebuild map[int]bool did).
	excl placement.Excluder
	// racks is the rack map of rack-aware placement (the fabric when
	// Cfg.Net is rack-aware), nil under flat placement.
	racks placement.Racker
}

// ErrBuild reports that initial placement could not complete.
var ErrBuild = errors.New("cluster: initial placement failed")

// New builds a cluster and places every group. The build is deterministic
// in the placement seed.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	numDisks := cfg.DisksFor()
	return build(cfg, numDisks, listReserve(cfg.NumGroups*cfg.Scheme.N, numDisks))
}

// listReserve is the block-list capacity to reserve per disk when
// blocks are spread over disks: the mean plus slack for placement
// jitter. Placement is near-balanced, so a list rarely outgrows it, and
// one that does takes the ordinary append path.
func listReserve(blocks, disks int) int {
	est := blocks/max(disks, 1) + 1
	return est + est/4 + 2
}

// build is New with the disk count and the per-disk block-list
// reservation est given.
func build(cfg Config, numDisks, est int) (*Cluster, error) {
	n := cfg.Scheme.N
	c := &Cluster{
		Cfg:        cfg,
		BlockBytes: cfg.Scheme.BlockBytes(cfg.GroupBytes),
		// One backing array for the whole initial fleet instead of one
		// heap object per drive; the per-run build stays O(1) drive
		// allocations even at 100k disks.
		Disks:      disk.AppendFleet(make([]*disk.Drive, 0, numDisks), numDisks, cfg.DiskModel, 0),
		hasher:     placement.NewHasher(cfg.PlacementSeed),
		groupDisks: make([]int32, cfg.NumGroups*n),
		stateIdx:   make([]int32, cfg.NumGroups),
		byDisk:     make([][]BlockRef, numDisks),
		indexed:    cfg.NumGroups * n,
		aliveCount: numDisks,
		suspect:    make([]uint64, (numDisks+63)/64),
	}
	for i := range c.stateIdx {
		c.stateIdx[i] = -1
	}
	if cfg.Net != nil && cfg.Net.RackAware() {
		c.racks = cfg.Net
	}
	carveLists(c.byDisk, est)
	// One reusable placement buffer for the whole build: with the flat
	// group arena this makes the per-group loop allocation-free.
	idsBuf := make([]int, 0, n)
	for g := 0; g < cfg.NumGroups; g++ {
		ids, err := c.hasher.PlaceGroupRacked(c, c.racks, uint64(g), n, c.BlockBytes, idsBuf)
		if err != nil {
			return nil, fmt.Errorf("%w: group %d: %v", ErrBuild, g, err)
		}
		row := c.groupDisks[g*n : (g+1)*n]
		for rep, id := range ids {
			row[rep] = int32(id)
			if !c.Disks[id].Store(c.BlockBytes) {
				return nil, fmt.Errorf("%w: disk %d rejected block", ErrBuild, id)
			}
			c.byDisk[id] = append(c.byDisk[id], BlockRef{Group: int32(g), Rep: int32(rep)})
		}
	}
	return c, nil
}

// carveLists gives every list in lists an empty block list of capacity
// est, all cut from one backing array: one allocation for a whole fleet
// or batch instead of one per disk. Each list is capped at its own share
// (a three-index slice), so a list that outgrows est reallocates alone
// and never writes into its neighbour's share.
func carveLists(lists [][]BlockRef, est int) {
	arena := make([]BlockRef, len(lists)*est)
	for d := range lists {
		lists[d] = arena[d*est : d*est : (d+1)*est]
	}
}

// Group-state accessors. Healthy groups answer from the arena alone.

// GroupCount returns the number of redundancy groups.
func (c *Cluster) GroupCount() int { return c.Cfg.NumGroups }

// GroupDisks returns the group's placement row: element rep is the disk
// holding block rep, or -1 while that block is lost/being rebuilt. The
// slice aliases the cluster's arena; callers must not mutate it.
func (c *Cluster) GroupDisks(group int) []int32 {
	n := c.Cfg.Scheme.N
	return c.groupDisks[group*n : (group+1)*n : (group+1)*n]
}

// GroupDiskOf returns the disk holding block rep of group, or -1 while the
// block is lost/being rebuilt.
func (c *Cluster) GroupDiskOf(group, rep int) int32 {
	return c.groupDisks[group*c.Cfg.Scheme.N+rep]
}

// GroupAvailable returns the number of intact blocks of group. Healthy
// (unmaterialized) groups report the full scheme width.
func (c *Cluster) GroupAvailable(group int) int32 {
	if si := c.stateIdx[group]; si >= 0 {
		return c.states[si].avail
	}
	return int32(c.Cfg.Scheme.N)
}

// GroupLost reports whether the group has (irrecoverably) lost data.
//
//farm:hotpath data-loss latch check on every rebuild decision
func (c *Cluster) GroupLost(group int) bool {
	si := c.stateIdx[group]
	return si >= 0 && c.states[si].lost
}

// ForEachDamaged calls fn for every group with materialized state — every
// group that is degraded or lost — in a deterministic (materialization
// record) order. Iteration cost scales with concurrent damage, not fleet
// size.
func (c *Cluster) ForEachDamaged(fn func(group int32, available int32, lost bool)) {
	for i := range c.states {
		g := c.stateOwner[i]
		if g < 0 {
			continue // pooled record
		}
		fn(g, c.states[i].avail, c.states[i].lost)
	}
}

// MaterializedGroupStates reports the resident and pooled group-state
// record counts (test/diagnostic hook for the lazy-materialization
// contract: live+pooled is the concurrent-damage high-water mark).
func (c *Cluster) MaterializedGroupStates() (live, pooled int) {
	return len(c.states) - len(c.freeStates), len(c.freeStates)
}

// touch returns the group's mutable state, materializing it on the first
// failure that reaches the group. Materialization recycles a pooled record
// when one exists; growing the record table is the only allocating path
// and amortizes to zero once the table covers the damage high-water mark.
//
//farm:hotpath group-state materialization on every block loss
func (c *Cluster) touch(group int32) *groupState {
	if si := c.stateIdx[group]; si >= 0 {
		return &c.states[si]
	}
	var si int32
	if k := len(c.freeStates); k > 0 {
		si = c.freeStates[k-1]
		c.freeStates = c.freeStates[:k-1]
	} else {
		c.states = append(c.states, groupState{})
		c.stateOwner = append(c.stateOwner, -1)
		si = int32(len(c.states) - 1)
	}
	// A dormant group is at full health by construction: every release
	// back to the pool requires avail == N.
	c.states[si] = groupState{avail: int32(c.Cfg.Scheme.N)}
	c.stateOwner[si] = group
	c.stateIdx[group] = si
	return &c.states[si]
}

// releaseState returns a fully-repaired group's record to the free pool.
//
//farm:hotpath group-state recycling on repair completion
func (c *Cluster) releaseState(group int32) {
	si := c.stateIdx[group]
	c.stateIdx[group] = -1
	c.stateOwner[si] = -1
	c.freeStates = append(c.freeStates, si)
}

// placement.View implementation.

// NumDisks returns the number of disk slots (alive or not).
func (c *Cluster) NumDisks() int { return len(c.Disks) }

// Eligible reports whether disk id can accept size more bytes: alive,
// reachable, writable, not suspected of imminent failure, and with space.
func (c *Cluster) Eligible(id int, size int64) bool {
	d := c.Disks[id]
	return d.State == disk.Alive && c.reachable(id) && !c.isReadOnly(id) &&
		!c.isSuspect(id) && d.FreeBytes() >= size
}

// reachable reports whether the disk's rack is currently reachable;
// always true without a configured topology.
func (c *Cluster) reachable(id int) bool {
	return c.Cfg.Net == nil || !c.Cfg.Net.DiskUnreachable(id)
}

// isSuspect tests the suspect bit without bounds surprises.
func (c *Cluster) isSuspect(id int) bool {
	w := id >> 6
	return w < len(c.suspect) && c.suspect[w]&(1<<(uint(id)&63)) != 0
}

// MarkSuspect flags a drive as expected to fail (a S.M.A.R.T. warning):
// no new data — placed, recovered, or migrated — will be directed to it.
func (c *Cluster) MarkSuspect(id int) {
	w := id >> 6
	for w >= len(c.suspect) {
		c.suspect = append(c.suspect, 0)
	}
	c.suspect[w] |= 1 << (uint(id) & 63)
}

// IsSuspect reports whether a drive carries a health warning.
func (c *Cluster) IsSuspect(id int) bool { return c.isSuspect(id) }

// isReadOnly tests the write fence without bounds surprises; nil-safe so
// the zero-maintenance config pays one nil check.
//
//farm:hotpath consulted by Eligible on every target choice
func (c *Cluster) isReadOnly(id int) bool {
	w := id >> 6
	return w < len(c.readOnly) && c.readOnly[w]&(1<<(uint(id)&63)) != 0
}

// MarkReadOnly raises or lowers a drive's write fence (rolling-upgrade
// window). A fenced drive keeps serving reads but is excluded from
// placement, recovery-target, and migration choice until unfenced.
func (c *Cluster) MarkReadOnly(id int, fenced bool) {
	w := id >> 6
	if fenced {
		for w >= len(c.readOnly) {
			c.readOnly = append(c.readOnly, 0)
		}
		c.readOnly[w] |= 1 << (uint(id) & 63)
		return
	}
	if w < len(c.readOnly) {
		c.readOnly[w] &^= 1 << (uint(id) & 63)
	}
}

// ReadOnly reports whether a drive is currently write-fenced.
func (c *Cluster) ReadOnly(id int) bool { return c.isReadOnly(id) }

// UsedBytes returns bytes stored on disk id.
func (c *Cluster) UsedBytes(id int) int64 { return c.Disks[id].UsedBytes }

// AliveDisks returns the number of drives in service.
func (c *Cluster) AliveDisks() int { return c.aliveCount }

// Hasher exposes the placement hasher for recovery-target selection.
func (c *Cluster) Hasher() *placement.Hasher { return c.hasher }

// BlocksOn returns the blocks resident on disk id. The returned slice is
// owned by the cluster; callers must not mutate it.
func (c *Cluster) BlocksOn(id int) []BlockRef { return c.byDisk[id] }

// FailDisk transitions a drive to Failed at time now and unlinks every
// resident block. It returns the list of blocks that were lost and the
// number of groups that crossed into data loss as a result.
//
//farm:hotpath per-failure bookkeeping, gated by TestFailDiskZeroAlloc
func (c *Cluster) FailDisk(id int, now float64) (lost []BlockRef, newlyDead int) {
	d := c.Disks[id]
	if d.State != disk.Alive {
		return nil, 0
	}
	d.State = disk.Failed
	d.FailedAt = now
	c.aliveCount--
	lost = c.byDisk[id]
	c.byDisk[id] = nil
	c.indexed -= len(lost)
	d.UsedBytes = 0
	n := c.Cfg.Scheme.N
	for _, ref := range lost {
		slot := &c.groupDisks[int(ref.Group)*n+int(ref.Rep)]
		if *slot != int32(id) {
			panic(fmt.Sprintf("cluster: index corruption: group %d rep %d on disk %d, index says %d",
				ref.Group, ref.Rep, *slot, id))
		}
		gs := c.touch(ref.Group)
		*slot = -1
		gs.avail--
		if !gs.lost && c.Cfg.Scheme.Lost(int(gs.avail)) {
			gs.lost = true
			c.LostGroups++
			newlyDead++
		}
	}
	return lost, newlyDead
}

// CorruptBlock unlinks a single damaged replica — a discovered latent
// sector error: the resident disk loses the block (and its bytes), group
// availability drops, and the group latches Lost if it fell below m.
// Returns the disk that held the block (-1 if the block was already
// missing, a no-op) and whether the group newly crossed into data loss.
func (c *Cluster) CorruptBlock(ref BlockRef) (onDisk int, newlyDead bool) {
	slot := &c.groupDisks[int(ref.Group)*c.Cfg.Scheme.N+int(ref.Rep)]
	d := *slot
	if d < 0 {
		return -1, false
	}
	list := c.byDisk[d]
	for i, r := range list {
		if r == ref {
			list[i] = list[len(list)-1]
			c.byDisk[d] = list[:len(list)-1]
			c.indexed--
			break
		}
	}
	if c.Disks[d].State == disk.Alive {
		c.Disks[d].Release(c.BlockBytes)
	}
	gs := c.touch(ref.Group)
	*slot = -1
	gs.avail--
	if !gs.lost && c.Cfg.Scheme.Lost(int(gs.avail)) {
		gs.lost = true
		c.LostGroups++
		return int(d), true
	}
	return int(d), false
}

// RetireDisk removes a drive from service without data loss accounting
// (used by replacement policies after its data has been migrated).
func (c *Cluster) RetireDisk(id int) {
	d := c.Disks[id]
	if d.State == disk.Alive {
		c.aliveCount--
	}
	d.State = disk.Retired
}

// PlaceRecovered installs a rebuilt block of (group, rep) on disk target.
// The caller must have reserved the space via ReserveTarget. It increments
// group availability; a group repaired back to full health releases its
// materialized state to the pool.
func (c *Cluster) PlaceRecovered(group, rep, target int) {
	n := c.Cfg.Scheme.N
	slot := &c.groupDisks[group*n+rep]
	if *slot != -1 {
		panic(fmt.Sprintf("cluster: recovered block %d/%d already present on %d", group, rep, *slot))
	}
	// The group must be materialized: one of its blocks was missing.
	gs := &c.states[c.stateIdx[group]]
	*slot = int32(target)
	gs.avail++
	if !gs.lost && int(gs.avail) == n {
		c.releaseState(int32(group))
	}
	c.byDisk[target] = append(c.byDisk[target], BlockRef{Group: int32(group), Rep: int32(rep)})
	c.indexed++
}

// ReserveTarget books BlockBytes on a target drive ahead of a rebuild, so
// concurrent rebuilds cannot oversubscribe it. Returns false if the drive
// cannot take the block.
func (c *Cluster) ReserveTarget(target int) bool {
	return c.Disks[target].Store(c.BlockBytes)
}

// ReleaseTarget returns a reservation made by ReserveTarget (rebuild was
// redirected or abandoned). Only valid for alive drives; failed drives
// already dropped their byte accounting.
func (c *Cluster) ReleaseTarget(target int) {
	if c.Disks[target].State == disk.Alive {
		c.Disks[target].Release(c.BlockBytes)
	}
}

// SourceFor returns a disk currently holding an intact block of group,
// other than exclude, to serve as a rebuild read source. Returns -1 if no
// source exists (the group is unrecoverable). For m/n schemes any intact
// buddy works in this model; the full m-block read is folded into the
// rebuild duration.
func (c *Cluster) SourceFor(group int, exclude int) int {
	for _, d := range c.GroupDisks(group) {
		if d >= 0 && int(d) != exclude && c.Disks[d].State == disk.Alive && c.reachable(int(d)) {
			return int(d)
		}
	}
	return -1
}

// RebuildSourceFor returns the read source for a rebuild of group: a
// reachable intact buddy other than exclude (SourceFor), else one that
// sits behind a dark switch, else -1. The engines park a rebuild whose
// source is unreachable until the rack heals instead of converting a
// partition into data abandonment; -1 means the group's data is gone.
// Without a topology every intact buddy is reachable, so this is
// SourceFor.
func (c *Cluster) RebuildSourceFor(group int, exclude int) int {
	if src := c.SourceFor(group, exclude); src >= 0 {
		return src
	}
	for _, d := range c.GroupDisks(group) {
		if d >= 0 && int(d) != exclude && c.Disks[d].State == disk.Alive {
			return int(d)
		}
	}
	return -1
}

// SourceForExcluding returns a disk holding an intact block of group
// other than ex1 and ex2 — the alternate-buddy pick used by hedged
// transfers and re-sourced rebuilds, which want a source *different*
// from the one that just proved slow or faulty. Returns -1 when no such
// disk exists; callers fall back to SourceFor.
func (c *Cluster) SourceForExcluding(group, ex1, ex2 int) int {
	for _, d := range c.GroupDisks(group) {
		if d >= 0 && int(d) != ex1 && int(d) != ex2 && c.Disks[d].State == disk.Alive && c.reachable(int(d)) {
			return int(d)
		}
	}
	return -1
}

// BuddyExcludes returns the cluster's reusable target-exclusion scratch
// reset and filled for group — the one statement of where a block of
// the group may move (rebuild, redirection, hedge, drain, rebalance).
// It excludes the disks holding intact blocks of the group (rule (b): a
// target must not already hold a block of the group) and, under
// rack-aware placement, their racks (no two blocks of a group in one
// rack). Callers may Add further exclusions (in-flight rebuild targets),
// which under rack-aware placement exclude the target's rack too. The
// returned set is owned by the cluster and valid until the next
// BuddyExcludes call; the call performs no allocation in steady state.
//
//farm:hotpath exclusion scratch fill, gated by TestRecoveryTargetSelectionZeroAlloc
func (c *Cluster) BuddyExcludes(group int) *placement.Excluder {
	c.excl.Reset(len(c.Disks), c.racks)
	for _, d := range c.GroupDisks(group) {
		if d >= 0 {
			c.excl.Add(int(d))
		}
	}
	return &c.excl
}

// AddDisks appends fresh drives entering service at bornAt (a replacement
// batch) and returns their IDs.
func (c *Cluster) AddDisks(count int, bornAt float64) []int {
	return c.AddDisksModel(count, bornAt, c.Cfg.DiskModel)
}

// AddDisksModel is AddDisks with an explicit drive model — a growth batch
// of a newer vintage (different capacity, bandwidth, or hazard) entering
// a fleet of older drives. Failure sampling and placement consult each
// drive's own model, so mixed-vintage fleets need no other plumbing.
// The batch's block lists are carved from one array, each reserving the
// blocks an alive drive holds now (listReserve), so rebuilds, moves and
// rebalances onto the new drives do not regrow them block by block. The
// reservation follows the fleet rather than the build: a fleet that has
// lost most of its data does not reserve room it will never fill.
func (c *Cluster) AddDisksModel(count int, bornAt float64, model disk.Model) []int {
	ids := make([]int, count)
	first := len(c.byDisk)
	for i := range ids {
		ids[i] = first + i
	}
	c.byDisk = slices.Grow(c.byDisk, count)[:first+count]
	carveLists(c.byDisk[first:], listReserve(c.indexed, c.aliveCount))
	c.Disks = disk.AppendFleet(c.Disks, count, model, bornAt)
	c.aliveCount += count
	return ids
}

// MoveBlock migrates an intact block to a new disk (replacement-batch
// rebalancing). The destination must be alive with space; returns false
// otherwise.
func (c *Cluster) MoveBlock(ref BlockRef, to int) bool {
	slot := &c.groupDisks[int(ref.Group)*c.Cfg.Scheme.N+int(ref.Rep)]
	from := *slot
	if from < 0 || int(from) == to {
		return false
	}
	if !c.Disks[to].Store(c.BlockBytes) {
		return false
	}
	// Unlink from the old disk.
	list := c.byDisk[from]
	for i, r := range list {
		if r == ref {
			list[i] = list[len(list)-1]
			c.byDisk[from] = list[:len(list)-1]
			break
		}
	}
	c.Disks[from].Release(c.BlockBytes)
	*slot = int32(to)
	c.byDisk[to] = append(c.byDisk[to], ref)
	return true
}

// Utilizations returns the used fraction of every alive drive.
func (c *Cluster) Utilizations() []float64 {
	out := make([]float64, 0, len(c.Disks))
	for _, d := range c.Disks {
		if d.State == disk.Alive {
			out = append(out, d.Utilization())
		}
	}
	return out
}

// UsedBytesAll returns UsedBytes for every drive slot (0 for dead drives),
// indexed by disk ID — the view Figure 6 plots.
func (c *Cluster) UsedBytesAll() []int64 {
	out := make([]int64, len(c.Disks))
	for i, d := range c.Disks {
		out[i] = d.UsedBytes
	}
	return out
}

// CheckInvariants validates internal consistency (test hook): the byDisk
// index and the placement arena agree, no two intact blocks of a group
// share a disk (rule (b)) or, under rack-aware placement, a rack,
// materialized availability counts match the arena, dormant groups are
// at full health, the state pool's bookkeeping is coherent, and byte
// accounting covers resident blocks.
func (c *Cluster) CheckInvariants() error {
	n := c.Cfg.Scheme.N
	counts := make([]int64, len(c.Disks))
	indexed := 0
	for d, list := range c.byDisk {
		indexed += len(list)
		for _, ref := range list {
			if got := c.GroupDiskOf(int(ref.Group), int(ref.Rep)); got != int32(d) {
				return fmt.Errorf("cluster: block %v indexed on disk %d but group says %d", ref, d, got)
			}
			counts[d] += c.BlockBytes
		}
	}
	if indexed != c.indexed {
		return fmt.Errorf("cluster: %d blocks indexed, count says %d", indexed, c.indexed)
	}
	lost := 0
	for g := 0; g < c.Cfg.NumGroups; g++ {
		avail := int32(0)
		row := c.GroupDisks(g)
		for rep, d := range row {
			if d < 0 {
				continue
			}
			avail++
			if c.Disks[d].State != disk.Alive {
				return fmt.Errorf("cluster: group %d rep %d on non-alive disk %d", g, rep, d)
			}
			for _, e := range row[:rep] {
				if e == d {
					return fmt.Errorf("cluster: group %d holds two blocks on disk %d", g, d)
				}
				if e >= 0 && c.racks != nil && c.racks.RackOf(int(e)) == c.racks.RackOf(int(d)) {
					return fmt.Errorf("cluster: group %d holds blocks on disks %d and %d in rack %d",
						g, e, d, c.racks.RackOf(int(d)))
				}
			}
		}
		si := c.stateIdx[g]
		if si < 0 {
			if avail != int32(n) {
				return fmt.Errorf("cluster: dormant group %d has %d/%d blocks", g, avail, n)
			}
			continue
		}
		if c.stateOwner[si] != int32(g) {
			return fmt.Errorf("cluster: group %d state record %d owned by %d", g, si, c.stateOwner[si])
		}
		gs := &c.states[si]
		if avail != gs.avail {
			return fmt.Errorf("cluster: group %d availability %d, counted %d", g, gs.avail, avail)
		}
		if !gs.lost && avail == int32(n) {
			return fmt.Errorf("cluster: group %d fully healthy but still materialized", g)
		}
		if gs.lost {
			lost++
		}
	}
	if lost != c.LostGroups {
		return fmt.Errorf("cluster: LostGroups %d, counted %d", c.LostGroups, lost)
	}
	free := 0
	for si, owner := range c.stateOwner {
		if owner < 0 {
			free++
		} else if c.stateIdx[owner] != int32(si) {
			return fmt.Errorf("cluster: state record %d claims group %d, which points at %d",
				si, owner, c.stateIdx[owner])
		}
	}
	if free != len(c.freeStates) {
		return fmt.Errorf("cluster: %d free-owner records, pool holds %d", free, len(c.freeStates))
	}
	for d, want := range counts {
		drv := c.Disks[d]
		if drv.State != disk.Alive {
			continue
		}
		// UsedBytes may exceed resident blocks by outstanding rebuild
		// reservations, never the other way.
		if drv.UsedBytes < want {
			return fmt.Errorf("cluster: disk %d used %d < resident %d", d, drv.UsedBytes, want)
		}
	}
	return nil
}
