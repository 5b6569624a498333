// Package replace implements the paper's disk-replacement machinery
// (§3.6): failed drives are not swapped one-by-one but in batches, sized
// by a trigger fraction of the original population (2–8% in Figure 7).
// When a batch of fresh drives arrives, data migrates onto them to restore
// balance; the freshly added cohort briefly raises the system's failure
// rate (the "cohort effect").
package replace

import (
	"errors"

	"repro/internal/cluster"
	"repro/internal/disk"
)

// Policy describes when batches are injected.
type Policy struct {
	// TriggerFraction is the share of the original drive population
	// whose failure triggers a batch (paper: 0.2, 0.4, 0.6, 0.8).
	TriggerFraction float64
}

// ErrPolicy reports an invalid replacement policy.
var ErrPolicy = errors.New("replace: trigger fraction out of (0,1)")

// NewPolicy validates the trigger fraction.
func NewPolicy(fraction float64) (Policy, error) {
	if fraction <= 0 || fraction >= 1 {
		return Policy{}, ErrPolicy
	}
	return Policy{TriggerFraction: fraction}, nil
}

// Threshold returns the failure count that triggers a batch for a system
// of originalDisks drives — at least one.
func (p Policy) Threshold(originalDisks int) int {
	t := int(p.TriggerFraction * float64(originalDisks))
	if t < 1 {
		t = 1
	}
	return t
}

// ExpectedBatches estimates how many batches fire over the drives' design
// life given the six-year failure fraction — the paper's "about five times
// at the batch size of 2%... about once at 8%" arithmetic (§3.6, with ~10%
// of drives failing).
func (p Policy) ExpectedBatches(sixYearFailureFraction float64) int {
	if sixYearFailureFraction <= 0 {
		return 0
	}
	return int(sixYearFailureFraction / p.TriggerFraction)
}

// Rebalancer holds RebalanceOnto's scratch buffers — the donor list and
// the snapshot of a donor's block list — so a caller that rebalances
// repeatedly reuses them. The zero value is ready; a Rebalancer must not
// be shared between goroutines (Monte Carlo workers each keep their own).
type Rebalancer struct {
	donors []int
	blocks []cluster.BlockRef
}

// RebalanceOnto migrates blocks onto freshly added drives with a
// one-shot Rebalancer (see Rebalancer.Onto). Returns the bytes migrated.
func RebalanceOnto(cl *cluster.Cluster, newDisks []int) int64 {
	var rb Rebalancer
	return rb.Onto(cl, newDisks)
}

// Onto migrates blocks onto freshly added drives until each new drive
// reaches the alive-population mean utilization, drawing from the drives
// above the mean in disk-id order. A block moves only where the
// cluster's target rule allows (Cluster.BuddyExcludes): never onto a
// drive that already holds a block of its group, nor, under rack-aware
// placement, into a rack that does. Returns the bytes migrated.
//
// The paper treats reorganization as instantaneous weight-based
// remapping; what matters for reliability is the small migrated fraction
// (2–8% of objects) and the fresh cohort's age, both preserved here.
func (rb *Rebalancer) Onto(cl *cluster.Cluster, newDisks []int) int64 {
	if len(newDisks) == 0 {
		return 0
	}
	// Mean utilization over alive drives (the new ones included).
	var total int64
	alive := 0
	for _, d := range cl.Disks {
		if d.State == disk.Alive {
			total += d.UsedBytes
			alive++
		}
	}
	if alive == 0 {
		return 0
	}
	mean := total / int64(alive)

	// Donors: alive drives above the mean, in id order.
	rb.donors = rb.donors[:0]
	for id, d := range cl.Disks {
		if d.State == disk.Alive && d.UsedBytes > mean && !contains(newDisks, id) {
			rb.donors = append(rb.donors, id)
		}
	}

	var migrated int64
	for _, nd := range newDisks {
		for _, donor := range rb.donors {
			if cl.Disks[nd].UsedBytes >= mean {
				break
			}
			if cl.Disks[donor].UsedBytes <= mean {
				continue // drained by an earlier new drive; nothing to give
			}
			// Walk a snapshot; MoveBlock mutates the list.
			rb.blocks = append(rb.blocks[:0], cl.BlocksOn(donor)...)
			for _, ref := range rb.blocks {
				if cl.Disks[nd].UsedBytes >= mean || cl.Disks[donor].UsedBytes <= mean {
					break
				}
				if cl.BuddyExcludes(int(ref.Group)).Excluded(nd) {
					continue
				}
				if cl.MoveBlock(ref, nd) {
					migrated += cl.BlockBytes
				}
			}
		}
	}
	return migrated
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
