package recovery

import "repro/internal/metrics"

// StragglerPolicy switches the straggler-mitigation layer of the
// recovery engines: peer-comparison detection of fail-slow disks,
// hedged duplicate transfers for rebuilds stuck behind a slow endpoint,
// hard rebuild timeouts falling back to the retry/re-source/abandon
// ladder, and eviction of persistent stragglers through the
// S.M.A.R.T.-style suspect/drain path. The layer's tuning is fixed by
// the constants below; the layer runs whole or not at all.
//
// The zero value disables the whole layer and leaves every engine code
// path byte-identical to a tree without it (no timers armed, no
// detector state, no extra allocations).
//
// Everything here is deterministic: detection and hedging decisions are
// pure functions of the simulated event history — no random draws — so
// runs remain reproducible and byte-identical across Monte Carlo worker
// counts.
type StragglerPolicy struct {
	// Enabled turns the layer on.
	Enabled bool
}

// The straggler layer's tuning.
const (
	// ewmaAlpha is the exponential-smoothing weight of the per-disk
	// rebuild-throughput estimate: higher reacts faster, lower rides out
	// attribution noise (a healthy disk is dinged once when paired with
	// a slow peer).
	ewmaAlpha = 0.25
	// slowFactorThreshold flags a disk when the cluster-median transfer
	// throughput exceeds the disk's estimate by this factor. It sits
	// safely below the injected slowdown factor and above the bandwidth
	// spread natural transfers show.
	slowFactorThreshold = 3
	// minDiskSamples is the number of transfers a disk must have touched
	// before it can be scored.
	minDiskSamples = 6
	// minClusterSamples is the number of transfers the streaming median
	// must have seen before anyone is scored.
	minClusterSamples = 32
	// hedgeAfterMultiple launches one duplicate transfer — another buddy
	// read onto a fresh declustered target, first finisher wins — once a
	// rebuild has been outstanding this multiple of its healthy-model
	// expected duration. A rebuild hedges at most once.
	hedgeAfterMultiple = 3
	// timeoutMultiple hard-aborts a rebuild outstanding this multiple of
	// its expected duration and pushes it through the
	// retry/re-source/abandon ladder. It sits above hedgeAfterMultiple:
	// hedge first, abort later.
	timeoutMultiple = 12
	// evictAfterFlags evicts a disk — marks it suspect and drains it via
	// the S.M.A.R.T. path — after this many consecutive slow scores.
	evictAfterFlags = 4
)

// stragglerDetector scores per-disk rebuild throughput against the
// cluster median: every completed transfer contributes one sample to a
// streaming P² median and to the EWMA estimates of both endpoints. A
// disk whose estimate falls slowFactorThreshold below the median is
// flagged; evictAfterFlags consecutive flags evict it. Purely
// observational — it never sees the injected Slowdown state, only
// transfer durations — and fully deterministic.
type stragglerDetector struct {
	median metrics.P2Quantile
	est    []float64 // EWMA throughput per disk (MB/s)
	cnt    []int32   // samples per disk
	flags  []int32   // consecutive slow scores per disk
	evict  []bool    // already evicted (terminal)
}

// newStragglerDetector sizes a detector for numDisks slots.
func newStragglerDetector(numDisks int) *stragglerDetector {
	d := &stragglerDetector{median: metrics.NewP2(0.5)}
	d.grow(numDisks)
	return d
}

// grow extends the per-disk tables (replacement batches, spares).
func (d *stragglerDetector) grow(n int) {
	for len(d.est) < n {
		d.est = append(d.est, 0)
		d.cnt = append(d.cnt, 0)
		d.flags = append(d.flags, 0)
		d.evict = append(d.evict, false)
	}
}

// observe folds one transfer-throughput sample for disk id and reports
// state transitions: flagged is true when the disk newly enters a slow
// streak, evicted when the streak crosses the eviction threshold (at
// most once per disk, terminal). It is the single-endpoint convenience
// over addSample+score, used by tests; the engines call addSample once
// per transfer and score both endpoints.
func (d *stragglerDetector) observe(id int, mbps float64) (flagged, evicted bool) {
	d.addSample(mbps)
	return d.score(id, mbps)
}

// addSample feeds one completed transfer into the cluster-median
// estimate.
func (d *stragglerDetector) addSample(mbps float64) { d.median.Add(mbps) }

// score folds a transfer-throughput sample into disk id's EWMA estimate
// and reports state transitions (see observe). The cluster median is
// not touched: a transfer contributes one median sample (addSample) but
// dings both of its endpoints.
func (d *stragglerDetector) score(id int, mbps float64) (flagged, evicted bool) {
	d.grow(id + 1)
	if d.cnt[id] == 0 {
		d.est[id] = mbps
	} else {
		d.est[id] = ewmaAlpha*mbps + (1-ewmaAlpha)*d.est[id]
	}
	d.cnt[id]++
	if d.evict[id] || d.cnt[id] < minDiskSamples || d.median.N() < minClusterSamples {
		return false, false
	}
	if d.est[id]*slowFactorThreshold < d.median.Value() {
		d.flags[id]++
		flagged = d.flags[id] == 1
		if d.flags[id] >= evictAfterFlags {
			d.evict[id] = true
			evicted = true
		}
		return flagged, evicted
	}
	d.flags[id] = 0
	return false, false
}

// Estimate returns the detector's current throughput estimate and
// sample count for a disk (test hook).
func (d *stragglerDetector) Estimate(id int) (mbps float64, samples int) {
	if id >= len(d.est) {
		return 0, 0
	}
	return d.est[id], int(d.cnt[id])
}
