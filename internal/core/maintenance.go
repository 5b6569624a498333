package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/disk"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the simulator's planned-maintenance layer: the fleet
// operations a real datacenter schedules on purpose, layered over the
// same failure and recovery machinery the unplanned faults exercise.
// Three independent processes, each disabled by its zero knob:
//
//   - periodic proactive drains — every DrainEveryHours the next
//     DrainDisks drives (round-robin by id) take the controlled
//     suspect/drain exit a S.M.A.R.T. warning takes, retiring without a
//     rebuild storm;
//   - rolling-upgrade windows — every UpgradeEveryHours one rack (in
//     rack order) turns read-only for UpgradeDurationHours: its drives
//     keep serving reads (rebuild sources, degraded reads) but rebuild
//     writes targeting them park until the window ends;
//   - scheduled growth — every GrowEveryHours a batch of GrowDisks
//     fresh drives joins with a compounded vintage (capacity, bandwidth,
//     and failure-rate factors per batch), modelling the heterogeneous
//     fleet a system accretes over years of purchases.
//
// None of the schedules draws randomness: drains walk disk ids, upgrade
// windows walk racks, growth compounds fixed factors. Enabling
// maintenance therefore perturbs no RNG stream; it only adds events.

// degradedReadSalt isolates the degraded-read sampling stream from every
// other consumer of the run seed.
const degradedReadSalt = 0xdead_bea7_ca11_f00d

// MaintenanceConfig schedules planned fleet operations. The zero value
// schedules nothing.
type MaintenanceConfig struct {
	// DrainEveryHours is the period of proactive drain windows; zero
	// disables them. DrainDisks is the number of drives drained per
	// window (default 1), chosen round-robin by id over the fleet.
	DrainEveryHours float64
	DrainDisks      int
	// UpgradeEveryHours is the period of rolling-upgrade windows; zero
	// disables them (requires a topology — the window holds one rack).
	// UpgradeDurationHours is the window length (default half the
	// period, capped at 8).
	UpgradeEveryHours    float64
	UpgradeDurationHours float64
	// GrowEveryHours is the period of scheduled growth batches; zero
	// disables them. GrowDisks is the batch size (default 8). The three
	// factors compound per batch: batch k carries capacity
	// ·GrowCapacityFactor^k, bandwidth ·GrowBandwidthFactor^k, and
	// failure rate ·GrowAFRFactor^k relative to the original vintage
	// (each defaults to 1 — identical drives).
	GrowEveryHours      float64
	GrowDisks           int
	GrowCapacityFactor  float64
	GrowBandwidthFactor float64
	GrowAFRFactor       float64
}

// Enabled reports whether any maintenance process is scheduled.
func (c MaintenanceConfig) Enabled() bool {
	return c.DrainEveryHours > 0 || c.UpgradeEveryHours > 0 || c.GrowEveryHours > 0
}

// Validate rejects NaN/Inf and out-of-range fields.
func (c MaintenanceConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"DrainEveryHours", c.DrainEveryHours},
		{"UpgradeEveryHours", c.UpgradeEveryHours},
		{"UpgradeDurationHours", c.UpgradeDurationHours},
		{"GrowEveryHours", c.GrowEveryHours},
		{"GrowCapacityFactor", c.GrowCapacityFactor},
		{"GrowBandwidthFactor", c.GrowBandwidthFactor},
		{"GrowAFRFactor", c.GrowAFRFactor},
	} {
		if err := faults.CheckFinite("core: Maintenance."+f.name, f.v); err != nil {
			return err
		}
	}
	switch {
	case c.DrainEveryHours < 0:
		return errors.New("core: negative drain period")
	case c.DrainDisks < 0:
		return errors.New("core: negative drain batch size")
	case c.UpgradeEveryHours < 0:
		return errors.New("core: negative upgrade period")
	case c.UpgradeDurationHours < 0:
		return errors.New("core: negative upgrade window")
	case c.UpgradeEveryHours > 0 && c.UpgradeDurationHours >= c.UpgradeEveryHours:
		return errors.New("core: upgrade window at least as long as its period")
	case c.GrowEveryHours < 0:
		return errors.New("core: negative growth period")
	case c.GrowDisks < 0:
		return errors.New("core: negative growth batch size")
	case c.GrowCapacityFactor < 0 || c.GrowBandwidthFactor < 0 || c.GrowAFRFactor < 0:
		return errors.New("core: negative growth vintage factor")
	}
	return nil
}

// effective fills the zero knobs of the processes that are enabled.
func (c MaintenanceConfig) effective() MaintenanceConfig {
	if c.DrainDisks == 0 {
		c.DrainDisks = 1
	}
	if c.UpgradeEveryHours > 0 && c.UpgradeDurationHours == 0 {
		c.UpgradeDurationHours = c.UpgradeEveryHours / 2
		if c.UpgradeDurationHours > 8 {
			c.UpgradeDurationHours = 8
		}
	}
	if c.GrowDisks == 0 {
		c.GrowDisks = 8
	}
	if c.GrowCapacityFactor == 0 {
		c.GrowCapacityFactor = 1
	}
	if c.GrowBandwidthFactor == 0 {
		c.GrowBandwidthFactor = 1
	}
	if c.GrowAFRFactor == 0 {
		c.GrowAFRFactor = 1
	}
	return c
}

// fleetMTTFHours estimates the fleet's expected time to the next disk
// failure from the Table 1 steady-state rate (~3%/year) scaled by the
// vintage factor — the deadline the deadline-aware throttle policy
// rebuilds against.
func fleetMTTFHours(vintageScale float64, disks int) float64 {
	if disks < 1 {
		disks = 1
	}
	return 8760 / (0.03 * vintageScale * float64(disks))
}

// scheduleDemandBurst chains the demand model's precomputed burst
// episodes into marker events, one at a time in start order. The markers
// are pure annotations — the demand schedule itself was drawn at
// construction — so they shift engine sequence numbers uniformly but
// never change simulation outcomes.
func (st *runState) scheduleDemandBurst(i int) {
	if i >= st.demand.Bursts() {
		return
	}
	start, _, _ := st.demand.BurstAt(i)
	if start > st.cfg.SimHours {
		return
	}
	st.eng.ScheduleArg(sim.Time(start), "demand-burst", st.demandFn, i)
}

// onDemandBurst marks burst episode i and chains the next.
func (st *runState) onDemandBurst(now sim.Time, i int) {
	_, hours, amp := st.demand.BurstAt(i)
	st.res.DemandBursts++
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindDemandBurst,
		X: hours, Y: amp})
	st.scheduleDemandBurst(i + 1)
}

// scheduleMaintenance arms the configured maintenance processes. It
// fills the zero knobs of st.cfg.Maintenance first, so the processes
// read the effective values.
func (st *runState) scheduleMaintenance() {
	m := &st.cfg.Maintenance
	*m = m.effective()
	if m.DrainEveryHours > 0 {
		st.every("drain-window", func() float64 { return m.DrainEveryHours }, st.planDrains)
	}
	if m.UpgradeEveryHours > 0 {
		st.every("upgrade-begin", func() float64 { return m.UpgradeEveryHours }, st.beginUpgrade)
	}
	if m.GrowEveryHours > 0 {
		st.every("growth-batch", func() float64 { return m.GrowEveryHours }, st.growFleet)
	}
}

// planDrains opens one proactive drain window (the "drain-window"
// process): the next DrainDisks drives take the controlled suspect/drain
// exit, round-robin by id so every drive eventually gets its turn. Dead,
// already-suspect, and write-fenced drives are skipped without consuming
// the window's budget.
func (st *runState) planDrains(now sim.Time) {
	n := st.cl.NumDisks()
	for picked, scanned := 0, 0; picked < st.cfg.Maintenance.DrainDisks && scanned < n; scanned++ {
		id := st.drainCursor % n
		st.drainCursor++
		if st.cl.Disks[id].State != disk.Alive || st.cl.IsSuspect(id) || st.cl.ReadOnly(id) {
			continue
		}
		picked++
		st.res.PlannedDrains++
		if st.plannedDrain == nil {
			st.plannedDrain = make(map[int]bool)
		}
		st.plannedDrain[id] = true
		st.emit(trace.Event{Time: float64(now), Kind: trace.KindDrainPlanned, Disk: int32(id)})
		st.cl.MarkSuspect(id)
		st.drainStep(now, id)
	}
}

// beginUpgrade opens one rolling-upgrade window (the "upgrade-begin"
// process): the next rack (in rack order) turns read-only — its live
// drives keep serving reads but rebuild writes targeting them park — and
// a timer lifts the fences when the window ends. Only the drives fenced
// at open are unfenced at close: drives that die mid-window stay dead,
// drives added mid-window were never fenced. Validate keeps a window
// shorter than the period, so a rack's window closes before its next
// one opens, and each rack reuses one buffer of fenced ids.
func (st *runState) beginUpgrade(now sim.Time) {
	durHours := st.cfg.Maintenance.UpgradeDurationHours
	racks := st.net.Racks()
	rack := st.upgradeCount % racks
	st.upgradeCount++
	st.res.UpgradeWindows++
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindUpgradeBegin, Rack: int32(rack),
		X: durHours})
	if st.fenced == nil {
		st.fenced = make([][]int, racks)
	}
	fenced := st.fenced[rack][:0]
	for id := rack; id < st.cl.NumDisks(); id += racks {
		if st.cl.Disks[id].State != disk.Alive || st.cl.ReadOnly(id) {
			continue
		}
		st.cl.MarkReadOnly(id, true)
		st.engine.HandleWriteFence(now, id)
		fenced = append(fenced, id)
	}
	st.fenced[rack] = fenced
	st.eng.ScheduleArg(now+sim.Time(durHours), "upgrade-end", st.upgradeEndFn, rack)
}

// endUpgrade closes rack's rolling-upgrade window (its "upgrade-end"
// event), lifting the fences beginUpgrade set.
func (st *runState) endUpgrade(now sim.Time, rack int) {
	for _, id := range st.fenced[rack] {
		st.cl.MarkReadOnly(id, false)
		st.engine.HandleWriteUnfence(now, id)
	}
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindUpgradeEnd, Rack: int32(rack)})
}

// growFleet injects one scheduled growth batch (the "growth-batch"
// process) with its compounded vintage: batch k's drives carry the
// configured capacity, bandwidth, and failure-rate factors raised to the
// kth power over the original model, then the fleet rebalances onto them
// exactly as replacement batches do.
func (st *runState) growFleet(now sim.Time) {
	m := st.cfg.Maintenance
	st.growthCount++
	k := float64(st.growthCount)
	scale := st.cfg.VintageScale * math.Pow(m.GrowAFRFactor, k)
	v, err := disk.NewVintage(fmt.Sprintf("growth-%d-x%.2g", st.growthCount, scale), scale)
	if err != nil {
		return // degenerate compounded factor; skip the batch
	}
	model := disk.Model{
		CapacityBytes: int64(float64(st.cfg.DiskCapacityBytes) * math.Pow(m.GrowCapacityFactor, k)),
		BandwidthMBps: st.cfg.DiskBandwidthMBps * math.Pow(m.GrowBandwidthFactor, k),
		Vintage:       v,
	}
	ids := st.cl.AddDisksModel(m.GrowDisks, float64(now), model)
	st.joined(ids)
	st.res.GrowthBatches++
	st.res.GrowthDisksAdded += len(ids)
	st.res.MigratedBytes += st.rebalance.Onto(st.cl, ids)
	st.emit(trace.Event{Time: float64(now), Kind: trace.KindGrowth,
		N: int32(len(ids))})
}
