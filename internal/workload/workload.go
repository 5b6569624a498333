// Package workload models the user I/O load on the storage system and the
// recovery bandwidth available around it.
//
// The paper notes (§2.4) that recovery bandwidth "is not fixed in a large
// storage system. It fluctuates with the intensity of user requests,
// especially if we exploit system idle time [Golding et al.] and adapt
// recovery to the workload." The base experiments pin recovery at a fixed
// 16 MB/s (20% of a drive). This package supplies the user load (Demand:
// a diurnal base, burst episodes and rack skew) and the one recovery-rate
// decision the engines consult (ThrottlePolicy): the paper's fixed
// reservation, the idle-time schedule that follows a diurnal load curve,
// and the load-adaptive aimd and deadline policies.
package workload

// MeanRecoveryMBps integrates a policy's grant over one day (trapezoid
// rule), for reporting. The policy is asked with zero fleet load and an
// empty backlog, so the mean is meaningful for the time-only policies
// (fixed and idle); aimd and deadline would ramp as if the fleet were
// quiet. The endpoints at hour 0 and 24 each carry half weight; for a
// 24-hour-periodic schedule they coincide, so the result matches the
// periodic average exactly.
func MeanRecoveryMBps(p ThrottlePolicy) float64 {
	const steps = 24 * 60
	const h = 24.0 / steps
	sum := 0.0
	prev := p.RecoveryMBps(0, 0, Backlog{})
	for i := 1; i <= steps; i++ {
		cur := p.RecoveryMBps(float64(i)*h, 0, Backlog{})
		sum += (prev + cur) / 2
		prev = cur
	}
	return sum * h / 24
}
