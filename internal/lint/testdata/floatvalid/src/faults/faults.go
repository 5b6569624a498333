// Package faults is a fixture of configflow's float rule for the
// degenerate case: a guarded package declaring float-bearing config
// structs with no Validate function at all.
package faults

// BurstPolicy carries a rate no one checks.
type BurstPolicy struct {
	Lambda float64 // want "has no Validate function"
}
