// Package faults is a configflow fixture for a watched package with no
// Validate function at all: declaring a numeric knob is then itself a
// finding, and with nothing reading the knob the sink reports it dead
// too.
package faults

// InjectPolicy carries knobs no Validate checks and no code reads.
type InjectPolicy struct {
	Burst  int     // want "has no Validate function" "dead knob"
	Lambda float64 // want "has no Validate function" "dead knob"
}
