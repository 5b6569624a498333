// Package core is a configflow fixture standing in for a watched
// simulator package (path base core): every exported numeric field of a
// Config/Policy struct must be referenced by Validate, and every
// exported field must be read outside Validate somewhere in the import
// closure (checked in the sink fixture).
package core

import (
	"errors"
	"time"
)

var errBad = errors.New("bad config")

// Config is audited on both axes.
type Config struct {
	// Replicas is validated here and read by the consumer fixture: clean.
	Replicas int
	// Unchecked is read by the consumer but missing from Validate.
	Unchecked int // want "never referenced by Validate"
	// Seed is exempt from validation (whole domain valid) and read: clean.
	Seed uint64 //farm:anyvalue any seed is valid
	// DeadKnob is validated but nothing anywhere reads it.
	DeadKnob int // want "dead knob"
	// WriteOnly is validated and assigned by the consumer, but a store is
	// not a read: still dead.
	WriteOnly int // want "dead knob"
	// Future is validated and deliberately dormant: exempt.
	Future int //farm:reserved wired up by the planned follow-up experiment
	// Rate is a float read by the consumer but missing from Validate.
	Rate float64 // want "never referenced by Validate: NaN/Inf"
	// Timeout and Checked are validated and read: clean.
	Timeout time.Duration
	Checked float64
	// Jitter claims the anyvalue exemption, which floats never get.
	Jitter float64 //farm:anyvalue every jitter is fine // want "never referenced by Validate: NaN/Inf"
	// Span claims it too, and Durations never get it either.
	Span time.Duration //farm:anyvalue every span is fine // want "never referenced by Validate: NaN/Inf"
	// Name is not numeric: exempt from validation, read locally.
	Name string
	// hidden is unexported: exempt.
	hidden int
}

// Validate covers the knobs except Unchecked, Rate, Jitter and Span.
func (c *Config) Validate() error {
	if c.Replicas <= 0 || c.DeadKnob < 0 || c.WriteOnly < 0 || c.Future < 0 {
		return errBad
	}
	if c.Timeout <= 0 || !(c.Checked >= 0) {
		return errBad
	}
	_ = c.hidden
	return nil
}

// localRead consumes knobs in the declaring package itself.
func (c *Config) localRead() float64 {
	return c.Rate + c.Checked + c.Jitter + c.Timeout.Hours() + c.Span.Hours() + float64(len(c.Name))
}

// Tracker is exported but matches neither Config nor Policy: exempt.
type Tracker struct {
	Score float64
}

// sample is unexported: exempt.
type sample struct {
	X float64
}
