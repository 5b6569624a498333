// Package core is a fixture of the float rule configflow took over from
// floatvalid, standing in for a simulator package carrying validated
// configuration structs (the guard matches watched path base names such
// as core and faults).
package core

import (
	"errors"
	"time"
)

var errBad = errors.New("bad config")

// Config is audited: every exported float64/time.Duration field must be
// referenced by Validate.
type Config struct {
	Rate     float64       // want "never referenced by Validate"
	Timeout  time.Duration // checked below: clean
	Checked  float64       // checked below: clean
	Name     string        // not a float: exempt
	Replicas int           // checked below: integers need Validate too
	hidden   float64       // unexported: exempt
}

// Validate range-checks part of the struct.
func (c *Config) Validate() error {
	if c.Checked < 0 || c.Checked != c.Checked {
		return errBad
	}
	if c.Timeout <= 0 || c.Replicas <= 0 {
		return errBad
	}
	_ = c.hidden
	return nil
}

// Tracker is exported but matches neither Config nor Policy: exempt.
type Tracker struct {
	Score float64
}

// sample is unexported: exempt.
type sample struct {
	X float64
}
