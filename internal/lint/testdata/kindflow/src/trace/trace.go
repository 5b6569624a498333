// Package trace is a kindflow fixture standing in for internal/trace:
// every Kind constant needs a CheckCausality rule or //farm:nocausality,
// and (checked in the sink fixture) an emission site somewhere in the
// closure.
package trace

import "errors"

// Kind labels an event.
type Kind uint8

const (
	// KindFail and KindDetect have causality rules and emitters: clean.
	KindFail Kind = iota + 1
	KindDetect
	// KindMarker is a declared pure marker, emitted: clean.
	KindMarker //farm:nocausality load-bearing free-form marker with no ordering contract
	// KindNoRule is emitted but has neither a rule nor an annotation.
	KindNoRule // want "has no CheckCausality rule"
	// KindDead has a rule but no emitter anywhere in the closure.
	KindDead // want "dead kind"
	// KindFuture is forward-declared: exempt from both checks.
	//farm:reserved forward-declared for the planned maintenance PR
	KindFuture //farm:nocausality pure marker once emitted
)

// Event is one trace record.
type Event struct {
	Kind Kind
}

// CheckCausality references KindFail, KindDetect, and KindDead.
func CheckCausality(events []Event) error {
	seen := false
	for _, e := range events {
		switch e.Kind {
		case KindFail:
			seen = true
		case KindDetect, KindDead:
			if !seen {
				return errors.New("trace: effect before cause")
			}
		}
	}
	return nil
}
