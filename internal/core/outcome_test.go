package core

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestOutcomeTableCoversTally: every tally field has exactly one row in
// the outcome table, no registry counter is exported twice, and every
// row carries what its fold rule needs. A counter added to obs.Tally
// without a row would silently vanish from both the Monte Carlo fold
// and the registry export.
func TestOutcomeTableCoversTally(t *testing.T) {
	typ := reflect.TypeOf(obs.Tally{})
	for i := 0; i < typ.NumField(); i++ {
		var tl obs.Tally
		reflect.ValueOf(&tl).Elem().Field(i).SetInt(1)
		rows := 0
		for _, o := range outcomes {
			if o.n != nil && o.n(&tl) != 0 {
				rows++
			}
		}
		if rows != 1 {
			t.Errorf("tally field %s is read by %d outcome rows, want 1", typ.Field(i).Name, rows)
		}
	}
	seen := map[obs.Name]bool{}
	for i, o := range outcomes {
		if len(o.metric) > 0 {
			if seen[o.metric] {
				t.Errorf("row %d: %s exported twice", i, o.metric)
			}
			seen[o.metric] = true
			if o.n == nil {
				t.Errorf("row %d: exported %s has no tally field", i, o.metric)
			}
		}
		if (o.n == nil) == (o.v == nil) {
			t.Errorf("row %d: want exactly one of a tally field and a derived float", i)
		}
		welfordRule := o.fold != foldNone && o.fold != foldCount
		if welfordRule != (o.to != nil) {
			t.Errorf("row %d: fold rule %d with aggregate set = %v", i, o.fold, o.to != nil)
		}
	}
}
