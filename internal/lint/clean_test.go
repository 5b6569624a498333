package lint

import (
	"path/filepath"
	"testing"
)

// TestRepoClean is the meta-test behind scripts/lint.sh: the full farmlint
// suite — all six analyzers, facts threaded across packages — must run
// clean over every package of the module. Any new wall-clock read,
// global-randomness import, order-dependent map walk, allocating
// hot-path construct, unvalidated config float or integer, inline or
// colliding RNG salt, cross-unit arithmetic, dead config knob, or
// dead/uncovered trace kind anywhere in the repo fails this test.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide lint loads and type-checks every package; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(root, "./...")
	if err != nil {
		t.Fatalf("farmlint run over ./...: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("farmlint found %d violation(s); fix them or annotate with a justified //farm:* directive", len(diags))
	}
}
