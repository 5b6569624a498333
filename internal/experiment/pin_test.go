package experiment

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateTables = flag.Bool("update", false, "rewrite testdata/tables_tiny.txt")

// clearCache empties the memoization cache (sync.Map.Clear needs go 1.23).
func clearCache() {
	mcCache.Range(func(k, _ any) bool {
		mcCache.Delete(k)
		return true
	})
}

// configDigest hashes the sorted cache keys: the %+v config, runs and seed
// of every Monte Carlo data point an experiment ran. At tiny scale most
// P(loss) cells read 0.0%, so the table text alone would not notice a
// dropped axis patch; the digest does.
func configDigest() (int, string) {
	var keys []string
	mcCache.Range(func(k, _ any) bool {
		keys = append(keys, k.(string))
		return true
	})
	sort.Strings(keys)
	sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
	return len(keys), fmt.Sprintf("%x", sum)
}

// TestExperimentTablesPinned pins every experiment's tiny-scale table
// text and the configs of its data points against
// testdata/tables_tiny.txt. Regenerate with
// `go test ./internal/experiment -run TestExperimentTablesPinned -update`
// only when an experiment is meant to change.
func TestExperimentTablesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var got bytes.Buffer
	for _, e := range All() {
		clearCache()
		tabs, err := e.Run(tinyOpts())
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		n, digest := configDigest()
		fmt.Fprintf(&got, "== %s: %d configs, sha256 %s\n", e.ID, n, digest)
		for _, tab := range tabs {
			if err := tab.WriteText(&got); err != nil {
				t.Fatal(err)
			}
			got.WriteByte('\n')
		}
	}
	clearCache()

	path := filepath.Join("testdata", "tables_tiny.txt")
	if *updateTables {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s drifts at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}
