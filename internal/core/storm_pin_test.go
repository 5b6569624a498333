package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// stormTranscriptSHA256 is the digest of the forensics storm's JSONL
// transcript at seed 3. The transcript runs to megabytes, so a digest
// stands in for a checked-in file.
const stormTranscriptSHA256 = "768c30b17c1f02d5e3da25a9b5a998050e60507182f0f24e61af16fbf640027e"

// TestForensicsStormPinned pins the bytes every text encoding of one run
// produces: the everything-on forensics storm at seed 3, with a recorder
// and the full observer attached, rendered as the JSONL trace
// transcript, the Summary digest, and the registry's Prometheus
// exposition. How trace kinds and metric names are represented inside
// the simulator may change; what they look like on the wire may not.
// Regenerate the two files with
// `go test ./internal/core -run TestForensicsStormPinned -update`, and
// the digest by hand from the failure message, only when an intentional
// change to an encoding is made.
func TestForensicsStormPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("golden storm runs are moderately expensive")
	}
	cfg := forensicsStormConfig()
	rec := trace.NewRecorder()
	cfg.Hook = rec.Record
	ob := fullObserver()
	cfg.Obs = ob
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(3); err != nil {
		t.Fatal(err)
	}

	var transcript bytes.Buffer
	if err := rec.WriteJSONL(&transcript); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(transcript.Bytes())
	if got := hex.EncodeToString(sum[:]); got != stormTranscriptSHA256 {
		t.Errorf("transcript drift (%d bytes): sha256 %s, want %s", transcript.Len(), got, stormTranscriptSHA256)
	}

	var summary, prom bytes.Buffer
	if err := trace.Summarize(rec.Events()).WriteSummary(&summary); err != nil {
		t.Fatal(err)
	}
	if err := ob.Registry.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		got  []byte
	}{
		{"storm_summary.txt", summary.Bytes()},
		{"storm_prometheus.txt", prom.Bytes()},
	} {
		path := filepath.Join("testdata", f.name)
		if *updateGolden {
			if err := os.WriteFile(path, f.got, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("golden rewritten: %s", path)
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update to create): %v", err)
		}
		if !bytes.Equal(want, f.got) {
			t.Errorf("%s drift:\n--- want\n%s\n--- got\n%s", f.name, want, f.got)
		}
	}
}
