package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/forensics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// stormPins are the pinned storms: each run at seed 3 with a recorder
// and the full observer attached. The transcripts run to megabytes, so a
// digest of each stands in for a checked-in file; the spare storm also
// pins its Summary digest and Prometheus exposition as golden files.
var stormPins = []struct {
	name string
	cfg  func() Config
	// sha256 is the digest of the run's JSONL transcript.
	sha256 string
	// postmortems is the digest of the run's forensic report, as
	// Report.WriteJSONL writes it.
	postmortems string
	// goldens marks the storm whose summary and exposition are pinned
	// as testdata files.
	goldens bool
}{
	{
		name:        "spare",
		cfg:         forensicsStormConfig,
		sha256:      "768c30b17c1f02d5e3da25a9b5a998050e60507182f0f24e61af16fbf640027e",
		postmortems: "56b7677a0e49b1dc6043fd1e8a90dc6649d54c09a55276f36c25c5cdca53cb86",
		goldens:     true,
	},
	{
		// The FARM engine under the same faults, with no spare pool,
		// larger drain windows and scheduled growth.
		name:        "farm-growth",
		cfg:         farmGrowthStormConfig,
		sha256:      "c02d92fd3dde6df974fdfa0e006f0245e915ddcc222663db066b717e070e130c",
		postmortems: "0b49f0690d6a2c27be2957d0e5f2bf74a4d78fe6251ffb193b69d35135b0427a",
	},
}

// farmGrowthStormConfig is the forensics storm on the FARM engine, with
// two drives per drain window and a compounded growth batch every half
// year.
func farmGrowthStormConfig() Config {
	cfg := forensicsStormConfig()
	cfg.UseFARM = true
	cfg.Faults.SparePoolSize = 0
	cfg.Maintenance.DrainDisks = 2
	cfg.Maintenance.GrowEveryHours = 4380
	cfg.Maintenance.GrowDisks = 8
	cfg.Maintenance.GrowCapacityFactor = 1.25
	cfg.Maintenance.GrowBandwidthFactor = 1.1
	cfg.Maintenance.GrowAFRFactor = 1.2
	return cfg
}

// TestForensicsStormPinned pins the bytes every text encoding of one run
// produces: each storm of stormPins at seed 3, with a recorder and the
// full observer attached, rendered as the JSONL trace transcript, the
// JSONL postmortems forensics.Analyze makes of it and, for the spare
// storm, the Summary digest and the registry's Prometheus
// exposition. How trace kinds and metric names are represented inside
// the simulator may change; what they look like on the wire may not.
// Regenerate the two files with
// `go test ./internal/core -run TestForensicsStormPinned -update`, and
// the digests by hand from the failure message, only when an intentional
// change to an encoding is made.
func TestForensicsStormPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("golden storm runs are moderately expensive")
	}
	for _, pin := range stormPins {
		t.Run(pin.name, func(t *testing.T) {
			cfg := pin.cfg()
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
			if got := hex.EncodeToString(sum[:]); got != pin.sha256 {
				t.Errorf("transcript drift (%d bytes): sha256 %s, want %s", transcript.Len(), got, pin.sha256)
			}
			report := forensics.Analyze(rec.Events(), ob.Spans.(*obs.SpanLog).Spans(), forensics.Context{
				OversubscriptionRatio: cfg.Topology.OversubscriptionRatio,
				MaxResourcings:        cfg.Faults.MaxResourcings,
			})
			var posts bytes.Buffer
			if err := report.WriteJSONL(&posts); err != nil {
				t.Fatal(err)
			}
			sum = sha256.Sum256(posts.Bytes())
			if got := hex.EncodeToString(sum[:]); got != pin.postmortems {
				t.Errorf("postmortem drift (%d posts, %d bytes): sha256 %s, want %s", len(report.Posts), posts.Len(), got, pin.postmortems)
			}
			if pin.goldens {
				checkStormGoldens(t, rec, ob)
			}
		})
	}
}

// checkStormGoldens compares the run's Summary digest and Prometheus
// exposition against their testdata files.
func checkStormGoldens(t *testing.T, rec *trace.Recorder, ob *obs.RunObserver) {
	t.Helper()
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
