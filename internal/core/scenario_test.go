package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// patchRejects are scenarios PatchConfig must refuse, each with a
// fragment of the expected error.
var patchRejects = []struct {
	name, data, want string
}{
	{"unknown key", `{"UseFarm2":true}`, `unknown field "UseFarm2"`},
	{"nested typo", `{"Demand":{"BaseShre":0.3}}`, `unknown field "BaseShre"`},
	{"seed", `{"Seed":7}`, `unknown field "Seed"`},
	{"hook", `{"Hook":null}`, `unknown field "Hook"`},
	{"retired straggler key", `{"Straggler":{"Enabled":true,"HedgeAfterMultiple":2}}`, `unknown field "HedgeAfterMultiple"`},
	{"retired throttle key", `{"Throttle":{"Policy":"aimd","HighLoad":0.7}}`, `unknown field "HighLoad"`},
	{"trailing object", `{}{}`, "trailing data"},
	{"trailing junk", `{"UseFARM":false} }`, "trailing data"},
	{"type mismatch", `{"GroupBytes":"10GB"}`, "cannot unmarshal"},
	{"empty", ``, "EOF"},
}

func TestPatchConfigRejects(t *testing.T) {
	base := DefaultConfig()
	for _, tc := range patchRejects {
		t.Run(tc.name, func(t *testing.T) {
			got, err := PatchConfig(base, []byte(tc.data))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("PatchConfig(%s) error = %v, want one containing %q", tc.data, err, tc.want)
			}
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("a rejected patch changed the config: %+v", got)
			}
		})
	}
}

func TestPatchConfigMerges(t *testing.T) {
	base := DefaultConfig()
	base.Demand = workload.DemandConfig{BaseShare: 0.2, DiurnalAmplitude: 0.5, MaxShare: 0.7}

	same, err := PatchConfig(base, []byte(" {} \n"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(same, base) {
		t.Fatalf("{} changed the base: %+v", same)
	}

	got, err := PatchConfig(base, []byte(`{"UseFARM":false,"Demand":{"BaseShare":0.4}}`))
	if err != nil {
		t.Fatal(err)
	}
	want := base
	want.UseFARM = false
	want.Demand.BaseShare = 0.4
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("nested patch lost its siblings:\n got %+v\nwant %+v", got.Demand, want.Demand)
	}
}

// TestPatchConfigValidates pins that a patch no longer drops keys that
// make no sense alone: network faults without racks reach Validate and
// fail there instead of being ignored.
func TestPatchConfigValidates(t *testing.T) {
	cfg, err := PatchConfig(DefaultConfig(), []byte(`{"Faults":{"Network":{"SwitchFailsPerYear":2}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Faults.Network.SwitchFailsPerYear != 2 {
		t.Fatalf("switch-fail rate not applied: %+v", cfg.Faults.Network)
	}
	if _, err := NewSimulator(cfg); err == nil || !strings.Contains(err.Error(), "network faults need a topology") {
		t.Fatalf("NewSimulator error = %v, want the topology requirement", err)
	}
}

// FuzzPatchConfig checks that PatchConfig never panics and that every
// config it yields which passes Validate survives an encode/patch round
// trip over DefaultConfig unchanged.
func FuzzPatchConfig(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, tc := range patchRejects {
		f.Add([]byte(tc.data))
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"Faults":{"Network":{"SwitchFailsPerYear":2}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := PatchConfig(DefaultConfig(), data)
		if err != nil || cfg.Validate() != nil {
			return
		}
		enc, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("valid config does not encode: %v", err)
		}
		back, err := PatchConfig(DefaultConfig(), enc)
		if err != nil {
			t.Fatalf("re-encoded config rejected: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(back, cfg) {
			t.Fatalf("round trip changed the config:\n got %+v\nwant %+v", back, cfg)
		}
	})
}
