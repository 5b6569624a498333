package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestScenarioFiles checks every checked-in scenario: each must patch
// strictly over farmtrace's base and yield a config Validate accepts.
func TestScenarioFiles(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no scenario files found")
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := core.PatchConfig(baseConfig(), data)
			if err != nil {
				t.Fatal(err)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
