package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// PatchConfig applies a scenario to base and returns the result. A
// scenario is one JSON object whose keys are Config field names: keys
// present overwrite, keys absent keep the base, and nested structs merge
// field by field, so {"Demand":{"BaseShare":0.3}} keeps the base's other
// Demand fields. Unknown keys, type mismatches and trailing data are
// errors. Seed, Hook and Obs are per-run and not part of a scenario.
//
// PatchConfig does not validate: a patch may only be complete on top of
// a particular base, and NewSimulator and MonteCarlo validate what runs.
func PatchConfig(base Config, data []byte) (Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	cfg := base
	if err := dec.Decode(&cfg); err != nil {
		return base, fmt.Errorf("core: scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return base, errors.New("core: scenario: trailing data after the JSON object")
	}
	return cfg, nil
}
