package runtimeobs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Artifact writing and -check validation for the `-runtimeobs <dir>` flag
// every tool shares: a Chrome trace of host-time lanes plus the JSON
// summary, with validators the smoke targets run against both.

// TraceFileName and SummaryFileName are the artifact names WriteArtifacts
// produces under the -runtimeobs directory.
const (
	TraceFileName   = "runtime_trace.json"
	SummaryFileName = "runtime_summary.json"
)

// WriteSummary writes the collector's JSON summary document to w.
func WriteSummary(w io.Writer, c *Collector) error {
	blob, err := json.MarshalIndent(Summarize(c), "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	_, err = w.Write(blob)
	return err
}

// WriteArtifacts writes runtime_trace.json and runtime_summary.json under
// dir, creating it if needed.
func WriteArtifacts(dir string, c *Collector) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeTo(filepath.Join(dir, TraceFileName), func(f *os.File) error {
		return WriteChromeTrace(f, c)
	}); err != nil {
		return err
	}
	return writeTo(filepath.Join(dir, SummaryFileName), func(f *os.File) error {
		return WriteSummary(f, c)
	})
}

// writeTo writes one artifact, surfacing write and close errors so a full
// disk cannot silently truncate it.
func writeTo(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

// traceDoc mirrors just enough of the Chrome trace envelope to validate.
type traceDoc struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
	} `json:"traceEvents"`
}

// ValidateTrace checks that data is a parseable Chrome trace containing at
// least one host span ("X" complete event).
func ValidateTrace(data []byte) error {
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("runtime trace does not parse: %w", err)
	}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			return nil
		}
	}
	return fmt.Errorf("runtime trace holds no complete (\"X\") span events")
}

// ValidateSummary checks that data parses as a summary document holding
// at least one engine proc that did simulate work, with every engine phase
// finite and non-negative — the runtimeobs-smoke contract, so an empty or
// broken summary fails the check.
func ValidateSummary(data []byte) error {
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("runtime summary does not parse: %w", err)
	}
	if len(s.Procs) == 0 {
		return fmt.Errorf("runtime summary holds no procs")
	}
	worked := false
	for _, p := range s.Procs {
		e := p.Engine
		if e == nil {
			continue
		}
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"init_seconds", e.InitSeconds},
			{"simulate_seconds", e.SimulateSeconds},
			{"finalize_seconds", e.FinalizeSeconds},
		} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
				return fmt.Errorf("runtime summary proc %q: %s = %v, want finite and >= 0", p.Name, f.name, f.v)
			}
		}
		if e.SimulateSeconds > 0 {
			worked = true
		}
	}
	if !worked {
		return fmt.Errorf("runtime summary holds no engine proc with simulate_seconds > 0")
	}
	return nil
}

// CheckArtifacts validates the artifact pair WriteArtifacts produced under
// dir (the -check mode of the tools' -runtimeobs flag).
func CheckArtifacts(dir string) error {
	trace, err := os.ReadFile(filepath.Join(dir, TraceFileName))
	if err != nil {
		return err
	}
	if err := ValidateTrace(trace); err != nil {
		return err
	}
	summary, err := os.ReadFile(filepath.Join(dir, SummaryFileName))
	if err != nil {
		return err
	}
	return ValidateSummary(summary)
}
