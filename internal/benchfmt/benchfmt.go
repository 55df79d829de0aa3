// Package benchfmt is the schema of the repo's performance records: the
// BENCH_engine.json document cmd/perfbench writes, and the append-only
// BENCH_history.jsonl log that gives the engine a recorded performance
// trajectory. It lives outside cmd/perfbench so cmd/benchdiff (and tests)
// can read the same types without duplicating the schema.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// Result is the measurement of one kernel x policy configuration.
type Result struct {
	Kernel         string  `json:"kernel"`
	Policy         string  `json:"policy"`
	Class          string  `json:"class"`
	Threads        int     `json:"threads"`
	Seed           int64   `json:"seed"`
	Reps           int     `json:"reps"`
	SimAccesses    uint64  `json:"sim_accesses"`
	WallSeconds    float64 `json:"wall_seconds"` // best (minimum) over reps
	AccessesPerSec float64 `json:"accesses_per_sec"`
	NsPerAccess    float64 `json:"ns_per_access"`
}

// Key identifies the result's configuration for cross-record matching.
func (r Result) Key() string { return r.Kernel + "/" + r.Policy }

// File is the schema of BENCH_engine.json.
type File struct {
	Class          string   `json:"class"`
	Threads        int      `json:"threads"`
	Parallel       int      `json:"parallel"` // worker bound the sweep ran with
	GoVersion      string   `json:"go_version"`
	NumCPU         int      `json:"num_cpu"` // cores the timing host exposed
	TotalAccesses  uint64   `json:"total_sim_accesses"`
	TotalSeconds   float64  `json:"total_wall_seconds"`
	AccessesPerSec float64  `json:"aggregate_accesses_per_sec"`
	NsPerAccess    float64  `json:"aggregate_ns_per_access"`
	Results        []Result `json:"results"`
}

// HistoryEntry is one line of BENCH_history.jsonl: a full benchmark record
// stamped with when and from which build it was taken. Wall-clock values
// in the history are measurements, not simulation outputs — they are
// explicitly outside the determinism contract.
type HistoryEntry struct {
	Time  string `json:"time"`  // RFC 3339 UTC
	Build string `json:"build"` // buildinfo.Describe of the recording binary
	File
}

// AppendHistory appends one entry to the JSONL history at path, creating
// the file if needed.
func AppendHistory(path string, e HistoryEntry) error {
	blob, err := json.Marshal(&e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(blob, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

// ReadHistory reads every entry of the JSONL history at path, oldest
// first. A malformed line is an error — the history is append-only and a
// truncated record means the file needs attention, not silence.
func ReadHistory(path string) ([]HistoryEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []HistoryEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24) // records hold a full sweep's results
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e HistoryEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}
