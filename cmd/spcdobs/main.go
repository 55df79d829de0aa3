// Command spcdobs runs a workload under one or more policies with the
// observability layer enabled and writes the artifacts: a Chrome
// trace_event JSON (open it in chrome://tracing or https://ui.perfetto.dev)
// and a CSV metrics time series per policy, plus one merged trace with every
// policy's run in its own pid namespace for side-by-side comparison. It also
// prints, for policies that remap, how the cross-socket cache-to-cache
// traffic changed after the first remapping — the dynamic view of the
// paper's Figure 11.
//
// Usage:
//
//	spcdobs -bench CG -class tiny                  # os + spcd, files in .
//	spcdobs -bench SP -policies spcd -dir out/
//	spcdobs -bench CG -class test -check           # validate the artifacts
//	spcdobs -policies os,random,oracle,spcd -parallel 4
//
// The policies run as one sweep on the deterministic parallel runner
// (internal/sweep): each policy is one experiment with its own probe, so
// every artifact — including the merged trace — is byte-identical for every
// -parallel value. All probe timestamps are simulated cycles; the sweep's
// own progress events (sweep.start / exp.done / sweep.done) land on a
// dedicated "sweep" lane of the merged trace with the canonical experiment
// index as virtual time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"spcd"
	"spcd/internal/hostprof"
	"spcd/internal/obs"
	"spcd/internal/runtimeobs"
	"spcd/internal/sweep"
)

func main() {
	var (
		bench     = flag.String("bench", "CG", "benchmark name")
		suite     = flag.String("suite", "nas", "workload suite: nas, parsec, pc")
		class     = flag.String("class", "tiny", "workload class: test, tiny, small, A")
		threads   = flag.Int("threads", 8, "threads")
		policies  = flag.String("policies", "os,spcd", "comma-separated policies to trace")
		seed      = flag.Int64("seed", 1, "run seed")
		parallel  = flag.Int("parallel", 1, "concurrent experiments (0 = GOMAXPROCS); artifacts are identical for every value")
		dir       = flag.String("dir", ".", "output directory for trace/timeseries files")
		sample    = flag.Uint64("sample", 0, "snapshot interval in cycles (0 = ~256 rows per run)")
		shootdown = flag.String("shootdown", "none", "TLB shootdown cost model: none, ipi, or hatric")
		check     = flag.Bool("check", false, "re-read the written artifacts and validate them")

		runtimeDir = flag.String("runtimeobs", "", "also write host runtime-observability artifacts (runtime_trace.json, runtime_summary.json) to this directory")
	)
	prof := hostprof.RegisterFlags()
	flag.Parse()

	cls, err := spcd.ClassByName(*class)
	if err != nil {
		fatal(err)
	}
	mach := spcd.DefaultMachine()
	if err := spcd.ConfigureShootdown(mach, *shootdown); err != nil {
		fatal(err)
	}
	var w spcd.Workload
	switch *suite {
	case "nas":
		w, err = spcd.NPB(*bench, *threads, cls)
	case "parsec":
		w, err = spcd.Parsec(*bench, *threads, cls)
	case "pc":
		w, err = spcd.ProducerConsumer(*threads, cls, 4, cls.Accesses/4)
	default:
		err = fmt.Errorf("unknown suite %q (want nas, parsec, pc)", *suite)
	}
	if err != nil {
		fatal(err)
	}

	var pols []string
	for _, pol := range strings.Split(*policies, ",") {
		if pol = strings.TrimSpace(pol); pol != "" {
			pols = append(pols, pol)
		}
	}

	// One experiment per policy, each with its own probe; the workload
	// instance is shared (NewRun is pure) so the pc suite works too. Probes
	// are created up front — Observe runs on concurrent workers, so it only
	// indexes, never allocates shared state.
	configs := make([]sweep.Config, len(pols))
	probes := make([]*spcd.Probe, len(pols))
	probeFor := make(map[string]*spcd.Probe, len(pols))
	for i, pol := range pols {
		configs[i] = sweep.Config{Workload: w, Policy: pol}
		probes[i] = spcd.NewProbe(spcd.ObsOptions{SampleIntervalCycles: *sample})
		probeFor[pol] = probes[i]
	}
	sweepProbe := spcd.NewProbe(spcd.ObsOptions{})
	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	var rtc *runtimeobs.Collector
	if *runtimeDir != "" {
		rtc = runtimeobs.New()
	}
	runner := sweep.Runner{
		Machine:     mach,
		Parallelism: *parallel,
		Runtime:     rtc,
		Seeder:      func(sweep.Config) int64 { return *seed },
		Observe:     func(c sweep.Config) *obs.Probe { return probeFor[c.Policy] },
		Probe:       sweepProbe,
	}
	rs, err := runner.Run(configs)
	if err != nil {
		fatal(err)
	}
	if err := sweep.FirstErr(rs); err != nil {
		fatal(err)
	}

	// Report and export in canonical (flag) order regardless of which worker
	// finished first.
	merged := []spcd.TraceRun{{Name: "sweep", Probe: sweepProbe}}
	for i, pol := range pols {
		pr := probes[i]
		fmt.Println(rs[i].Metrics)
		fmt.Printf("  obs: %d events, %d samples, %d metric columns\n",
			len(pr.Events()), len(pr.Samples()), len(pr.Registry().Columns()))
		reportRemapEffect(pr)

		tracePath := filepath.Join(*dir, fmt.Sprintf("trace_%s_%s.json", w.Name(), pol))
		csvPath := filepath.Join(*dir, fmt.Sprintf("timeseries_%s_%s.csv", w.Name(), pol))
		writeFile(tracePath, func(f *os.File) error { return spcd.WriteChromeTrace(f, pr) })
		writeFile(csvPath, func(f *os.File) error { return spcd.WriteTimeSeriesCSV(f, pr) })
		if *check {
			if err := checkTrace(tracePath); err != nil {
				fatal(err)
			}
			if err := checkCSV(csvPath); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "checked %s, %s\n", tracePath, csvPath)
		}
		merged = append(merged, spcd.TraceRun{Name: pol, Probe: pr})
	}

	mergedPath := filepath.Join(*dir, fmt.Sprintf("trace_%s_all.json", w.Name()))
	writeFile(mergedPath, func(f *os.File) error { return spcd.WriteChromeTraceMerged(f, merged) })
	if *check {
		if err := checkTrace(mergedPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "checked %s\n", mergedPath)
	}

	if rtc != nil {
		if err := runtimeobs.WriteArtifacts(*runtimeDir, rtc); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote runtime artifacts to %s\n", *runtimeDir)

		// Combined trace: virtual-time runs and host-time lanes side by side
		// in one file, each process in its own pid namespace. Virtual and
		// host timestamps use different units (cycles vs microseconds), so
		// the lanes are for structural comparison, not alignment.
		combinedPath := filepath.Join(*runtimeDir, fmt.Sprintf("trace_%s_combined.json", w.Name()))
		writeFile(combinedPath, func(f *os.File) error {
			sink := obs.NewTraceSink()
			basePid := obs.AppendTraceRuns(sink, merged, 0)
			runtimeobs.AppendTrace(sink, rtc, basePid)
			return sink.Flush(f)
		})
		if *check {
			if err := runtimeobs.CheckArtifacts(*runtimeDir); err != nil {
				fatal(err)
			}
			if err := checkTrace(combinedPath); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "checked runtime artifacts in %s\n", *runtimeDir)
		}
	}

	if err := stopProf(); err != nil {
		fatal(err)
	}
}

// reportRemapEffect prints the mean per-sample cross-socket c2c traffic
// before and after the policy's first remapping — the number the paper's
// argument hinges on (communication-aware placement cuts cross-socket
// transactions). The before-window starts at the end of the serial
// initialization phase (the engine's init.done event): the master thread
// touching pages alone generates no communication, and counting that
// stretch would dilute the baseline to near zero.
func reportRemapEffect(pr *spcd.Probe) {
	var remapTime, initDone uint64
	found := false
	for _, e := range pr.Events() {
		if e.Cat != "engine" {
			continue
		}
		switch e.Name {
		case "init.done":
			initDone = e.Time
		case "remap":
			if !found {
				remapTime = e.Time
				found = true
			}
		}
	}
	if !found || remapTime <= initDone {
		return
	}
	col := pr.Registry().ColumnIndex("cache.c2c_cross_socket")
	if col < 0 {
		return
	}
	var beforeSum, afterSum float64
	var beforeN, afterN int
	prev := 0.0
	for _, s := range pr.Samples() {
		delta := s.Values[col] - prev
		prev = s.Values[col]
		if s.Time <= initDone {
			continue // serial init: no parallel threads, no communication
		}
		if s.Time <= remapTime {
			beforeSum += delta
			beforeN++
		} else {
			afterSum += delta
			afterN++
		}
	}
	if beforeN == 0 || afterN == 0 {
		return
	}
	before, after := beforeSum/float64(beforeN), afterSum/float64(afterN)
	change := 0.0
	if before != 0 {
		change = 100 * (after - before) / before
	}
	fmt.Printf("  obs: first remap at cycle %d; mean cross-socket c2c per sample %.1f before -> %.1f after (%+.1f%%)\n",
		remapTime, before, after, change)
}

// checkTrace validates that the written file parses as a Chrome trace with
// at least one event.
func checkTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: invalid trace JSON: %w", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("%s: trace has no events", path)
	}
	return nil
}

// checkCSV validates the time-series header and that every row has the
// header's width.
func checkCSV(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 2 {
		return fmt.Errorf("%s: want a header and at least one sample row, got %d lines", path, len(lines))
	}
	if !strings.HasPrefix(lines[0], "time_cycles,") {
		return fmt.Errorf("%s: bad header %q", path, lines[0])
	}
	width := strings.Count(lines[0], ",")
	for i, ln := range lines[1:] {
		if strings.Count(ln, ",") != width {
			return fmt.Errorf("%s: row %d has %d columns, header has %d",
				path, i+1, strings.Count(ln, ",")+1, width+1)
		}
	}
	return nil
}

func writeFile(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		_ = f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(fmt.Errorf("close %s: %w", path, err))
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spcdobs:", err)
	os.Exit(1)
}
