// Command perfbench measures the simulator's own throughput — simulated
// memory accesses retired per wall-clock second — across the NPB suite, and
// records the result in BENCH_engine.json so the performance trajectory of
// the engine hot path (engine.Run -> vm.Access -> cache.Access) is tracked
// across PRs. It complements the per-package Benchmark* functions: those
// isolate one layer, this measures the end-to-end pipeline the experiments
// actually pay for.
//
// Usage:
//
//	perfbench                                  # full sweep, writes BENCH_engine.json
//	perfbench -class small -reps 3             # best-of-3 per configuration
//	perfbench -kernels CG,SP -policies os      # subset
//	perfbench -parallel 1                      # uncontended timings (the refresh path)
//	perfbench -cpuprofile cpu.pprof            # profile the sweep
//
// The sweep runs on the deterministic parallel runner (internal/sweep):
// -parallel N bounds concurrent experiments (0 = GOMAXPROCS, 1 = sequential).
// Parallel workers contend for cores, so per-experiment wall times are only
// comparable across records taken at -parallel 1 — the canonical
// BENCH_engine.json refresh (`make bench`) pins that, and the JSON records
// the worker bound used. Wall-clock timing makes this tool inherently
// nondeterministic in its *measurements*; the simulation results it times
// remain seed-deterministic, and the JSON field order is fixed so diffs stay
// reviewable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"spcd"
	"spcd/internal/benchfmt"
	"spcd/internal/buildinfo"
	"spcd/internal/hostprof"
	"spcd/internal/runtimeobs"
	"spcd/internal/sweep"
)

func main() {
	var (
		class      = flag.String("class", "small", "workload class: test, tiny, small, A")
		reps       = flag.Int("reps", 3, "repetitions per configuration; best (min) wall time is kept")
		kernels    = flag.String("kernels", "", "comma-separated kernel subset (default: all ten)")
		policies   = flag.String("policies", "os,spcd", "comma-separated policies to time")
		threads    = flag.Int("threads", 32, "threads per benchmark")
		seed       = flag.Int64("seed", 1, "simulation seed")
		parallel   = flag.Int("parallel", 0, "concurrent experiments (0 = GOMAXPROCS, 1 = sequential/uncontended)")
		shootdown  = flag.String("shootdown", "none", "TLB shootdown cost model: none, ipi, or hatric")
		out        = flag.String("o", "BENCH_engine.json", "output JSON path (empty: stdout only)")
		history    = flag.String("history", "", "append the record to this JSONL history (e.g. BENCH_history.jsonl) for cmd/benchdiff")
		runtimeDir = flag.String("runtimeobs", "", "write host runtime-observability artifacts (runtime_trace.json, runtime_summary.json) to this directory")
	)
	prof := hostprof.RegisterFlags()
	flag.Parse()

	cls, err := spcd.ClassByName(*class)
	if err != nil {
		fatal(err)
	}
	names := spcd.NPBNames
	if *kernels != "" {
		names = splitList(*kernels)
	}
	pols := splitList(*policies)
	if *reps < 1 {
		*reps = 1
	}
	mach := spcd.DefaultMachine()
	if err := spcd.ConfigureShootdown(mach, *shootdown); err != nil {
		fatal(err)
	}

	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}

	var rtc *runtimeobs.Collector
	if *runtimeDir != "" {
		rtc = runtimeobs.New()
	}

	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: note: %d workers contend for cores; "+
			"per-experiment times are only comparable across -parallel 1 records\n", workers)
	}
	bench := benchfmt.File{Class: cls.Name, Threads: *threads, Parallel: workers,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU()}

	// Every rep of a configuration runs the same seed on purpose: this tool
	// times identical work and keeps the minimum, so repetition narrows the
	// measurement, not the workload.
	configs := sweep.Product("nas", names, cls, *threads, pols, *reps)
	start := time.Now()
	runner := sweep.Runner{
		Machine:     mach,
		Parallelism: *parallel,
		Runtime:     rtc,
		Seeder:      func(sweep.Config) int64 { return *seed },
		//lint:ignore determinism-flow Now feeds only Result.WallNanos, the informational wall-clock column that DESIGN.md excludes from the determinism contract.
		Now: func() int64 { return int64(time.Since(start)) },
	}
	rs, err := runner.Run(configs)
	if err != nil {
		fatal(err)
	}
	if err := sweep.FirstErr(rs); err != nil {
		fatal(err)
	}

	// Results arrive in canonical kernel-major, policy, rep-minor order:
	// consecutive groups of *reps are one configuration.
	for i := 0; i < len(rs); i += *reps {
		group := rs[i : i+*reps]
		c := group[0].Config
		r := benchfmt.Result{Kernel: c.Kernel, Policy: c.Policy, Class: cls.Name,
			Threads: *threads, Seed: *seed, Reps: *reps}
		best := group[0].WallNanos
		for _, run := range group {
			if run.WallNanos < best {
				best = run.WallNanos
			}
			r.SimAccesses = run.Metrics.Cache.Accesses
		}
		r.WallSeconds = time.Duration(best).Seconds()
		if r.WallSeconds > 0 {
			r.AccessesPerSec = float64(r.SimAccesses) / r.WallSeconds
			r.NsPerAccess = r.WallSeconds * 1e9 / float64(r.SimAccesses)
		}
		bench.TotalAccesses += r.SimAccesses
		bench.TotalSeconds += r.WallSeconds
		bench.Results = append(bench.Results, r)
		fmt.Fprintf(os.Stderr, "%-4s %-6s %9.0f accesses/s  (%.1f ns/access, %d accesses in %.3fs)\n",
			r.Kernel, r.Policy, r.AccessesPerSec, r.NsPerAccess, r.SimAccesses, r.WallSeconds)
	}
	if bench.TotalSeconds > 0 {
		bench.AccessesPerSec = float64(bench.TotalAccesses) / bench.TotalSeconds
		bench.NsPerAccess = bench.TotalSeconds * 1e9 / float64(bench.TotalAccesses)
	}
	fmt.Fprintf(os.Stderr, "aggregate: %.0f accesses/s (%.1f ns/access) over %d accesses in %.3fs\n",
		bench.AccessesPerSec, bench.NsPerAccess, bench.TotalAccesses, bench.TotalSeconds)

	blob, err := json.MarshalIndent(&bench, "", "  ")
	if err != nil {
		fatal(err)
	}
	blob = append(blob, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(blob); err != nil {
			fatal(err)
		}
	} else if err := writeFile(*out, blob); err != nil {
		fatal(err)
	} else {
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}

	if *history != "" {
		entry := benchfmt.HistoryEntry{
			Time:  time.Now().UTC().Format(time.RFC3339),
			Build: buildinfo.Describe(),
			File:  bench,
		}
		if err := benchfmt.AppendHistory(*history, entry); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "appended to %s\n", *history)
	}

	if rtc != nil {
		if err := runtimeobs.WriteArtifacts(*runtimeDir, rtc); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote runtime artifacts to %s\n", *runtimeDir)
	}

	if err := stopProf(); err != nil {
		fatal(err)
	}
}

// writeFile writes blob to path, surfacing write and close errors so a full
// disk cannot silently truncate the benchmark record.
func writeFile(path string, blob []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
