// Command spcdserve runs the long-running multi-tenant serving scenario:
// tenants arrive, switch phases and depart on a deterministic virtual-time
// schedule while the selected placement policy adapts online under a hard
// per-interval migration budget (the churn governor). It prints the scenario
// report — run-level adaptation totals plus one line per tenant with its
// admission history and slowdown distribution.
//
// Usage:
//
//	spcdserve                                  # 3 tenants, class tiny, spcd
//	spcdserve -tenants 4 -class small -policy tlb
//	spcdserve -policy static -faults 0.5       # static baseline under faults
//	spcdserve -check                           # prove byte-identity at
//	                                           # parallelism 1/8
//	spcdserve -csv tenants.csv -events events.log
//
// Determinism: the report is a pure function of (schedule, policy, seed,
// fault plan). -check re-derives it as a 4-job batch at RunJobs parallelism
// 1 and 8; both must be byte-identical or the command fails.
package main

import (
	"flag"
	"fmt"
	"os"

	"spcd"
	"spcd/internal/scenario"
)

func main() {
	var (
		tenants   = flag.Int("tenants", 3, "tenants in the canonical churn schedule (>=3 exercises arrival, phase switch and departure)")
		class     = flag.String("class", "tiny", "workload class: test, tiny, small, A")
		policyStr = flag.String("policy", "spcd", "serving policy: static, os, spcd, tlb, hwc")
		seed      = flag.Int64("seed", 42, "master seed (roots every derived stream)")
		budget    = flag.Int("budget", 4, "churn governor: max thread moves per interval")
		intervals = flag.Int("maxintervals", 0, "watchdog bound on intervals (0 = default 1024)")
		faults    = flag.Float64("faults", 0, "fault intensity in [0,1]; >0 arms the default plan incl. admission failures")
		csvPath   = flag.String("csv", "", "write per-tenant rows as CSV to this path")
		events    = flag.String("events", "", "write the adaptation event log (admissions, remaps, deferrals) to this path")
		check     = flag.Bool("check", false, "run a 4-seed batch at parallelism 1 and 8 and fail unless reports are byte-identical")
	)
	flag.Parse()

	cls, err := spcd.ClassByName(*class)
	if err != nil {
		fatal(err)
	}
	spec := spcd.DefaultScenario(*tenants, cls, *seed)
	spec.Policy = *policyStr
	spec.MigrationBudget = *budget
	spec.MaxIntervals = *intervals
	if *faults > 0 {
		plan := spcd.DefaultFaultPlan(*seed, *faults)
		spec.Faults = &plan
	}

	if *check {
		checkParallelism(spec)
	}

	var probe *spcd.Probe
	if *events != "" {
		probe = spcd.NewProbe(spcd.ObsOptions{})
		spec.Probe = probe
	}
	rep, err := spcd.Serve(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep.Render())
	if *csvPath != "" {
		writeFile(*csvPath, func(f *os.File) error { return rep.WriteCSV(f) })
	}
	if *events != "" {
		writeFile(*events, func(f *os.File) error { return writeEvents(f, probe) })
	}
}

// checkParallelism reruns a 4-seed batch of the spec at RunJobs parallelism
// 1 and 8; the rendered reports must be byte-identical.
func checkParallelism(spec spcd.Scenario) {
	specs := make([]spcd.Scenario, 4)
	for i := range specs {
		s := spec
		s.MasterSeed = spec.MasterSeed + int64(i)
		s.Probe = nil
		specs[i] = s
	}
	seq, errs1 := scenario.RunJobs(specs, 1)
	par, errs8 := scenario.RunJobs(specs, 8)
	for i := range specs {
		if errs1[i] != nil {
			fatal(errs1[i])
		}
		if errs8[i] != nil {
			fatal(errs8[i])
		}
		if seq[i].Render() != par[i].Render() {
			fatal(fmt.Errorf("determinism check failed: job %d differs between parallelism 1 and 8", i))
		}
	}
	fmt.Fprintln(os.Stderr, "check ok: reports byte-identical at parallelism 1 and 8")
}

// writeEvents dumps the scenario's adaptation events, one per line at global
// virtual time.
func writeEvents(f *os.File, probe *spcd.Probe) error {
	for _, ev := range probe.Events() {
		if _, err := fmt.Fprintf(f, "%d %s.%s", ev.Time, ev.Cat, ev.Name); err != nil {
			return err
		}
		for _, a := range ev.Args {
			if s := a.StrVal(); s != "" {
				if _, err := fmt.Fprintf(f, " %s=%s", a.Key, s); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(f, " %s=%d", a.Key, a.UintVal()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(f); err != nil {
			return err
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
	fmt.Fprintln(os.Stderr, "spcdserve:", err)
	os.Exit(1)
}
