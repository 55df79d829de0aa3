// Command chaossweep runs the policy grid across a fault-intensity axis and
// reports mapping-quality degradation curves: how each policy's execution
// time, cross-socket cache-to-cache traffic and migration count move as the
// fault plan (internal/faultinject) gets harsher. Intensity 0 is the
// fault-free baseline — byte-identical to a run without the fault layer —
// and every row is normalized to the same policy's intensity-0 value.
//
// Usage:
//
//	chaossweep -bench CG -class small                 # os + spcd, default axis
//	chaossweep -bench SP -policies os,spcd,tlb,hwc -intensities 0,0.5,1
//	chaossweep -bench CG -class small -check          # prove report determinism
//	chaossweep -bench CG -csv curves.csv -parallel 4
//	chaossweep -shootdown ipi -check                  # honest remap costs, byte-
//	                                                  # identity at 1/8 workers
//	chaossweep -churn -tenants 3 -class test          # SLO-under-churn axis: the
//	                                                  # multi-tenant serving scenario
//	                                                  # vs its churn-free baseline
//
// Determinism: every fault decision is drawn from streams seeded purely by
// (plan seed, run seed, site), so the full report — including the injected
// fault tallies — is byte-identical for every -parallel value. -check proves
// it by rebuilding the report at parallelism 1 and 8 and comparing bytes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"spcd"
	"spcd/internal/hostprof"
	"spcd/internal/runtimeobs"
	"spcd/internal/sweep"
)

func main() {
	var (
		bench       = flag.String("bench", "CG", "benchmark name")
		suite       = flag.String("suite", "nas", "workload suite: nas, parsec, pc")
		class       = flag.String("class", "small", "workload class: test, tiny, small, A")
		threads     = flag.Int("threads", 8, "threads")
		policies    = flag.String("policies", "os,spcd", "comma-separated policies")
		intensities = flag.String("intensities", "0,0.25,0.5,0.75,1", "comma-separated fault intensities in [0,1]")
		seed        = flag.Int64("seed", 42, "master seed (feeds run seeds and the fault plans)")
		reps        = flag.Int("reps", 2, "repetitions per (policy, intensity)")
		parallel    = flag.Int("parallel", 0, "concurrent experiments (0 = GOMAXPROCS); the report is identical for every value")
		shootdown   = flag.String("shootdown", "none", "TLB shootdown cost model: none, ipi, or hatric")
		csvPath     = flag.String("csv", "", "also write the curves as CSV to this path")
		check       = flag.Bool("check", false, "build the report twice (parallelism 1 and 8) and fail unless byte-identical")

		churn   = flag.Bool("churn", false, "SLO-under-churn mode: run the multi-tenant serving scenario per intensity instead of a single kernel (default policies static,spcd)")
		tenants = flag.Int("tenants", 3, "churn mode: tenants in the serving schedule")
		budget  = flag.Int("budget", 4, "churn mode: churn governor's max thread moves per interval")

		runtimeDir = flag.String("runtimeobs", "", "write host runtime-observability artifacts (runtime_trace.json, runtime_summary.json) to this directory")
	)
	prof := hostprof.RegisterFlags()
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}

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
	var axis []float64
	for _, f := range strings.Split(*intensities, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			fatal(fmt.Errorf("bad intensity %q: %w", f, err))
		}
		axis = append(axis, v)
	}
	if len(pols) == 0 || len(axis) == 0 {
		fatal(fmt.Errorf("need at least one policy and one intensity"))
	}

	if *churn {
		polSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "policies" {
				polSet = true
			}
		})
		if !polSet {
			// The serving-mode comparison of record: online SPCD against the
			// static initial placement.
			pols = []string{"static", "spcd"}
		}
		cg := churnGrid{
			tenants: *tenants, class: cls, policies: pols, axis: axis,
			seed: *seed, reps: *reps, budget: *budget,
		}
		if *check {
			rep1, csv1 := cg.run(1)
			rep8, csv8 := cg.run(8)
			if rep1 != rep8 || csv1 != csv8 {
				fatal(fmt.Errorf("determinism check failed: parallelism 1 and 8 disagree"))
			}
			fmt.Fprintln(os.Stderr, "check ok: churn report byte-identical at parallelism 1 and 8")
			emit(rep1, csv1, *csvPath)
		} else {
			rep, csv := cg.run(*parallel)
			emit(rep, csv, *csvPath)
		}
		if err := stopProf(); err != nil {
			fatal(err)
		}
		return
	}

	g := grid{
		machine: mach, workload: w, policies: pols, axis: axis,
		seed: *seed, reps: *reps,
	}
	if s := mach.Shootdown.String(); s != "none" {
		g.shootdown = s
	}
	if *runtimeDir != "" {
		g.runtime = runtimeobs.New()
	}
	if *check {
		// Re-derive the full artifacts at two parallelism levels; any
		// scheduling dependence anywhere in the fault or sweep layers shows
		// up as a byte diff here. (With -runtimeobs both legs land in the
		// same collector — the host trace shows both, the report neither.)
		rep1, csv1 := g.run(1)
		rep8, csv8 := g.run(8)
		if rep1 != rep8 || csv1 != csv8 {
			fatal(fmt.Errorf("determinism check failed: parallelism 1 and 8 disagree"))
		}
		fmt.Fprintln(os.Stderr, "check ok: report byte-identical at parallelism 1 and 8")
		emit(rep1, csv1, *csvPath)
	} else {
		rep, csv := g.run(*parallel)
		emit(rep, csv, *csvPath)
	}
	if g.runtime != nil {
		if err := runtimeobs.WriteArtifacts(*runtimeDir, g.runtime); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote runtime artifacts to %s\n", *runtimeDir)
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

// row is one (intensity, policy) point of the degradation curve, averaged
// over the reps.
type row struct {
	intensity float64
	digest    string
	policy    string
	execSec   float64
	c2cCross  float64
	c2cTotal  float64
	migr      float64
	faults    uint64 // injected faults across all sites and reps
}

type grid struct {
	machine  *spcd.Machine
	workload spcd.Workload
	policies []string
	axis     []float64
	seed     int64
	reps     int

	// shootdown is the TLB shootdown cost-model name when armed, "" for the
	// historical mode-none output (which must stay byte-identical).
	shootdown string

	// runtime, when set, collects host wall-clock spans per intensity sweep.
	// One-way: the report and CSV are identical with it on or off.
	runtime *runtimeobs.Collector
}

// run executes the whole intensity × policy × rep grid at the given
// parallelism and renders the report and CSV. Everything it returns is a
// pure function of the grid definition — see the package comment.
func (g grid) run(parallelism int) (report, csv string) {
	rows := make([]row, 0, len(g.axis)*len(g.policies))
	for _, intensity := range g.axis {
		plan := spcd.DefaultFaultPlan(g.seed, intensity)
		configs := make([]sweep.Config, 0, len(g.policies)*g.reps)
		for _, pol := range g.policies {
			for r := 0; r < g.reps; r++ {
				configs = append(configs, sweep.Config{Workload: g.workload, Policy: pol, Rep: r})
			}
		}
		runner := sweep.Runner{
			Machine:     g.machine,
			Parallelism: parallelism,
			Runtime:     g.runtime,
			Seeder:      func(c sweep.Config) int64 { return g.seed + int64(c.Rep) + 1 },
			FaultPlan:   &plan,
		}
		rs, err := runner.Run(configs)
		if err != nil {
			fatal(err)
		}
		if err := sweep.FirstErr(rs); err != nil {
			fatal(err)
		}
		i := 0
		for _, pol := range g.policies {
			r := row{intensity: intensity, digest: plan.Digest(), policy: pol}
			for rep := 0; rep < g.reps; rep++ {
				m := rs[i].Metrics
				r.execSec += m.ExecSeconds
				r.c2cCross += float64(m.Cache.C2CCrossSocket)
				r.c2cTotal += float64(m.Cache.C2CTotal())
				r.migr += float64(m.Migrations)
				for _, sc := range rs[i].Faults {
					r.faults += sc.Count
				}
				i++
			}
			n := float64(g.reps)
			r.execSec /= n
			r.c2cCross /= n
			r.c2cTotal /= n
			r.migr /= n
			rows = append(rows, r)
		}
	}
	return render(rows, g.policies, g.shootdown), renderCSV(rows, g.shootdown)
}

// render produces the degradation-curve report: per policy, each intensity's
// metrics normalized to that policy's intensity-0 (fault-free) row.
func render(rows []row, pols []string, shootdown string) string {
	base := make(map[string]row, len(pols))
	for _, r := range rows {
		if r.intensity == 0 {
			if _, ok := base[r.policy]; !ok {
				base[r.policy] = r
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "chaos degradation curves (mean over reps; norm = vs same policy at intensity 0)\n")
	if shootdown != "" {
		fmt.Fprintf(&b, "shootdown cost model: %s\n", shootdown)
	}
	fmt.Fprintf(&b, "%-9s %-8s %-16s %12s %14s %11s %8s\n",
		"intensity", "policy", "plan", "time_s", "c2c_cross", "migrations", "faults")
	for _, r := range rows {
		norm := ""
		if b0, ok := base[r.policy]; ok && r.intensity != 0 {
			norm = fmt.Sprintf("  [time x%.3f, c2c_cross x%.3f]",
				ratio(r.execSec, b0.execSec), ratio(r.c2cCross, b0.c2cCross))
		}
		fmt.Fprintf(&b, "%-9.2f %-8s %-16s %12.4f %14.1f %11.1f %8d%s\n",
			r.intensity, r.policy, r.digest, r.execSec, r.c2cCross, r.migr, r.faults, norm)
	}
	// The paper's headline comparison, per intensity: does communication-
	// aware mapping still beat the OS placement under faults?
	if hasBoth(pols, "os", "spcd") {
		fmt.Fprintf(&b, "\nspcd vs os cross-socket c2c:\n")
		byKey := make(map[string]row, len(rows))
		for _, r := range rows {
			byKey[fmt.Sprintf("%.4f/%s", r.intensity, r.policy)] = r
		}
		for _, r := range rows {
			if r.policy != "spcd" {
				continue
			}
			osRow, ok := byKey[fmt.Sprintf("%.4f/os", r.intensity)]
			if !ok {
				continue
			}
			verdict := "<= os"
			if r.c2cCross > osRow.c2cCross {
				verdict = "> os (degraded past baseline)"
			}
			fmt.Fprintf(&b, "  intensity %.2f: spcd %.1f vs os %.1f  (x%.3f, %s)\n",
				r.intensity, r.c2cCross, osRow.c2cCross, ratio(r.c2cCross, osRow.c2cCross), verdict)
		}
	}
	return b.String()
}

// renderCSV renders the same rows as machine-readable CSV. When a shootdown
// cost model is armed its name rides along as a leading comment line so the
// artifact self-identifies; mode none keeps the historical byte layout.
func renderCSV(rows []row, shootdown string) string {
	var b strings.Builder
	if shootdown != "" {
		fmt.Fprintf(&b, "# shootdown: %s\n", shootdown)
	}
	b.WriteString("intensity,policy,plan_digest,exec_seconds,c2c_cross_socket,c2c_total,migrations,injected_faults\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%g,%s,%s,%g,%g,%g,%g,%d\n",
			r.intensity, r.policy, r.digest, r.execSec, r.c2cCross, r.c2cTotal, r.migr, r.faults)
	}
	return b.String()
}

func ratio(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return v / base
}

func hasBoth(pols []string, a, b string) bool {
	var ha, hb bool
	for _, p := range pols {
		ha = ha || p == a
		hb = hb || p == b
	}
	return ha && hb
}

// emit prints the report and, when requested, writes the CSV.
func emit(report, csv, csvPath string) {
	fmt.Print(report)
	if csvPath == "" {
		return
	}
	f, err := os.Create(csvPath)
	if err != nil {
		fatal(err)
	}
	if _, err := f.WriteString(csv); err != nil {
		_ = f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(fmt.Errorf("close %s: %w", csvPath, err))
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", csvPath)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chaossweep:", err)
	os.Exit(1)
}
