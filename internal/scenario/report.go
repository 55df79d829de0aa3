package scenario

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// TenantMetrics is one tenant's serving outcome.
type TenantMetrics struct {
	ID      string
	Kernel  string // kernel of the tenant's final phase
	Threads int
	Status  string

	ArriveAt   uint64
	AdmittedAt uint64
	Admitted   bool
	EndAt      uint64

	AdmitRejects  int // injected admission failures (scenario.admit.fail)
	AdmitDefers   int // capacity deferrals
	PhaseSwitches int

	Accesses  uint64 // memory accesses delivered across all intervals
	Intervals int    // intervals the tenant was resident

	// MeanSlowdown and P99Slowdown compare each resident interval's wall
	// time against the tenant running alone at nominal speed (1.0 = no
	// interference); 0 when the tenant never delivered work.
	MeanSlowdown float64
	P99Slowdown  float64
}

// Report is the outcome of one scenario run.
type Report struct {
	Policy         string
	MasterSeed     int64
	IntervalCycles uint64

	Intervals   int    // intervals actually simulated
	TotalCycles uint64 // global virtual time span of the schedule

	ExecCycles     uint64 // sum of interval execution times
	Instructions   uint64
	C2CSameSocket  uint64
	C2CCrossSocket uint64

	Migrations      int // engine remap events (intra-interval)
	MigratedThreads int // engine thread moves (intra-interval)
	BoundaryMoves   int // thread moves applied at interval boundaries

	GovernorApplied   int // total thread moves the governor admitted
	GovernorDeferrals int // proposals truncated by the budget
	GovernorFellBack  bool

	AdmitRejects int
	AdmitDefers  int

	Truncated   bool // MaxIntervals elapsed with tenants unfinished
	FaultDigest string

	Tenants []TenantMetrics // spec order
}

// C2CTotal returns all cache-to-cache transactions of the scenario.
func (r *Report) C2CTotal() uint64 { return r.C2CSameSocket + r.C2CCrossSocket }

// MeanP99 averages the tenant p99 slowdowns over tenants that delivered
// work — the scenario's SLO headline number.
func (r *Report) MeanP99() float64 {
	sum, n := 0.0, 0
	for _, t := range r.Tenants {
		if t.Intervals > 0 {
			sum += t.P99Slowdown
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// g renders a float with full round-trip precision, so rendered reports are
// golden-stable.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Render produces the full-precision text report the goldens pin.
func (r *Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario policy=%s seed=%d interval_cycles=%d intervals=%d total_cycles=%d\n",
		r.Policy, r.MasterSeed, r.IntervalCycles, r.Intervals, r.TotalCycles)
	fmt.Fprintf(&sb, "exec_cycles=%d instructions=%d c2c_same=%d c2c_cross=%d\n",
		r.ExecCycles, r.Instructions, r.C2CSameSocket, r.C2CCrossSocket)
	fmt.Fprintf(&sb, "migrations=%d migrated_threads=%d boundary_moves=%d\n",
		r.Migrations, r.MigratedThreads, r.BoundaryMoves)
	fmt.Fprintf(&sb, "governor applied=%d deferrals=%d fellback=%t\n",
		r.GovernorApplied, r.GovernorDeferrals, r.GovernorFellBack)
	fmt.Fprintf(&sb, "admission rejects=%d defers=%d fault_digest=%s truncated=%t\n",
		r.AdmitRejects, r.AdmitDefers, r.FaultDigest, r.Truncated)
	for _, t := range r.Tenants {
		fmt.Fprintf(&sb, "tenant id=%s kernel=%s threads=%d status=%s arrive=%d admitted=%d end=%d rejects=%d defers=%d phase_switches=%d accesses=%d intervals=%d mean_slowdown=%s p99_slowdown=%s\n",
			t.ID, t.Kernel, t.Threads, t.Status, t.ArriveAt, t.AdmittedAt, t.EndAt,
			t.AdmitRejects, t.AdmitDefers, t.PhaseSwitches, t.Accesses, t.Intervals,
			g(t.MeanSlowdown), g(t.P99Slowdown))
	}
	return sb.String()
}

// WriteCSV emits one row per tenant with the run-level columns repeated, so
// sweeps concatenate scenario outcomes into one flat table.
func (r *Report) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "policy,seed,interval_cycles,intervals,total_cycles,exec_cycles,c2c_same,c2c_cross,migrations,migrated_threads,boundary_moves,governor_applied,governor_deferrals,governor_fellback,admit_rejects,admit_defers,truncated,fault_digest,tenant,kernel,threads,status,arrive,admitted,end,tenant_rejects,tenant_defers,phase_switches,accesses,tenant_intervals,mean_slowdown,p99_slowdown"); err != nil {
		return err
	}
	for _, t := range r.Tenants {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%t,%d,%d,%t,%s,%s,%s,%d,%s,%d,%d,%d,%d,%d,%d,%d,%d,%s,%s\n",
			r.Policy, r.MasterSeed, r.IntervalCycles, r.Intervals, r.TotalCycles,
			r.ExecCycles, r.C2CSameSocket, r.C2CCrossSocket,
			r.Migrations, r.MigratedThreads, r.BoundaryMoves,
			r.GovernorApplied, r.GovernorDeferrals, r.GovernorFellBack,
			r.AdmitRejects, r.AdmitDefers, r.Truncated, r.FaultDigest,
			t.ID, t.Kernel, t.Threads, t.Status, t.ArriveAt, t.AdmittedAt, t.EndAt,
			t.AdmitRejects, t.AdmitDefers, t.PhaseSwitches, t.Accesses, t.Intervals,
			g(t.MeanSlowdown), g(t.P99Slowdown)); err != nil {
			return err
		}
	}
	return nil
}
