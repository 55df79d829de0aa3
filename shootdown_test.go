package spcd_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spcd"
)

// renderShootdownMetrics is renderMetrics plus the shootdown counters. The
// extra line lives here — not in renderMetrics — so the mode-none golden
// files keep their exact historical bytes.
func renderShootdownMetrics(t *testing.T, m spcd.Metrics) string {
	t.Helper()
	return renderMetrics(t, m) + fmt.Sprintf("Shootdown: %+v\n", m.Shootdown)
}

// TestGoldenShootdownMetrics pins the translation-coherence cost model the
// same way TestGoldenMetrics pins the seed behavior: full CG metrics for one
// fixed seed × {os, spcd} × {ipi, hatric}, recorded in testdata. A change to
// the shootdown formulas, the sharer-set derivation, or the charging order
// fails this loudly. Regenerate with
// `go test -run TestGoldenShootdownMetrics -update` ONLY when a cost-model
// change is intended, and say so in the commit.
func TestGoldenShootdownMetrics(t *testing.T) {
	for _, mode := range []string{"ipi", "hatric"} {
		for _, policy := range []string{"os", "spcd"} {
			t.Run(mode+"/"+policy, func(t *testing.T) {
				mach := spcd.DefaultMachine()
				if err := spcd.ConfigureShootdown(mach, mode); err != nil {
					t.Fatal(err)
				}
				w, err := spcd.NPB(goldenKernel, goldenThreads, spcd.ClassTest)
				if err != nil {
					t.Fatal(err)
				}
				m, err := spcd.Run(mach, w, policy, goldenSeed)
				if err != nil {
					t.Fatal(err)
				}
				if policy == "spcd" && m.Shootdown.Events == 0 {
					t.Error("spcd run charged no shootdowns; the golden would pin a dead cost model")
				}
				got := renderShootdownMetrics(t, m)
				path := filepath.Join("testdata",
					fmt.Sprintf("golden_%s_%s_%s.txt", goldenKernel, policy, mode))
				if *updateGolden {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					t.Logf("rewrote %s", path)
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update on a trusted tree): %v", err)
				}
				if got != string(want) {
					t.Errorf("metrics diverged from golden %s\n--- got ---\n%s--- want ---\n%s",
						path, got, want)
				}
			})
		}
	}
}
