package bench

import (
	"testing"

	"nccd/internal/datatype"
	"nccd/internal/mpi"
)

// TestCompiledEngineBytewiseOnEWorkloads is the plan layer's end-to-end
// acceptance property: running the paper's E3–E7 workloads with the
// compiled-plan engine produces output bytewise identical to the
// dual-context (Optimized) engine on every rank.
func TestCompiledEngineBytewiseOnEWorkloads(t *testing.T) {
	const n = 8
	for _, wl := range eWorkloadSet(n) {
		t.Run(wl.name, func(t *testing.T) {
			want := runWorkload(t, n, mpi.Optimized(), nil, wl.f)
			got := runWorkload(t, n, mpi.Compiled(), nil, wl.f)
			for r := 0; r < n; r++ {
				if len(want[r]) != len(got[r]) {
					t.Fatalf("rank %d: output length %d with compiled plans, %d with dual-context",
						r, len(got[r]), len(want[r]))
				}
				for i := range want[r] {
					if want[r][i] != got[r][i] {
						t.Fatalf("rank %d: output differs at byte %d between engines", r, i)
					}
				}
			}
		})
	}
}

// TestCompiledVecScatterHitsPlanCache: scatters with an unchanged layout
// must reuse the compiled plan.  The first run of the workload compiles the
// two layouts (evens sent, odds received); a second run, whose eight ranks
// build fresh scatters, finds both cached — and looks them up once per
// layout when the scatter is built, never again in its ten scatters.
func TestCompiledVecScatterHitsPlanCache(t *testing.T) {
	const n = 8
	datatype.ResetPlanCache()
	var wl eWorkload
	for _, w := range eWorkloadSet(n) {
		if w.name == "E6-vecscatter" {
			wl = w
		}
	}
	if wl.f == nil {
		t.Fatal("E6 workload not found")
	}
	runWorkload(t, n, mpi.Compiled(), nil, wl.f)
	first := datatype.PlanCacheStats()
	if first.Misses == 0 {
		t.Fatal("no plans were compiled")
	}
	runWorkload(t, n, mpi.Compiled(), nil, wl.f)
	s := datatype.PlanCacheStats()
	if s.Misses != first.Misses || s.Hits-first.Hits != 2*n {
		t.Fatalf("plan cache went from %+v to %+v over a rerun: want no new miss and one hit per rank and layout", first, s)
	}
}
