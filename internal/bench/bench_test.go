package bench

import (
	"math"
	"strings"
	"testing"

	"nccd/internal/core"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
)

func TestExperimentPrintAndAccessors(t *testing.T) {
	e := &Experiment{
		ID:     "figX",
		Title:  "test",
		XLabel: "n",
		Unit:   "us",
		Series: []string{"a", "improvement"},
		Expect: "something",
	}
	e.Add("1", map[string]float64{"a": 1.5, "improvement": 50})
	e.Add("2", map[string]float64{"a": 3})
	e.Notes = append(e.Notes, "a note")

	var sb strings.Builder
	e.Print(&sb)
	out := sb.String()
	for _, want := range []string{"FIGX", "paper:", "1.5 us", "50.0%", "note: a note", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed table missing %q:\n%s", want, out)
		}
	}

	if v, ok := e.Value("1", "a"); !ok || v != 1.5 {
		t.Errorf("Value = %v, %v", v, ok)
	}
	if _, ok := e.Value("9", "a"); ok {
		t.Error("Value found missing row")
	}
	if Improvement(10, 5) != 50 {
		t.Error("Improvement wrong")
	}
	if Improvement(0, 5) != 0 {
		t.Error("Improvement by zero should be 0")
	}
	if got := SortedKeys(map[string]float64{"b": 1, "a": 2}); got[0] != "a" {
		t.Errorf("SortedKeys = %v", got)
	}
}

func TestTransposeTypeShape(t *testing.T) {
	ty := TransposeType(8)
	if ty.Size() != 8*8*24 {
		t.Fatalf("size = %d", ty.Size())
	}
	if ty.Blocks() != 64 {
		t.Fatalf("blocks = %d, want 64", ty.Blocks())
	}
}

func TestRunTransposeBothConfigs(t *testing.T) {
	base := RunTranspose(64, 2, mpi.Baseline())
	opt := RunTranspose(64, 2, mpi.Optimized())
	if base.Latency <= 0 || opt.Latency <= 0 {
		t.Fatal("nonpositive latency")
	}
	if opt.SearchSec != 0 {
		t.Fatal("optimized engine searched")
	}
	if base.SearchSec <= 0 {
		t.Fatal("baseline engine did not search")
	}
	if opt.Latency >= base.Latency {
		t.Fatalf("optimized (%v) not faster than baseline (%v)", opt.Latency, base.Latency)
	}
}

func TestFig12ImprovementGrows(t *testing.T) {
	e := Fig12([]int{64, 256}, 2)
	i64, _ := e.Value("64x64", "improvement")
	i256, _ := e.Value("256x256", "improvement")
	if i256 <= i64 {
		t.Fatalf("improvement should grow with size: %v -> %v", i64, i256)
	}
}

func TestFig13SearchShare(t *testing.T) {
	base, opt := Fig13([]int{64, 256}, 2)
	s64, _ := base.Value("64x64", "search")
	s256, _ := base.Value("256x256", "search")
	if s256 <= s64 {
		t.Fatalf("baseline search share should grow: %v -> %v", s64, s256)
	}
	for _, r := range opt.Rows {
		if r.Values["search"] != 0 {
			t.Fatalf("optimized search share nonzero: %v", r.Values)
		}
		total := r.Values["comm"] + r.Values["pack"] + r.Values["search"]
		if total < 99.9 || total > 100.1 {
			t.Fatalf("breakdown does not sum to 100%%: %v", total)
		}
	}
}

func TestFig14Shapes(t *testing.T) {
	a := Fig14a([]int{16, 4096}, 2)
	small, _ := a.Value("16", "improvement")
	big, _ := a.Value("4096", "improvement")
	if big <= small {
		t.Fatalf("improvement should grow with outlier size: %v -> %v", small, big)
	}
	b := Fig14b([]int{4, 16}, 2)
	base4, _ := b.Value("4", "MVAPICH2-0.9.5")
	base16, _ := b.Value("16", "MVAPICH2-0.9.5")
	if base16 <= base4 {
		t.Fatalf("baseline should grow with procs: %v -> %v", base4, base16)
	}
}

func TestFig15Shape(t *testing.T) {
	e := Fig15([]int{4, 16}, 4)
	b4, _ := e.Value("4", "MVAPICH2-0.9.5")
	b16, _ := e.Value("16", "MVAPICH2-0.9.5")
	o4, _ := e.Value("4", "MVAPICH2-New")
	o16, _ := e.Value("16", "MVAPICH2-New")
	if b16 <= b4 {
		t.Fatalf("baseline should degrade with procs: %v -> %v", b4, b16)
	}
	if o16 > 3*o4 {
		t.Fatalf("optimized should stay near-flat: %v -> %v", o4, o16)
	}
}

func TestFig16Shape(t *testing.T) {
	p := VecScatterParams{PerRankDoubles: 1 << 12, Iters: 2}
	e := Fig16([]int{2, 8}, p)
	imp2, _ := e.Value("2", "improvement(New)")
	imp8, _ := e.Value("8", "improvement(New)")
	if imp8 <= imp2 {
		t.Fatalf("improvement should grow with procs: %v -> %v", imp2, imp8)
	}
}

func TestFig17SmallShape(t *testing.T) {
	p := MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-5, MaxCycles: 20}
	e := Fig17([]int{2, 8}, p)
	for _, n := range []string{"2", "8"} {
		base, _ := e.Value(n, "MVAPICH2-0.9.5")
		opt, _ := e.Value(n, "MVAPICH2-New")
		if base <= 0 || opt <= 0 {
			t.Fatalf("nonpositive time at %s procs", n)
		}
		// At 2 ranks the exchanged faces are contiguous and the collective
		// degenerates, so the arms may coincide; they must never invert.
		if opt > base {
			t.Fatalf("optimized should not lose to baseline at %s procs: %v vs %v", n, opt, base)
		}
	}
	base8, _ := e.Value("8", "MVAPICH2-0.9.5")
	opt8, _ := e.Value("8", "MVAPICH2-New")
	if opt8 >= base8 {
		t.Fatalf("optimized should strictly beat baseline at 8 procs: %v vs %v", opt8, base8)
	}
}

func TestRunVecScatterAllArms(t *testing.T) {
	p := VecScatterParams{PerRankDoubles: 1 << 10, Iters: 2}
	for _, arm := range core.Arms() {
		if lat := RunVecScatter(4, p, arm); lat <= 0 {
			t.Fatalf("%s: nonpositive latency", arm.Name)
		}
	}
}

func TestRunMultigridConvergesIdentically(t *testing.T) {
	p := MultigridParams{Extent: 16, Levels: 2, Rtol: 1e-6, MaxCycles: 30}
	var cycles []int
	for _, arm := range core.Arms() {
		r := RunMultigrid(4, p, arm)
		if r.RelRes > p.Rtol {
			t.Fatalf("%s: did not converge (%v)", arm.Name, r.RelRes)
		}
		cycles = append(cycles, r.Cycles)
	}
	if cycles[0] != cycles[1] || cycles[1] != cycles[2] {
		t.Fatalf("arms took different cycle counts: %v", cycles)
	}
}

// TestMultigridParamsValidate is the table for the one problem-shape check
// every front-end runs.  Accepted shapes are also built and cycled once, so
// Validate can never say yes to something mg.New or dmda.FactorGrid panics
// on.
func TestMultigridParamsValidate(t *testing.T) {
	ok := MultigridParams{Extent: 8, Levels: 3, Rtol: 1e-6, MaxCycles: 1}
	with := func(f func(*MultigridParams)) MultigridParams {
		p := ok
		f(&p)
		return p
	}
	distributed := with(func(p *MultigridParams) { p.AgglomerateCells = 1 })
	for _, tc := range []struct {
		name  string
		p     MultigridParams
		ranks int
		want  string // substring of the error; "" = valid
	}{
		{"paper shape", DefaultMultigridParams, 128, ""},
		{"smallest", with(func(p *MultigridParams) { p.Extent, p.Levels = 4, 1 }), 1, ""},
		{"coarsest grid splits 2x2x1", distributed, 4, ""},
		{"agglomerated coarse levels", with(func(p *MultigridParams) { p.AgglomerateCells = 64 }), 3, ""},
		{"extent too small", with(func(p *MultigridParams) { p.Extent = 2 }), 1, "extent 2 too small (need >= 4)"},
		{"no levels", with(func(p *MultigridParams) { p.Levels = 0 }), 1, "levels 0 too small"},
		{"indivisible", with(func(p *MultigridParams) { p.Extent, p.Levels = 100, 4 }), 4,
			"extent 100 not divisible by 2^(levels-1) = 8"},
		{"absurd depth", with(func(p *MultigridParams) { p.Levels = 200 }), 1, "not divisible"},
		{"cycle cap", with(func(p *MultigridParams) { p.MaxCycles = MaxCycles + 1 }), 1, "max_cycles 1048577 too large (limit 1048576)"},
		{"no cycles", with(func(p *MultigridParams) { p.MaxCycles = 0 }), 1, "max_cycles 0 too small (need >= 1)"},
		{"zero rtol", with(func(p *MultigridParams) { p.Rtol = 0 }), 1, "rtol 0 not positive"},
		{"negative rtol", with(func(p *MultigridParams) { p.Rtol = -1 }), 1, "rtol -1 not positive"},
		{"NaN rtol", with(func(p *MultigridParams) { p.Rtol = math.NaN() }), 1, "rtol NaN not positive"},
		{"no ranks", ok, 0, "ranks 0 too small"},
		{"3 ranks cannot split a 2^3 grid", distributed, 3, "no feasible process grid for 3 ranks on the 2^3 grid of level 2"},
		{"more ranks than coarse cells: the 2^3 grid on 8", distributed, 16, ""},
		{"5 ranks cannot split a 4^3 grid", with(func(p *MultigridParams) { p.Extent, p.Levels, p.AgglomerateCells = 4, 1, 1 }), 5,
			"no feasible process grid for 5 ranks on the 4^3 grid of level 0"},
		{"3 ranks, the 2^3 grid on one", ok, 3, ""},
		{"16 ranks, the 2^3 grid on one", ok, 16, ""},
	} {
		err := tc.p.Validate(tc.ranks)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Validate(%d) = %v, want nil", tc.name, tc.ranks, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Validate(%d) = %v, want an error containing %q", tc.name, tc.ranks, err, tc.want)
		case tc.want == "" && tc.p.Extent <= 8:
			RunMultigridWorld(core.NewUniformWorld(tc.ranks, mpi.Compiled()), tc.p, petsc.ScatterDatatype)
		}
	}
}
