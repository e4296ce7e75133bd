package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nccd/internal/core"
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/virtual_clock.golden from the current code")

const goldenPath = "testdata/virtual_clock.golden"

// goldenLog collects "key value" lines with every float rendered by its
// shortest round-trip representation, so two logs are equal only when the
// floats are bit-identical.
type goldenLog struct{ b strings.Builder }

func (g *goldenLog) float(key string, v float64) {
	fmt.Fprintf(&g.b, "%s %s\n", key, strconv.FormatFloat(v, 'g', -1, 64))
}

func (g *goldenLog) experiment(e *Experiment) {
	for _, r := range e.Rows {
		for _, s := range e.Series {
			if strings.HasPrefix(s, "allocs(") {
				continue // heap counters, not virtual time
			}
			if v, ok := r.Values[s]; ok {
				g.float(fmt.Sprintf("%s/%s/%s", e.ID, r.Label, s), v)
			}
		}
	}
}

// world records the completion time and the summed accounting of a world
// after its run: the figures above only surface the per-iteration latency.
func (g *goldenLog) world(key string, w *mpi.World) {
	st := w.TotalStats()
	g.float(key+"/maxclock", w.MaxClock())
	g.float(key+"/PackSec", st.PackSec)
	g.float(key+"/SearchSec", st.SearchSec)
	g.float(key+"/WaitSec", st.WaitSec)
	g.float(key+"/RetransSec", st.RetransSec)
	fmt.Fprintf(&g.b, "%s/MsgsSent %d\n%s/BytesSent %d\n", key, st.MsgsSent, key, st.BytesSent)
}

// TestVirtualClockGolden pins every virtual-time number the paper
// reproduction prints.  The sweeps are cmd/repro -quick's (Fig. 12–17);
// the stats rows add the compiled-plan cost model (which the three paper
// arms never select) and the retransmission charging under a seeded lossy
// plan.  The golden file was generated before the send paths were merged
// into one pipeline; any refactor of the cost model must leave it
// untouched.  Regenerate with: go test ./internal/bench -run VirtualClockGolden -update
func TestVirtualClockGolden(t *testing.T) {
	var g goldenLog

	sizes := []int{64, 128, 256}
	g.experiment(Fig12(sizes, 2))
	a, b := Fig13(sizes, 2)
	g.experiment(a)
	g.experiment(b)
	g.experiment(Fig14a([]int{16, 256, 4096}, 3))
	g.experiment(Fig14b([]int{4, 16, 64}, 3))
	g.experiment(Fig15([]int{4, 16, 64}, 8))
	vs := DefaultVecScatterParams
	vs.PerRankDoubles, vs.Iters = 1<<14, 3
	g.experiment(Fig16([]int{4, 16, 64}, vs))
	mgp := DefaultMultigridParams
	mgp.Extent, mgp.Levels = 32, 3
	g.experiment(Fig17([]int{4, 16, 64}, mgp))

	compiled := core.Arm{Name: "compiled", Config: mpi.Compiled(), Mode: petsc.ScatterDatatype}
	g.float("compiled/transpose/256", RunTranspose(256, 2, mpi.Compiled()).Latency)
	g.float("compiled/vecscatter/16", RunVecScatter(16, vs, compiled))

	// Whole-world accounting of the E3–E7 workloads plus a typed
	// point-to-point transpose, per engine.
	const n = 8
	workloads := append(eWorkloadSet(n), eWorkload{"transpose", func(c *mpi.Comm) []byte {
		const dim = 128
		buf := make([]byte, dim*dim*24)
		if c.Rank() == 0 {
			c.SendType(1, 0, TransposeType(dim), 1, buf)
		} else if c.Rank() == 1 {
			c.RecvInto(0, 0, buf)
		}
		return nil
	}})
	lossy := &simnet.FaultPlan{Seed: 42, Drop: 0.01, Duplicate: 0.01, Corrupt: 0.01}
	for _, cfg := range []struct {
		name string
		cfg  mpi.Config
		fp   *simnet.FaultPlan
	}{
		{"baseline", mpi.Baseline(), nil},
		{"optimized", mpi.Optimized(), nil},
		{"compiled", mpi.Compiled(), nil},
		{"optimized-lossy", mpi.Optimized(), lossy},
		{"compiled-lossy", mpi.Compiled(), lossy},
	} {
		for _, wl := range workloads {
			cl := simnet.Paper(n)
			cl.Faults = cfg.fp
			w := mpi.NewWorld(cl, cfg.cfg)
			if err := w.Run(func(c *mpi.Comm) error { wl.f(c); return nil }); err != nil {
				t.Fatalf("%s/%s: %v", cfg.name, wl.name, err)
			}
			g.world("stats/"+cfg.name+"/"+wl.name, w)
		}
	}

	got := g.b.String()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	shown := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var gs, ws string
		if i < len(gl) {
			gs = gl[i]
		}
		if i < len(wl) {
			ws = wl[i]
		}
		if gs != ws {
			t.Errorf("line %d:\n  got  %s\n  want %s", i+1, gs, ws)
			if shown++; shown == 20 {
				t.Fatal("further differences suppressed")
			}
		}
	}
}
