package petsc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nccd/internal/mpi"
	"nccd/internal/obs"
)

// allModes covers the three experimental arms of the paper.
func allModes() []struct {
	name string
	cfg  mpi.Config
	mode ScatterMode
} {
	return []struct {
		name string
		cfg  mpi.Config
		mode ScatterMode
	}{
		{"hand-tuned", mpi.Baseline(), ScatterHandTuned},
		{"datatype-baseline", mpi.Baseline(), ScatterDatatype},
		{"datatype-optimized", mpi.Optimized(), ScatterDatatype},
	}
}

// checkScatter verifies y[iy[k]] == x[ix[k]] after the scatter for every
// backend, on n ranks.
func checkScatter(t *testing.T, n, xGlobal, yGlobal int, ix, iy []int) {
	t.Helper()
	for _, arm := range allModes() {
		runWorld(t, n, arm.cfg, func(c *mpi.Comm) error {
			x := NewVec(c, xGlobal)
			y := NewVec(c, yGlobal)
			x.SetFromFunc(func(i int) float64 { return float64(i)*10 + 1 })
			y.Set(-1)
			sc := NewScatter(x, ISGeneral(ix), y, ISGeneral(iy), arm.mode)
			sc.Do(x, y)

			// Verify the local portion of y.
			want := make(map[int]float64)
			for k := range ix {
				want[iy[k]] = float64(ix[k])*10 + 1
			}
			lo, hi := y.Range()
			for g := lo; g < hi; g++ {
				expect := -1.0
				if v, ok := want[g]; ok {
					expect = v
				}
				if got := y.Array()[g-lo]; got != expect {
					return fmt.Errorf("%s: y[%d] = %v, want %v", arm.name, g, got, expect)
				}
			}
			return nil
		})
	}
}

func TestScatterIdentity(t *testing.T) {
	n := 16
	ix := make([]int, n)
	for i := range ix {
		ix[i] = i
	}
	checkScatter(t, 4, n, n, ix, ix)
}

func TestScatterReversal(t *testing.T) {
	n := 17
	ix := make([]int, n)
	iy := make([]int, n)
	for i := range ix {
		ix[i] = i
		iy[i] = n - 1 - i
	}
	checkScatter(t, 3, n, n, ix, iy)
}

func TestScatterBlockToCyclic(t *testing.T) {
	// The classic redistribution: element i of a block-distributed vector
	// moves to position (i mod P)*m + i div P.
	p, m := 4, 6
	n := p * m
	ix := make([]int, n)
	iy := make([]int, n)
	for i := 0; i < n; i++ {
		ix[i] = i
		iy[i] = (i%p)*m + i/p
	}
	checkScatter(t, p, n, n, ix, iy)
}

func TestScatterPartialAndGrowing(t *testing.T) {
	// Scatter a strided subset into a smaller vector.
	ix := []int{0, 4, 8, 12, 16}
	iy := []int{4, 3, 2, 1, 0}
	checkScatter(t, 5, 20, 5, ix, iy)
}

func TestScatterPermutationShift(t *testing.T) {
	// The Figure 16 pattern: rank r's block moves wholesale to rank
	// (r + P/2) mod P, interleaved into even positions.
	p, m := 4, 8 // m elements per rank, m/2 moved
	n := p * m
	var ix, iy []int
	for r := 0; r < p; r++ {
		dst := (r + p/2) % p
		for k := 0; k < m/2; k++ {
			ix = append(ix, r*m+2*k)   // even elements of my block
			iy = append(iy, dst*m+2*k) // even slots of dest block
		}
	}
	checkScatter(t, p, n, n, ix, iy)
}

func TestScatterRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		np := 2 + rng.Intn(6)
		xg := 10 + rng.Intn(50)
		yg := 10 + rng.Intn(50)
		k := 1 + rng.Intn(yg)
		// Distinct destinations, random sources.
		perm := rng.Perm(yg)[:k]
		ix := make([]int, k)
		iy := make([]int, k)
		for i := 0; i < k; i++ {
			ix[i] = rng.Intn(xg)
			iy[i] = perm[i]
		}
		checkScatter(t, np, xg, yg, ix, iy)
	}
}

func TestScatterSingleRank(t *testing.T) {
	checkScatter(t, 1, 10, 10, []int{0, 1, 2, 9}, []int{9, 8, 7, 0})
}

func TestScatterReuse(t *testing.T) {
	// A scatter plan must be reusable across Do calls with fresh data.
	runWorld(t, 3, mpi.Optimized(), func(c *mpi.Comm) error {
		x := NewVec(c, 12)
		y := NewVec(c, 12)
		ix := ISStride(12, 0, 1)
		iy := ISStride(12, 0, 1)
		sc := NewScatter(x, ix, y, iy, ScatterDatatype)
		for round := 1; round <= 3; round++ {
			x.SetFromFunc(func(i int) float64 { return float64(i * round) })
			sc.Do(x, y)
			lo, _ := y.Range()
			for i, v := range y.Array() {
				if v != float64((lo+i)*round) {
					return fmt.Errorf("round %d: y[%d] = %v", round, lo+i, v)
				}
			}
		}
		return nil
	})
}

func TestScatterValidation(t *testing.T) {
	runWorld(t, 2, mpi.Optimized(), func(c *mpi.Comm) error {
		x := NewVec(c, 8)
		y := NewVec(c, 8)
		mustPanic := func(name string, f func()) error {
			defer func() { recover() }()
			f()
			return fmt.Errorf("%s: expected panic", name)
		}
		if err := mustPanic("len mismatch", func() {
			NewScatter(x, ISGeneral([]int{0, 1}), y, ISGeneral([]int{0}), ScatterHandTuned)
		}); err != nil {
			return err
		}
		if err := mustPanic("oob index", func() {
			NewScatter(x, ISGeneral([]int{8}), y, ISGeneral([]int{0}), ScatterHandTuned)
		}); err != nil {
			return err
		}
		if err := mustPanic("wrong vec", func() {
			sc := NewScatter(x, ISGeneral([]int{0}), y, ISGeneral([]int{0}), ScatterHandTuned)
			z := NewVec(c, 20)
			sc.Do(z, y)
		}); err != nil {
			return err
		}
		return nil
	})
}

func TestScatterFromPlanDirect(t *testing.T) {
	// Exchange between two ranks via an explicit plan: rank 0 sends its
	// elements {0,2} to rank 1's slots {1,0}.
	for _, mode := range []ScatterMode{ScatterHandTuned, ScatterDatatype} {
		runWorld(t, 2, mpi.Optimized(), func(c *mpi.Comm) error {
			var plan Plan
			if c.Rank() == 0 {
				plan.Sends = []PeerIndices{{Peer: 1, Local: []int{0, 2}}}
			} else {
				plan.Recvs = []PeerIndices{{Peer: 0, Local: []int{1, 0}}}
			}
			sc := NewScatterFromPlan(c, 4, 4, plan, mode)
			x := make([]float64, 4)
			y := make([]float64, 4)
			if c.Rank() == 0 {
				x = []float64{10, 11, 12, 13}
			}
			sc.DoArrays(x, y)
			if c.Rank() == 1 {
				if y[1] != 10 || y[0] != 12 {
					return fmt.Errorf("plan scatter got %v", y)
				}
			}
			return nil
		})
	}
}

// TestScatterLocalPartIsNoMessage: on one rank a scatter is its local part,
// and neither arm mails it.  A one-run part (one copy in the hand-tuned arm,
// one copy program in the datatype arm) and a permuted one both land where the
// index lists say, with no message counted and no pooled buffer taken, and a
// steady-state Begin/End allocates nothing.
func TestScatterLocalPartIsNoMessage(t *testing.T) {
	const n = 64
	oneRun := Plan{Sends: []PeerIndices{{Peer: 0}}, Recvs: []PeerIndices{{Peer: 0}}}
	for i := 0; i < n/2; i++ {
		oneRun.Sends[0].Local = append(oneRun.Sends[0].Local, i+3)
		oneRun.Recvs[0].Local = append(oneRun.Recvs[0].Local, i+n/2)
	}
	permuted := Plan{
		Sends: []PeerIndices{{Peer: 0, Local: []int{0, 1, 2, 9, 40, 41}}},
		Recvs: []PeerIndices{{Peer: 0, Local: []int{63, 8, 7, 0, 1, 30}}},
	}
	poolGets := obs.Metrics.Counter("datatype.pool_gets")
	for _, arm := range []struct {
		cfg  mpi.Config
		mode ScatterMode
	}{{mpi.Baseline(), ScatterHandTuned}, {mpi.Compiled(), ScatterDatatype}} {
		for name, plan := range map[string]Plan{"one run": oneRun, "permuted": permuted} {
			runWorld(t, 1, arm.cfg, func(c *mpi.Comm) error {
				sc := NewScatterFromPlan(c, n, n, plan, arm.mode)
				x, y := make([]float64, n), make([]float64, n)
				for i := range x {
					x[i], y[i] = float64(i)+0.5, -1
				}
				want := append([]float64(nil), y...)
				for k, di := range plan.Recvs[0].Local {
					want[di] = x[plan.Sends[0].Local[k]]
				}
				gets := poolGets.Load()
				sc.DoArrays(x, y)
				for i := range want {
					if y[i] != want[i] {
						return fmt.Errorf("%v, %s: y[%d] = %v, want %v", arm.mode, name, i, y[i], want[i])
					}
				}
				if st := c.Stats(); st.MsgsSent != 0 || st.MsgsRecv != 0 || poolGets.Load() != gets {
					return fmt.Errorf("%v, %s: the local part cost %d sends, %d receives, %d pooled buffers",
						arm.mode, name, st.MsgsSent, st.MsgsRecv, poolGets.Load()-gets)
				}
				if a := testing.AllocsPerRun(10, func() { sc.BeginArrays(x, y); sc.End() }); a != 0 {
					return fmt.Errorf("%v, %s: a steady-state Begin/End allocates %v times", arm.mode, name, a)
				}
				return nil
			})
		}
	}
}

// TestScatterMalformedLocalPartRefused: a plan whose lists for the local rank
// differ in length is refused when the scatter is built, in both modes, by a
// message that names both lengths.
func TestScatterMalformedLocalPartRefused(t *testing.T) {
	for _, mode := range []ScatterMode{ScatterHandTuned, ScatterDatatype} {
		runWorld(t, 2, mpi.Compiled(), func(c *mpi.Comm) (err error) {
			me := c.Rank()
			plan := Plan{Sends: []PeerIndices{{Peer: me, Local: []int{0, 1, 2}}}, Recvs: []PeerIndices{{Peer: me, Local: []int{4, 5}}}}
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "sends 3 elements") || !strings.Contains(msg, "receives 2") {
					err = fmt.Errorf("%v: building the scatter said %q, want a refusal naming 3 and 2", mode, msg)
				}
			}()
			NewScatterFromPlan(c, 8, 8, plan, mode)
			return nil
		})
	}
}

func TestIndexedTypeCoalesces(t *testing.T) {
	ty := RunsType(runsOf([]int{3, 4, 5, 9, 10, 20}))
	// Runs {3,4,5}, {9,10}, {20}: 3 blocks of doubles.
	if ty.Size() != 6*8 {
		t.Fatalf("size = %d", ty.Size())
	}
	if ty.Blocks() != 3 {
		t.Fatalf("blocks = %d, want 3", ty.Blocks())
	}
}

func TestScatterModeString(t *testing.T) {
	if ScatterHandTuned.String() != "hand-tuned" || ScatterDatatype.String() != "datatype" {
		t.Fatal("bad mode strings")
	}
}
