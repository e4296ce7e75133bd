package bench

import (
	"flag"
	"fmt"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"nccd/internal/core"
	"nccd/internal/simnet"
	"nccd/internal/transport"
)

// TestDaemonSpecArgsRoundTrip: the arguments Args renders parse back into
// the spec, floats and durations bit for bit, so a launched daemon solves
// exactly the launcher's problem.
func TestDaemonSpecArgsRoundTrip(t *testing.T) {
	want := DaemonSpec{
		MultigridParams: MultigridParams{Extent: 24, Levels: 3, Rtol: 0.1 + 0.2, MaxCycles: 7},
		Arm:             "hand",
		Wire: simnet.FaultPlan{Seed: math.MaxUint64, Drop: 1.0 / 3, Corrupt: 5e-324,
			Duplicate: 0.01, DelayMean: math.Nextafter(1e-6, 1)},
		PerNode: 2, CkptDir: "/a dir,with=odd chars", CkptEvery: 3, Aggregators: 5,
		StripeBytes: 4097, IOFaults: "short=0.2,seed=11", Heartbeat: 1234567891 * time.Nanosecond,
	}
	var got DaemonSpec
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	got.Flags(fs)
	if err := fs.Parse(want.Args()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %+v\nwant   %+v", got, want)
	}
}

// TestRunMultigridDaemonMatchesWorld: two daemon ranks over loopback TCP in
// one process, each given the default spec on a small grid, converge
// through RunMultigridWorld's residual history bit for bit, and the hook
// sees each rank's iterations 1…Cycles at epoch 0, no checkpoint store
// given.
func TestRunMultigridDaemonMatchesWorld(t *testing.T) {
	const n = 2
	var spec DaemonSpec
	spec.Flags(flag.NewFlagSet("", flag.ContinueOnError))
	spec.Extent, spec.Levels = 16, 2
	if err := spec.Validate(n); err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	reps := make([]RankReport, n)
	errs := make([]error, n)
	cycles := make([][]int, n)
	var wg sync.WaitGroup
	for r := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tcfg := transport.TCPConfig{Rank: r, Size: n, WorldID: 0x1718, Addrs: addrs,
				Listener: lns[r], DialTimeout: 10 * time.Second}
			reps[r], errs[r] = RunMultigridDaemon(tcfg, spec, DaemonObs{}, func(epoch uint64, cycle int) {
				if epoch != 0 {
					t.Errorf("rank %d: iteration %d reported at epoch %d without a checkpoint store", r, cycle, epoch)
				}
				cycles[r] = append(cycles[r], cycle)
			})
		}()
	}
	wg.Wait()
	arm := spec.CoreArm()
	ref := RunMultigridWorld(core.NewUniformWorld(n, arm.Config), spec.MultigridParams, arm.Mode)
	for r, rep := range reps {
		if errs[r] != nil {
			t.Fatal(errs[r])
		}
		multigridHistoriesEqual(t, fmt.Sprintf("daemon rank %d", r),
			MultigridResult{Cycles: rep.Cycles, History: rep.History}, ref)
		if len(cycles[r]) != rep.Cycles {
			t.Fatalf("rank %d: the hook saw iterations %v of %d", r, cycles[r], rep.Cycles)
		}
		for i, it := range cycles[r] {
			if it != i+1 {
				t.Fatalf("rank %d: the hook saw iterations %v, want 1…%d", r, cycles[r], rep.Cycles)
			}
		}
	}
}
