package simnet

import (
	"math"
	"testing"
)

func TestUniformCluster(t *testing.T) {
	c := Uniform(8, IBDDR())
	if c.Size() != 8 {
		t.Fatalf("size = %d", c.Size())
	}
	for r := 0; r < 8; r++ {
		if c.SpeedOf(r) != 1 {
			t.Fatalf("speed[%d] = %v", r, c.SpeedOf(r))
		}
	}
	if c.Skew != nil {
		t.Fatal("uniform cluster should have no skew")
	}
}

func TestPaperClusterLayout(t *testing.T) {
	// <=32 ranks: homogeneous Opteron.
	c := Paper(32)
	for r := 0; r < 32; r++ {
		if c.SpeedOf(r) != 0.88 {
			t.Fatalf("32-rank cluster rank %d speed %v, want 0.88", r, c.SpeedOf(r))
		}
	}
	// 64 ranks: heterogeneous halves.
	c = Paper(64)
	if c.SpeedOf(0) != 1.0 || c.SpeedOf(63) != 0.88 {
		t.Fatalf("64-rank speeds: %v / %v", c.SpeedOf(0), c.SpeedOf(63))
	}
	if c.Skew == nil || c.Skew.Mean <= Paper(16).Skew.Mean {
		t.Fatal("heterogeneous cluster should have larger skew")
	}
	c = Paper(128)
	if c.Size() != 128 {
		t.Fatalf("size = %d", c.Size())
	}
}

func TestPaperClusterRange(t *testing.T) {
	for _, n := range []int{0, -1, 129} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Paper(%d): expected panic", n)
				}
			}()
			Paper(n)
		}()
	}
}

func TestSkewDeterministicAndBounded(t *testing.T) {
	s := &SkewModel{Mean: 2e-6, Seed: 1}
	sum := 0.0
	const trials = 10000
	for i := uint64(0); i < trials; i++ {
		j := s.Jitter(3, i)
		if j < 0 || j >= 2*2e-6 {
			t.Fatalf("jitter %v out of [0, 2*mean)", j)
		}
		if j != s.Jitter(3, i) {
			t.Fatal("jitter not deterministic")
		}
		sum += j
	}
	mean := sum / trials
	if math.Abs(mean-2e-6) > 0.1e-6 {
		t.Fatalf("empirical mean %v too far from 2e-6", mean)
	}
	// Different ranks see different jitter.
	if s.Jitter(1, 5) == s.Jitter(2, 5) {
		t.Fatal("ranks share jitter")
	}
}

func TestNilSkew(t *testing.T) {
	var s *SkewModel
	if s.Jitter(0, 0) != 0 {
		t.Fatal("nil skew should be zero")
	}
	if (&SkewModel{}).Jitter(0, 0) != 0 {
		t.Fatal("zero-mean skew should be zero")
	}
}

func TestWireTime(t *testing.T) {
	p := Params{Bandwidth: 1e9}
	if got := p.WireTime(1e6); math.Abs(got-1e-3) > 1e-12 {
		t.Fatalf("WireTime = %v", got)
	}
	if (Params{}).WireTime(100) != 0 {
		t.Fatal("zero bandwidth should give zero wire time")
	}
}

func TestIBDDRSane(t *testing.T) {
	p := IBDDR()
	if p.Latency <= 0 || p.Bandwidth <= 0 || p.PackPerByte <= 0 ||
		p.SegOverhead <= 0 || p.ScanPerSeg <= 0 || p.SearchPerSeg <= 0 {
		t.Fatalf("nonpositive parameter: %+v", p)
	}
	// Latency should dominate per-byte time for small messages.
	if p.Latency < p.WireTime(64) {
		t.Fatal("latency should exceed 64B wire time")
	}
}

// TestTwoLevelLinkParams: on a two-level cluster same-node pairs ride the
// intra-node wire and cross-node pairs the shared one; without Intra the node
// map changes nothing, link for link.
func TestTwoLevelLinkParams(t *testing.T) {
	c := TwoLevel(3, 2, IBDDR(), ShmIntra())
	flat := Uniform(6, IBDDR())
	for src := 0; src < 6; src++ {
		if c.SpeedOf(src) != 1 {
			t.Fatalf("speed[%d] = %v", src, c.SpeedOf(src))
		}
		for dst := 0; dst < 6; dst++ {
			want := IBDDR()
			if src/2 == dst/2 {
				want = ShmIntra()
			}
			if got := *c.LinkParams(src, dst); got != want {
				t.Errorf("link %d->%d: %+v, want %+v", src, dst, got, want)
			}
		}
	}
	c.Intra = nil
	for src := 0; src < 6; src++ {
		for dst := 0; dst < 6; dst++ {
			if got, want := *c.LinkParams(src, dst), *flat.LinkParams(src, dst); got != want {
				t.Errorf("nil Intra, link %d->%d: %+v, want the uniform cluster's %+v", src, dst, got, want)
			}
		}
	}
}
