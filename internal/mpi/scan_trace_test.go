package mpi

import (
	"fmt"
	"testing"
)

func TestScanInclusive(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 16} {
		run(t, n, Baseline(), func(c *Comm) error {
			v := []float64{float64(c.Rank() + 1), 1}
			c.Scan(v, OpSum)
			r := c.Rank()
			want0 := float64((r + 1) * (r + 2) / 2)
			if v[0] != want0 || v[1] != float64(r+1) {
				return fmt.Errorf("n=%d rank=%d: scan = %v, want [%v %v]", n, r, v, want0, r+1)
			}
			return nil
		})
	}
}

func TestScanMax(t *testing.T) {
	run(t, 6, Baseline(), func(c *Comm) error {
		// Values descend with rank, so the prefix max is always rank 0's.
		v := []float64{float64(10 - c.Rank())}
		c.Scan(v, OpMax)
		if v[0] != 10 {
			return fmt.Errorf("rank %d: scan max = %v", c.Rank(), v[0])
		}
		return nil
	})
}

func TestExscanExclusive(t *testing.T) {
	for _, n := range []int{2, 3, 8, 13} {
		run(t, n, Baseline(), func(c *Comm) error {
			v := []float64{float64(c.Rank() + 1)}
			c.Exscan(v, OpSum)
			r := c.Rank()
			if r == 0 {
				// Undefined on rank 0 (left unchanged here).
				return nil
			}
			want := float64(r * (r + 1) / 2)
			if v[0] != want {
				return fmt.Errorf("n=%d rank=%d: exscan = %v, want %v", n, r, v[0], want)
			}
			return nil
		})
	}
}

func TestScanUsedForLayouts(t *testing.T) {
	// The classic use: computing ownership offsets from local sizes.
	run(t, 5, Optimized(), func(c *Comm) error {
		local := float64(10 + c.Rank())
		v := []float64{local}
		c.Exscan(v, OpSum)
		offset := v[0]
		if c.Rank() == 0 {
			offset = 0
		}
		want := 0.0
		for r := 0; r < c.Rank(); r++ {
			want += float64(10 + r)
		}
		if offset != want {
			return fmt.Errorf("rank %d offset %v, want %v", c.Rank(), offset, want)
		}
		return nil
	})
}

func TestTraceRecordsEvents(t *testing.T) {
	w := testWorld(2, Baseline())
	w.EnableTrace()
	if err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Compute(1e-6)
			c.Send(1, 3, make([]byte, 100))
			return nil
		}
		c.Recv(0, 3)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	spans := w.Tracer().Spans()
	seen := map[string]bool{}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span ends before it starts: %+v", s)
		}
		seen[fmt.Sprintf("%d:%s", s.Rank, s.Kind)] = true
		// The recv must carry the right metadata.
		if s.Kind == "recv" && (s.Bytes != 100 || s.Peer != 0 || s.Tag != 3) {
			t.Fatalf("recv metadata wrong: %+v", s)
		}
	}
	for _, k := range []string{"0:compute", "0:send", "1:recv"} {
		if !seen[k] {
			t.Fatalf("missing span %s in %+v", k, spans)
		}
	}

	w.ClearTrace()
	if len(w.Tracer().Spans()) != 0 {
		t.Fatal("ClearTrace left spans")
	}
	w.DisableTrace()
	if err := w.Run(func(c *Comm) error { c.Barrier(); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(w.Tracer().Spans()) != 0 {
		t.Fatal("DisableTrace still recording")
	}
}

func TestTraceOffByDefault(t *testing.T) {
	w := testWorld(2, Baseline())
	if err := w.Run(func(c *Comm) error { c.Barrier(); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(w.Tracer().Spans()) != 0 {
		t.Fatal("tracing on by default")
	}
}
