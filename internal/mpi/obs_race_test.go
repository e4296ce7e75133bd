package mpi

import (
	"sync/atomic"
	"testing"
)

// TestTraceConcurrentWithDelivery pins the concurrency contract documented
// on ClearTrace: reading and clearing the trace while ranks are
// actively communicating (and therefore recording spans) must be safe.
// Before the obs ring, each proc appended to a plain slice, which raced
// with readers under wall-clock delivery; the mutex-guarded ring makes the
// combination safe by construction.  Run under -race, this test fails on
// any regression to unguarded storage.
func TestTraceConcurrentWithDelivery(t *testing.T) {
	w := testWorld(4, Optimized())
	w.EnableTrace()

	var done atomic.Bool
	reader := make(chan struct{})
	go func() {
		defer close(reader)
		for !done.Load() {
			_ = w.Tracer().Spans()
			w.ClearTrace()
		}
	}()

	err := w.Run(func(c *Comm) error {
		me := c.Rank()
		buf := make([]byte, 1<<10)
		for it := 0; it < 50; it++ {
			dst := (me + 1) % c.Size()
			src := (me + c.Size() - 1) % c.Size()
			if me%2 == 0 {
				c.Send(dst, it, buf)
				c.Recv(src, it)
			} else {
				c.Recv(src, it)
				c.Send(dst, it, buf)
			}
			c.Barrier()
		}
		return nil
	})
	done.Store(true)
	<-reader
	if err != nil {
		t.Fatal(err)
	}
	// The trace must still be coherent after the churn: no torn span.
	for _, s := range w.Tracer().Spans() {
		if s.Rank < 0 || s.Rank >= 4 || s.Kind == "" || s.End < s.Start {
			t.Fatalf("torn span after concurrent clear: %+v", s)
		}
	}
}
