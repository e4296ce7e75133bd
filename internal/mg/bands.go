package mg

import (
	"math/bits"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"nccd/internal/petsc"
)

// Row bands (DESIGN §18 "Row bands").  A one-rank solve runs every level-0
// wave, those of level 1 where its planes are wide enough, and the conjugate
// gradients' step across its workers: the solve's own goroutine and the
// helpers it borrowed for the wave.  The owner hands the crew a wave as one
// task, a band of which is a slab of the level's planes (wave.go: cut,
// wavefront).  Each worker runs the wavefront over its slab alone, with no
// handoff inside the wave; the two slabs of a region sweep it from either
// end and meet wherever both have got to, so a worker on a slower core, or
// a helper that wakes late, takes fewer planes instead of making the other
// wait.  After the one join the owner runs, stage by stage, the rows beside
// the faces between slabs that the wavefront left.  A banded wave so takes
// one task.  The step's workers claim blocks of sixteen sum chunks alike,
// the even ones from the bottom of one meet word and the odd ones from its
// top.  Each cell is written by the same code from the same sources as
// on one worker, and each worker adds its products into a Sum of its own,
// merged exactly when the wave ends, so x, History, the virtual clock and
// every span are the serial run's bit for bit.  Only the solve's own
// goroutine charges the clock or records a span.
//
// Who borrows: a solve on a one-rank communicator, as many helpers as
// GOMAXPROCS leaves cores free after the other solves running in the
// process, read afresh at the start of every wave.  A multi-rank solve cannot
// see which of its peers share its host, so it borrows none.  The helpers are
// the process's, at most GOMAXPROCS−1 of them, started as waves first need
// them, and they park between waves, so whatever runs there runs beside an
// idle core.  A helper parks on a read of its own pipe, which the runtime's
// poller wakes: a goroutine parked on a channel or a lock holds a wait record
// that a collection may drop from the runtime's cache, so that a later park
// allocates, and a solve would allocate in steady state.  A helper that has
// not woken by the time its wave ends is called off, so that no wave waits
// for a helper to wake.  Under GOMAXPROCS=1 a solve starts no goroutine and
// runs the serial code.

// bandLevelCells is the fewest cells a plane of a level coarser than level 0
// must have for its waves to run in slabs.  Measured on 96³ (2-vCPU Xeon):
// level 1's 48² planes gain from two workers, level 2's 24² ones do not, in
// bands with one handoff a stage-plane, with one a wavefront step, and in
// slabs.
const bandLevelCells = 2048

// bandSpins is how many times a worker looks for what it waits on between
// yields of its core: a worker that shares its core with the one it waits on
// (GOMAXPROCS=1, or more workers than cores) must let it run.
const bandSpins = 1 << 14

// stepBlock is the cells a worker of the conjugate gradients' step claims at
// a time: sixteen sum chunks.
const stepBlock = 16 * sumChunk

// maxHelpers bounds the pool whatever GOMAXPROCS is: a crew's bands are bits
// of its state word.
const maxHelpers = 30

// cores is the process's ledger of helpers.  A slot is taken by one borrower
// at a time, which starts the slot's helper if it has none yet; a borrower
// takes slots below GOMAXPROCS−1 only, which bounds the helpers lent.
var cores struct {
	running atomic.Int32 // solves inside Solve or SolveFrom
	loans   atomic.Int64 // helpers ever lent
	helped  atomic.Int64 // bands the helpers ran
	tasks   atomic.Int64 // tasks handed to crews
	waited  atomic.Int64 // nanoseconds owners spent waiting for helpers' bands
	slots   [maxHelpers]struct {
		taken atomic.Bool
		h     *helper
	}
}

// forceWorkers, where positive, is the worker count of every one-rank
// solve's banded waves, whatever GOMAXPROCS and the other solves, and every
// helper lent joins its wave before the wave starts: the tests' seam.  It is
// set only while no solve runs.
var forceWorkers int

// helper is one pooled goroutine.  Between waves it blocks reading parked.
// A borrower lends it as worker w by setting w and crew and writing a byte to
// wake; the helper joins the wave by taking crew back to nil, and the
// borrower calls it off by doing so first.  sum takes the products of the
// bands it runs.
type helper struct {
	parked, wake *os.File
	buf          [1]byte
	w            int
	crew         atomic.Pointer[crew]
	sum          Sum
}

// wakeByte is what a borrower writes to a helper's pipe.
var wakeByte = []byte{1}

// newHelper starts a helper, or returns nil where the system has no pipe.
func newHelper() *helper {
	r, w, err := os.Pipe()
	if err != nil {
		return nil
	}
	h := &helper{parked: r, wake: w}
	go h.loop()
	return h
}

// loop is the helper's life: a wave for every byte whose lend it finds
// still standing.
func (h *helper) loop() {
	for {
		if _, err := h.parked.Read(h.buf[:]); err != nil {
			panic("mg: helper pipe: " + err.Error())
		}
		if c := h.crew.Swap(nil); c != nil {
			c.serve(h.w, &h.sum)
		}
	}
}

// taskKind is what a crew's workers run.
type taskKind uint8

const (
	taskWave taskKind = iota // level l's wave, a slab a band
	taskStep                 // the conjugate gradients' step on x, in blocks of whole sum chunks
)

// task is a wave, or the conjugate gradients' step, as the owner hands it to
// the crew.
type task struct {
	kind  taskKind
	l     int
	x     *petsc.Vec
	alpha float64
}

// The crew's state word: the task's generation in the high 32 bits, the park
// flag, and a bit for every band claimed.
const (
	stateGen  = 32
	statePark = 1 << 31
)

// crew is a solver's workers in one wave: the solver's own goroutine, worker
// 0, and the helpers it borrowed, workers 1 to n−1.  The owner writes the task
// and then publishes it in state with band 0 claimed; a helper claims a band
// by setting its bit with a compare-and-swap, and only then reads the task,
// which the owner does not rewrite before done, the bands the helpers have
// run in the wave, reaches want.  Worker w claims band w first, so that each
// worker's slab lies about where its core's last one did, and then whatever
// band no other worker has claimed.  out counts the helpers lent and neither
// called off nor gone.
type crew struct {
	s     *Solver
	lent  []int  // the pool slots of the helpers lent
	n     int    // the bands of a task: one per worker, the owner included
	all   uint64 // the state bits of every band
	want  int64
	task  task
	state atomic.Uint64
	_     [64]byte // step and done on cache lines of their own
	step  meet     // the step's blocks that no worker has claimed yet
	done  atomic.Int64
	out   atomic.Int32
}

// enter and leave bracket a solve in the count of solves running.
func (s *Solver) enter() {
	s.inSolve = true
	cores.running.Add(1)
}

func (s *Solver) leave() {
	s.inSolve = false
	cores.running.Add(-1)
}

// workers is how many workers a wave of level l takes now: one unless the
// communicator is one rank and the level's planes are wide enough, and
// otherwise the cores GOMAXPROCS leaves after the other solves running.
func (s *Solver) workers(l int) int {
	if s.c.Size() != 1 {
		return 1
	}
	if l > 0 {
		own := s.levels[l].da.OwnedBox()
		if (own.Hi[0]-own.Lo[0])*(own.Hi[1]-own.Lo[1]) < bandLevelCells {
			return 1
		}
	}
	if forceWorkers > 0 {
		return forceWorkers
	}
	others := int(cores.running.Load())
	if s.inSolve {
		others--
	}
	return runtime.GOMAXPROCS(0) - others
}

// borrow lends the solver's crew up to n−1 helpers, as many as are free
// below the pool's bound, and returns it; nil where it gets none.
func (s *Solver) borrow(n int) *crew {
	if n <= 1 {
		return nil
	}
	if s.crew == nil {
		s.crew = &crew{s: s}
	}
	c := s.crew
	c.lent = c.lent[:0]
	bound := min(max(runtime.GOMAXPROCS(0), forceWorkers)-1, maxHelpers)
	for i := 0; i < bound && len(c.lent) < n-1; i++ {
		sl := &cores.slots[i]
		if !sl.taken.CompareAndSwap(false, true) {
			continue
		}
		if sl.h == nil {
			if sl.h = newHelper(); sl.h == nil {
				sl.taken.Store(false)
				break
			}
		}
		c.lent = append(c.lent, i)
	}
	if len(c.lent) == 0 {
		return nil
	}
	cores.loans.Add(int64(len(c.lent)))
	c.n = len(c.lent) + 1
	c.all = 1<<c.n - 1
	c.state.Store(c.all) // no task yet: no band to claim
	c.done.Store(0)
	c.want = 0
	c.out.Store(int32(len(c.lent)))
	for w, i := range c.lent {
		h := cores.slots[i].h
		h.w = w + 1
		h.crew.Store(c)
		if _, err := h.wake.Write(wakeByte); err != nil {
			panic("mg: helper pipe: " + err.Error())
		}
	}
	if forceWorkers > 0 {
		// The tests' seam: every helper lent takes part in the wave.  Sleeping
		// lets the poller run where this goroutine holds the only core.
		for _, i := range c.lent {
			for j := 0; cores.slots[i].h.crew.Load() != nil; j++ {
				if j >= bandSpins {
					time.Sleep(time.Microsecond)
				}
			}
		}
	}
	return c
}

// release ends the wave: it calls off the helpers that have not joined, tells
// the others to leave and waits until they have, merges every helper's sum
// into the solver's and gives the slots back.
func (c *crew) release() {
	c.state.Store(c.nextGen() | statePark)
	for _, i := range c.lent {
		if cores.slots[i].h.crew.CompareAndSwap(c, nil) {
			c.out.Add(-1)
		}
	}
	for i := 0; c.out.Load() != 0; i++ {
		yield(i)
	}
	for _, i := range c.lent {
		h := cores.slots[i].h
		c.s.sum.Merge(&h.sum)
		h.sum.Reset()
		cores.slots[i].taken.Store(false)
	}
}

// run hands t to the crew, runs band 0 and any other no helper has claimed,
// and returns once every band is done.
func (c *crew) run(t task) {
	c.task = t
	v := c.nextGen() | 1
	c.state.Store(v)
	c.work(&c.s.sum, 0)
	c.want += int64(c.n-1) - c.claim(0, &c.s.sum, v>>stateGen)
	cores.tasks.Add(1)
	if c.done.Load() == c.want {
		return
	}
	start := time.Now()
	for i := 0; c.done.Load() != c.want; i++ {
		yield(i)
	}
	cores.waited.Add(int64(time.Since(start)))
}

// nextGen is the state word of the next task, no band of it claimed.
func (c *crew) nextGen() uint64 { return (c.state.Load()>>stateGen + 1) << stateGen }

// serve is worker w's part of the wave: the bands it claims of every task,
// its products into sum, until the crew parks.  It touches the crew no more
// once it has counted itself out.
func (c *crew) serve(w int, sum *Sum) {
	for i := 0; ; i++ {
		v := c.state.Load()
		if v&statePark != 0 {
			c.out.Add(-1)
			return
		}
		if v&c.all != c.all {
			if ran := c.claim(w, sum, v>>stateGen); ran > 0 {
				c.done.Add(ran)
				cores.helped.Add(ran)
			}
			i = 0
		} else {
			yield(i)
		}
	}
}

// claim runs, as worker w, bands of task gen, their products into sum: band
// w if it is still unclaimed, then any other until none is left.  It returns
// how many it ran.
func (c *crew) claim(w int, sum *Sum, gen uint64) (ran int64) {
	for b := w; ; {
		v := c.state.Load()
		if v>>stateGen != gen {
			return ran
		}
		if v&(1<<b) != 0 {
			free := ^v & c.all
			if free == 0 {
				return ran
			}
			b = bits.TrailingZeros64(free)
			continue
		}
		if c.state.CompareAndSwap(v, v|1<<b) {
			c.work(sum, b)
			ran++
		}
	}
}

// work runs band b of the crew's task, its products into sum.
func (c *crew) work(sum *Sum, b int) {
	s, t := c.s, &c.task
	switch t.kind {
	case taskWave:
		s.wavefront(t.l, &s.levels[t.l].wave.slabs[b], sum)
	case taskStep:
		n := t.x.LocalSize()
		for {
			k, ok := c.step.next(b%2 == 1)
			if !ok {
				return
			}
			s.stepCells(t.x, t.alpha, k*stepBlock, min((k+1)*stepBlock, n), sum)
		}
	}
}

// yield gives up the core once every bandSpins looks.
func yield(i int) {
	if i%bandSpins == bandSpins-1 {
		runtime.Gosched()
	}
}

// band is band b of [lo, hi) cut into n.
func band(lo, hi, b, n int) (int, int) {
	m := hi - lo
	return lo + m*b/n, lo + m*(b+1)/n
}
