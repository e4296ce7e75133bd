package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
	"nccd/internal/transport"
	"nccd/internal/transport/shm"
)

// arm is one of the two world configurations every op is measured under.
type arm struct {
	name string
	cfg  func() mpi.Config
	mode petsc.ScatterMode
}

const (
	armDT   = 0 // mpi.Compiled + ScatterDatatype: the paper's arm (iii)
	armHand = 1 // mpi.Baseline + ScatterHandTuned: the paper's arm (i), PETSc's default
)

var arms = [2]arm{
	{"datatype", mpi.Compiled, petsc.ScatterDatatype},
	{"hand", mpi.Baseline, petsc.ScatterHandTuned},
}

// Transport kinds a mesh can be built on.
const (
	kindInproc = "inproc"
	kindTCP    = "tcp"
	kindShm    = "shm"
)

var nextWorldID atomic.Uint64

// mesh hosts the ranks of one arm for the life of a workload.  A
// wall-clock world supports a single Run, so each rank is one goroutine
// that stays inside its world's Run and executes closures the harness
// hands it; between closures it blocks on its channel, which is how the
// idle arm stays off the CPUs while the other arm is timed.
type mesh struct {
	worlds []*mpi.World
	tcp    []*transport.TCP // per rank on a TCP mesh, else nil
	shm    []*shm.Transport // per rank on a shm mesh, else nil
	cmd    []chan func(c *mpi.Comm)
	ack    chan struct{}
	dead   chan error
	wg     sync.WaitGroup
}

// newMesh builds np ranks on the given transport kind and parks them.
func newMesh(kind string, np int, cfg mpi.Config) (*mesh, error) {
	m := &mesh{
		cmd:  make([]chan func(c *mpi.Comm), np),
		ack:  make(chan struct{}, np), // one slot per rank: acks never block
		dead: make(chan error, np),    // likewise for a dying world's error
	}
	for r := range m.cmd {
		m.cmd[r] = make(chan func(c *mpi.Comm))
	}
	var err error
	switch kind {
	case kindInproc:
		m.worlds = []*mpi.World{mpi.NewWorld(simnet.Uniform(np, simnet.IBDDR()), cfg)}
	case kindTCP:
		err = m.dialTCP(np, cfg)
	case kindShm:
		err = m.attachShm(np, cfg)
	default:
		err = fmt.Errorf("unknown mesh kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	for _, w := range m.worlds {
		m.wg.Add(1)
		go func(w *mpi.World) {
			defer m.wg.Done()
			if err := w.Run(m.rankLoop); err != nil {
				m.dead <- err
			}
		}(w)
	}
	return m, nil
}

func (m *mesh) rankLoop(c *mpi.Comm) error {
	for fn := range m.cmd[c.Rank()] {
		fn(c)
		m.ack <- struct{}{}
	}
	return nil
}

// perRank runs build(r) for every rank concurrently — transports and
// wall-clock worlds handshake with their peers while they start — and
// returns the first error.
func perRank(np int, build func(r int) error) error {
	errs := make([]error, np)
	var wg sync.WaitGroup
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = build(r)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// listenLoopback binds np loopback listeners up front so no rank dials a
// port that is not yet open.
func listenLoopback(np int) ([]net.Listener, []string, error) {
	lns := make([]net.Listener, np)
	addrs := make([]string, np)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:r] {
				l.Close()
			}
			return nil, nil, err
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	return lns, addrs, nil
}

// newTCPEndpoints returns np unstarted loopback TCP endpoints, one
// connection per peer pair once started.
func newTCPEndpoints(np int) ([]*transport.TCP, error) {
	lns, addrs, err := listenLoopback(np)
	if err != nil {
		return nil, err
	}
	id := nextWorldID.Add(1)
	eps := make([]*transport.TCP, np)
	for r := range eps {
		eps[r], err = transport.NewTCP(transport.TCPConfig{
			Rank: r, Size: np, WorldID: id, Addrs: addrs, Listener: lns[r],
			DialTimeout: 10 * time.Second,
		})
		if err != nil {
			return nil, err
		}
	}
	return eps, nil
}

func (m *mesh) dialTCP(np int, cfg mpi.Config) error {
	eps, err := newTCPEndpoints(np)
	if err != nil {
		return err
	}
	m.tcp = eps
	m.worlds = make([]*mpi.World, np)
	return perRank(np, func(r int) error {
		w, err := mpi.NewWorldTransport(eps[r], simnet.Uniform(np, simnet.IBDDR()), cfg)
		m.worlds[r] = w
		return err
	})
}

// shmRingBytes holds the largest frame any workload sends (256 KiB) with
// room to spare; it is the transport's default.
const shmRingBytes = 1 << 20

// newShmEndpoints returns np unstarted endpoints over one in-process
// segment.
func newShmEndpoints(np int) ([]*shm.Transport, error) {
	id := nextWorldID.Add(1)
	seg, err := shm.NewMemSegment(np, shmRingBytes, id)
	if err != nil {
		return nil, err
	}
	ranks := make([]int, np)
	for r := range ranks {
		ranks[r] = r
	}
	eps := make([]*shm.Transport, np)
	for r := range eps {
		eps[r], err = shm.New(shm.Config{Rank: r, Size: np, Ranks: ranks, WorldID: id, Seg: seg, RingBytes: shmRingBytes})
		if err != nil {
			return nil, err
		}
	}
	return eps, nil
}

func (m *mesh) attachShm(np int, cfg mpi.Config) error {
	eps, err := newShmEndpoints(np)
	if err != nil {
		return err
	}
	m.shm = eps
	m.worlds = make([]*mpi.World, np)
	return perRank(np, func(r int) error {
		w, err := mpi.NewWorldTransport(eps[r], simnet.Uniform(np, simnet.ShmIntra()), cfg)
		m.worlds[r] = w
		return err
	})
}

// do runs fn on every rank and returns when all have finished.  The
// calling goroutine only blocks meanwhile: the harness runs nothing of its
// own while ranks are timed.
func (m *mesh) do(fn func(c *mpi.Comm)) error {
	for _, ch := range m.cmd {
		select {
		case ch <- fn:
		case err := <-m.dead:
			return err
		}
	}
	for range m.cmd {
		select {
		case <-m.ack:
		case err := <-m.dead:
			return err
		}
	}
	return nil
}

// close releases the ranks, waits for their worlds to finish and closes
// the transports.
func (m *mesh) close() {
	for _, ch := range m.cmd {
		close(ch)
	}
	m.wg.Wait()
	for _, w := range m.worlds {
		w.Close()
	}
}

// stats sums the mpi-level counters of every rank the mesh hosts.
func (m *mesh) stats() mpi.Stats {
	var s mpi.Stats
	for _, w := range m.worlds {
		s.Add(w.TotalStats())
	}
	return s
}

// selfBytesShare is the share of all bytes the mesh's ranks sent that went
// to the sending rank itself: the communication matrix's diagonal.
func (m *mesh) selfBytesShare() float64 {
	var diag, total int64
	for _, w := range m.worlds {
		d, t := diagonalBytes(w.CommMatrix())
		diag, total = diag+d, total+t
	}
	if total == 0 {
		return 0
	}
	return float64(diag) / float64(total)
}

// diagonalBytes sums a communication matrix's diagonal and all of it.
func diagonalBytes(cm mpi.CommMatrix) (diag, total int64) {
	for s := range cm.Bytes {
		for d, b := range cm.Bytes[s] {
			total += b
			if s == d {
				diag += b
			}
		}
	}
	return diag, total
}
