package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"nccd/internal/datatype"
	"nccd/internal/simnet"
	"nccd/internal/transport"
	"nccd/internal/transport/shm"
)

// repMesh is one way of connecting the four ranks of the representation
// test.  build returns one transport per rank (a single one for inproc,
// which hosts every rank); kill takes rank r's endpoint down abruptly.
type repMesh struct {
	name  string
	wall  bool
	build func(t *testing.T) (trs []transport.Transport, kill func(r int))
}

const repRanks = 4

// repHeartbeat is the detector interval of every wall-clock mesh here: a
// killed shm member is declared down after 9 silent intervals, 180 ms.
const repHeartbeat = 20 * time.Millisecond

func repTCP(t *testing.T) []*transport.TCP {
	t.Helper()
	addrs := make([]string, repRanks)
	lns := make([]net.Listener, repRanks)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	eps := make([]*transport.TCP, repRanks)
	for r := range eps {
		ep, err := transport.NewTCP(transport.TCPConfig{Rank: r, Size: repRanks, WorldID: 0x7e9,
			Addrs: addrs, Listener: lns[r], DialTimeout: 10 * time.Second, Heartbeat: repHeartbeat})
		if err != nil {
			t.Fatal(err)
		}
		eps[r] = ep
		t.Cleanup(func() { ep.Close() })
	}
	return eps
}

// repShm attaches the given world ranks to one fresh in-memory segment.
func repShm(t *testing.T, ranks []int) []*shm.Transport {
	t.Helper()
	seg, err := shm.NewMemSegment(len(ranks), 1<<18, 0x7e9)
	if err != nil {
		t.Fatal(err)
	}
	trs := make([]*shm.Transport, len(ranks))
	for i, r := range ranks {
		tr, err := shm.New(shm.Config{Rank: r, Size: repRanks, Ranks: ranks, WorldID: 0x7e9,
			Seg: seg, RingBytes: 1 << 18, Heartbeat: repHeartbeat})
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		t.Cleanup(func() { tr.Close() })
	}
	return trs
}

var repMeshes = []repMesh{
	{"inproc", false, func(t *testing.T) ([]transport.Transport, func(int)) {
		return []transport.Transport{transport.NewInproc(repRanks)}, nil
	}},
	{"tcp", true, func(t *testing.T) ([]transport.Transport, func(int)) {
		eps := repTCP(t)
		trs := make([]transport.Transport, repRanks)
		for r, ep := range eps {
			trs[r] = ep
		}
		return trs, func(r int) { eps[r].Close() }
	}},
	{"shm", true, func(t *testing.T) ([]transport.Transport, func(int)) {
		eps := repShm(t, []int{0, 1, 2, 3})
		trs := make([]transport.Transport, repRanks)
		for r, ep := range eps {
			trs[r] = ep
		}
		return trs, func(r int) { eps[r].Close() }
	}},
	{"mux", true, func(t *testing.T) ([]transport.Transport, func(int)) {
		eps := repTCP(t)
		muxes := make([]*transport.Mux, repRanks)
		var wg sync.WaitGroup
		for r, ep := range eps {
			muxes[r] = transport.NewMux(ep)
			wg.Add(1)
			go func() { // the mesh forms only once every rank is starting
				defer wg.Done()
				if err := muxes[r].Start(); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		trs := make([]transport.Transport, repRanks)
		for r, m := range muxes {
			sub, err := m.Sub(7, []int{0, 1, 2, 3})
			if err != nil {
				t.Fatal(err)
			}
			trs[r] = sub
		}
		return trs, func(r int) { eps[r].Close() }
	}},
	{"hier", true, func(t *testing.T) ([]transport.Transport, func(int)) {
		inter := repTCP(t)
		intra := append(repShm(t, []int{0, 1}), repShm(t, []int{2, 3})...)
		trs := make([]transport.Transport, repRanks)
		for r := range trs {
			h, err := transport.NewHierarchical(r, []int{0, 0, 1, 1}, intra[r], inter[r])
			if err != nil {
				t.Fatal(err)
			}
			trs[r] = h
		}
		return trs, func(r int) { trs[r].Close() }
	}},
}

// repWorlds puts a world on every transport of the mesh, its cluster
// carrying the fault plan fp (nil for clean links).  Wall-clock transports
// block in Start until their peers are starting too, so the worlds are
// built concurrently.
func repWorlds(t *testing.T, trs []transport.Transport, cfg Config, fp *simnet.FaultPlan) []*World {
	t.Helper()
	ws := make([]*World, len(trs))
	errs := make([]error, len(trs))
	var wg sync.WaitGroup
	for i, tr := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := simnet.Uniform(repRanks, simnet.IBDDR())
			cl.Faults = fp
			ws[i], errs[i] = NewWorldTransport(tr, cl, cfg)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return ws
}

// repShape is one typed message of the differential test.
type repShape struct {
	name  string
	t     *datatype.Type
	count int
}

func repShapes() []repShape {
	return []repShape{
		// The degenerate gather shape a DMDA corner rank produces in PETSc's
		// ex49: zero-length entries and single bytes between multi-KiB runs.
		{"ex49", datatype.Hindexed(
			[]int{0, 1, 4096, 0, 1, 8192, 2, 0, 1, 2048},
			[]int{0, 0, 64, 4500, 4503, 4600, 13000, 13500, 13507, 14000}, datatype.Byte), 1},
		{"dense-vector", datatype.Vector(512, 1, 2, datatype.Double), 1},
		{"contiguous-run", datatype.Contiguous(4096, datatype.Byte), 2},
		{"empty", datatype.Hindexed([]int{0, 0}, []int{0, 8}, datatype.Byte), 3},
	}
}

func repUser() []byte {
	b := make([]byte, 16384)
	for i := range b {
		b[i] = byte(i*131 + 17)
	}
	return b
}

// repGated is the rank the collectives phase holds back from its Alltoallw:
// on hier it sits across the node boundary from ranks 0 and 1.
const repGated = 2

// repArms are the configurations the test runs under: the point-to-point
// phases need an engine that packs (the last two), the collectives all three.
var repArms = []struct {
	name string
	cfg  Config
}{{"baseline", Baseline()}, {"streaming", Optimized()}, {"compiled", Compiled()}}

// repCollOut is what one rank saw of the collectives phase: the two receive
// buffers, what it sent and packed, and how much of that in the Alltoallw.
type repCollOut struct {
	a2a, agv          []byte
	sent              repSent
	a2aMsgs, a2aBytes int64
}

type repSent struct {
	Msgs, Bytes int64 // Stats.MsgsSent, Stats.BytesSent
	Engine      datatype.Metrics
}

// repA2AShape is the shape ranks a and b exchange in the collectives phase:
// every shape occurs, the empty one on the pairs 0-3 and 1-2.
func repA2AShape(a, b int) int { return (a + b) % repRanks }

// repCollectives runs one Alltoallw of the shapes out of user and one
// Allgatherv of their hand-packed images on fresh worlds over mesh.  Under
// the binned algorithm on a wall-clock mesh rank repGated enters the
// exchange only once every other rank's Start has returned.
func repCollectives(t *testing.T, mesh repMesh, cfg Config, user []byte, shapes []repShape, refs [][]byte) [repRanks]repCollOut {
	t.Helper()
	trs, _ := mesh.build(t)
	ws := repWorlds(t, trs, cfg, nil)
	gated := mesh.wall && cfg.Alltoallw == ATBinned
	started := make(chan int, repRanks) // one send per rank that is not held back
	counts := make([]int, repRanks)
	for r := range counts {
		counts[r] = len(refs[r])
	}
	_, total := prefix(nil, counts)
	var out [repRanks]repCollOut
	errs := runAll(ws, func(c *Comm) error {
		me := c.Rank()
		specs := make([]TypeSpec, repRanks)
		recvs := make([]TypeSpec, repRanks)
		for j := range specs {
			sh := shapes[repA2AShape(me, j)]
			specs[j] = TypeSpec{Type: sh.t, Count: sh.count}
			recvs[j] = TypeSpec{Type: sh.t, Count: sh.count, Displ: j * len(user)}
			if j < me { // the two sides of a pair need not agree on a layout
				recvs[j] = TypeSpec{Type: datatype.Byte, Count: len(refs[repA2AShape(me, j)]), Displ: j * len(user)}
			}
		}
		o := &out[me]
		o.a2a = make([]byte, repRanks*len(user))
		e := c.AlltoallwInit(specs, recvs)
		var blocked error
		if gated && me == repGated {
			timeout := time.After(5 * time.Second)
			for i := 1; i < repRanks && blocked == nil; i++ {
				select {
				case <-started:
				case <-timeout:
					blocked = fmt.Errorf("Exchange.Start blocked on %d of %d ranks while rank %d had not entered the exchange",
						repRanks-i, repRanks-1, repGated)
				}
			}
		}
		e.Start(user, o.a2a)
		if gated && me != repGated {
			started <- me
		}
		e.Wait()
		st := c.Stats()
		o.a2aMsgs, o.a2aBytes = st.MsgsSent, st.BytesSent
		o.agv = make([]byte, total)
		c.Allgatherv(refs[me], counts, o.agv)
		st = c.Stats()
		o.sent = repSent{st.MsgsSent, st.BytesSent, st.Datatype}
		return blocked
	})
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
	for _, w := range ws {
		w.Close()
	}
	return out
}

// TestRepresentationDifferential sends the same typed messages as
// hand-packed contiguous bytes, as an engine-packed image and as a
// plan-packed image over every transport, to two peers and to the sender
// itself, and requires that nothing but who packed differs: the receivers
// see identical bytes, the sender counts identical messages and bytes, and
// every pooled buffer comes back — also after each way a send can fail.  The
// same shapes then go through one Alltoallw and one Allgatherv under every
// arm: every mesh must deliver the same bytes and count the same messages,
// bytes and engine work as the in-process one, so no mesh reroutes or repacks
// a collective, and the Alltoallw counts what goes to the three peers alone:
// the slot a rank keeps for itself is copied, not sent.
func TestRepresentationDifferential(t *testing.T) {
	poolBase := datatype.PoolOutstandingBytes()
	t.Cleanup(func() { // registered first, so it runs after every endpoint closed
		deadline := time.Now().Add(5 * time.Second)
		for datatype.PoolOutstandingBytes() != poolBase && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := datatype.PoolOutstandingBytes(); got != poolBase {
			t.Errorf("pool outstanding %d bytes, started at %d", got, poolBase)
		}
	})

	user := repUser()
	shapes := repShapes()
	refs := make([][]byte, len(shapes))
	var refBytes int64
	for i, sh := range shapes {
		for _, s := range datatype.Flatten(sh.t, sh.count) {
			refs[i] = append(refs[i], user[s.Off:s.Off+s.Len]...)
		}
		refBytes += int64(len(refs[i]))
	}
	dsts := []int{1, 2, 0} // two peers (intra- and inter-node on hier), then self

	// What the collectives phase must deliver: rank r's Alltoallw region j
	// holds the bytes of the shape r and j exchange — as the hand-packed image
	// from a lower rank, where the shape maps them from the others — and zeros
	// elsewhere; Allgatherv concatenates the hand-packed images.
	var wantA2A [repRanks][]byte
	var wantAgv []byte
	for r := range wantA2A {
		wantA2A[r] = make([]byte, repRanks*len(user))
		for j := 0; j < repRanks; j++ {
			k := repA2AShape(r, j)
			if j < r {
				copy(wantA2A[r][j*len(user):], refs[k])
				continue
			}
			for _, s := range datatype.Flatten(shapes[k].t, shapes[k].count) {
				copy(wantA2A[r][j*len(user)+s.Off:], user[s.Off:s.Off+s.Len])
			}
		}
		wantAgv = append(wantAgv, refs[r]...)
	}
	// What every mesh must count: the in-process mesh's sends under each arm.
	inproc := make([][repRanks]repCollOut, len(repArms))
	for i, cfg := range repArms {
		inproc[i] = repCollectives(t, repMeshes[0], cfg.cfg, user, shapes, refs)
	}

	for _, mesh := range repMeshes {
		for _, cfg := range repArms[1:] {
			t.Run(mesh.name+"/"+cfg.name, func(t *testing.T) {
				trs, _ := mesh.build(t)
				ws := repWorlds(t, trs, cfg.cfg, nil)
				var contig, typed Stats // rank 0's counters per phase
				errs := runAll(ws, func(c *Comm) error {
					me := c.Rank()
					// recv checks one message from rank 0 against its reference.
					recv := func(tag, shape int) error {
						got, _ := c.Recv(0, tag)
						defer datatype.PutBuffer(got)
						if !bytes.Equal(got, refs[shape]) {
							return fmt.Errorf("rank %d tag %d: %s arrived as %d bytes differing from the %d-byte reference",
								me, tag, shapes[shape].name, len(got), len(refs[shape]))
						}
						return nil
					}
					for phase := 0; phase < 2; phase++ {
						s0 := c.Stats()
						for i, sh := range shapes {
							for _, dst := range dsts {
								tag := phase*100 + i
								if me == 0 {
									if phase == 0 {
										c.Send(dst, tag, refs[i])
									} else {
										c.SendType(dst, tag, sh.t, sh.count, user)
									}
								}
								if me == dst {
									if err := recv(tag, i); err != nil {
										return err
									}
								}
							}
						}
						s1 := c.Stats()
						d := Stats{MsgsSent: s1.MsgsSent - s0.MsgsSent, BytesSent: s1.BytesSent - s0.BytesSent}
						if me == 0 && phase == 0 {
							contig = d
						} else if me == 0 {
							typed = d
						}
					}
					return nil
				})
				for r, err := range errs {
					if err != nil {
						t.Fatalf("rank %d: %v", r, err)
					}
				}
				want := Stats{MsgsSent: int64(len(shapes) * len(dsts)), BytesSent: refBytes * int64(len(dsts))}
				if contig != want {
					t.Errorf("contiguous phase counted %+v, want %+v", contig, want)
				}
				if typed != want {
					t.Errorf("typed phase counted %+v, want %+v", typed, want)
				}
				for _, w := range ws {
					w.Close()
				}
			})
		}

		// The same shapes as collectives.  Which wire a message takes is the
		// transport's business: a mesh with a node map must not change what
		// the collective sends, who packs it, or when Start returns.
		t.Run(mesh.name+"/collectives", func(t *testing.T) {
			for i, cfg := range repArms {
				t.Run(cfg.name, func(t *testing.T) {
					want := inproc[i]
					got := repCollectives(t, mesh, cfg.cfg, user, shapes, refs)
					for r := range got {
						if !bytes.Equal(got[r].a2a, wantA2A[r]) {
							t.Errorf("rank %d: alltoallw delivered bytes differing from the flattened reference", r)
						}
						if !bytes.Equal(got[r].agv, wantAgv) {
							t.Errorf("rank %d: allgatherv delivered bytes differing from the concatenated images", r)
						}
						if got[r].sent != want[r].sent {
							t.Errorf("rank %d sent %+v, on the in-process mesh %+v", r, got[r].sent, want[r].sent)
						}
						var msgs, sent int64
						for j := 0; j < repRanks; j++ {
							if b := len(refs[repA2AShape(r, j)]); j != r && (b > 0 || cfg.cfg.Alltoallw == ATRoundRobin) {
								msgs, sent = msgs+1, sent+int64(b)
							}
						}
						if got[r].a2aMsgs != msgs || got[r].a2aBytes != sent {
							t.Errorf("rank %d's Alltoallw counted %d messages, %d bytes; its peers got %d, %d",
								r, got[r].a2aMsgs, got[r].a2aBytes, msgs, sent)
						}
					}
				})
			}
		})

		// Every way a send can fail hands the payload back: the owned buffer
		// is recycled by whoever refused it.  The pool check above is the
		// assertion.
		t.Run(mesh.name+"/errors", func(t *testing.T) {
			t.Run("transport", func(t *testing.T) {
				trs, kill := mesh.build(t)
				var wg sync.WaitGroup
				for _, tr := range trs {
					wg.Add(1)
					go func() { // as in repWorlds: the mesh forms only when all are starting
						defer wg.Done()
						if err := tr.Start(func(_ int, _ transport.Header, p []byte) { datatype.PutBuffer(p) }, nil); err != nil {
							t.Error(err)
						}
					}()
				}
				wg.Wait()
				refused := func(what string, to int) {
					t.Helper()
					if err := trs[0].Send(to, transport.Header{Ctx: 1}, datatype.GetBuffer(4096)); err == nil {
						t.Errorf("Send %s succeeded", what)
					}
				}
				refused("to an out-of-range rank", 99)
				if !mesh.wall {
					return // inproc has no peers to lose and nothing to close
				}
				for _, peer := range []int{1, 2} { // both routes of hier
					kill(peer)
					deadline := time.Now().Add(5 * time.Second)
					for trs[0].Send(peer, transport.Header{Ctx: 1}, datatype.GetBuffer(4096)) == nil {
						if time.Now().After(deadline) {
							t.Fatalf("rank %d never reported down", peer)
						}
						time.Sleep(time.Millisecond)
					}
					refused(fmt.Sprintf("to downed rank %d", peer), peer)
				}
				trs[0].Close()
				refused("on a closed transport", 3)
			})
			t.Run("runtime", func(t *testing.T) {
				trs, _ := mesh.build(t)
				ws := repWorlds(t, trs, Compiled(), nil)
				boom := errors.New("rank 1 fails on purpose")
				both := func(c *Comm, dst int, want error) {
					for _, send := range []func(){
						func() { c.Send(dst, 1, refs[0]) },
						func() { c.SendType(dst, 1, shapes[0].t, 1, user) },
					} {
						if err := Guard(func() error { send(); return nil }); !errors.Is(err, want) {
							t.Errorf("send to %d: got %v, want %v", dst, err, want)
						}
					}
				}
				errs := runAll(ws, func(c *Comm) error {
					switch c.Rank() {
					case 1:
						return boom
					case 0:
						deadline := time.Now().Add(5 * time.Second)
						for !c.w.deadRank(1) {
							if time.Now().After(deadline) {
								t.Error("rank 1's failure never observed")
								return nil
							}
							time.Sleep(time.Millisecond)
						}
						both(c, 1, ErrRankFailed)
						c.Revoke()
						both(c, 2, ErrRevoked)
					}
					return nil
				})
				for _, err := range errs { // rank 1's own failure is the only one expected
					if err != nil && !errors.Is(err, boom) {
						t.Error(err)
					}
				}
				for _, w := range ws {
					w.Close()
				}
			})
		})
	}
}
