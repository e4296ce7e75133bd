package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"nccd/internal/datatype"
	"nccd/internal/obs"
	"nccd/internal/simnet"
)

// exchangeSpecs is a ring pattern with one noncontiguous and one contiguous
// slot per rank, a self part, and everybody else in the zero bin: rank r
// sends every other double of its first 32 to its successor, 24 contiguous
// bytes to its predecessor and 8 bytes to itself.
func exchangeSpecs(n, me int) (sends, recvs []TypeSpec) {
	sends, recvs = make([]TypeSpec, n), make([]TypeSpec, n)
	succ, pred := (me+1)%n, (me-1+n)%n
	strided := datatype.Vector(16, 1, 2, datatype.Double)
	sends[succ] = TypeSpec{Type: strided, Count: 1}
	recvs[pred] = TypeSpec{Type: strided, Count: 1, Displ: 8}
	sends[pred] = TypeSpec{Type: Bytes(24), Count: 1, Displ: 256}
	recvs[succ] = TypeSpec{Type: Bytes(24), Count: 1, Displ: 264}
	sends[me] = TypeSpec{Type: Bytes(8), Count: 1, Displ: 280}
	recvs[me] = TypeSpec{Type: Bytes(8), Count: 1, Displ: 288}
	return sends, recvs
}

// TestExchangeMatchesAlltoallw: a persistent Exchange reused over several
// rounds of fresh data, with unrelated work between Start and Wait, leaves
// exactly the bytes, the message counts and the virtual clock of as many
// one-shot Alltoallw calls — under every engine and both algorithms.  The
// counts are those of the peers alone: the slot a rank keeps for itself is no
// message.
func TestExchangeMatchesAlltoallw(t *testing.T) {
	const n, rounds = 5, 3
	cfgs := map[string]Config{"baseline": Baseline(), "optimized": Optimized(), "compiled": Compiled()}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			type result struct {
				recv  []byte
				stats Stats
				clock float64
			}
			runRounds := func(persistent bool) []result {
				out := make([]result, n)
				run(t, n, cfg, func(c *Comm) error {
					me := c.Rank()
					sends, recvs := exchangeSpecs(n, me)
					var e *Exchange
					if persistent {
						e = c.AlltoallwInit(sends, recvs)
					}
					sendbuf, recvbuf := make([]byte, 296), make([]byte, 296)
					var all []byte
					for round := 0; round < rounds; round++ {
						for i := range sendbuf {
							sendbuf[i] = byte(me*31 + i*7 + round)
						}
						if persistent {
							e.Start(sendbuf, recvbuf)
							sum := 0
							for _, b := range sendbuf {
								sum += int(b)
							}
							_ = sum
							e.Wait()
						} else {
							c.Alltoallw(sendbuf, sends, recvbuf, recvs)
						}
						all = append(all, recvbuf...)
					}
					out[me] = result{all, c.Stats(), c.Clock()}
					return nil
				})
				return out
			}
			oneShot, persistent := runRounds(false), runRounds(true)
			msgs := int64(rounds * 2) // successor and predecessor
			if cfg.Alltoallw == ATRoundRobin {
				msgs = rounds * (n - 1) // zero-byte pairs included
			}
			for r := range oneShot {
				st := oneShot[r].stats
				if st.MsgsSent != msgs || st.MsgsRecv != msgs || st.BytesSent != rounds*(128+24) || st.BytesRecv != rounds*(128+24) {
					t.Errorf("rank %d counted %d/%d messages and %d/%d bytes sent/received, want %d and %d: the local part is no message",
						r, st.MsgsSent, st.MsgsRecv, st.BytesSent, st.BytesRecv, msgs, rounds*(128+24))
				}
				if !bytes.Equal(oneShot[r].recv, persistent[r].recv) {
					t.Errorf("rank %d: persistent exchange received different bytes", r)
				}
				if oneShot[r].stats != persistent[r].stats || oneShot[r].clock != persistent[r].clock {
					t.Errorf("rank %d: persistent exchange counted %+v at clock %v, one-shot %+v at %v",
						r, persistent[r].stats, persistent[r].clock, oneShot[r].stats, oneShot[r].clock)
				}
			}
		})
	}
}

// TestExchangeLocalPart: the slot of an exchange a rank keeps for itself is
// copied, not mailed.  On one rank, under every preset, a strided slot lands
// in a differently strided one byte for byte with no message counted, nothing
// on the communication matrix and no pooled buffer taken, while the engine
// work and the pack and search time are those of the same typed message
// between two ranks: the virtual clock still prices the self-message of the
// paper's MPI.  Under the compiled engine a steady-state Start/Wait allocates
// nothing.  The slot spans several pipeline chunks that cut its blocks.
func TestExchangeLocalPart(t *testing.T) {
	st, rt := datatype.Vector(6000, 3, 5, datatype.Double), datatype.Vector(3600, 5, 7, datatype.Double)
	src := make([]byte, datatype.RequiredBytes(st, 1))
	for i := range src {
		src[i] = byte(i*131 + i>>8 + 17)
	}
	want := make([]byte, datatype.RequiredBytes(rt, 1)+16)
	datatype.Unpack(rt, 1, want[16:], datatype.Pack(st, 1, src))
	poolGets := obs.Metrics.Counter("datatype.pool_gets")
	for name, cfg := range map[string]Config{"baseline": Baseline(), "optimized": Optimized(), "compiled": Compiled()} {
		t.Run(name, func(t *testing.T) {
			var sender, receiver Stats
			run(t, 2, cfg, func(c *Comm) error {
				if c.Rank() == 0 {
					c.SendType(1, 0, st, 1, src)
					sender = c.Stats()
				} else {
					c.RecvType(0, 0, rt, 1, make([]byte, len(want)))
					receiver = c.Stats()
				}
				return nil
			})
			engine := sender.Datatype
			engine.Add(receiver.Datatype)

			w := run(t, 1, cfg, func(c *Comm) error {
				e := c.AlltoallwInit([]TypeSpec{{Type: st, Count: 1}}, []TypeSpec{{Type: rt, Count: 1, Displ: 16}})
				dst := make([]byte, len(want))
				gets := poolGets.Load()
				e.Start(src, dst)
				e.Wait()
				if !bytes.Equal(dst, want) {
					return fmt.Errorf("the local part landed differently from Pack then Unpack")
				}
				if got := poolGets.Load() - gets; got != 0 {
					return fmt.Errorf("the local part took %d pooled buffers", got)
				}
				got := c.Stats()
				if got.MsgsSent != 0 || got.BytesSent != 0 || got.MsgsRecv != 0 || got.BytesRecv != 0 {
					return fmt.Errorf("the local part counted as messages: %+v", got)
				}
				if got.Datatype != engine || got.PackSec != sender.PackSec+receiver.PackSec || got.SearchSec != sender.SearchSec {
					return fmt.Errorf("the local part was charged %+v, the message between two ranks %+v and %+v", got, sender, receiver)
				}
				if cfg.Engine == datatype.CompiledPlans {
					if n := testing.AllocsPerRun(10, func() { e.Start(src, dst); e.Wait() }); n != 0 {
						return fmt.Errorf("a steady-state Start/Wait allocates %v times", n)
					}
				}
				return nil
			})
			cm := w.CommMatrix()
			if cm.Msgs[0][0] != 0 || cm.Bytes[0][0] != 0 {
				t.Errorf("the local part is on the communication matrix: %d messages, %d bytes", cm.Msgs[0][0], cm.Bytes[0][0])
			}
		})
	}
}

// TestExchangeStartRemote: StartRemote is Start with the rank's own slot left
// where it is.  Under every preset, with a strided own slot landing in a
// differently strided one beside the ring's messages, it leaves every rank the
// Stats and the virtual clock of Start, the same bytes from the peers, and the
// own slot of recvbuf holding what it held before.
func TestExchangeStartRemote(t *testing.T) {
	const n, size, sentinel = 4, 512, 0xEE
	st, rt := datatype.Vector(6, 1, 2, datatype.Double), datatype.Vector(3, 2, 3, datatype.Double)
	ownSlot := make([]byte, size) // nonzero where recvs[me] lands
	ones := bytes.Repeat([]byte{1}, st.Size())
	datatype.Unpack(rt, 1, ownSlot[400:], ones)
	for name, cfg := range map[string]Config{"baseline": Baseline(), "optimized": Optimized(), "compiled": Compiled()} {
		t.Run(name, func(t *testing.T) {
			type result struct {
				recv  []byte
				stats Stats
				clock float64
			}
			exchange := func(remote bool) []result {
				out := make([]result, n)
				run(t, n, cfg, func(c *Comm) error {
					me := c.Rank()
					sends, recvs := exchangeSpecs(n, me)
					sends[me] = TypeSpec{Type: st, Count: 1, Displ: 296}
					recvs[me] = TypeSpec{Type: rt, Count: 1, Displ: 400}
					e := c.AlltoallwInit(sends, recvs)
					sendbuf, recvbuf := make([]byte, size), bytes.Repeat([]byte{sentinel}, size)
					for i := range sendbuf {
						sendbuf[i] = byte(me*31 + i*7)
					}
					if remote {
						e.StartRemote(sendbuf, recvbuf)
					} else {
						e.Start(sendbuf, recvbuf)
					}
					e.Wait()
					out[me] = result{recvbuf, c.Stats(), c.Clock()}
					return nil
				})
				return out
			}
			moved, left := exchange(false), exchange(true)
			for r := range moved {
				if moved[r].stats != left[r].stats || moved[r].clock != left[r].clock {
					t.Errorf("rank %d: StartRemote counted %+v at clock %v, Start %+v at %v",
						r, left[r].stats, left[r].clock, moved[r].stats, moved[r].clock)
				}
				for i, own := range ownSlot {
					switch {
					case own == 0 && left[r].recv[i] != moved[r].recv[i]:
						t.Fatalf("rank %d: byte %d from the peers is %#x, Start left %#x", r, i, left[r].recv[i], moved[r].recv[i])
					case own != 0 && left[r].recv[i] != sentinel:
						t.Fatalf("rank %d: byte %d of the own slot was written (%#x)", r, i, left[r].recv[i])
					case own != 0 && moved[r].recv[i] == sentinel:
						t.Fatalf("rank %d: Start did not move byte %d of the own slot", r, i)
					}
				}
			}
		})
	}
}

// TestExchangeMisuse: a second Start before Wait and a Wait without Start
// are programming errors and panic.
func TestExchangeMisuse(t *testing.T) {
	for name, f := range map[string]func(e *Exchange, buf []byte){
		"double Start":       func(e *Exchange, buf []byte) { e.Start(buf, buf); e.Start(buf, buf) },
		"Wait without Start": func(e *Exchange, buf []byte) { e.Wait() },
	} {
		err := testWorld(1, Compiled()).Run(func(c *Comm) error {
			f(c.AlltoallwInit(make([]TypeSpec, 1), make([]TypeSpec, 1)), nil)
			return nil
		})
		if err == nil {
			t.Errorf("%s did not error", name)
		}
	}
}

// TestExchangeStartAfterCommError: a Start that dies of a typed
// communication error leaves the Exchange idle.  A peer crashes mid-run; the
// survivors see it under Guard (the binned exchange may instead route around
// the dead peer and see nothing) and revoke; every further Start then raises
// the typed error again, never the already-in-flight panic of a half-started
// exchange.
func TestExchangeStartAfterCommError(t *testing.T) {
	const n = 3
	for name, cfg := range map[string]Config{"round-robin": Baseline(), "binned": Compiled()} {
		t.Run(name, func(t *testing.T) {
			cl := simnet.Uniform(n, simnet.IBDDR())
			cl.Faults = &simnet.FaultPlan{CrashAt: map[int]float64{2: 2e-5}}
			err := NewWorld(cl, cfg).Run(func(c *Comm) error {
				sends, recvs := exchangeSpecs(n, c.Rank())
				e := c.AlltoallwInit(sends, recvs)
				sendbuf, recvbuf := make([]byte, 296), make([]byte, 296)
				once := func() error {
					return Guard(func() error {
						e.Start(sendbuf, recvbuf)
						c.Compute(1e-6)
						e.Wait()
						return nil
					})
				}
				typed := func(err error) bool { return errors.Is(err, ErrRankFailed) || errors.Is(err, ErrRevoked) }
				var err error
				for i := 0; i < 200 && err == nil; i++ {
					err = once()
				}
				if !typed(err) && (err != nil || cfg.Alltoallw == ATRoundRobin) {
					return fmt.Errorf("crash of rank 2 surfaced as %v", err)
				}
				c.Revoke()
				for i := 0; i < 2; i++ {
					if err := once(); !typed(err) {
						return fmt.Errorf("exchange %d on the revoked communicator: %v", i, err)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
