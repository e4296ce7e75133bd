package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"nccd/internal/datatype"
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
// one-shot Alltoallw calls — under every engine and both algorithms.
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
			for r := range oneShot {
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
