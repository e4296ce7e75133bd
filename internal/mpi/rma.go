package mpi

import (
	"fmt"

	"nccd/internal/floatbytes"
)

// One-sided communication (MPI-2 RMA), the model the paper's related work
// ([19], [23], [24]) explores for zero-copy datatype transfer: an exposed
// memory window plus Put/Get/Accumulate operations framed by Fence epochs.
// Operations issued inside an epoch complete — and become visible at the
// target — by the time the closing Fence returns.

// Win is a window of locally exposed float64 memory.  Create collectively
// with WinCreate; frame access epochs with Fence.
type Win struct {
	c     *Comm
	local []float64
	ctx   uint64 // RMA message context, distinct from the comm's

	putsSent []int64 // per-target counts in the current epoch
	getsSent []int64

	pendingGets []pendingGet
}

const (
	// rmaOpTag carries puts, accumulates and get requests (the opcode is in
	// the payload); rmaRepTag carries get replies.  Keeping operations and
	// replies on distinct tags lets Fence drain exactly the expected number
	// of operations without consuming its own replies.
	rmaOpTag  = 1<<20 + 1
	rmaRepTag = 1<<20 + 2
)

// WinCreate exposes local (which may be nil on ranks contributing no
// memory) as an RMA window over the communicator.  Collective.
func (c *Comm) WinCreate(local []float64) *Win {
	// Window context: consensus generation, like Split.
	gen := []float64{float64(c.me.commGen)}
	c.Allreduce(gen, OpMax)
	c.me.commGen = uint64(gen[0]) + 1
	ctx := splitmixCtx(c.ctx ^ c.me.commGen*0x9e3779b97f4a7c15 ^ 0xABCD)
	return &Win{
		c:        c,
		local:    local,
		ctx:      ctx,
		putsSent: make([]int64, c.Size()),
		getsSent: make([]int64, c.Size()),
	}
}

// Local returns the window's locally exposed memory.
func (w *Win) Local() []float64 { return w.local }

// rmaHeader is prepended to Put/Accumulate payloads: one float64 per index
// plus a leading opcode/length is overkill — instead the payload layout is
// [kind, n, idx..., vals...] encoded as float64s for simplicity.
func rmaEncode(kind float64, idx []int, vals []float64) []byte {
	out := make([]float64, 0, 2+len(idx)+len(vals))
	out = append(out, kind, float64(len(idx)))
	for _, i := range idx {
		out = append(out, float64(i))
	}
	out = append(out, vals...)
	return floatbytes.Bytes(out)
}

// PutIndexed stores vals[k] into target's window element idx[k], like
// MPI_Put with an indexed target datatype.  Completes at the next Fence.
func (w *Win) PutIndexed(target int, idx []int, vals []float64) {
	w.rmaSend(target, 0, idx, vals, &w.putsSent[target])
}

// AccumulateIndexed adds vals[k] into target's window element idx[k], like
// MPI_Accumulate with MPI_SUM.  Completes at the next Fence.
func (w *Win) AccumulateIndexed(target int, idx []int, vals []float64) {
	w.rmaSend(target, 1, idx, vals, &w.putsSent[target])
}

// Put stores vals contiguously at element offset off of target's window.
func (w *Win) Put(target, off int, vals []float64) {
	idx := make([]int, len(vals))
	for k := range idx {
		idx[k] = off + k
	}
	w.PutIndexed(target, idx, vals)
}

func (w *Win) rmaSend(target, kind int, idx []int, vals []float64, counter *int64) {
	w.c.checkPeer(target)
	if len(idx) != len(vals) {
		panic("mpi: rma index/value length mismatch")
	}
	// Reuse the p2p machinery under the window's context.
	saveCtx := w.c.ctx
	w.c.ctx = w.ctx
	w.c.send(target, rmaOpTag, rmaEncode(float64(kind), idx, vals))
	w.c.ctx = saveCtx
	*counter++
}

// GetIndexed fetches target's window elements idx into out.  The values are
// only valid after the next Fence.
func (w *Win) GetIndexed(target int, idx []int, out []float64) {
	w.c.checkPeer(target)
	if len(idx) != len(out) {
		panic("mpi: rma index/output length mismatch")
	}
	saveCtx := w.c.ctx
	w.c.ctx = w.ctx
	w.c.send(target, rmaOpTag, rmaEncode(2, idx, make([]float64, len(out))))
	w.c.ctx = saveCtx
	w.getsSent[target]++
	w.pendingGets = append(w.pendingGets, pendingGet{target: target, out: out})
}

type pendingGet struct {
	target int
	out    []float64
}

// Fence completes an access epoch: every Put/Accumulate issued by any rank
// before its Fence is applied at the target, every Get response is
// delivered, and all ranks synchronize.  Collective.
func (w *Win) Fence() {
	c := w.c

	// Tell every target how many one-sided messages to expect from me.
	expect := w.exchangeCounts()
	c.me.call = "Fence"

	// Drain and apply incoming puts/accumulates/get-requests.
	saveCtx := c.ctx
	c.ctx = w.ctx
	for i := int64(0); i < expect; i++ {
		env := c.await(AnySource, rmaOpTag)
		payload := floatbytes.Floats(env.data)
		kind := int(payload[0])
		cnt := int(payload[1])
		idx := payload[2 : 2+cnt]
		vals := payload[2+cnt:]
		switch kind {
		case 0: // put
			for k := 0; k < cnt; k++ {
				w.local[int(idx[k])] = vals[k]
			}
			c.ChargeHandPack(int64(8*cnt), int64(cnt))
		case 1: // accumulate
			for k := 0; k < cnt; k++ {
				w.local[int(idx[k])] += vals[k]
			}
			c.ChargeHandPack(int64(8*cnt), int64(cnt))
		case 2: // get request: reply with the values
			reply := make([]float64, cnt)
			for k := 0; k < cnt; k++ {
				reply[k] = w.local[int(idx[k])]
			}
			c.ChargeHandPack(int64(8*cnt), int64(cnt))
			c.send(env.src, rmaRepTag, floatbytes.Bytes(reply))
		default:
			panic(fmt.Sprintf("mpi: unknown rma opcode %d", kind))
		}
	}

	// Collect get replies (one per issued get, FIFO per target).
	for _, g := range w.pendingGets {
		env := c.await(g.target, rmaRepTag)
		copy(g.out, floatbytes.Floats(env.data))
	}
	w.pendingGets = nil
	c.ctx = saveCtx

	c.Barrier()
	for r := range w.putsSent {
		w.putsSent[r], w.getsSent[r] = 0, 0
	}
}

// exchangeCounts alltoalls the per-target message counts and returns how
// many incoming messages this rank must drain.
func (w *Win) exchangeCounts() int64 {
	c := w.c
	n := c.Size()
	sendCounts := make([]float64, n)
	for r := 0; r < n; r++ {
		sendCounts[r] = float64(w.putsSent[r] + w.getsSent[r])
	}
	// Transpose via Alltoall on 8-byte blocks.
	recv := make([]byte, 8*n)
	c.Alltoall(floatbytes.Bytes(sendCounts), 8, recv)
	total := int64(0)
	for _, v := range floatbytes.Floats(recv) {
		total += int64(v)
	}
	return total
}
