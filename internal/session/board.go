package session

import (
	"fmt"
	"sync"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/wire"
)

// Board is a relay's cut-through chunk board: the rendezvous between one
// upstream pull filling it and the downstream sessions draining it. The
// upstream receiver writes each delivered chunk through Sink; a child
// session's ChunkSource blocks until the chunk it needs has landed and
// then serves it — so a relay forwards the head of a transfer while its
// tail is still arriving, paying one receive and one send per byte
// instead of a store-and-forward round through the full object.
//
// Chunks arrive at upstream-chunk granularity but are served at whatever
// granularity (and stripe offset) a child's REQ names: presence is
// checked over the covered board-chunk range, so repair pulls that resume
// from a mid-transfer frontier (offset REQs, PR 8) read the same board.
//
// Blocking is substrate-aware, the same split internal/store uses: real
// substrates wait on a condition variable; under the discrete-event
// simulator the serving session polls in virtual time (env.Compute), which
// keeps the kernel's handoff scheduling deterministic.
type Board struct {
	mu     sync.Mutex
	cond   *sync.Cond
	origin int // byte offset of the board within the logical stream
	chunk  int
	bytes  int
	have   []bool
	got    int // chunks landed
	buf    []byte
	err    error
	sim    bool
}

// boardWaitQuantum is how much virtual time a simulated child session
// sleeps between board polls while the chunk it needs is still upstream.
const boardWaitQuantum = 200 * time.Microsecond

// NewBoardAt creates a board for a bytes-long object arriving in
// upstream-chunk-sized pieces, whose byte range sits origin bytes into the
// logical stream — a stripe relay's board: the upstream stripe pull fills
// it with stripe-local offsets, while children address it with the stream's
// own stripe-range REQs (wire.Req.Offset), which SourceReq rebases. sim
// selects virtual-time polling for the blocked readers (see Options.Sim in
// internal/store for the same knob).
func NewBoardAt(origin, bytes, chunk int, sim bool) *Board {
	if bytes <= 0 || chunk <= 0 || origin < 0 {
		panic(fmt.Sprintf("session: NewBoardAt(%d, %d, %d): bad dimensions", origin, bytes, chunk))
	}
	b := &Board{
		origin: origin,
		chunk:  chunk,
		bytes:  bytes,
		have:   make([]bool, (bytes+chunk-1)/chunk),
		buf:    make([]byte, bytes),
		sim:    sim,
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Sink returns the ChunkSink the upstream pull writes through: wire it
// into the pull's Config.Sink (or a PullResume's).
func (b *Board) Sink() core.ChunkSink { return b.put }

// put lands one upstream chunk at byte offset off and wakes blocked
// readers. Duplicate deliveries (retransmissions the receiver let through,
// resumed sessions re-covering the frontier) are idempotent.
func (b *Board) put(off int, chunk []byte) {
	if len(chunk) == 0 {
		return
	}
	b.mu.Lock()
	copy(b.buf[off:], chunk)
	idx := off / b.chunk
	if !b.have[idx] {
		b.have[idx] = true
		b.got++
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Fail poisons the board: the upstream pull gave up for good (its resume
// budget exhausted). Blocked readers unblock and serve zeroes — the child
// transfers complete with a checksum mismatch rather than deadlocking,
// and the child's own resume layer re-pulls through a recovered relay.
func (b *Board) Fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// ready reports (locked) whether byte range [off, off+n) has fully landed.
func (b *Board) ready(off, n int) bool {
	if b.err != nil {
		return true // poisoned: serve what's there (zeroes where nothing is)
	}
	lo := off / b.chunk
	hi := (off + n - 1) / b.chunk
	for i := lo; i <= hi; i++ {
		if !b.have[i] {
			return false
		}
	}
	return true
}

// waitRange blocks until byte range [off, off+n) is present (or the board
// is poisoned), in the substrate's own time.
func (b *Board) waitRange(env core.Env, off, n int) {
	if b.sim {
		for {
			b.mu.Lock()
			ok := b.ready(off, n)
			b.mu.Unlock()
			if ok {
				return
			}
			env.Compute(boardWaitQuantum)
		}
	}
	b.mu.Lock()
	for !b.ready(off, n) {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// SourceReq resolves a child's pull request against the board: the
// session.Server.SourceEnv adapter for a relay. The request's stripe
// fields address the logical stream; the board serves the [origin,
// origin+bytes) slice of it exactly as a store would — an offset REQ from
// a resuming child reads from its frontier — and each chunk read blocks
// until the upstream pull has delivered it. Requests whose range falls
// outside the board are refused.
func (b *Board) SourceReq(r wire.Req, env core.Env) (core.ChunkSource, bool) {
	base := int(r.Offset()) - b.origin
	rchunk := int(r.Chunk)
	if rchunk <= 0 || base < 0 || base+int(r.Bytes) > b.bytes {
		return nil, false
	}
	return func(seq int, dst []byte) []byte {
		off := base + seq*rchunk
		n := rchunk
		if rem := b.bytes - off; rem < n {
			n = rem
		}
		if n <= 0 {
			return nil
		}
		b.waitRange(env, off, n)
		b.mu.Lock()
		out := dst[:n]
		copy(out, b.buf[off:off+n])
		b.mu.Unlock()
		return out
	}, true
}
