package udplan

import (
	"encoding/binary"
	"net"
	"slices"
	"sync"
	"syscall"
	"weak"

	"blastlan/internal/wire"
)

// This file holds the platform-independent half of the batched datapath:
// the reusable frame rings that amortise one syscall across a whole blast
// window. The platform-specific sendmmsg/recvmmsg wrappers live in
// mmsg_linux.go (with a no-op fallback in mmsg_fallback.go); when they are
// unavailable the rings still form and flush as plain WriteTo loops, so
// behaviour is identical everywhere and only the syscall count differs.

// txBatch is a frame ring of pre-allocated MTU-sized slots. The sender
// encodes each outbound packet directly into the next slot
// (wire.EncodeInto — no allocation), and the ring flushes as one vectored
// write when full or on demand.
type txBatch struct {
	frames [][]byte // fixed slots, each cap = MTU
	lens   []int
	queued int
	// limit caps how many frames queue before an automatic flush; 0 (or
	// anything ≥ len(frames)) means the full ring. The adaptive
	// controller throttles batching through this instead of resizing the
	// ring, so mid-transfer adjustments allocate nothing.
	limit int
	flush func(frames [][]byte, lens []int, n int) error
}

// flushAt returns the effective queue depth that triggers a flush.
func (t *txBatch) flushAt() int {
	if t.limit > 0 && t.limit < len(t.frames) {
		return t.limit
	}
	return len(t.frames)
}

// setLimit adjusts the flush threshold; anything already queued beyond the
// new threshold goes on the wire immediately (order preserved).
func (t *txBatch) setLimit(n int) error {
	if n < 1 {
		n = 1
	}
	t.limit = n
	if t.queued >= t.flushAt() {
		return t.Flush()
	}
	return nil
}

// newTxBatch builds a ring of n MTU-sized slots over one backing array,
// reusing a released ring of the same geometry when one is free.
func newTxBatch(n, mtu int, flush func([][]byte, []int, int) error) *txBatch {
	if t := txFree.get(ringShape{n: n, slot: mtu}); t != nil {
		t.queued, t.limit, t.flush = 0, 0, flush
		return t
	}
	backing := make([]byte, n*mtu)
	t := &txBatch{frames: make([][]byte, n), lens: make([]int, n), flush: flush}
	for i := range t.frames {
		t.frames[i] = backing[i*mtu : (i+1)*mtu]
	}
	return t
}

// slot returns the current free frame slot to encode into.
func (t *txBatch) slot() []byte { return t.frames[t.queued] }

// commit finalises the current slot with n encoded bytes; a ring at its
// flush threshold flushes immediately.
func (t *txBatch) commit(n int) error {
	t.lens[t.queued] = n
	t.queued++
	if t.queued >= t.flushAt() {
		return t.Flush()
	}
	return nil
}

// enqueueCopy queues a copy of an already-encoded frame (an injected
// duplicate, a matured reorder hold) behind whatever is queued.
func (t *txBatch) enqueueCopy(b []byte) error {
	if len(b) > len(t.slot()) {
		// Defensive: cannot happen for frames this endpoint encoded, since
		// slots are MTU-sized like the encode path.
		return t.Flush()
	}
	n := copy(t.slot(), b)
	return t.commit(n)
}

// Flush writes every queued frame, in order, and empties the ring.
func (t *txBatch) Flush() error {
	if t.queued == 0 {
		return nil
	}
	n := t.queued
	t.queued = 0
	return t.flush(t.frames, t.lens, n)
}

// GRO ring geometry. A GRO-enabled socket can deliver a coalesced
// superbuffer up to the full UDP payload space per message, so the ring
// trades message count for message size: a few superbuffer-sized slots hold
// far more frames than an MTU-sized ring of any width.
const (
	groBufBytes  = 65535 // one coalesced superbuffer can span the whole UDP payload space
	groCtrlBytes = 64    // cmsg space per message: one gso_size cmsg plus headroom
	groRingMsgs  = 4     // messages per fill; each can carry ~a window of frames
)

// rxBatch is the receive ring recvmmsg drains into: raw datagrams plus the
// raw source sockaddr of each, consumed FIFO by the endpoint's Recv loop.
// A GRO ring additionally carries per-message control buffers and segment
// sizes, and pop splits coalesced superbuffers back into frames.
type rxBatch struct {
	bufs        [][]byte
	names       [][]byte
	ctrls       [][]byte // GRO mode only: per-message cmsg space (gso_size)
	lens        []int
	segs        []int // GRO mode only: per-message gso_size (0 = one plain datagram)
	count, next int
	segOff      int // byte cursor inside the current coalesced message
	recv        mmsgReceiver
}

// newRxBatch builds a receive ring of n MTU-sized slots, or of a few
// superbuffer-sized slots on a GRO socket, reusing a released ring of the
// same geometry when one is free.
func newRxBatch(n, mtu int, gro bool) *rxBatch {
	bufSize := mtu
	if gro {
		if n > groRingMsgs {
			n = groRingMsgs
		}
		bufSize = groBufBytes
	}
	if r := rxFree.get(ringShape{n: n, slot: bufSize, gro: gro}); r != nil {
		r.count, r.next, r.segOff = 0, 0, 0
		return r
	}
	backing := make([]byte, n*bufSize)
	names := make([]byte, n*rawNameLen)
	r := &rxBatch{bufs: make([][]byte, n), names: make([][]byte, n), lens: make([]int, n)}
	for i := 0; i < n; i++ {
		r.bufs[i] = backing[i*bufSize : (i+1)*bufSize]
		r.names[i] = names[i*rawNameLen : (i+1)*rawNameLen]
	}
	if gro {
		ctrls := make([]byte, n*groCtrlBytes)
		r.ctrls = make([][]byte, n)
		r.segs = make([]int, n)
		for i := 0; i < n; i++ {
			r.ctrls[i] = ctrls[i*groCtrlBytes : (i+1)*groCtrlBytes]
		}
	}
	return r
}

// Frame rings are a per-request cost worth avoiding: every dial and every
// server session needs a few hundred KiB of them (a GRO receive ring alone
// is four 64 KiB superbuffers), and a small-object workload would otherwise
// hand all of it to the garbage collector per request. Released rings wait
// on a small free list per kind, matched by exact geometry. The list holds
// them weakly and is bounded: an idle ring is not live heap, so it neither
// raises the collector's heap goal nor outlives the next collection, and a
// burst of sessions beyond the bound allocates fresh rings as before.
//
// A ring is released only where its owner is done with it and no other
// goroutine can reach it — Endpoint.Close, an Endpoint re-size, the end of
// a server session, the serial server retiring its per-transfer endpoint —
// and the owner drops its pointer in the same step, so a second Close
// releases nothing. put also ignores a ring already on the list, so a
// double release cannot hand one ring to two owners. The lists are
// process-wide, like a sync.Pool: endpoints and sessions come and go
// independently of any one Server.

// ringFreeMax bounds each free list; it covers the rings a couple of
// concurrent clients and their server sessions hold at once.
const ringFreeMax = 4

// ringShape is the geometry a reused ring must match exactly.
type ringShape struct {
	n, slot int  // slots and bytes per slot
	gro     bool // receive ring with per-message GRO control buffers
}

func (t *txBatch) shape() ringShape { return ringShape{n: len(t.frames), slot: len(t.frames[0])} }

func (r *rxBatch) shape() ringShape {
	return ringShape{n: len(r.bufs), slot: len(r.bufs[0]), gro: r.ctrls != nil}
}

// ringList is a bounded free list of one kind of frame ring, held weakly.
type ringList[T any] struct {
	mu    sync.Mutex
	free  []weak.Pointer[T]
	shape func(*T) ringShape
}

var (
	txFree = ringList[txBatch]{shape: (*txBatch).shape}
	rxFree = ringList[rxBatch]{shape: (*rxBatch).shape}
)

// get takes the most recently released ring of shape s off the list, or
// returns nil.
func (l *ringList[T]) get(s ringShape) *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.free) - 1; i >= 0; i-- {
		if r := l.free[i].Value(); r != nil && l.shape(r) == s {
			l.free = slices.Delete(l.free, i, i+1)
			return r
		}
	}
	return nil
}

// put releases r for reuse. Rings the collector has reclaimed make room
// first, then a full list drops its oldest ring; a nil or already-listed
// ring is ignored.
func (l *ringList[T]) put(r *T) {
	if r == nil {
		return
	}
	w := weak.Make(r)
	l.mu.Lock()
	defer l.mu.Unlock()
	if slices.Contains(l.free, w) {
		return
	}
	l.free = slices.DeleteFunc(l.free, func(w weak.Pointer[T]) bool { return w.Value() == nil })
	if len(l.free) == ringFreeMax {
		l.free = slices.Delete(l.free, 0, 1)
	}
	l.free = append(l.free, w)
}

// pending reports whether drained datagrams are waiting.
func (r *rxBatch) pending() bool { return r.next < r.count }

// pop returns the next drained datagram and its raw source sockaddr. Both
// slices are valid until the ring's next drain (which only happens after
// every pending datagram has been popped). A message delivered coalesced
// (gso_size attached) pops one segment at a time: gso_size bytes each, the
// final one possibly shorter — the inverse of the GSO transmit packing.
func (r *rxBatch) pop() (data, name []byte) {
	i := r.next
	if r.segs != nil && r.segs[i] > 0 {
		end := r.segOff + r.segs[i]
		if end > r.lens[i] {
			end = r.lens[i]
		}
		data, name = r.bufs[i][r.segOff:end], r.names[i]
		r.segOff = end
		if r.segOff >= r.lens[i] {
			r.next++
			r.segOff = 0
		}
		return data, name
	}
	r.next++
	return r.bufs[i][:r.lens[i]], r.names[i]
}

// drain performs one non-blocking recvmmsg, filling the ring with whatever
// the kernel already queued. A no-op when the platform lacks recvmmsg.
func (r *rxBatch) drain(raw syscall.RawConn) {
	if raw == nil {
		return
	}
	if n, ok := recvBatch(raw, r); ok {
		r.count, r.next, r.segOff = n, 0, 0
	}
}

// flushFramesTiered writes frames[0:n] to peer through the highest rung of
// the datapath ladder the writer's tier allows, degrading per flush when a
// rung cannot take the frames (an unroutable peer, a platform stub): GSO
// superbuffer → sendmmsg → WriteTo loop. The single implementation behind
// every batched writer (Endpoint, server sessions).
func flushFramesTiered(tier Tier, raw syscall.RawConn, gs *gsoSender, ms *mmsgSender, conn net.PacketConn, peer net.Addr, frames [][]byte, lens []int, n int) error {
	if tier >= TierGSO {
		if handled, err := sendGSO(raw, gs, peer, frames, lens, n); handled {
			return err
		}
	}
	if tier >= TierMmsg {
		if handled, err := sendBatch(raw, ms, peer, frames, lens, n); handled {
			return err
		}
	}
	var firstErr error
	for i := 0; i < n; i++ {
		if _, err := conn.WriteTo(frames[i][:lens[i]], peer); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// flushFramesTo is flushFramesTiered at the sendmmsg rung — the pre-GSO
// entry point, kept for writers that never probe a tier.
func flushFramesTo(raw syscall.RawConn, ms *mmsgSender, conn net.PacketConn, peer net.Addr, frames [][]byte, lens []int, n int) error {
	if handled, err := sendBatch(raw, ms, peer, frames, lens, n); handled {
		return err
	}
	var firstErr error
	for i := 0; i < n; i++ {
		if _, err := conn.WriteTo(frames[i][:lens[i]], peer); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// flushesImmediately reports whether a packet must not linger in the batch
// ring: control traffic and the reliable last packet of a window keep
// their single-packet latency.
func flushesImmediately(p *wire.Packet) bool {
	return p.Type != wire.TypeData || p.Flags&wire.FlagLast != 0
}

// rawConnOf extracts the raw connection for batched syscalls, when the
// socket supports it.
func rawConnOf(conn net.PacketConn) syscall.RawConn {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	return raw
}

// addrKeyLen is the canonical address key size: a 16-byte IP (IPv4 mapped
// into IPv6 form) plus a big-endian port.
const addrKeyLen = 18

// addrKey returns the canonical comparison key for a peer address. Non-UDP
// addresses fall back to their string form.
func addrKey(a net.Addr) string {
	ua, ok := a.(*net.UDPAddr)
	if !ok {
		return a.String()
	}
	var k [addrKeyLen]byte
	keyFromUDP(&k, ua)
	return string(k[:])
}

// keyFromUDP writes a UDP address's canonical key into dst without
// allocating.
func keyFromUDP(dst *[addrKeyLen]byte, ua *net.UDPAddr) {
	ip := ua.IP.To16()
	if ip == nil {
		*dst = [addrKeyLen]byte{}
		return
	}
	copy(dst[:16], ip)
	binary.BigEndian.PutUint16(dst[16:], uint16(ua.Port))
}
