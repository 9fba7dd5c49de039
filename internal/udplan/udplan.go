// Package udplan runs the protocol engines of internal/core over real UDP
// sockets, playing the role of the paper's standalone measurement programs
// (§2.1.1): the same sender/receiver code that executes in virtual time on
// the simulator executes here against the operating system's network stack.
//
// UDP gives exactly the substrate the paper's data-link-level experiments
// assume: unreliable, unordered-but-practically-ordered datagram delivery
// with no protocol machinery on top. All reliability comes from
// internal/core. Hostile network conditions — loss, reordering, duplication,
// bit corruption, jitter — can be injected deterministically on either side
// (MangleTx/MangleRx, or SetAdversary for a seeded params.Adversary) for
// testing recovery paths on a lossless loopback.
//
// The hot path batches syscalls: with SetBatch, outbound data packets are
// encoded into a reusable frame ring (wire.EncodeInto, no allocation) and
// flushed with one sendmmsg per batch, and each blocking receive
// opportunistically drains the socket with recvmmsg — cutting syscalls per
// blast window from W to roughly ⌈W/batch⌉ on Linux, with a portable
// single-datagram fallback elsewhere. Adversary semantics are preserved
// bit-for-bit: every packet is judged before it enters the batch, in send
// order, exactly as on the unbatched path.
package udplan

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"syscall"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/wire"
)

// MaxDatagram is the default endpoint MTU; it comfortably exceeds the
// paper's 1536-byte maximum packet (§2.1.2). SetMTU raises it for
// jumbo-frame experiments.
const MaxDatagram = 2048

// MaxMTU bounds SetMTU: the largest UDP/IPv4 datagram.
const MaxMTU = 65507

// ErrMTU reports a transfer configuration whose packets cannot fit the
// endpoint's datagram size.
var ErrMTU = errors.New("udplan: packet exceeds endpoint MTU")

// Endpoint adapts a packet socket to core.Env. It must be used from a
// single goroutine, like every Env.
type Endpoint struct {
	conn    net.PacketConn
	raw     syscall.RawConn // non-nil when the socket supports raw batched I/O
	peer    net.Addr
	peerKey string
	start   time.Time
	mtu     int
	rbuf    []byte
	wbuf    []byte
	keybuf  [addrKeyLen]byte

	// Batched I/O state (nil when batching is off, the default).
	tx      *txBatch
	rx      *rxBatch
	msender mmsgSender
	gsender gsoSender
	tier    Tier // active transmit tier, probed by SetBatch
	gro     bool // receive side is UDP_GRO-coalesced (GSO tier only)

	// MaxTier, when non-zero, caps the datapath tier SetBatch may probe up
	// to (the -tier flags of blastd/blastcp/lanbench land here). Set it
	// before SetBatch. The process-wide BLASTLAN_TIER environment override
	// applies on top, whichever is lower.
	MaxTier Tier

	// MangleTx and MangleRx, when non-nil, judge every packet before the
	// socket write / after the socket read, and the endpoint implements the
	// verdict: drops, single-bit corruption of the encoded datagram (the
	// peer's checksum then rejects it — the real codec fires end to end),
	// duplicate writes, reordering holds and jitter sleeps. They exist to
	// exercise recovery machinery deterministically on a lossless loopback;
	// SetAdversary installs a seeded params.Adversary on both directions.
	//
	// A held Tx datagram is released once Mangle.Hold later writes have
	// overtaken it, or when the endpoint turns to listen (a blocking Recv;
	// zero-timeout polls do not count) or closes — the moment a real
	// interface's queue would drain. A held Rx packet is released after
	// Hold later arrivals, or when a blocking read times out with the hold
	// still pending (a late arrival instead of a deadline).
	//
	// On the batched path the verdict is judged before the frame enters the
	// batch queue, in send order, so one seeded script produces identical
	// protocol behaviour at every batch size.
	MangleTx func(*wire.Packet) params.Mangle
	MangleRx func(*wire.Packet) params.Mangle

	txHeld      []heldFrame
	rxHeld      []heldFrame
	rxReady     []*wire.Packet
	rxReadyHead int         // index-advancing ring head: pops are O(1), not a slice delete
	rxPkt       wire.Packet // reusable decode target: one live packet per Env, per the Recv contract

	// LockPeer, when set, discards datagrams from other sources once a
	// peer is known.
	LockPeer bool

	// LearnReqOnly restricts peer learning to TypeReq packets. Servers use
	// this so stragglers from a finished transfer cannot claim the
	// endpoint before the next client's request arrives.
	LearnReqOnly bool

	// PacketGap paces data packets: Send sleeps this long after writing a
	// TypeData packet. The paper assumes "source and destination machine
	// are more or less matched in speed" (§1); on a modern loopback the
	// sender can outrun kernel socket buffers by orders of magnitude, and
	// pacing restores the matched-speed premise for large blasts.
	PacketGap time.Duration

	pace pacer // amortized sleep state for PacketGap actuation
}

// heldFrame is one packet the endpoint's adversary is holding back for
// reordering: an encoded datagram on the transmit side, a decoded packet on
// the receive side.
type heldFrame struct {
	data      []byte
	pkt       *wire.Packet
	remaining int
}

// NewEndpoint wraps an open socket. peer may be nil for servers; it is
// learned from the first valid datagram.
func NewEndpoint(conn net.PacketConn, peer net.Addr) *Endpoint {
	e := &Endpoint{
		conn:  conn,
		start: time.Now(),
		mtu:   MaxDatagram,
		rbuf:  make([]byte, MaxDatagram),
		tier:  TierWriteTo,
	}
	e.raw = rawConnOf(conn)
	if peer != nil {
		e.setPeer(peer)
	}
	return e
}

// SetAdversary installs one seeded hostile-network model on both directions
// of the endpoint. Installing it on a single endpoint of a pair mirrors the
// simulator's network-level adversary: that endpoint sees every packet of
// the transfer exactly once.
func (e *Endpoint) SetAdversary(adv params.Adversary, seed int64) error {
	if err := adv.Validate(); err != nil {
		return err
	}
	j := adv.Mangler(seed)
	e.MangleTx, e.MangleRx = j, j
	return nil
}

// SetMTU resizes the endpoint's maximum datagram (receive buffers and
// batch frame slots) for jumbo-frame experiments. Call it before the
// transfer starts. Without it, an oversized configuration would silently
// truncate on receive — the reader's buffer clips the datagram and the
// checksum rejects every packet, an undebuggable stall; ValidateConfig
// turns that into a clear error instead.
func (e *Endpoint) SetMTU(n int) error {
	if n < wire.HeaderSize+1 || n > MaxMTU {
		return fmt.Errorf("udplan: MTU %d out of range [%d, %d]", n, wire.HeaderSize+1, MaxMTU)
	}
	// Frames already queued (possibly a GSO superbuffer in formation) were
	// encoded against the old slot geometry: they must reach the wire
	// before the rings are rebuilt, and a flush failure must surface here
	// rather than vanish into the resize.
	if err := e.FlushBatch(); err != nil {
		return err
	}
	e.mtu = n
	e.rbuf = make([]byte, n)
	if e.tx != nil {
		e.SetBatch(len(e.tx.frames)) // re-size the rings to the new MTU
	}
	return nil
}

// MTU returns the endpoint's maximum datagram size.
func (e *Endpoint) MTU() int { return e.mtu }

// SetConnBuffers raises the kernel send and receive buffers of a UDP
// socket (no-op on sockets without buffer control). Large blast windows
// need this: a ~1 KB datagram charges ~2-3 KB of skb truesize against
// SO_RCVBUF, so the ~208 KB default silently drops the tail of any window
// beyond ~90 packets — a Tr stall per window. Shared by endpoints,
// daemons and the bench harness so the sizing rationale lives once.
func SetConnBuffers(conn net.PacketConn, bytes int) {
	if uc, ok := conn.(*net.UDPConn); ok {
		uc.SetReadBuffer(bytes)
		uc.SetWriteBuffer(bytes)
	}
}

// SetSocketBuffers raises the kernel buffers of the endpoint's socket; see
// SetConnBuffers.
func (e *Endpoint) SetSocketBuffers(bytes int) { SetConnBuffers(e.conn, bytes) }

// SetBatch enables batched syscall I/O and probes the best datapath tier
// the socket supports (GSO superbuffers → sendmmsg → WriteTo loop; see
// Tier): up to n outbound frames are queued in a frame ring and flushed
// with a single sendmsg+UDP_SEGMENT or sendmmsg (FlushBatch, a full ring, a
// blocking Recv, a non-data or FlagLast packet, or Close), and each
// blocking receive drains already-arrived datagrams in one recvmmsg — on
// the GSO tier with UDP_GRO enabled, so a whole window can arrive as one
// coalesced superbuffer split back into frames in user space. n <= 1
// restores the single-syscall path. On platforms without the fast paths the
// queue still forms and flushes as a WriteTo loop, preserving semantics.
//
// SetBatch is a configuration call: make it before the transfer starts
// (queued outbound frames are flushed first, but rebuilding the receive
// ring discards any drained-but-undelivered datagrams — between transfers
// that is nothing). Mid-transfer batch adaptation goes through
// SetBatchLimit, which moves only the flush threshold.
func (e *Endpoint) SetBatch(n int) {
	if e.tx != nil {
		e.tx.Flush() // socket errors resurface on the next Send/Recv
	}
	e.tier = pickTxTier(e.raw, n, e.MaxTier)
	wantGRO := e.tier >= TierGSO
	switch {
	case wantGRO && !e.gro:
		// GRO may be refused (UDP_SEGMENT without UDP_GRO, kernels
		// 4.18–4.20): the transmit side still rides GSO, receives stay plain
		// datagrams — the kernel segments inbound GSO skbs for non-GRO
		// sockets.
		e.gro = setGRO(e.raw, true)
	case !wantGRO && e.gro:
		// GRO is sticky on the socket: left on, a later plain ReadFrom
		// would misread a coalesced superbuffer as one giant datagram.
		setGRO(e.raw, false)
		e.gro = false
	}
	e.releaseRings()
	if n <= 1 {
		return
	}
	e.tx = newTxBatch(n, e.mtu, e.flushFrames)
	e.rx = newRxBatch(n, e.mtu, e.gro)
}

// Tier reports the active transmit tier of the batched datapath
// (TierWriteTo when batching is off). Probed by SetBatch.
func (e *Endpoint) Tier() Tier { return e.tier }

// GRO reports whether the receive side is UDP_GRO-coalesced.
func (e *Endpoint) GRO() bool { return e.gro }

// Batch reports the configured batch size (1 when batching is off).
func (e *Endpoint) Batch() int {
	if e.tx == nil {
		return 1
	}
	return len(e.tx.frames)
}

// SetPacketGap implements core.Pacer: the adaptive controller's pacing
// actuation (see Endpoint.PacketGap).
func (e *Endpoint) SetPacketGap(d time.Duration) { e.PacketGap = d }

// Gap implements core.Pacer: the current pacing gap, which the adaptive
// sender snapshots so it can restore a user-configured gap afterwards.
func (e *Endpoint) Gap() time.Duration { return e.PacketGap }

// BatchLimit implements core.BatchLimiter: the effective queued-frames
// flush threshold (1 when batching is off).
func (e *Endpoint) BatchLimit() int {
	if e.tx == nil {
		return 1
	}
	return e.tx.flushAt()
}

// SetBatchLimit implements core.BatchLimiter: the adaptive controller's
// batch actuation. The ring keeps its configured size — only the flush
// threshold moves, so mid-transfer adjustments allocate nothing — and
// frames already queued beyond the new threshold flush immediately. A
// no-op when batching is off.
func (e *Endpoint) SetBatchLimit(n int) {
	if e.tx == nil {
		return
	}
	e.tx.setLimit(n) // socket errors resurface on the next Send/Recv
}

// FlushUnit implements core.BatchGeometry: the frames one flush syscall
// carries as a single wire unit — a superbuffer's segment capacity at the
// GSO tier, 1 on the frame-at-a-time tiers (see flushUnitOf).
func (e *Endpoint) FlushUnit() int {
	if e.tx == nil {
		return 1
	}
	return flushUnitOf(e.tier, len(e.tx.frames))
}

// ValidateConfig checks that the configured transfer's packets fit the
// endpoint's datagram size, returning a clear error instead of the silent
// truncating receive an oversized chunk would otherwise cause.
func (e *Endpoint) ValidateConfig(cfg core.Config) error {
	return validateConfigMTU(cfg, e.mtu)
}

// FlushBatch implements core.BatchFlusher: every queued frame goes on the
// wire, in queue order.
func (e *Endpoint) FlushBatch() error {
	if e.tx == nil {
		return nil
	}
	return e.tx.Flush()
}

// PacketConsumedOnSend implements core.PacketReuser: Send encodes the packet
// before returning, so senders may reuse one Packet value.
func (e *Endpoint) PacketConsumedOnSend() {}

// flushFrames writes frames[0:n] to the peer through the endpoint's active
// datapath tier (GSO superbuffer, sendmmsg or WriteTo loop).
func (e *Endpoint) flushFrames(frames [][]byte, lens []int, n int) error {
	return flushFramesTiered(e.tier, e.raw, &e.gsender, &e.msender, e.conn, e.peer, frames, lens, n)
}

// Dial opens an ephemeral UDP socket talking to remote.
func Dial(remote string) (*Endpoint, error) {
	raddr, err := net.ResolveUDPAddr("udp", remote)
	if err != nil {
		return nil, fmt.Errorf("udplan: resolve %q: %w", remote, err)
	}
	local := ":0"
	if raddr.IP != nil && raddr.IP.IsLoopback() {
		local = "127.0.0.1:0"
	}
	conn, err := net.ListenPacket("udp", local)
	if err != nil {
		return nil, fmt.Errorf("udplan: listen: %w", err)
	}
	e := NewEndpoint(conn, raddr)
	e.LockPeer = true
	return e, nil
}

// Close flushes the batch queue and any held transmissions, then releases
// the frame rings and the underlying socket. A packet returned by Recv is
// invalid once Close returns.
func (e *Endpoint) Close() error {
	e.FlushBatch()
	e.flushTx()
	e.releaseRings()
	return e.conn.Close()
}

// releaseRings hands the frame rings back for reuse and turns batching
// off; calling it again releases nothing.
func (e *Endpoint) releaseRings() {
	txFree.put(e.tx)
	rxFree.put(e.rx)
	e.tx, e.rx = nil, nil
}

// LocalAddr returns the socket's address.
func (e *Endpoint) LocalAddr() net.Addr { return e.conn.LocalAddr() }

// Peer returns the current peer (nil until learned).
func (e *Endpoint) Peer() net.Addr { return e.peer }

// ResetPeer forgets the current peer so a server endpoint can accept its
// next client.
func (e *Endpoint) ResetPeer() { e.peer, e.peerKey = nil, "" }

// setPeer records the peer and its canonical comparison key.
func (e *Endpoint) setPeer(a net.Addr) {
	e.peer = a
	e.peerKey = addrKey(a)
}

// fromPeer reports whether an arrival came from the locked peer. name, when
// non-nil, is the raw sockaddr of a batch-drained datagram; it is compared
// without constructing a net.Addr (no allocation on the hot receive path).
func (e *Endpoint) fromPeer(addr net.Addr, name []byte) bool {
	if name != nil {
		if !keyFromRaw(&e.keybuf, name) {
			return false
		}
		return string(e.keybuf[:]) == e.peerKey
	}
	if ua, ok := addr.(*net.UDPAddr); ok {
		keyFromUDP(&e.keybuf, ua)
		return string(e.keybuf[:]) == e.peerKey
	}
	return addr.String() == e.peerKey
}

// Now returns the wall-clock time since the endpoint was created.
func (e *Endpoint) Now() time.Duration { return time.Since(e.start) }

// Compute is a no-op: real work takes real time.
func (e *Endpoint) Compute(time.Duration) {}

// Send encodes and transmits one packet to the peer, applying the MangleTx
// verdict on the way out. PacketGap pacing applies to every data packet
// regardless of the verdict — the sender spends the slot whether or not the
// adversary lets the frame through.
func (e *Endpoint) Send(p *wire.Packet) error {
	err := e.sendMangled(p)
	if err == nil && e.PacketGap > 0 && p.Type == wire.TypeData {
		// Pacing means spacing on the wire: the pacer flushes the batch
		// ring before it sleeps, and amortizes sub-quantum gaps so the
		// actuation cost tracks the nominal rate (see pace.go).
		if ferr := e.pace.owe(e.PacketGap, e.FlushBatch); ferr != nil {
			return ferr
		}
	}
	return err
}

func (e *Endpoint) sendMangled(p *wire.Packet) error {
	if e.peer == nil {
		return errors.New("udplan: no peer known")
	}
	var m params.Mangle
	if e.MangleTx != nil {
		m = e.MangleTx(p)
	}
	// Every judged packet overtakes the held transmissions — including one
	// that is itself dropped, corrupted or held — mirroring the simulator,
	// where reaching the adversary is what counts as overtaking. Matured
	// holds go on the wire after the current packet.
	if m.Drop || m.IfaceDrop {
		return e.passTx() // injected loss: silently dropped, like a wire error
	}
	// Encode into the next frame-ring slot (batched) or the reusable
	// scratch buffer (single-syscall path).
	var buf []byte
	if e.tx != nil {
		n, err := p.EncodeInto(e.tx.slot())
		if err != nil {
			return err
		}
		buf = e.tx.slot()[:n]
	} else {
		b, err := p.Encode(e.wbuf[:0])
		if err != nil {
			return err
		}
		e.wbuf = b[:0]
		buf = b
	}
	if m.Corrupt {
		// Mangle the real datagram: the peer's decode rejects it on the
		// checksum, exactly as a line hit would play out.
		params.FlipBit(buf, m.CorruptBit)
	}
	if m.Delay > 0 && m.Hold == 0 { // a hold already delays (see Mangle.Delay)
		time.Sleep(m.Delay)
	}
	if m.Hold > 0 {
		held := append([]byte(nil), buf...)
		// A duplicate of a held packet still goes out now, overtaking its
		// held twin, and — as on the simulator — ahead of any holds this
		// arrival matures. The new hold must not overtake itself, so it is
		// appended after passTx.
		if m.Duplicate {
			if err := e.emitCurrent(buf); err != nil {
				return err
			}
		}
		if err := e.passTx(); err != nil {
			return err
		}
		e.txHeld = append(e.txHeld, heldFrame{data: held, remaining: m.Hold})
		return e.maybeFlushControl(p)
	}
	if err := e.emitCurrent(buf); err != nil {
		return err
	}
	if m.Duplicate {
		if err := e.emitCopy(buf); err != nil {
			return err
		}
	}
	if err := e.passTx(); err != nil {
		return err
	}
	return e.maybeFlushControl(p)
}

// emitCurrent puts the just-encoded frame on the wire: it commits the
// current ring slot when batching, or writes the scratch buffer directly.
func (e *Endpoint) emitCurrent(buf []byte) error {
	if e.tx != nil {
		return e.tx.commit(len(buf))
	}
	_, err := e.conn.WriteTo(buf, e.peer)
	return err
}

// emitCopy puts a copy of an arbitrary encoded frame on the wire (injected
// duplicates, matured reorder holds), preserving queue order when batching.
func (e *Endpoint) emitCopy(buf []byte) error {
	if e.tx != nil {
		return e.tx.enqueueCopy(buf)
	}
	_, err := e.conn.WriteTo(buf, e.peer)
	return err
}

// maybeFlushControl flushes the batch queue behind control traffic and the
// reliable last packet of a window: only unreliable mid-window data may
// linger in the ring, so acknowledgement exchanges keep their single-packet
// latency.
func (e *Endpoint) maybeFlushControl(p *wire.Packet) error {
	if e.tx == nil || !flushesImmediately(p) {
		return nil
	}
	return e.tx.Flush()
}

// passTx records one datagram overtaking the held transmissions and writes
// out any whose reorder depth is now satisfied. The in-place filter is a
// single linear pass per overtake — no per-element slice deletes.
func (e *Endpoint) passTx() error {
	if len(e.txHeld) == 0 {
		return nil
	}
	keep := e.txHeld[:0]
	var firstErr error
	for i := range e.txHeld {
		h := e.txHeld[i]
		h.remaining--
		if h.remaining <= 0 {
			if err := e.emitCopy(h.data); err != nil && firstErr == nil {
				firstErr = err
			}
		} else {
			keep = append(keep, h)
		}
	}
	e.txHeld = keep
	return firstErr
}

// flushTx releases every held transmission, in hold order: the sender has
// stopped transmitting (it is turning to listen, or closing), so a real
// interface's queue would drain now.
func (e *Endpoint) flushTx() error {
	var firstErr error
	for _, h := range e.txHeld {
		if e.peer == nil {
			break
		}
		if _, err := e.conn.WriteTo(h.data, e.peer); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	e.txHeld = e.txHeld[:0]
	return firstErr
}

// SendAsync is Send: UDP writes do not wait for transmission anyway.
func (e *Endpoint) SendAsync(p *wire.Packet) error { return e.Send(p) }

// Recv returns the next valid packet, applying the MangleRx verdict to every
// arrival. timeout < 0 waits forever, 0 polls, and > 0 bounds the wait.
// Malformed datagrams and (with LockPeer) foreign sources are skipped. On
// expiry the error satisfies errors.Is(err, os.ErrDeadlineExceeded).
//
// The read deadline is armed only when Recv is about to block on the
// socket, once per call: datagrams a batch drain already queued are
// delivered without touching the clock or the deadline, so the timeout
// counts from when blocking begins rather than from entry.
func (e *Endpoint) Recv(timeout time.Duration) (*wire.Packet, error) {
	// Anything queued for batch transmission is committed traffic: it must
	// reach the wire before the endpoint waits for responses to it.
	if err := e.FlushBatch(); err != nil {
		return nil, err
	}
	// A blocking listen means the sender has turned to listen: its interface
	// queue drains, releasing any transmissions held for reordering. A
	// zero-timeout poll (sliding window draining acks between sends) is not
	// a turn — holds keep waiting for overtaking traffic, as on the
	// simulator.
	if timeout != 0 {
		if err := e.flushTx(); err != nil {
			return nil, err
		}
	}
	armed := false
	for {
		// Matured holds and injected duplicates deliver before the socket
		// is read again.
		if e.readyCount() > 0 {
			return e.popReady(), nil
		}
		if !armed && (e.rx == nil || !e.rx.pending()) {
			if err := armReadDeadline(e.conn, timeout); err != nil {
				return nil, err
			}
			armed = true
		}
		data, addr, name, err := e.readDatagram()
		if err != nil {
			if timeout != 0 && len(e.rxHeld) > 0 && core.IsTimeout(err) {
				// A blocking listen went quiet with packets still held:
				// they arrive late instead of never (holds delay, they do
				// not lose). Zero-timeout polls do not release holds.
				for _, h := range e.rxHeld {
					e.rxReady = append(e.rxReady, h.pkt)
				}
				e.rxHeld = e.rxHeld[:0]
				return e.popReady(), nil
			}
			return nil, err
		}
		pkt := &e.rxPkt
		if derr := wire.DecodeInto(pkt, data); derr != nil {
			continue // not ours / corrupted: the checksum did its job
		}
		if e.peer == nil {
			if e.LearnReqOnly && pkt.Type != wire.TypeReq {
				continue // unverifiable straggler
			}
			if addr == nil {
				addr = rawToUDPAddr(name)
				if addr == nil {
					continue
				}
			}
			e.setPeer(addr)
		} else if e.LockPeer && !e.fromPeer(addr, name) {
			continue
		}
		var m params.Mangle
		if e.MangleRx != nil {
			m = e.MangleRx(pkt)
		}
		// As on the transmit side, every judged arrival overtakes the held
		// receptions, whatever its own verdict.
		if m.Drop || m.IfaceDrop {
			e.passRx()
			continue
		}
		if m.Corrupt {
			// Mangle the raw datagram and re-run the real codec: the flip
			// must evade the checksum to survive.
			params.FlipBit(data, m.CorruptBit)
			if derr := wire.DecodeInto(pkt, data); derr != nil {
				e.passRx()
				continue
			}
		}
		if m.Delay > 0 && m.Hold == 0 { // a hold already delays
			time.Sleep(m.Delay)
		}
		if m.Duplicate || m.Hold > 0 {
			// Queued across Recv calls: detach from the reused buffers.
			out := pkt.Clone()
			if m.Duplicate {
				e.rxReady = append(e.rxReady, out.Clone())
			}
			if m.Hold > 0 {
				// Existing holds are overtaken first; the new hold must not
				// overtake itself.
				e.passRx()
				e.rxHeld = append(e.rxHeld, heldFrame{pkt: out, remaining: m.Hold})
				continue
			}
			e.passRx()
			return out, nil
		}
		e.passRx()
		// The packet aliases this endpoint's receive buffers (and the one
		// decode value), all stable until the next Recv — the same contract
		// every Env in this repository provides. No per-packet allocation.
		return pkt, nil
	}
}

// armReadDeadline sets conn's read deadline for a wait of timeout with
// core.Env semantics, counted from now: < 0 waits forever, 0 polls (the
// deadline is already due), > 0 bounds the wait.
func armReadDeadline(conn net.PacketConn, timeout time.Duration) error {
	var deadline time.Time
	if timeout >= 0 {
		deadline = time.Now().Add(timeout)
	}
	return conn.SetReadDeadline(deadline)
}

// readDatagram returns the next raw datagram: a batch-drained one if
// pending, otherwise one blocking socket read followed (when batching) by
// an opportunistic recvmmsg drain of everything else already queued in the
// kernel. Drained datagrams carry their raw source sockaddr in name; the
// blocking read carries a net.Addr instead.
func (e *Endpoint) readDatagram() (data []byte, addr net.Addr, name []byte, err error) {
	if e.rx != nil && e.rx.pending() {
		data, name = e.rx.pop()
		return data, nil, name, nil
	}
	if e.gro && e.rx != nil {
		// GRO tier: the blocking read itself is a recvmmsg-with-control, so
		// a coalesced superbuffer arrives with its gso_size attached and pop
		// splits it back into frames. Deadline and close semantics come from
		// the raw read's wait, same as ReadFrom.
		for {
			if err := fillBatch(e.raw, e.rx); err != nil {
				return nil, nil, nil, err
			}
			if e.rx.pending() {
				data, name = e.rx.pop()
				return data, nil, name, nil
			}
		}
	}
	n, a, err := e.conn.ReadFrom(e.rbuf)
	if err != nil {
		return nil, nil, nil, err
	}
	if e.rx != nil {
		e.rx.drain(e.raw)
	}
	return e.rbuf[:n], a, nil, nil
}

// readyCount reports how many packets are queued for delivery.
func (e *Endpoint) readyCount() int { return len(e.rxReady) - e.rxReadyHead }

// popReady returns the oldest packet queued for delivery (matured holds and
// injected duplicates). The head index advances instead of re-slicing the
// queue, so draining n queued packets is O(n), not O(n²) — deep reorder
// holds used to pay a full copy per pop.
func (e *Endpoint) popReady() *wire.Packet {
	pkt := e.rxReady[e.rxReadyHead]
	e.rxReady[e.rxReadyHead] = nil
	e.rxReadyHead++
	if e.rxReadyHead == len(e.rxReady) {
		e.rxReady = e.rxReady[:0]
		e.rxReadyHead = 0
	}
	return pkt
}

// passRx records one arrival overtaking the held receptions; matured holds
// queue for delivery on the next Recv calls. Like passTx, a single linear
// pass with an in-place filter.
func (e *Endpoint) passRx() {
	if len(e.rxHeld) == 0 {
		return
	}
	keep := e.rxHeld[:0]
	for i := range e.rxHeld {
		h := e.rxHeld[i]
		h.remaining--
		if h.remaining <= 0 {
			e.rxReady = append(e.rxReady, h.pkt)
		} else {
			keep = append(keep, h)
		}
	}
	e.rxHeld = keep
}

// SeededDrop returns a deterministic mangle hook losing packets with
// probability p. Each returned function owns its generator, so install
// separate instances for Tx and Rx.
func SeededDrop(p float64, seed int64) func(*wire.Packet) params.Mangle {
	rng := rand.New(rand.NewSource(seed))
	return func(*wire.Packet) params.Mangle {
		return params.Mangle{Drop: rng.Float64() < p}
	}
}

// Push transfers the configured payload to the peer: announce, wait for the
// go-ahead, blast (or whatever cfg.Protocol says). The configuration is
// validated against the endpoint's MTU first.
func Push(e *Endpoint, cfg core.Config) (core.SendResult, error) {
	if err := e.ValidateConfig(cfg); err != nil {
		return core.SendResult{}, err
	}
	return core.Push(e, cfg)
}

// Pull requests the configured transfer from the peer and receives it. The
// configuration is validated against the endpoint's MTU first.
func Pull(e *Endpoint, cfg core.Config) (core.RecvResult, error) {
	if err := e.ValidateConfig(cfg); err != nil {
		return core.RecvResult{}, err
	}
	return core.Request(e, cfg)
}
