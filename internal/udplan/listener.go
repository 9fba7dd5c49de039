package udplan

import (
	"fmt"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/transport"
	"blastlan/internal/wire"
)

// This file is the UDP substrate's implementation of transport.Listener:
// everything socket- and syscall-specific about serving many clients on one
// socket — recvmmsg demux drains, raw-sockaddr keys, pooled datagram
// copies, per-session goroutines with sendmmsg frame rings. The serving
// logic itself (session table, REQ-only admission, handler dispatch) lives
// in internal/session and is shared with the simulator substrate.

// serverListener adapts one shared socket to transport.Listener.
type serverListener struct {
	conn  net.PacketConn
	raw   syscall.RawConn // non-nil when the socket supports raw batched I/O
	mtu   int
	batch int
	tier  Tier       // transmit tier for session frame rings, probed once per socket
	line  *linePacer // modeled egress line rate shared by all sessions (nil: unlimited)
	rx    *rxBatch
	rbuf  []byte
	pool  *sync.Pool

	keybuf   [addrKeyLen]byte
	lastAddr net.Addr // source of the most recent Accept (blocking read)
	lastName []byte   // raw sockaddr of the most recent Accept (batch drain)

	wg sync.WaitGroup
}

func newServerListener(conn net.PacketConn, batch, mtu int, maxTier Tier) *serverListener {
	l := &serverListener{
		conn:  conn,
		raw:   rawConnOf(conn),
		mtu:   mtu,
		batch: batch,
		tier:  pickTxTier(rawConnOf(conn), batch, maxTier),
		rbuf:  make([]byte, mtu),
		pool:  &sync.Pool{New: func() any { b := make([]byte, mtu); return &b }},
	}
	if batch > 1 && l.raw != nil {
		// The demux ring stays plain (no UDP_GRO): session datagrams copy
		// into MTU-sized pooled buffers, which a coalesced superbuffer would
		// overflow. GSO-tier clients still work — the kernel segments an
		// inbound GSO skb for a socket without GRO — so only the transmit
		// side of the server rides the GSO tier.
		l.rx = newRxBatch(batch, mtu, false)
	}
	return l
}

// ValidateConfig rejects transfers whose packets overflow the socket's
// datagrams (session.Server.Run consults it when no Validate hook is set).
func (l *serverListener) ValidateConfig(c core.Config) error { return validateConfigMTU(c, l.mtu) }

// Accept returns the next datagram on the socket: a batch-drained one if
// pending, otherwise one blocking read followed (when batching) by an
// opportunistic recvmmsg drain of everything else already queued in the
// kernel. The demux key is canonical and allocation-free. idle > 0 bounds
// the blocking read; the deadline is armed only when the read is about to
// block, so draining a batch costs no clock reads.
func (l *serverListener) Accept(idle time.Duration) (transport.Inbound, error) {
	if idle <= 0 {
		idle = -1 // Accept waits forever on any idle <= 0
	}
	armed := false
	for {
		var (
			data, name []byte
			addr       net.Addr
		)
		if l.rx != nil && l.rx.pending() {
			data, name = l.rx.pop()
		} else {
			if !armed {
				if err := armReadDeadline(l.conn, idle); err != nil {
					return transport.Inbound{}, err
				}
				armed = true
			}
			n, a, err := l.conn.ReadFrom(l.rbuf)
			if err != nil {
				return transport.Inbound{}, err
			}
			data, addr = l.rbuf[:n], a
			if l.rx != nil {
				l.rx.drain(l.raw)
			}
		}
		if name != nil {
			if !keyFromRaw(&l.keybuf, name) {
				continue
			}
		} else if ua, ok := addr.(*net.UDPAddr); ok {
			keyFromUDP(&l.keybuf, ua)
		} else {
			continue
		}
		l.lastAddr, l.lastName = addr, name
		return transport.Inbound{Key: l.keybuf[:], Msg: data}, nil
	}
}

// ReqOf decodes a datagram as a session-opening request: only a
// checksum-valid REQ qualifies.
func (l *serverListener) ReqOf(msg transport.Message) (wire.Req, bool) {
	data, ok := msg.([]byte)
	if !ok {
		return wire.Req{}, false
	}
	var pkt wire.Packet
	if wire.DecodeInto(&pkt, data) != nil || pkt.Type != wire.TypeReq {
		return wire.Req{}, false
	}
	req, err := wire.DecodeReq(pkt.Payload)
	if err != nil {
		return wire.Req{}, false
	}
	return req, true
}

// Open creates the session conn for the source of the most recent Accept.
func (l *serverListener) Open() (transport.Conn, transport.Peer, error) {
	peer := l.lastAddr
	if peer == nil {
		ua := rawToUDPAddr(l.lastName)
		if ua == nil {
			return nil, nil, fmt.Errorf("udplan: unresolvable raw source address")
		}
		peer = ua
	}
	return &serverConn{l: l, peer: peer, inbox: make(chan dgram, 256)}, peer, nil
}

// ReplyBusy sends a best-effort BUSY/RETRY-AFTER refusal to the source of
// the most recent Accept (transport.BusyReplier). The reply is a single
// unbatched write: refusals are rare by construction (one per refused REQ
// round trip) and must not sit in a frame ring.
func (l *serverListener) ReplyBusy(msg transport.Message, retryAfter time.Duration) error {
	data, ok := msg.([]byte)
	if !ok {
		return fmt.Errorf("udplan: refused arrival is not a datagram")
	}
	var pkt wire.Packet
	if err := wire.DecodeInto(&pkt, data); err != nil {
		return err
	}
	peer := l.lastAddr
	if peer == nil {
		ua := rawToUDPAddr(l.lastName)
		if ua == nil {
			return fmt.Errorf("udplan: unresolvable raw source address")
		}
		peer = ua
	}
	buf, err := core.Busy(pkt.Trans, retryAfter).Encode(nil)
	if err != nil {
		return err
	}
	_, err = l.conn.WriteTo(buf, peer)
	return err
}

// Drain blocks until every session goroutine has returned.
func (l *serverListener) Drain() { l.wg.Wait() }

// AcceptPoll bounds an otherwise-unbounded Accept so the demux loop can
// notice server state changes (BeginDrain) while the socket is idle; a
// read timeout every quarter second costs nothing.
func (l *serverListener) AcceptPoll() time.Duration { return 250 * time.Millisecond }

// dgram is one pooled datagram in flight from the demux loop to a session.
type dgram struct {
	b *[]byte
	n int
}

// serverConn is one admitted session's channel: a buffered inbox of pooled
// datagram copies fed by the demux loop, consumed by the session goroutine.
type serverConn struct {
	l     *serverListener
	peer  net.Addr
	inbox chan dgram
}

// Deliver copies the datagram into a pooled buffer and queues it. A full
// inbox drops — an interface drop; the protocol recovers.
func (c *serverConn) Deliver(msg transport.Message) {
	data, ok := msg.([]byte)
	if !ok {
		return
	}
	bp := c.l.pool.Get().(*[]byte)
	n := copy(*bp, data)
	select {
	case c.inbox <- dgram{bp, n}:
	default:
		c.l.pool.Put(bp) // inbox overflow: an interface drop; the protocol recovers
	}
}

// Hangup closes the inbox from the demux side (the demux loop has stopped).
func (c *serverConn) Hangup() { close(c.inbox) }

// Spawn runs the session body in its own goroutine over a channel-fed Env
// with its own sendmmsg frame ring, and releases the ring for reuse after
// the body returns.
func (c *serverConn) Spawn(name string, body func(env core.Env)) {
	c.l.wg.Add(1)
	go func() {
		defer c.l.wg.Done()
		env := newSessionEnv(c.l.conn, c.l.raw, c.peer, c.inbox, c.l.pool)
		env.tier = c.l.tier
		env.line = c.l.line
		if c.l.batch > 1 {
			env.tx = newTxBatch(c.l.batch, c.l.mtu, env.flushFrames)
		}
		body(env)
		env.FlushBatch()
		env.recycle()
		txFree.put(env.tx)
		env.tx = nil
	}()
}

// sessionEnv adapts one demuxed session to core.Env: receives come from the
// demux loop's channel, sends go straight to the shared socket (batched
// through a per-session frame ring when enabled).
type sessionEnv struct {
	conn  net.PacketConn
	raw   syscall.RawConn
	peer  net.Addr
	inbox chan dgram
	pool  *sync.Pool
	start time.Time
	timer *time.Timer
	cur   *[]byte // current packet's buffer; recycled on the next Recv
	pkt   wire.Packet
	wbuf  []byte
	tx    *txBatch
	ms    mmsgSender
	gs    gsoSender
	tier  Tier          // transmit tier, inherited from the listener's probe
	line  *linePacer    // shared per-socket line rate (nil: unlimited)
	gap   time.Duration // adaptive pacing between data packets (core.Pacer)
	pace  pacer         // amortized sleep state for gap actuation
}

func newSessionEnv(conn net.PacketConn, raw syscall.RawConn, peer net.Addr, inbox chan dgram, pool *sync.Pool) *sessionEnv {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return &sessionEnv{conn: conn, raw: raw, peer: peer, inbox: inbox, pool: pool, start: time.Now(), timer: t}
}

// BatchLimit implements core.BatchLimiter.
func (se *sessionEnv) BatchLimit() int {
	if se.tx == nil {
		return 1
	}
	return se.tx.flushAt()
}

// SetBatchLimit implements core.BatchLimiter: the session's flush
// threshold follows the adaptive controller's window without reallocating
// the ring. The demux loop owns the receive side; only transmit batching
// is per-session.
func (se *sessionEnv) SetBatchLimit(n int) {
	if se.tx == nil {
		return
	}
	se.tx.setLimit(n)
}

// FlushUnit implements core.BatchGeometry: the frames one flush syscall
// carries as a single wire unit at the session's inherited tier (see
// flushUnitOf), so a serving-side controller's batch actuation is quantized
// to whole GSO superbuffers too.
func (se *sessionEnv) FlushUnit() int {
	if se.tx == nil {
		return 1
	}
	return flushUnitOf(se.tier, len(se.tx.frames))
}

// SetPacketGap implements core.Pacer for the serving side of a pull.
func (se *sessionEnv) SetPacketGap(d time.Duration) { se.gap = d }

// Gap implements core.Pacer.
func (se *sessionEnv) Gap() time.Duration { return se.gap }

// Now returns the wall-clock time since the session started.
func (se *sessionEnv) Now() time.Duration { return time.Since(se.start) }

// Compute is a no-op: real work takes real time.
func (se *sessionEnv) Compute(time.Duration) {}

// PacketConsumedOnSend implements core.PacketReuser.
func (se *sessionEnv) PacketConsumedOnSend() {}

// FlushBatch implements core.BatchFlusher.
func (se *sessionEnv) FlushBatch() error {
	if se.tx == nil {
		return nil
	}
	return se.tx.Flush()
}

// flushFrames writes the session's queued frames through the listener's
// probed datapath tier (GSO superbuffer, sendmmsg or WriteTo loop). A
// modeled line rate charges the whole flush before it hits the socket: the
// shared pacer serializes this session's frames against every other
// session's on the same link.
func (se *sessionEnv) flushFrames(frames [][]byte, lens []int, n int) error {
	if se.line != nil {
		total := 0
		for _, l := range lens[:n] {
			total += l
		}
		se.line.wait(total)
	}
	return flushFramesTiered(se.tier, se.raw, &se.gs, &se.ms, se.conn, se.peer, frames, lens, n)
}

// Send encodes and transmits one packet to the session's peer. A non-zero
// pacing gap spaces data packets on the wire, exactly like
// Endpoint.PacketGap: the pacer flushes queued frames before it sleeps so
// the gap is real spacing, not a queued burst, and amortizes sub-quantum
// gaps so the actuation cost tracks the nominal rate (see pace.go).
func (se *sessionEnv) Send(p *wire.Packet) error {
	if err := se.send(p); err != nil {
		return err
	}
	if se.gap > 0 && p.Type == wire.TypeData {
		return se.pace.owe(se.gap, se.FlushBatch)
	}
	return nil
}

func (se *sessionEnv) send(p *wire.Packet) error {
	if se.tx != nil {
		n, err := p.EncodeInto(se.tx.slot())
		if err != nil {
			return err
		}
		if err := se.tx.commit(n); err != nil {
			return err
		}
		if flushesImmediately(p) {
			return se.tx.Flush()
		}
		return nil
	}
	buf, err := p.Encode(se.wbuf[:0])
	if err != nil {
		return err
	}
	se.wbuf = buf[:0]
	se.line.wait(len(buf))
	_, err = se.conn.WriteTo(buf, se.peer)
	return err
}

// SendAsync is Send: UDP writes do not wait for transmission anyway.
func (se *sessionEnv) SendAsync(p *wire.Packet) error { return se.Send(p) }

// Recv returns the session's next valid packet. The decoded packet aliases
// a pooled buffer that stays valid until the following Recv.
func (se *sessionEnv) Recv(timeout time.Duration) (*wire.Packet, error) {
	if err := se.FlushBatch(); err != nil {
		return nil, err
	}
	for {
		d, err := se.nextDgram(timeout)
		if err != nil {
			return nil, err
		}
		se.recycle()
		se.cur = d.b
		if derr := wire.DecodeInto(&se.pkt, (*d.b)[:d.n]); derr != nil {
			continue // corrupted in flight: the checksum did its job
		}
		return &se.pkt, nil
	}
}

// recycle returns the current packet's buffer to the pool.
func (se *sessionEnv) recycle() {
	if se.cur != nil {
		se.pool.Put(se.cur)
		se.cur = nil
	}
}

// nextDgram waits for the demux loop's next datagram with core.Env timeout
// semantics: < 0 waits forever, 0 polls, > 0 bounds the wait. A datagram
// already queued is taken without touching the timer, which is reset only
// when the session must actually wait, so the bound counts from then.
func (se *sessionEnv) nextDgram(timeout time.Duration) (dgram, error) {
	select {
	case d, ok := <-se.inbox:
		return inboxDgram(d, ok)
	default:
	}
	if timeout == 0 {
		return dgram{}, os.ErrDeadlineExceeded
	}
	if timeout < 0 {
		d, ok := <-se.inbox
		return inboxDgram(d, ok)
	}
	se.timer.Reset(timeout)
	select {
	case d, ok := <-se.inbox:
		se.timer.Stop() // Go 1.23+ timers: Reset discards a tick Stop missed
		return inboxDgram(d, ok)
	case <-se.timer.C:
		return dgram{}, os.ErrDeadlineExceeded
	}
}

// inboxDgram maps a receive from a session inbox to nextDgram's result: a
// closed inbox means the server closed the session's socket.
func inboxDgram(d dgram, ok bool) (dgram, error) {
	if !ok {
		return dgram{}, net.ErrClosed
	}
	return d, nil
}
