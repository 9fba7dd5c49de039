package udplan

import (
	"errors"
	"fmt"
	"net"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/transport"
	"blastlan/internal/wire"
)

// Server answers transfer requests on one socket (or several SO_REUSEPORT
// siblings). With Concurrency <= 1 it serves serially, the paper's world of
// two matched machines where a transfer in progress owns the link. With
// Concurrency > 1 it becomes a sharded daemon: the substrate-agnostic
// session layer (internal/session) runs its demux loop over this socket's
// transport.Listener, routing datagrams by source address into per-session
// goroutines — each running the unmodified core protocol engines over its
// own channel-fed Env, with its own tiered frame ring (GSO superbuffers,
// sendmmsg, or a WriteTo loop; see Tier). Given multiple sockets
// (NewMultiServer over ListenReuseport), it runs one independent demux loop
// per socket with kernel-hashed flow steering — the single-demux bottleneck
// removed once per-packet cost is amortised. All the serving machinery
// (sharded session table, REQ-only admission, streaming handlers,
// stripe-range resolution, graceful drain) is shared with the simulator
// substrate; only the socket/syscall specifics live here.
type Server struct {
	// The shared serving machinery and its handler hooks: Data, Source,
	// Sink, SinkStream, Idle, Concurrency, Logf, Done, BeginDrain, Served —
	// see session.Server.
	session.Server

	// Batch enables batched syscall I/O (tiered frame rings per session,
	// recvmmsg demux drain) with the given batch size; <= 1 stays on the
	// single-syscall path.
	Batch int

	// MTU overrides the maximum datagram size (default MaxDatagram) for
	// jumbo-frame serving. Requests whose packets exceed it are rejected
	// with a clear log line instead of stalling on truncated reads.
	MTU int

	// MaxTier, when non-zero, caps the datapath tier the server probes up
	// to (blastd's -tier flag lands here); the BLASTLAN_TIER environment
	// override applies on top.
	MaxTier Tier

	// LineRate, when positive, models each socket as a serializing link of
	// this many egress bytes per second, shared by every session on it —
	// loopback has no NIC, so topology benchmarks (fan-out trees vs N
	// independent pulls) need the modeled link to measure anything but CPU.
	// Applies to the sharded datapath (Concurrency > 1 or multiple
	// sockets); the serial path ignores it. Each socket of a MultiServer
	// gets its own line, like ports on a switch.
	LineRate int

	conns []net.PacketConn
}

// TransferStats reports one completed transfer for the Done hook.
type TransferStats = session.TransferStats

// NewServer wraps a socket in a transfer server.
func NewServer(conn net.PacketConn) *Server {
	return &Server{conns: []net.PacketConn{conn}}
}

// NewMultiServer wraps several sockets bound to the same address
// (ListenReuseport) in one transfer server: Run drives an independent demux
// loop per socket, with the kernel steering each client flow to exactly one
// of them. Requires Concurrency > 1 to be useful; accounting (Served, Done)
// is shared across the loops.
func NewMultiServer(conns ...net.PacketConn) *Server {
	return &Server{conns: conns}
}

// Close closes every socket the server owns (Run then returns).
func (s *Server) Close() error {
	var firstErr error
	for _, c := range s.conns {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (s *Server) mtu() int {
	if s.MTU > 0 {
		return s.MTU
	}
	return MaxDatagram
}

// Tier reports the datapath tier the server's first socket probes to at
// the configured batch size — what Run's sessions will use.
func (s *Server) Tier() Tier {
	return pickTxTier(rawConnOf(s.conns[0]), s.Batch, s.MaxTier)
}

// Run serves requests until the socket is closed (or Idle expires with no
// session in flight). It returns nil on a clean close.
func (s *Server) Run() error {
	mtu := s.mtu()
	if s.Validate == nil {
		s.Validate = func(c core.Config) error { return validateConfigMTU(c, mtu) }
	}
	if len(s.conns) > 1 {
		ls := make([]transport.Listener, len(s.conns))
		for i, conn := range s.conns {
			sl := newServerListener(conn, s.Batch, mtu, s.MaxTier)
			sl.line = newLinePacer(s.LineRate)
			ls[i] = sl
		}
		return s.Server.RunAll(ls...)
	}
	if s.Concurrency > 1 {
		sl := newServerListener(s.conns[0], s.Batch, mtu, s.MaxTier)
		sl.line = newLinePacer(s.LineRate)
		return s.Server.Run(sl)
	}
	var e *Endpoint
	for {
		// Serial drain: finish the transfer in flight (ServeEnv returns only
		// between transfers), then stop accepting — the same contract as the
		// sharded loop's BeginDrain handling.
		if s.Draining() {
			return nil
		}
		if e == nil {
			var err error
			if e, err = s.serveEndpoint(); err != nil {
				return err
			}
		}
		err := s.serveOne(e)
		if err == nil {
			// A fresh endpoint per transfer, exactly as before; the socket
			// stays open, but the retired endpoint's rings are free.
			e.releaseRings()
			e = nil
			continue
		}
		if core.IsTimeout(err) {
			if s.Idle > 0 || s.Draining() {
				return nil // idle bound reached
			}
			// Wait-poll expired: keep the endpoint but forget any peer a
			// rejected REQ locked it to, exactly as retiring it would have.
			e.ResetPeer()
			continue
		}
		if errors.Is(err, net.ErrClosed) {
			return nil
		}
		return err
	}
}

// serveEndpoint builds the serial path's per-transfer endpoint. It is
// reused across idle wait-polls (only a completed transfer retires it), so
// an idle server allocates nothing while it waits.
func (s *Server) serveEndpoint() (*Endpoint, error) {
	e := NewEndpoint(s.conns[0], nil)
	e.LockPeer = true
	e.LearnReqOnly = true
	e.MaxTier = s.MaxTier
	if s.MTU > 0 {
		if err := e.SetMTU(s.MTU); err != nil {
			return nil, err
		}
	}
	if s.Batch > 1 {
		e.SetBatch(s.Batch)
	}
	return e, nil
}

// serveOne accepts and completes a single transfer on the serial path.
func (s *Server) serveOne(e *Endpoint) error {
	// An unbounded wait becomes a poll, so Run's loop notices BeginDrain on
	// an idle server instead of blocking in Recv until the next request.
	idle := 250 * time.Millisecond
	if s.Idle > 0 {
		idle = s.Idle
	}
	// The serial endpoint only learns its peer from the REQ, so the peer is
	// resolved lazily.
	return s.ServeEnv(e, idle, e.ValidateConfig, func() transport.Peer {
		if p := e.Peer(); p != nil {
			return p
		}
		return nil
	})
}

// validateConfigMTU checks that a transfer's packets fit datagrams of the
// given size.
func validateConfigMTU(cfg core.Config, mtu int) error {
	chunk := cfg.ChunkSize
	if chunk == 0 {
		chunk = params.DataPacketSize
	}
	if need := wire.HeaderSize + chunk; need > mtu {
		return fmt.Errorf("%w: packet bytes %d (header %d + chunk %d) > MTU %d; raise SetMTU or shrink ChunkSize",
			ErrMTU, need, wire.HeaderSize, chunk, mtu)
	}
	return nil
}
