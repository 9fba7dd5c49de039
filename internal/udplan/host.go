package udplan

import (
	"fmt"
	"net"
	"sync"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/transport"
)

// Host implements transport.Host over real UDP loopback: every node is a
// fresh 127.0.0.1 socket served by the sharded datapath, every body a
// goroutine with its own dialed Endpoint, and the clock is wall time since
// the first Serve or Spawn. Resumed sessions re-dial, so a body never
// reuses a socket whose session died. Run closes the server sockets once
// every body has returned.
type Host struct {
	// Batch is every socket's syscall batch size (<= 1: single-syscall).
	Batch int
	// LineRate, when positive, models every server socket as a
	// serializing link of this many egress bytes/s (see Server.LineRate).
	// Give the source the same line as the relays and a fan-out measures
	// topology — which socket carries how many copies — rather than
	// loopback CPU.
	LineRate int

	once   sync.Once
	start  time.Time
	wg     sync.WaitGroup
	conns  []net.PacketConn
	ran    []chan error
	timers []*time.Timer
}

func (h *Host) epoch() time.Time {
	h.once.Do(func() { h.start = time.Now() })
	return h.start
}

// hostSocketBuf sizes every host socket's kernel buffers so a whole blast
// window survives skb truesize accounting.
const hostSocketBuf = 4 << 20

// Serve binds a loopback socket and runs svc over it on the sharded
// datapath.
func (h *Host) Serve(name string, svc transport.Service) (transport.Peer, error) {
	h.epoch()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("udplan: host %s: %w", name, err)
	}
	SetConnBuffers(conn, hostSocketBuf)
	l := newServerListener(conn, h.Batch, MaxDatagram, TierAuto)
	l.line = newLinePacer(h.LineRate)
	ran := make(chan error, 1)
	h.conns, h.ran = append(h.conns, conn), append(h.ran, ran)
	go func() { ran <- svc.Run(l) }()
	return conn.LocalAddr(), nil
}

// dial opens and configures one client endpoint.
func (h *Host) dial(addr string) (*Endpoint, error) {
	e, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	e.SetSocketBuffers(hostSocketBuf)
	if h.Batch > 1 {
		e.SetBatch(h.Batch)
	}
	return e, nil
}

// Spawn runs body on a goroutine with an endpoint dialed to node; the
// endpoint in use when body returns is closed.
func (h *Host) Spawn(name string, node transport.Peer, delay time.Duration,
	body func(env core.Env, redial func() (core.Env, error))) {
	h.epoch()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		time.Sleep(delay)
		ep, err := h.dial(node.String())
		if err != nil {
			body(transport.FailedClient(fmt.Errorf("udplan: %s: %w", name, err)), nil)
			return
		}
		defer func() { ep.Close() }()
		body(ep, func() (core.Env, error) {
			ep.Close()
			ne, err := h.dial(node.String())
			if err != nil {
				return nil, err
			}
			ep = ne
			return ne, nil
		})
	}()
}

// After calls fn on its own goroutine once d has passed.
func (h *Host) After(d time.Duration, fn func()) {
	h.timers = append(h.timers, time.AfterFunc(d, fn))
}

// Run waits for every body, then closes the server sockets (a clean close
// ends each server's Run) and waits for the servers.
func (h *Host) Run() error {
	h.wg.Wait()
	for _, t := range h.timers {
		t.Stop()
	}
	var firstErr error
	for i, conn := range h.conns {
		conn.Close()
		if err := <-h.ran[i]; err != nil && firstErr == nil {
			firstErr = fmt.Errorf("udplan: host server %d: %w", i, err)
		}
	}
	return firstErr
}

// Now returns wall time since the host's first Serve or Spawn.
func (h *Host) Now() time.Duration { return time.Since(h.epoch()) }

// Virtual reports false: waits block on real time.
func (h *Host) Virtual() bool { return false }
