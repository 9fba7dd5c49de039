package udplan

import (
	"errors"
	"net"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/wire"
)

// The receive paths arm their deadline or timer only when they are about to
// block. These tests pin the timeout contract that lazy arming must keep: a
// bounded wait still expires, never early, whatever deadline an earlier call
// left on the socket; a zero timeout still polls; and datagrams already
// drained into the receive ring are delivered whatever that deadline is.

// expectTimeout runs wait and requires it to fail with an error satisfying
// errors.Is(err, os.ErrDeadlineExceeded), no sooner than bound. A wait that
// never returns fails the test after a generous guard instead of hanging it.
func expectTimeout(t *testing.T, what string, bound time.Duration, wait func() error) {
	t.Helper()
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- wait() }()
	select {
	case err := <-done:
		if !core.IsTimeout(err) {
			t.Fatalf("%s: got %v, want a deadline expiry", what, err)
		}
		if got := time.Since(start); got < bound {
			t.Fatalf("%s: expired after %v, before its %v bound", what, got, bound)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still waiting after 10s", what)
	}
}

// loopbackPair returns a receiving endpoint with the given batch size and a
// plain sender socket aimed at it.
func loopbackPair(t *testing.T, batch int) (*Endpoint, net.PacketConn) {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	e := NewEndpoint(conn, nil)
	e.SetBatch(batch)
	t.Cleanup(func() { e.Close() })
	sender, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	t.Cleanup(func() { sender.Close() })
	return e, sender
}

// sendAcks writes acks with sequence numbers seq, seq+1, ... to e.
func sendAcks(t *testing.T, sender net.PacketConn, e *Endpoint, seq, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		buf, err := (&wire.Packet{Type: wire.TypeAck, Trans: 1, Seq: uint32(seq + i)}).Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sender.WriteTo(buf, e.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecvDeadlineAfterExpiredDeadline(t *testing.T) {
	for _, batch := range []int{1, 32} {
		e, _ := loopbackPair(t, batch)
		if _, err := e.Recv(time.Millisecond); !core.IsTimeout(err) {
			t.Fatalf("batch %d: first recv: %v", batch, err)
		}
		// The first call's deadline has passed; the second must arm its own.
		expectTimeout(t, "Recv(50ms)", 50*time.Millisecond, func() error {
			_, err := e.Recv(50 * time.Millisecond)
			return err
		})
	}
}

func TestRecvZeroPollsAfterUnboundedRecv(t *testing.T) {
	for _, batch := range []int{1, 32} {
		e, sender := loopbackPair(t, batch)
		sendAcks(t, sender, e, 1, 1)
		// An unbounded wait leaves no deadline on the socket; a poll that
		// failed to arm its own would block on it.
		if _, err := e.Recv(-1); err != nil {
			t.Fatal(err)
		}
		expectTimeout(t, "Recv(0)", 0, func() error {
			_, err := e.Recv(0)
			return err
		})
	}
}

func TestRecvDeliversRingAfterDeadlineExpired(t *testing.T) {
	e, sender := loopbackPair(t, 32)
	if e.rx == nil {
		t.Skip("no batched receive ring on this platform")
	}
	// The first bounded Recv takes one ack with a blocking read and drains
	// whatever else the kernel already holds into the ring. Loopback
	// delivery is normally complete when WriteTo returns; retry the
	// (rare) round whose drain found nothing, so the check below is never
	// vacuous.
	seq := 1
	for round := 0; ; round++ {
		if round == 20 {
			t.Fatal("no batch drain ever left datagrams in the ring")
		}
		sendAcks(t, sender, e, seq, 5)
		p, err := e.Recv(time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if int(p.Seq) != seq {
			t.Fatalf("got seq %d, want %d", p.Seq, seq)
		}
		seq++
		if e.rx.pending() {
			break
		}
		for ; seq%5 != 1; seq++ { // discard the round's stragglers
			if _, err := e.Recv(time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Outlive that call's 1ms deadline (a wait for a known instant, not for
	// an event), then drain the ring: every queued datagram must still be
	// delivered, in order, even by zero-timeout polls.
	time.Sleep(5 * time.Millisecond)
	for e.rx.pending() {
		p, err := e.Recv(0)
		if err != nil {
			t.Fatalf("ring datagram seq %d not delivered after the deadline expired: %v", seq, err)
		}
		if int(p.Seq) != seq {
			t.Fatalf("got seq %d, want %d", p.Seq, seq)
		}
		seq++
	}
}

func TestAcceptIdleFiresAfterRingDrain(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer conn.Close()
	sender, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer sender.Close()
	l := newServerListener(conn, 32, MaxDatagram, TierGSO)

	expectTimeout(t, "Accept(30ms) on a silent socket", 30*time.Millisecond, func() error {
		_, err := l.Accept(30 * time.Millisecond)
		return err
	})
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := sender.WriteTo([]byte{byte(i)}, conn.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		in, err := l.Accept(time.Second)
		if err != nil {
			t.Fatalf("arrival %d: %v", i, err)
		}
		if len(in.Msg.([]byte)) != 1 || in.Msg.([]byte)[0] != byte(i) {
			t.Fatalf("arrival %d: got %v", i, in.Msg)
		}
	}
	// The ring is empty again: the idle bound must be re-armed from here.
	expectTimeout(t, "Accept(50ms) after a ring drain", 50*time.Millisecond, func() error {
		_, err := l.Accept(50 * time.Millisecond)
		return err
	})
}

func TestSessionEnvTimer(t *testing.T) {
	inbox := make(chan dgram, 4)
	se := newSessionEnv(nil, nil, nil, inbox, nil)

	inbox <- dgram{n: 1}
	if d, err := se.nextDgram(0); err != nil || d.n != 1 {
		t.Fatalf("queued datagram with a zero timeout: %v %v", d, err)
	}
	expectTimeout(t, "poll of an empty inbox", 0, func() error {
		_, err := se.nextDgram(0)
		return err
	})
	expectTimeout(t, "bounded wait on an empty inbox", 30*time.Millisecond, func() error {
		_, err := se.nextDgram(30 * time.Millisecond)
		return err
	})
	// A datagram that ends a wait early leaves the timer mid-count; the next
	// wait must still get its whole bound.
	go func() { inbox <- dgram{n: 2} }()
	if d, err := se.nextDgram(10 * time.Second); err != nil || d.n != 2 {
		t.Fatalf("datagram during a bounded wait: %v %v", d, err)
	}
	expectTimeout(t, "bounded wait after a stopped timer", 30*time.Millisecond, func() error {
		_, err := se.nextDgram(30 * time.Millisecond)
		return err
	})
	close(inbox)
	for _, timeout := range []time.Duration{-1, 0, time.Second} {
		if _, err := se.nextDgram(timeout); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("closed inbox, timeout %v: %v", timeout, err)
		}
	}
}
