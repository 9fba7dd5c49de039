package udplan

import (
	"bytes"
	"math/rand"
	"net"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/wire"
)

// newLoopbackServer starts a Server on an ephemeral loopback socket, or
// skips the test when sockets are unavailable in the environment.
func newLoopbackServer(t *testing.T) (*Server, string) {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback available: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	s := NewServer(conn)
	return s, conn.LocalAddr().String()
}

// doneSignal returns a Done-hook notifier and a wait for n notifications.
// Served and Done lag the client's return — a server session ends only
// after it has the client's last ack — so accounting assertions wait on
// the hook first; a server that never gets there fails the test at a
// generous deadline instead of hanging it.
func doneSignal(t *testing.T) (notify func(), wait func(n int)) {
	ch := make(chan struct{}, 64)
	notify = func() {
		select {
		case ch <- struct{}{}:
		default: // more transfers than any test waits for; the count assertion catches it
		}
	}
	wait = func(n int) {
		t.Helper()
		deadline := time.After(30 * time.Second)
		for i := 0; i < n; i++ {
			select {
			case <-ch:
			case <-deadline:
				t.Fatalf("only %d of %d transfers reached Done", i, n)
			}
		}
	}
	return notify, wait
}

func randomPayload(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// quick transfer config over loopback: tight timeouts, bounded attempts,
// so failures surface fast.
func loopCfg(id uint32, payload []byte, p core.Protocol, s core.Strategy) core.Config {
	return core.Config{
		TransferID:     id,
		Bytes:          len(payload),
		ChunkSize:      1000,
		Protocol:       p,
		Strategy:       s,
		RetransTimeout: 80 * time.Millisecond,
		MaxAttempts:    60,
		Linger:         200 * time.Millisecond,
		ReceiverIdle:   2 * time.Second,
		Payload:        payload,
	}
}

func TestPullOverLoopback(t *testing.T) {
	payload := randomPayload(64*1024, 1)
	srv, addr := newLoopbackServer(t)
	srv.Data = func(r wire.Req) ([]byte, bool) { return payload, true }
	done := make(chan error, 1)
	go func() { done <- srv.Run() }()

	e, err := Dial(addr)
	if err != nil {
		t.Skipf("dial: %v", err)
	}
	defer e.Close()
	cfg := loopCfg(7, payload, core.Blast, core.GoBackN)
	cfg.Payload = nil // the puller has no data; it receives
	res, err := Pull(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !bytes.Equal(res.Data, payload) {
		t.Fatalf("pull corrupted: completed=%v bytes=%d", res.Completed, len(res.Data))
	}
	if res.Checksum != core.TransferChecksum(payload) {
		t.Error("checksum mismatch")
	}
	srv.Close()
	if err := <-done; err != nil {
		t.Errorf("server: %v", err)
	}
	if srv.Served() != 1 {
		t.Errorf("served = %d", srv.Served())
	}
}

func TestPushOverLoopback(t *testing.T) {
	payload := randomPayload(32*1024, 2)
	srv, addr := newLoopbackServer(t)
	got := make(chan []byte, 1)
	srv.Sink = func(r wire.Req, data []byte) { got <- data }
	go srv.Run()

	e, err := Dial(addr)
	if err != nil {
		t.Skipf("dial: %v", err)
	}
	defer e.Close()
	res, err := Push(e, loopCfg(9, payload, core.Blast, core.Selective))
	if err != nil {
		t.Fatal(err)
	}
	if res.DataPackets == 0 {
		t.Error("no packets sent")
	}
	select {
	case data := <-got:
		if !bytes.Equal(data, payload) {
			t.Error("push corrupted data")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server never delivered the push")
	}
}

// All three protocol classes over real sockets.
func TestAllProtocolsOverLoopback(t *testing.T) {
	for _, p := range []core.Protocol{core.StopAndWait, core.SlidingWindow, core.Blast} {
		payload := randomPayload(8*1024, int64(p))
		srv, addr := newLoopbackServer(t)
		got := make(chan []byte, 1)
		srv.Sink = func(r wire.Req, data []byte) { got <- data }
		go srv.Run()

		e, err := Dial(addr)
		if err != nil {
			t.Skipf("dial: %v", err)
		}
		if _, err := Push(e, loopCfg(uint32(p)+1, payload, p, core.GoBackN)); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		select {
		case data := <-got:
			if !bytes.Equal(data, payload) {
				t.Fatalf("%v: corrupted", p)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%v: timed out", p)
		}
		e.Close()
	}
}

// Injected loss on a lossless loopback: every strategy must still deliver.
func TestRecoveryUnderInjectedLoss(t *testing.T) {
	for _, s := range []core.Strategy{core.FullNoNak, core.FullNak, core.GoBackN, core.Selective} {
		payload := randomPayload(16*1024, int64(s))
		srv, addr := newLoopbackServer(t)
		got := make(chan []byte, 1)
		srv.Sink = func(r wire.Req, data []byte) { got <- data }
		go srv.Run()

		e, err := Dial(addr)
		if err != nil {
			t.Skipf("dial: %v", err)
		}
		// 5 % loss in both directions, deterministic.
		e.MangleTx = SeededDrop(0.05, int64(s)*2+1)
		e.MangleRx = SeededDrop(0.05, int64(s)*2+2)
		if _, err := Push(e, loopCfg(uint32(s)+100, payload, core.Blast, s)); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		select {
		case data := <-got:
			if !bytes.Equal(data, payload) {
				t.Fatalf("%v: corrupted under loss", s)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: timed out", s)
		}
		e.Close()
	}
}

// A server must survive serving several transfers in sequence.
func TestServerServesSequentially(t *testing.T) {
	payload := randomPayload(4*1024, 5)
	srv, addr := newLoopbackServer(t)
	srv.Data = func(r wire.Req) ([]byte, bool) { return payload, true }
	notify, waitDone := doneSignal(t)
	srv.Done = func(TransferStats) { notify() }
	go srv.Run()

	for i := 0; i < 3; i++ {
		e, err := Dial(addr)
		if err != nil {
			t.Skipf("dial: %v", err)
		}
		cfg := loopCfg(uint32(200+i), payload, core.Blast, core.GoBackN)
		cfg.Payload = nil
		res, err := Pull(e, cfg)
		if err != nil {
			t.Fatalf("pull %d: %v", i, err)
		}
		if !bytes.Equal(res.Data, payload) {
			t.Fatalf("pull %d corrupted", i)
		}
		e.Close()
	}
	waitDone(3)
	if srv.Served() != 3 {
		t.Errorf("served = %d, want 3", srv.Served())
	}
}

// The server rejects requests it has no handler or data for; the client
// gives up cleanly rather than hanging.
func TestServerRejectsUnknown(t *testing.T) {
	srv, addr := newLoopbackServer(t)
	srv.Data = func(r wire.Req) ([]byte, bool) { return nil, false }
	srv.Idle = 2 * time.Second
	go srv.Run()

	e, err := Dial(addr)
	if err != nil {
		t.Skipf("dial: %v", err)
	}
	defer e.Close()
	cfg := core.Config{
		TransferID:     300,
		Bytes:          1024,
		Protocol:       core.Blast,
		RetransTimeout: 30 * time.Millisecond,
		MaxAttempts:    3,
		Linger:         50 * time.Millisecond,
		ReceiverIdle:   100 * time.Millisecond,
	}
	if _, err := Pull(e, cfg); err == nil {
		t.Error("expected pull of unknown data to fail")
	}
}

func TestEndpointErrors(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer conn.Close()
	e := NewEndpoint(conn, nil)
	if err := e.Send(&wire.Packet{Type: wire.TypeAck}); err == nil {
		t.Error("send without peer should fail")
	}
	if _, err := e.Recv(10 * time.Millisecond); !core.IsTimeout(err) {
		t.Errorf("recv on silent socket: %v", err)
	}
	if e.LocalAddr() == nil {
		t.Error("no local addr")
	}
	if e.Peer() != nil {
		t.Error("peer should be nil")
	}
}

// Malformed datagrams must be skipped, not returned as errors.
func TestMalformedDatagramsIgnored(t *testing.T) {
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

	e := NewEndpoint(conn, nil)
	go func() {
		sender.WriteTo([]byte("garbage that is not a packet"), conn.LocalAddr())
		pkt := &wire.Packet{Type: wire.TypeAck, Trans: 1, Seq: 5}
		buf, _ := pkt.Encode(nil)
		sender.WriteTo(buf, conn.LocalAddr())
	}()
	pkt, err := e.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Type != wire.TypeAck || pkt.Seq != 5 {
		t.Errorf("got %v", pkt)
	}
}

func TestLearnReqOnly(t *testing.T) {
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

	e := NewEndpoint(conn, nil)
	e.LearnReqOnly = true
	go func() {
		ack := &wire.Packet{Type: wire.TypeAck, Trans: 1}
		buf, _ := ack.Encode(nil)
		sender.WriteTo(buf, conn.LocalAddr()) // straggler: must not claim peer
		req := &wire.Packet{Type: wire.TypeReq, Trans: 2,
			Payload: wire.EncodeReq(wire.Req{Bytes: 10, Chunk: 10})}
		buf2, _ := req.Encode(nil)
		sender.WriteTo(buf2, conn.LocalAddr())
	}()
	pkt, err := e.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Type != wire.TypeReq {
		t.Errorf("learned from %v packet", pkt.Type)
	}
	if e.Peer() == nil {
		t.Error("peer not learned from REQ")
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := Dial("not-an-address:xyz"); err == nil {
		t.Error("expected resolve error")
	}
}

// A large paced blast must complete over loopback: an unpaced 1 MB burst
// would swamp the kernel socket buffer and rely entirely on go-back-n,
// while pacing restores the paper's matched-speed premise. The test only
// asserts correctness (completion + integrity); pacing efficiency is
// machine-dependent.
func TestLargePacedPush(t *testing.T) {
	if testing.Short() {
		t.Skip("large transfer")
	}
	payload := randomPayload(1<<20, 99)
	srv, addr := newLoopbackServer(t)
	got := make(chan []byte, 1)
	srv.Sink = func(r wire.Req, data []byte) { got <- data }
	go srv.Run()

	e, err := Dial(addr)
	if err != nil {
		t.Skipf("dial: %v", err)
	}
	defer e.Close()
	e.PacketGap = 10 * time.Microsecond
	cfg := loopCfg(500, payload, core.Blast, core.GoBackN)
	cfg.RetransTimeout = 300 * time.Millisecond
	cfg.ReceiverIdle = 5 * time.Second
	res, err := Push(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-got:
		if !bytes.Equal(data, payload) {
			t.Fatal("paced push corrupted data")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("paced push timed out")
	}
	if res.DataPackets < 1049 { // ceil(1 MiB / 1000)
		t.Errorf("sent %d packets", res.DataPackets)
	}
	t.Logf("1 MiB paced push: %v elapsed, %d packets, %d retransmitted",
		res.Elapsed, res.DataPackets, res.Retransmits)
}
