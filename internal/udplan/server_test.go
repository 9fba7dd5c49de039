package udplan

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/wire"
)

// The concurrent server must serve several clients at once: each pull gets
// its own session, payloads are independent and verified, and the Done hook
// fires per transfer.
func TestConcurrentServerParallelPulls(t *testing.T) {
	srv, addr := newLoopbackServer(t)
	srv.Concurrency = 4
	srv.Batch = 8
	srv.Source = func(r wire.Req) (core.ChunkSource, bool) {
		return core.SeededSource(int64(r.Bytes), int(r.Bytes), int(r.Chunk)), true
	}
	var doneMu sync.Mutex
	var stats []TransferStats
	notify, waitDone := doneSignal(t)
	srv.Done = func(ts TransferStats) {
		doneMu.Lock()
		stats = append(stats, ts)
		doneMu.Unlock()
		notify()
	}
	go srv.Run()

	const clients = 4
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			size := 32*1024 + i*4096 // distinct sizes → distinct payloads
			e, err := Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer e.Close()
			e.SetBatch(8)
			cfg := loopCfg(uint32(400+i), nil, core.Blast, core.GoBackN)
			cfg.Bytes = size
			cfg.Window = 32
			res, err := Pull(e, cfg)
			if err != nil {
				errs[i] = err
				return
			}
			want := core.SeededPayload(int64(size), size, 1000)
			if !bytes.Equal(res.Data, want) {
				errs[i] = fmt.Errorf("client %d: corrupted pull", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	waitDone(clients)
	if got := srv.Served(); got != clients {
		t.Errorf("served = %d, want %d", got, clients)
	}
	doneMu.Lock()
	defer doneMu.Unlock()
	if len(stats) != clients {
		t.Errorf("Done fired %d times, want %d", len(stats), clients)
	}
	for _, ts := range stats {
		if ts.Push || ts.Bytes == 0 || ts.Peer == nil || ts.MBps() <= 0 {
			t.Errorf("bad stats: %+v", ts)
		}
	}
}

// Concurrent streaming pushes: SinkStream receives each client's bytes
// incrementally, with the incremental checksum matching the payload.
func TestConcurrentServerStreamingPush(t *testing.T) {
	srv, addr := newLoopbackServer(t)
	srv.Concurrency = 3
	type result struct {
		sum   uint16
		bytes int
	}
	results := make(chan result, 8)
	srv.SinkStream = func(r wire.Req) (core.ChunkSink, func(core.RecvResult), bool) {
		return func(off int, b []byte) {}, func(res core.RecvResult) {
			results <- result{res.Checksum, res.Bytes}
		}, true
	}
	go srv.Run()

	const clients = 3
	payloads := make([][]byte, clients)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		payloads[i] = randomPayload(24*1024+i*1000, int64(i)+50)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer e.Close()
			if _, err := Push(e, loopCfg(uint32(500+i), payloads[i], core.Blast, core.Selective)); err != nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	wantSums := map[uint16]int{}
	for _, p := range payloads {
		wantSums[wire.Checksum(p)] = len(p)
	}
	for i := 0; i < clients; i++ {
		select {
		case r := <-results:
			if want, ok := wantSums[r.sum]; !ok || want != r.bytes {
				t.Errorf("unexpected streamed result %04x/%d", r.sum, r.bytes)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("missing streamed push result")
		}
	}
}

// Clients beyond the session cap are dropped but recover through REQ
// retransmission: with cap 2 and 4 clients, everyone completes eventually.
func TestConcurrentServerSessionCap(t *testing.T) {
	srv, addr := newLoopbackServer(t)
	srv.Concurrency = 2
	srv.Source = func(r wire.Req) (core.ChunkSource, bool) {
		return core.SeededSource(7, int(r.Bytes), int(r.Chunk)), true
	}
	notify, waitDone := doneSignal(t)
	srv.Done = func(TransferStats) { notify() }
	go srv.Run()

	const clients = 4
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer e.Close()
			cfg := loopCfg(uint32(600+i), nil, core.Blast, core.GoBackN)
			cfg.Bytes = 64 * 1024
			cfg.Window = 16
			cfg.MaxAttempts = 200 // REQ retries ride this
			if _, err := Pull(e, cfg); err != nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d under cap pressure: %v", i, err)
		}
	}
	waitDone(clients)
	if got := srv.Served(); got != clients {
		t.Errorf("served = %d, want %d", got, clients)
	}
}

// A concurrent server shuts down cleanly when its socket closes, even with
// no traffic, and Run returns nil.
func TestConcurrentServerCleanShutdown(t *testing.T) {
	srv, _ := newLoopbackServer(t)
	srv.Concurrency = 4
	done := make(chan error, 1)
	go func() { done <- srv.Run() }()
	time.Sleep(50 * time.Millisecond)
	srv.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after close")
	}
}

// The concurrent server rejects oversized-chunk requests via the MTU check
// (the client fails fast instead of stalling on truncated datagrams).
func TestConcurrentServerRejectsOversized(t *testing.T) {
	srv, addr := newLoopbackServer(t)
	srv.Concurrency = 2
	srv.Source = func(r wire.Req) (core.ChunkSource, bool) {
		return core.SeededSource(1, int(r.Bytes), int(r.Chunk)), true
	}
	var logged sync.Once
	rejected := make(chan struct{}, 1)
	srv.Logf = func(format string, args ...any) {
		logged.Do(func() { rejected <- struct{}{} })
	}
	go srv.Run()

	e, err := Dial(addr)
	if err != nil {
		t.Skipf("dial: %v", err)
	}
	defer e.Close()
	if err := e.SetMTU(9000); err != nil { // client side can encode it...
		t.Fatal(err)
	}
	cfg := core.Config{
		TransferID:     700,
		Bytes:          16 * 1024,
		ChunkSize:      4000, // ...but the server's default MTU cannot
		Protocol:       core.Blast,
		RetransTimeout: 50 * time.Millisecond,
		MaxAttempts:    3,
		Linger:         50 * time.Millisecond,
		ReceiverIdle:   200 * time.Millisecond,
	}
	if _, err := Pull(e, cfg); err == nil {
		t.Error("oversized pull should fail")
	}
	select {
	case <-rejected:
	case <-time.After(2 * time.Second):
		t.Error("server never logged the rejection")
	}
}
