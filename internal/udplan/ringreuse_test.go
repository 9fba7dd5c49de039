package udplan

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"blastlan/internal/core"
	"blastlan/internal/wire"
)

// The free list hands a ring to at most one owner: a double release lists
// it once, a full list drops its oldest ring, and only an exact geometry
// match is reused. An idle ring does not outlive a collection.
func TestRingListReleaseRules(t *testing.T) {
	l := ringList[txBatch]{shape: (*txBatch).shape}
	a := newTxBatch(3, 777, nil)
	l.put(a)
	l.put(a)
	l.put(nil)
	if got := l.get(a.shape()); got != a {
		t.Fatal("released ring not reusable")
	}
	if l.get(a.shape()) != nil {
		t.Fatal("a ring released twice was handed out twice")
	}
	l.put(a)
	if l.get(ringShape{n: 3, slot: 778}) != nil {
		t.Fatal("reused a ring of the wrong geometry")
	}
	rings := make([]*txBatch, ringFreeMax+1)
	for i := range rings {
		rings[i] = newTxBatch(3, 777, nil)
		l.put(rings[i])
	}
	if len(l.free) != ringFreeMax || l.free[0].Value() != rings[1] {
		t.Fatalf("full list kept %d rings, oldest %p; want %d, oldest %p",
			len(l.free), l.free[0].Value(), ringFreeMax, rings[1])
	}
	runtime.KeepAlive(rings)

	idle := ringList[txBatch]{shape: (*txBatch).shape}
	idle.put(newTxBatch(3, 777, nil)) // referenced only by the list
	for i := 0; len(idle.free) > 0 && idle.free[0].Value() != nil; i++ {
		if i == 10 {
			t.Fatal("free list kept an idle ring alive across collections")
		}
		runtime.GC()
	}
	if idle.get(a.shape()) != nil {
		t.Fatal("free list handed out a collected ring")
	}
}

// Closing an endpoint twice releases its rings once: two endpoints dialed
// afterwards never share a ring.
func TestEndpointCloseTwiceReleasesOnce(t *testing.T) {
	_, addr := newLoopbackServer(t)
	e, err := Dial(addr)
	if err != nil {
		t.Skipf("dial: %v", err)
	}
	e.SetBatch(24)
	e.Close()
	e.Close()
	if e.tx != nil || e.rx != nil {
		t.Fatal("Close left the endpoint holding its rings")
	}
	var eps [2]*Endpoint
	for i := range eps {
		if eps[i], err = Dial(addr); err != nil {
			t.Fatal(err)
		}
		defer eps[i].Close()
		eps[i].SetBatch(24)
	}
	if eps[0].tx == eps[1].tx || eps[0].rx == eps[1].rx {
		t.Fatal("two live endpoints share a frame ring")
	}
}

// Many concurrent clients cycle rings through every release point —
// Close (twice), a SetBatch re-size, a SetMTU re-size and the end of each
// server session — against one server, and every payload verifies. Run
// under -race in CI: rings move between goroutines only through the free
// list.
func TestRingReuseLifecycle(t *testing.T) {
	srv, addr := newLoopbackServer(t)
	srv.Concurrency = 4
	srv.Batch = 16
	srv.Source = func(r wire.Req) (core.ChunkSource, bool) {
		return core.SeededSource(int64(r.Bytes), int(r.Bytes), int(r.Chunk)), true
	}
	notify, waitDone := doneSignal(t)
	srv.Done = func(TransferStats) { notify() }
	done := make(chan error, 1)
	go func() { done <- srv.Run() }()

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < ringRounds; r++ {
				if err := ringCycle(addr, i, r); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	waitDone(clients * ringRounds)
	srv.Close()
	if err := <-done; err != nil {
		t.Errorf("server: %v", err)
	}
}

// ringRounds is how many requests each lifecycle client makes.
const ringRounds = 6

// ringCycle is client i's request r; its ring handling depends on (i, r).
func ringCycle(addr string, i, r int) error {
	e, err := Dial(addr)
	if err != nil {
		return err
	}
	e.SetBatch(16)
	switch (i + r) % 4 {
	case 1: // re-size the ring count: the 16-slot rings go back
		e.SetBatch(32)
	case 2: // re-size the slots: the MTU-2048 rings go back
		if err := e.SetMTU(4096); err != nil {
			return err
		}
		if len(e.tx.frames[0]) != 4096 {
			return fmt.Errorf("SetMTU kept %d-byte slots", len(e.tx.frames[0]))
		}
	case 3: // batching off releases both rings
		e.SetBatch(1)
		if e.tx != nil || e.rx != nil {
			return fmt.Errorf("SetBatch(1) kept its rings")
		}
	}
	size := 16*1024 + (i*ringRounds+r)*512
	cfg := loopCfg(uint32(1000+i*16+r), nil, core.Blast, core.Selective)
	cfg.Bytes, cfg.Window = size, 32
	res, err := Pull(e, cfg)
	e.Close()
	e.Close()
	if err != nil {
		return err
	}
	if want := core.SeededPayload(int64(size), size, cfg.ChunkSize); !bytes.Equal(res.Data, want) {
		return fmt.Errorf("round %d: corrupted pull of %d bytes", r, size)
	}
	return nil
}

// The per-request cost of a small-object pull: a warm dial, a 1 KiB pull
// and a close used to allocate ~380 KiB — fresh rings on both ends (a
// 256 KiB GRO receive ring and a 64 KiB transmit ring per endpoint, 64 KiB
// per server session or serial server endpoint). With rings reused it must
// stay well under that, on the sharded and the serial server alike.
func TestRingReuseAllocs(t *testing.T) {
	for _, concurrency := range []int{8, 1} {
		t.Run(fmt.Sprintf("concurrency%d", concurrency), func(t *testing.T) {
			ringAllocs(t, concurrency)
		})
	}
}

func ringAllocs(t *testing.T, concurrency int) {
	srv, addr := newLoopbackServer(t)
	srv.Concurrency = concurrency
	srv.Batch = 32
	srv.Source = func(r wire.Req) (core.ChunkSource, bool) {
		return core.SeededSource(int64(r.Bytes), int(r.Bytes), int(r.Chunk)), true
	}
	notify, waitDone := doneSignal(t)
	srv.Done = func(TransferStats) { notify() }
	done := make(chan error, 1)
	go func() { done <- srv.Run() }()
	defer func() {
		srv.Close()
		<-done
	}()

	const size = 1 << 10
	want := core.SeededPayload(size, size, size)
	request := func(id int) {
		t.Helper()
		e, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		e.SetBatch(32)
		cfg := loopCfg(uint32(id), nil, core.Blast, core.GoBackN)
		cfg.Bytes, cfg.ChunkSize = size, size
		res, err := Pull(e, cfg)
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Data, want) {
			t.Fatal("corrupted pull")
		}
		waitDone(1) // one server transfer at a time
	}
	for i := 0; i < 5; i++ {
		request(2000 + i)
	}
	const n = 40
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		request(3000 + i)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes allocated per warm dial + 1 KiB pull + close", per)
	if per > 96<<10 {
		t.Errorf("%d KiB allocated per request, want < 96 KiB (frame rings not reused?)", per>>10)
	}
}
