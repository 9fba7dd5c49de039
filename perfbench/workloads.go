package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/simrun"
	"blastlan/internal/store"
	"blastlan/internal/udplan"
	"blastlan/internal/wire"
)

// The client and server settings are blastcp's and blastd's defaults: a
// 32-frame syscall batch at the best tier the socket supports, 4 MiB socket
// buffers, Tr = 200 ms and an 8-session cap.
const (
	batch       = 32
	sockBuf     = 4 << 20
	defaultTr   = 200 * time.Millisecond
	concurrency = 8
	chunk       = 1000
)

// workload is one input set the benchmark runs.
type workload struct {
	name    string
	clients int
	// tr is the retransmission timeout of the workload's transfers; a
	// request lasting 4×tr, core.Request's REQ retry interval, waited out
	// at least one lost or misrouted REQ. Zero: no REQs (simulated).
	tr    time.Duration
	setup func(o options) (fixture, error)
}

var workloads = []workload{
	{name: "bulk_pull", clients: 1, tr: defaultTr, setup: setupBulkPull},
	{name: "object_mix", clients: 2, tr: defaultTr, setup: setupObjectMix},
	{name: "lossy_striped", clients: 1, tr: lossyTr, setup: setupLossyStriped},
	{name: "des_load", clients: 1, setup: setupDESLoad},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stallAfter is the request time that marks a stall on w.
func (w workload) stallAfter() time.Duration {
	if w.tr == 0 {
		return math.MaxInt64
	}
	return 4 * w.tr
}

// transferConfig is blastcp's transfer configuration with a blast window.
func transferConfig(id uint32, window int, tr time.Duration) core.Config {
	return core.Config{
		TransferID:     id,
		ChunkSize:      chunk,
		Protocol:       core.Blast,
		Strategy:       core.GoBackN,
		Window:         window,
		RetransTimeout: tr,
		MaxAttempts:    100,
		Linger:         2*tr + 100*time.Millisecond,
		ReceiverIdle:   10 * time.Second,
	}
}

// seededChecksum is the reference checksum of the object a SeededSource
// generates, computed chunk by chunk so set-up never holds the object.
func seededChecksum(seed int64, size, chunk int) uint16 {
	src := core.SeededSource(seed, size, chunk)
	buf := make([]byte, chunk)
	var acc wire.SumAcc
	for seq := 0; seq*chunk < size; seq++ {
		acc.AddAt(seq*chunk, src(seq, buf))
	}
	return acc.Sum16()
}

// udpServer is a udplan.Server on a loopback socket with the benchmark's
// hooks: Done and Logf always, and whatever the workload adds.
type udpServer struct {
	srv  *udplan.Server
	addr string
	ran  chan error
	tr   atomic.Pointer[tracer]
	busy atomic.Int64 // BUSY refusals the server logged
}

func newUDPServer() (*udpServer, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	udplan.SetConnBuffers(conn, sockBuf)
	s := &udpServer{srv: udplan.NewServer(conn), addr: conn.LocalAddr().String(), ran: make(chan error, 1)}
	s.srv.Concurrency = concurrency
	s.srv.Batch = batch
	s.srv.Logf = s.logf
	s.srv.Done = func(ts udplan.TransferStats) {
		if t := s.tracer(); t != nil {
			t.transferDone(ts)
		}
	}
	return s, nil
}

func (s *udpServer) start() { go func() { s.ran <- s.srv.Run() }() }

func (s *udpServer) close() {
	s.srv.Close()
	if err := <-s.ran; err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server:", err)
	}
}

func (s *udpServer) tracer() *tracer     { return s.tr.Load() }
func (s *udpServer) trace(t *tracer)     { s.tr.Store(t) }
func (s *udpServer) busyRefusals() int64 { return s.busy.Load() }

func (s *udpServer) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	if isBusyLine(line) {
		s.busy.Add(1)
		s.tracer().mark("session.busy")
		return
	}
	fmt.Fprintln(os.Stderr, "perfbench: server:", line)
}

// timedSource wraps src for the traced run.
func (s *udpServer) timedSource(kind string, r wire.Req, src core.ChunkSource) core.ChunkSource {
	if t := s.tracer(); t != nil {
		return t.timeSource(kind, r, src)
	}
	return src
}

// dial opens a client endpoint the way blastcp does; the span covers the
// tier probe.
func dial(c *client, addr string) (e *udplan.Endpoint, err error) {
	c.call("udplan.Dial", func() map[string]float64 {
		if e, err = udplan.Dial(addr); err == nil {
			e.SetSocketBuffers(sockBuf)
			e.SetBatch(batch)
		}
		return nil
	})
	return e, err
}

// pull runs udplan.Pull as a child span of the request.
func pull(c *client, e *udplan.Endpoint, cfg core.Config) (res core.RecvResult, err error) {
	c.call("udplan.Pull", func() map[string]float64 {
		res, err = udplan.Pull(e, cfg)
		return recvAttrs(c, res.Bytes, []core.RecvResult{res})
	})
	return res, err
}

// recvAttrs summarises a client's receive results for its span.
func recvAttrs(c *client, bytes int, rs []core.RecvResult) map[string]float64 {
	if c.tr == nil {
		return nil
	}
	a := map[string]float64{"bytes": float64(bytes)}
	for _, r := range rs {
		a["naks"] += float64(r.NaksSent)
		a["dups"] += float64(r.Duplicates)
		a["data_packets"] += float64(r.DataPackets)
		a["linger_events"] += float64(r.LingerEvents)
	}
	return a
}

// checkRecv verifies a pulled object against its reference.
func checkRecv(what string, gotBytes int, gotSum uint16, wantBytes int, wantSum uint16) error {
	if gotBytes != wantBytes || gotSum != wantSum {
		return verifyErr("%s: got %d bytes checksum %04x, want %d bytes checksum %04x",
			what, gotBytes, gotSum, wantBytes, wantSum)
	}
	return nil
}

// bulkPull: one client pulls a 32 MiB seeded object over a fresh endpoint
// per request.
type bulkPull struct {
	*udpServer
	want uint16
	tier atomic.Value // udplan.Tier the client endpoints engaged
}

const bulkBytes = 32 << 20

func setupBulkPull(o options) (fixture, error) {
	s, err := newUDPServer()
	if err != nil {
		return nil, err
	}
	seed := o.seed
	b := &bulkPull{udpServer: s, want: seededChecksum(seed, bulkBytes, chunk)}
	s.srv.Source = func(r wire.Req) (core.ChunkSource, bool) {
		if r.Name != "" || r.Bytes != bulkBytes || r.Chunk != chunk {
			return nil, false
		}
		return s.timedSource("src", r, core.SeededSource(seed, bulkBytes, chunk)), true
	}
	s.start()
	return b, warmUp(b, 1)
}

func (b *bulkPull) request(c *client) (int64, error) {
	id := c.nextID()
	c.tr.bind(id, c.span)
	e, err := dial(c, b.addr)
	if err != nil {
		return 0, err
	}
	defer e.Close()
	b.tier.Store(e.Tier())
	cfg := transferConfig(id, 128, defaultTr)
	cfg.Bytes = bulkBytes
	cfg.Sink = func(int, []byte) {} // checksum only
	res, err := pull(c, e, cfg)
	if err != nil {
		return 0, fmt.Errorf("pull: %w", err)
	}
	return int64(res.Bytes), checkRecv("pull", res.Bytes, res.Checksum, bulkBytes, b.want^c.skew)
}

// warmUp makes n requests before measurement starts, so lazy set-up is
// done and caches are filled.
func warmUp(f fixture, n int) error {
	c := &client{clients: 1, rng: newRand(-1)}
	for i := 0; i < n; i++ {
		if _, err := f.request(c); err != nil {
			f.close()
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// objectMix: two clients each make blastcp-style requests, 80% gets (stat
// then pull on one endpoint) and 20% pushes, over 48 files served by the
// store with a cache of about half the working set.
type objectMix struct {
	*udpServer
	dir  string
	st   *store.Store
	objs []mixObject

	sinkMu  sync.Mutex // serialises push completions so OnDone knows its push
	current string     // name of the push completing, under sinkMu

	mu      sync.Mutex
	pending map[string]*pendingPush // pushes awaiting the server's verdict, by name
}

type pendingPush struct {
	ob      *mixObject
	sum     uint16     // the checksum the sink must report
	verdict chan error // receives the sink's verdict once
}

type mixObject struct {
	name string
	data []byte
	sum  uint16
}

// mixFiles are the store's files: many small, few large, as in most
// object stores. The chunk is 1 KiB so the smallest object is a one-packet
// transfer.
var mixFiles = []struct{ size, count int }{
	{1 << 10, 24}, {64 << 10, 12}, {1 << 20, 8}, {4 << 20, 4},
}

const (
	mixChunk    = 1 << 10
	mixPushFrac = 0.2
)

func setupObjectMix(o options) (fixture, error) {
	dir, err := os.MkdirTemp(o.work, "object_mix-")
	if err != nil {
		return nil, err
	}
	m := &objectMix{dir: dir, pending: make(map[string]*pendingPush)}
	objDir, pushDir := filepath.Join(dir, "objects"), filepath.Join(dir, "pushed")
	for _, d := range []string{objDir, pushDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	var total int64
	for _, f := range mixFiles {
		for j := 0; j < f.count; j++ {
			i := len(m.objs)
			ob := mixObject{name: fmt.Sprintf("obj-%02d", i), data: core.SeededPayload(o.seed*64+int64(i), f.size, mixChunk)}
			ob.sum = core.TransferChecksum(ob.data)
			if err := os.WriteFile(filepath.Join(objDir, ob.name), ob.data, 0o644); err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			m.objs = append(m.objs, ob)
			total += int64(f.size)
		}
	}
	m.st = store.Open(objDir, store.Options{CacheBytes: total / 2, Logf: logStderr})
	if m.udpServer, err = newUDPServer(); err != nil {
		m.st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := m.udpServer
	s.srv.SourceEnv = func(r wire.Req, env core.Env) (core.ChunkSource, bool) {
		src, ok := m.st.SourceReq(r, env)
		if !ok {
			return nil, false
		}
		return s.timedSource("store", r, src), true
	}
	s.srv.Stat = func(r wire.Req) (int64, bool) {
		if t := s.tracer(); t != nil {
			return t.timeStat(m.st.StatReq)(r)
		}
		return m.st.StatReq(r)
	}
	fsink := &store.FileSink{Dir: pushDir, MaxBytes: 1 << 30, OnDone: m.pushDone}
	s.srv.SinkStream = func(r wire.Req) (core.ChunkSink, func(core.RecvResult), bool) {
		sink, done, ok := fsink.SinkStream(r)
		if !ok {
			return nil, nil, false
		}
		if t := s.tracer(); t != nil {
			sink = t.timeSink(r, sink)
		}
		return sink, func(res core.RecvResult) {
			m.sinkMu.Lock()
			defer m.sinkMu.Unlock()
			m.current = r.Name
			done(res)
		}, true
	}
	s.start()
	// Warm-up: every object once, so the cache holds its steady share.
	return m, warmUp(&sequentialGets{m}, len(m.objs))
}

// sequentialGets gets the mix's objects in order, for the warm-up.
type sequentialGets struct{ *objectMix }

func (g *sequentialGets) request(c *client) (int64, error) {
	ob := &g.objs[c.seq%len(g.objs)]
	return g.get(c, ob)
}

func (m *objectMix) request(c *client) (int64, error) {
	ob := &m.objs[c.rng.Intn(len(m.objs))]
	if c.rng.Float64() < mixPushFrac {
		return m.push(c, ob)
	}
	return m.get(c, ob)
}

// get is blastcp -get: stat the name, then pull it on the same endpoint.
func (m *objectMix) get(c *client, ob *mixObject) (int64, error) {
	id := c.nextID()
	c.tr.bind(id, c.span)
	e, err := dial(c, m.addr)
	if err != nil {
		return 0, err
	}
	defer e.Close()
	cfg := transferConfig(id, 128, defaultTr)
	cfg.ChunkSize = mixChunk
	var size int64
	c.call("core.Stat", func() map[string]float64 {
		size, err = core.Stat(e, cfg, ob.name)
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("stat %s: %w", ob.name, err)
	}
	if size != int64(len(ob.data)) {
		return 0, verifyErr("stat %s: %d bytes, want %d", ob.name, size, len(ob.data))
	}
	cfg.Name, cfg.Bytes = ob.name, int(size)
	cfg.Sink = func(int, []byte) {}
	res, err := pull(c, e, cfg)
	if err != nil {
		return 0, fmt.Errorf("get %s: %w", ob.name, err)
	}
	return int64(res.Bytes), checkRecv("get "+ob.name, res.Bytes, res.Checksum, len(ob.data), ob.sum^c.skew)
}

// push is blastcp -push of one object into the server's FileSink. It
// completes when the sink's verdict arrives through OnDone.
func (m *objectMix) push(c *client, ob *mixObject) (int64, error) {
	id := c.nextID()
	c.tr.bind(id, c.span)
	e, err := dial(c, m.addr)
	if err != nil {
		return 0, err
	}
	defer e.Close()
	cfg := transferConfig(id, 128, defaultTr)
	cfg.ChunkSize = mixChunk
	cfg.Name = fmt.Sprintf("push-%d", id)
	cfg.Bytes, cfg.Payload = len(ob.data), ob.data
	p := &pendingPush{ob: ob, sum: ob.sum ^ c.skew, verdict: make(chan error, 1)}
	m.mu.Lock()
	m.pending[cfg.Name] = p
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.pending, cfg.Name)
		m.mu.Unlock()
	}()
	c.call("udplan.Push", func() map[string]float64 {
		_, err = udplan.Push(e, cfg)
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("push %s: %w", ob.name, err)
	}
	select {
	case err := <-p.verdict:
		return int64(len(ob.data)), err
	case <-time.After(10 * time.Second):
		return 0, fmt.Errorf("push %s: the server never completed it", ob.name)
	}
}

// pushDone is FileSink.OnDone: it checks the checksum the sink reports
// against the pushed object's, hands the verdict to the pushing client
// and removes the written file.
func (m *objectMix) pushDone(path string, res core.RecvResult, kept bool) {
	if kept {
		os.Remove(path)
	}
	m.mu.Lock()
	p, ok := m.pending[m.current]
	m.mu.Unlock()
	if !ok {
		return // the client already gave up on this push
	}
	if !kept {
		p.verdict <- fmt.Errorf("push %s: server discarded it after %d bytes", p.ob.name, res.Bytes)
		return
	}
	p.verdict <- checkRecv("push "+p.ob.name, res.Bytes, res.Checksum, len(p.ob.data), p.sum)
}

func (m *objectMix) storeStats() store.Stats { return m.st.Stats() }

func (m *objectMix) close() {
	m.udpServer.close()
	m.st.Close()
	os.RemoveAll(m.dir)
}

func logStderr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// lossyStriped: one client pulls a 16 MiB seeded object as two stripes,
// selective repeat under the bbr controller, losing a seeded 1% of the
// packets every stripe endpoint receives.
type lossyStriped struct {
	*udpServer
	seed int64
	want uint16
}

const (
	stripedBytes = 16 << 20
	stripes      = 2
	stripedLoss  = 0.01
	// lossyTr is well under the 30-50 ms a pull takes here. At blastcp's
	// 200 ms a lost window tail costs several pulls' worth of time, and
	// latency splits into two modes with p90 falling between them.
	lossyTr = 20 * time.Millisecond
)

func setupLossyStriped(o options) (fixture, error) {
	s, err := newUDPServer()
	if err != nil {
		return nil, err
	}
	l := &lossyStriped{udpServer: s, seed: o.seed, want: seededChecksum(o.seed, stripedBytes, chunk)}
	s.srv.Source = func(r wire.Req) (core.ChunkSource, bool) {
		if r.Name != "" || r.StreamBytes() != stripedBytes || r.Chunk != chunk {
			return nil, false
		}
		src := core.OffsetSource(core.SeededSource(l.seed, stripedBytes, chunk), int(r.OffsetChunks))
		return s.timedSource("src", r, src), true
	}
	s.start()
	return l, warmUp(l, 1)
}

func (l *lossyStriped) request(c *client) (int64, error) {
	id := c.nextID()
	for i := 0; i < stripes; i++ {
		c.tr.bind(id+uint32(i), c.span)
	}
	cfg := transferConfig(id, 256, lossyTr)
	cfg.Bytes = stripedBytes
	cfg.Strategy = core.Selective
	cfg.Controller = "bbr"
	opts := udplan.StripeOptions{
		Streams:   stripes,
		Batch:     batch,
		SocketBuf: sockBuf,
		// Receive-side loss, as blastcp -drop-rx: data is lost, the
		// client's REQs, ACKs and NAKs are not.
		MangleRx: func(i int) func(*wire.Packet) params.Mangle {
			return udplan.SeededDrop(stripedLoss, l.seed<<20+int64(id)+int64(i))
		},
	}
	var res udplan.StripedResult
	var err error
	c.call("udplan.PullStriped", func() map[string]float64 {
		res, err = udplan.PullStriped(l.addr, cfg, opts)
		rs := make([]core.RecvResult, len(res.Stripes))
		for i, s := range res.Stripes {
			rs[i] = s.Recv
		}
		return recvAttrs(c, res.Bytes, rs)
	})
	if err != nil {
		return 0, fmt.Errorf("striped pull: %w", err)
	}
	return int64(res.Bytes), checkRecv("striped pull", res.Bytes, res.Checksum, stripedBytes, l.want^c.skew)
}

// desLoad: back-to-back simulated load scenarios, cycling through
// desSeeds scenario seeds whose results set-up recorded, so every run
// checks that the simulator is bit-identical to itself. Scenario sizes are
// drawn per seed; enough seeds make a run's mix, and so its latencies,
// depend little on the workload seed.
type desLoad struct {
	scenarios []simrun.LoadScenario
	refs      []simrun.LoadResult
}

const desSeeds = 16

func desScenario(seed int64) simrun.LoadScenario {
	return simrun.LoadScenario{
		Name:        "des_load",
		N:           64,
		Bytes:       []int{64 << 10, 256 << 10},
		Strategies:  []core.Strategy{core.GoBackN, core.Selective},
		Arrival:     50 * time.Millisecond,
		Concurrency: 8,
		Seed:        seed,
	}
}

func setupDESLoad(o options) (fixture, error) {
	d := &desLoad{}
	for i := 0; i < desSeeds; i++ {
		sc := desScenario(o.seed*desSeeds + int64(i))
		res, err := sc.Run()
		if err != nil {
			return nil, fmt.Errorf("scenario seed %d: %w", sc.Seed, err)
		}
		if res.Completed != sc.N {
			return nil, verifyErr("scenario seed %d: %d of %d clients completed", sc.Seed, res.Completed, sc.N)
		}
		d.scenarios = append(d.scenarios, sc)
		d.refs = append(d.refs, res)
	}
	return d, nil
}

func (d *desLoad) request(c *client) (int64, error) {
	k := c.seq % len(d.scenarios)
	c.seq++
	sc := d.scenarios[k]
	var res simrun.LoadResult
	var err error
	c.call("simrun.LoadScenario.Run", func() map[string]float64 {
		res, err = sc.Run()
		if c.tr == nil {
			return nil
		}
		return map[string]float64{
			"data_sent":   float64(res.Agg.DataSent),
			"makespan_ns": float64(res.Makespan),
			"bytes":       float64(res.AggBytes),
		}
	})
	if err != nil {
		return 0, fmt.Errorf("scenario seed %d: %w", sc.Seed, err)
	}
	if res.Completed != sc.N {
		return 0, verifyErr("scenario seed %d: %d of %d clients completed", sc.Seed, res.Completed, sc.N)
	}
	ref := d.refs[k]
	ref.Makespan += time.Duration(c.skew)
	if !reflect.DeepEqual(res, ref) {
		return 0, verifyErr("scenario seed %d: repeat differs from the first run (makespan %v vs %v)",
			sc.Seed, res.Makespan, d.refs[k].Makespan)
	}
	return res.AggBytes, nil
}

func (d *desLoad) trace(*tracer) {}
func (d *desLoad) close()        {}
