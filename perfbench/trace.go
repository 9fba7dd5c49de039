package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/udplan"
	"blastlan/internal/wire"
)

// span is one timed interval of the traced run. Client spans are recorded
// around the benchmark's calls into the program; server transfer spans are
// rebuilt from the Done hook; hook busy time is carried as counts on the
// transfer span, not as one span per chunk.
type span struct {
	ID     uint64             `json:"id"`
	Parent uint64             `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"` // since the trace epoch
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	spans   []span
	byTrans map[uint32]uint64        // transfer id -> request span
	hooks   map[wire.Req][]*hookWork // server hook work awaiting its Done
}

func newTracer() *tracer {
	return &tracer{
		epoch:   time.Now(),
		byTrans: make(map[uint32]uint64),
		hooks:   make(map[wire.Req][]*hookWork),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span; finish records it.
func (t *tracer) begin(name string, parent uint64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.nextID.Add(1), Parent: parent, Name: name, Start: t.now()}
}

func (t *tracer) finish(s span, attrs map[string]float64) {
	if t == nil {
		return
	}
	s.End, s.Attrs = t.now(), attrs
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// bind joins the server transfers of transfer id to a request span.
func (t *tracer) bind(id uint32, req uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.byTrans[id] = req
	t.mu.Unlock()
}

// hookWork counts one transfer's calls into a wrapped server hook. Work
// is matched to its Done by request, so two identical requests in flight
// at once may swap their counts; the counters are atomic for that case.
type hookWork struct {
	kind   string // attribute prefix: "src", "store" or "sink"
	chunks int64  // distinct chunks the transfer moves
	calls  atomic.Int64
	ns     atomic.Int64
	bytes  atomic.Int64
}

// add counts one call that started at t0 and moved n bytes.
func (h *hookWork) add(t0 time.Time, n int) {
	h.ns.Add(int64(time.Since(t0)))
	h.calls.Add(1)
	h.bytes.Add(int64(n))
}

func (t *tracer) park(r wire.Req, h *hookWork) {
	t.mu.Lock()
	t.hooks[r] = append(t.hooks[r], h)
	t.mu.Unlock()
}

// timeSource wraps a server chunk source so its busy time and calls count
// toward the transfer that r opens.
func (t *tracer) timeSource(kind string, r wire.Req, src core.ChunkSource) core.ChunkSource {
	h := &hookWork{kind: kind, chunks: int64((r.Bytes + uint64(r.Chunk) - 1) / uint64(r.Chunk))}
	t.park(r, h)
	return func(seq int, dst []byte) []byte {
		t0 := time.Now()
		b := src(seq, dst)
		h.add(t0, len(b))
		return b
	}
}

// timeSink is timeSource for a push's chunk sink.
func (t *tracer) timeSink(r wire.Req, sink core.ChunkSink) core.ChunkSink {
	h := &hookWork{kind: "sink"}
	t.park(r, h)
	return func(off int, b []byte) {
		t0 := time.Now()
		sink(off, b)
		h.add(t0, len(b))
	}
}

// timeStat wraps a Stat hook, one span per call.
func (t *tracer) timeStat(stat func(wire.Req) (int64, bool)) func(wire.Req) (int64, bool) {
	return func(r wire.Req) (int64, bool) {
		s := t.begin("store.StatReq", 0)
		n, ok := stat(r)
		t.finish(s, nil)
		return n, ok
	}
}

// transferDone is the traced Done hook: it rebuilds the server's transfer
// as a span ending now and lasting Elapsed, joined to its request by
// transfer id, with the hook work of the transfer attached.
func (t *tracer) transferDone(ts udplan.TransferStats) {
	end := t.now()
	attrs := map[string]float64{
		"bytes":       float64(ts.Bytes),
		"packets":     float64(ts.Packets),
		"retransmits": float64(ts.Retransmits),
	}
	if ts.Push {
		attrs["push"] = 1
	}
	t.mu.Lock()
	parent := t.byTrans[ts.TransferID]
	if q := t.hooks[ts.Req]; len(q) > 0 {
		h := q[0]
		if len(q) == 1 {
			delete(t.hooks, ts.Req)
		} else {
			t.hooks[ts.Req] = q[1:]
		}
		attrs[h.kind+"_calls"] = float64(h.calls.Load())
		attrs[h.kind+"_ns"] = float64(h.ns.Load())
		attrs[h.kind+"_bytes"] = float64(h.bytes.Load())
		attrs[h.kind+"_chunks"] = float64(h.chunks)
	}
	t.spans = append(t.spans, span{
		ID: t.nextID.Add(1), Parent: parent, Name: "server.transfer",
		Start: end - int64(ts.Elapsed), End: end, Attrs: attrs,
	})
	t.mu.Unlock()
}

// mark records an instant event, such as a BUSY refusal.
func (t *tracer) mark(name string) { t.finish(t.begin(name, 0), nil) }

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readSpans reads spans written by writeSpans.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(f)
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
		out = append(out, s)
	}
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// selfTable prints, per span name, the count and median and total
// duration and self time.
func selfTable(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type row struct{ durs, selfs []float64 }
	rows := map[string]*row{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{}
			rows[s.Name] = r
		}
		r.durs = append(r.durs, float64(s.dur())/1e6)
		r.selfs = append(r.selfs, float64(self[s.ID])/1e6)
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintf(w, "span %-26s %7s %10s %10s %11s %11s\n", "name", "count", "p50_ms", "self_p50", "total_ms", "self_total")
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(w, "span %-26s %7d %10.3f %10.3f %11.1f %11.1f\n", n, len(r.durs),
			quantile(r.durs, 0.5), quantile(r.selfs, 0.5), sum(r.durs), sum(r.selfs))
	}
}

// layerMetrics derives every per-layer metric from the written-out spans.
// The phase span carries the run-level figures no other span can: CPU
// profile shares, store counter deltas, allocations and the tracing
// overhead.
func layerMetrics(spans []span, stallAfter time.Duration) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	reqDur := make(map[uint64]int64)   // request span -> its duration
	serverOf := make(map[uint64]int64) // request span -> its longest server transfer
	var (
		dials, stats, storeStats, overheads, serverMBps []float64
		a                                               = map[string]float64{}
		pullPackets, pullRetrans                        float64
		recvBytes, naks, dups, dataPkts, lingers        float64
		simPackets, virtual, simWall                    float64
		phase                                           map[string]float64
	)
	for _, s := range spans {
		ns := float64(s.dur())
		switch s.Name {
		case "udplan.Dial":
			dials = append(dials, ns/1e3)
		case "core.Stat":
			stats = append(stats, ns/1e3)
		case "store.StatReq":
			storeStats = append(storeStats, ns/1e3)
		case "session.busy":
			m["session.busy_refusals"]++
		case "request":
			reqDur[s.ID] = s.dur()
			if s.dur() >= int64(stallAfter) {
				m["session.req_stalls"]++
			}
		case "udplan.Pull", "udplan.PullStriped":
			recvBytes += s.Attrs["bytes"]
			naks += s.Attrs["naks"]
			dups += s.Attrs["dups"]
			dataPkts += s.Attrs["data_packets"]
			lingers += s.Attrs["linger_events"]
		case "simrun.LoadScenario.Run":
			simPackets += s.Attrs["data_sent"]
			virtual += s.Attrs["makespan_ns"]
			simWall += ns
		case "server.transfer":
			if s.dur() > 0 {
				serverMBps = append(serverMBps, s.Attrs["bytes"]/(ns/1e9)/1e6)
			}
			if s.Parent != 0 && s.dur() > serverOf[s.Parent] {
				serverOf[s.Parent] = s.dur()
			}
			if s.Attrs["push"] == 0 {
				pullPackets += s.Attrs["packets"]
				pullRetrans += s.Attrs["retransmits"]
			}
			for _, k := range []string{"src", "store", "sink"} {
				for _, f := range []string{"_calls", "_ns", "_bytes", "_chunks"} {
					a[k+f] += s.Attrs[k+f]
				}
			}
		case "phase":
			phase = s.Attrs
		}
	}
	for k, v := range phase {
		if _, ok := m[k]; ok {
			m[k] = v
		}
	}
	for id, srv := range serverOf {
		if d, ok := reqDur[id]; ok {
			overheads = append(overheads, float64(d-srv)/1e6)
		}
	}
	m["udplan.dial_us"] = quantile(dials, 0.5)
	m["core.stat_us"] = quantile(stats, 0.5)
	m["store.stat_us"] = quantile(storeStats, 0.5)
	m["session.overhead_ms"] = quantile(overheads, 0.5)
	m["session.server_mbps"] = quantile(serverMBps, 0.5)
	m["core.source_ns_per_byte"] = ratio(a["src_ns"], a["src_bytes"])
	m["core.source_calls_per_chunk"] = ratio(a["src_calls"], a["src_chunks"])
	m["store.chunk_ns"] = ratio(a["store_ns"], a["store_calls"])
	m["store.sink_ns_per_byte"] = ratio(a["sink_ns"], a["sink_bytes"])
	if mb := a["store_bytes"] / 1e6; mb > 0 {
		m["store.read_ops_per_mb"] = phase["store.read_ops"] / mb
	}
	m["core.retrans_ratio"] = ratio(pullRetrans, pullPackets)
	m["core.naks_per_mb"] = ratio(naks, recvBytes/1e6)
	m["core.dup_ratio"] = ratio(dups, dataPkts)
	m["core.linger_events"] = lingers
	m["simrun.packets_per_s"] = ratio(simPackets, simWall/1e9)
	m["simrun.virtual_per_wall"] = ratio(virtual, simWall)
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// isBusyLine reports whether a server log line records a BUSY refusal.
func isBusyLine(line string) bool { return strings.Contains(line, "replying BUSY") }
