package session

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/transport"
	"blastlan/internal/wire"
)

// One-to-many replication: the depth-2 stripe-relay fan-out, written once
// against transport.Host so the simulator and real sockets run the same
// tree. The source blasts each stripe of the object once — to the relay
// that owns it — so it pays ~1× the object in data packets however many
// receivers there are, and every receiver assembles the object by pulling
// each stripe from its relay. Relays are cut-through: a Board lets a relay
// serve a chunk the moment its uplink delivers it, so the head of the
// object fans out while the tail is still leaving the source. Every hop
// rides the ordinary session layer (stripe REQs, PullResume budgets,
// BUSY/RETRY-AFTER), so a mid-tree failure repairs the affected subtree
// instead of restarting the fan-out. With Relays == 0 the runner degrades
// to the baseline the tree is judged against: N independent whole-object
// pulls straight from the source.

// Transfer-ID scheme: stripe k of receiver i and relay k's uplink each get
// a distinct ID, so one Done-hook map joins every serving session's
// sender-side counters to the pull it served. FanoutStripeStride bounds
// stripes per receiver.
const FanoutStripeStride = 16

// fanoutReceiverID is receiver i's transfer ID for stripe k (k = 0 for a
// baseline whole-object pull).
func fanoutReceiverID(i, k int) uint32 { return uint32(101 + i*FanoutStripeStride + k) }

// fanoutRelayID is relay k's uplink transfer ID.
func fanoutRelayID(k int) uint32 { return uint32(901 + k) }

// FanoutSpec describes one fan-out; zero fields take defaults.
type FanoutSpec struct {
	// N is the number of receivers (default 8).
	N int
	// Relays is the number of stripe relays between the source and the
	// receivers; 0 runs the independent-pulls baseline.
	Relays int
	// Bytes is the object size (default 256 KiB).
	Bytes int
	// Chunk is the data packet size (default params.DataPacketSize).
	Chunk int
	// Window splits blasts (default 16).
	Window int
	// Tr is every hop's retransmission timeout (default 100 ms).
	Tr time.Duration
	// RetryAfter is the servers' BUSY back-off hint (zero: server default).
	RetryAfter time.Duration
	// Arrivals staggers receivers: receiver i waits Arrivals[i] before
	// dialing (missing entries arrive at once). Relays always start at once.
	Arrivals []time.Duration
	// DrainAt, when positive, calls BeginDrain on every server (source and
	// relays) at that clock time: in-flight subtrees complete, latecomers
	// are refused BUSY/RETRY-AFTER.
	DrainAt time.Duration
	// MaxBusyWaits bounds every pull's BUSY waits and Backoff is its
	// initial retry delay (zero: core.ResumeOptions defaults).
	MaxBusyWaits int
	Backoff      time.Duration
	// Seed drives backoff jitter.
	Seed int64
	// KeepData retains each receiver's assembled object and verifies it
	// byte for byte against the seeded one; otherwise receivers stream and
	// verify the folded checksum alone.
	KeepData bool
}

// WithDefaults fills the zero fields.
func (sp FanoutSpec) WithDefaults() FanoutSpec {
	if sp.N <= 0 {
		sp.N = 8
	}
	if sp.Bytes <= 0 {
		sp.Bytes = 256 << 10
	}
	if sp.Chunk <= 0 {
		sp.Chunk = params.DataPacketSize
	}
	if sp.Window == 0 {
		sp.Window = 16
	}
	if sp.Tr == 0 {
		sp.Tr = 100 * time.Millisecond
	}
	return sp
}

// FanoutHop is one pull of the tree: a relay's uplink or one stripe of a
// receiver.
type FanoutHop struct {
	Stripe core.Stripe
	ID     uint32
	Recv   core.RecvResult
	Err    error
	// Sent is the serving session's sender-side stats, joined from the
	// servers' Done hooks by ID; zero when no serving session completed.
	Sent TransferStats
	// Start and End bracket the pull on the host's clock.
	Start, End time.Duration
}

// FanoutReceiver is one receiver's outcome, its stripe pulls folded
// together.
type FanoutReceiver struct {
	Stripes []FanoutHop
	// Start is the earliest stripe's start, End the latest stripe's end.
	Start, End time.Duration
	// Completed reports that every stripe pull completed; Intact that the
	// assembled object also verified against the seeded one.
	Completed, Intact bool
	// Err is the first failed stripe's error.
	Err error
	// Data is the assembled object when KeepData is set.
	Data []byte
}

// FanoutResult reports one fan-out run.
type FanoutResult struct {
	Receivers []FanoutReceiver
	// Relays holds each relay's uplink (none for the baseline).
	Relays []FanoutHop
	// Intact counts receivers holding a verified object.
	Intact int
	// Makespan runs from the first intact receiver's start to the last
	// intact receiver's end.
	Makespan time.Duration
}

// seededSource streams the size-seeded object exactly like blastd: any
// stripe REQ resolves against the logical stream.
func seededSource(r wire.Req) (core.ChunkSource, bool) {
	if r.Bytes == 0 || r.Chunk == 0 {
		return nil, false
	}
	stream := int(r.StreamBytes())
	return core.OffsetSource(
		core.SeededSource(int64(stream), stream, int(r.Chunk)),
		int(r.OffsetChunks)), true
}

// RunFanout distributes the seeded object from a source served on h to
// spec.N receivers and reports every hop. Nodes and processes are created
// in a fixed order — source, relays by index, uplinks, receiver stripes in
// (receiver, stripe) order, then the drain — which makes a run on a
// deterministic host reproducible bit for bit. A plan the transfer-ID
// scheme cannot join, or a node that cannot be served, returns an error;
// per-hop transfer failures are reported in the hops, and a relay whose
// uplink fails poisons its board so its children finish (corrupt,
// resumable) instead of deadlocking.
func RunFanout(h transport.Host, spec FanoutSpec) (FanoutResult, error) {
	sp := spec.WithDefaults()
	treed := sp.Relays > 0
	parts := []core.Stripe{{Bytes: sp.Bytes}}
	if treed {
		parts = core.PlanStripes(sp.Bytes, sp.Chunk, sp.Relays)
	}
	if len(parts) > FanoutStripeStride {
		return FanoutResult{}, fmt.Errorf("session: fanout: %d stripes exceed the ID stride %d",
			len(parts), FanoutStripeStride)
	}
	if treed && fanoutReceiverID(sp.N-1, FanoutStripeStride-1) >= fanoutRelayID(0) {
		return FanoutResult{}, fmt.Errorf("session: fanout: %d receivers overrun the relay IDs", sp.N)
	}

	// The servers' idle bound outlives arrivals plus service: on a virtual
	// clock it is what ends them once the tree falls quiet (it only delays
	// the free clock at the end); sockets are closed by the host first.
	idle := sp.DrainAt + 10*time.Minute
	for _, a := range sp.Arrivals {
		idle += a
	}
	var mu sync.Mutex
	sent := make(map[uint32]TransferStats)
	var servers []*Server
	serve := func(name string, srv *Server) (transport.Peer, error) {
		srv.Concurrency = sp.N + sp.Relays + 2
		srv.Idle = idle
		srv.RetryAfter = sp.RetryAfter
		srv.Done = func(ts TransferStats) {
			mu.Lock()
			sent[ts.TransferID] = ts
			mu.Unlock()
		}
		servers = append(servers, srv)
		return h.Serve(name, srv)
	}
	source, err := serve("source", &Server{Source: seededSource})
	if err != nil {
		return FanoutResult{}, err
	}

	// One cut-through board and relay server per stripe; in the baseline
	// every stripe (the whole object) comes from the source.
	boards := make([]*Board, len(parts))
	targets := make([]transport.Peer, len(parts))
	for ki, st := range parts {
		targets[ki] = source
		if !treed {
			continue
		}
		boards[ki] = NewBoardAt(st.Offset, st.Bytes, sp.Chunk, h.Virtual())
		if targets[ki], err = serve(fmt.Sprintf("relay%d", ki), &Server{SourceEnv: boards[ki].SourceReq}); err != nil {
			h.Run()
			return FanoutResult{}, err
		}
	}

	pull := func(env core.Env, redial func() (core.Env, error), hop *FanoutHop, sink core.ChunkSink, seed int64) {
		cfg := core.Config{
			TransferID:     hop.ID,
			Bytes:          hop.Stripe.Bytes,
			ChunkSize:      sp.Chunk,
			Protocol:       core.Blast,
			Strategy:       core.GoBackN,
			Window:         sp.Window,
			RetransTimeout: sp.Tr,
			Sink:           sink,
		}
		if treed {
			cfg.StripeOffset, cfg.StripeTotal = hop.Stripe.Offset, sp.Bytes
		}
		hop.Start = h.Now()
		hop.Recv, _, hop.Err = core.PullResume(env, cfg, core.ResumeOptions{
			MaxBusyWaits: sp.MaxBusyWaits,
			Backoff:      sp.Backoff,
			Seed:         seed,
			Redial:       redial,
		})
		hop.End = h.Now()
	}

	res := FanoutResult{Receivers: make([]FanoutReceiver, sp.N)}
	if treed {
		res.Relays = make([]FanoutHop, len(parts))
		for ki, st := range parts {
			hop := &res.Relays[ki]
			hop.Stripe, hop.ID = st, fanoutRelayID(ki)
			h.Spawn(fmt.Sprintf("relay%d-up", ki), source, 0, func(env core.Env, redial func() (core.Env, error)) {
				pull(env, redial, hop, boards[ki].Sink(), sp.Seed+7000+int64(ki))
				if hop.Err != nil {
					// Children unblock and recover through their own resume
					// budgets instead of deadlocking on a dead board.
					boards[ki].Fail(hop.Err)
				}
			})
		}
	}
	for i := range res.Receivers {
		r := &res.Receivers[i]
		r.Stripes = make([]FanoutHop, len(parts))
		if sp.KeepData {
			r.Data = make([]byte, sp.Bytes)
		}
		var delay time.Duration
		if i < len(sp.Arrivals) {
			delay = sp.Arrivals[i]
		}
		for ki, st := range parts {
			hop := &r.Stripes[ki]
			hop.Stripe, hop.ID = st, fanoutReceiverID(i, ki)
			var sink core.ChunkSink
			if r.Data != nil {
				// Stripes cover disjoint ranges, so concurrent sinks never
				// overlap.
				sink = func(off int, b []byte) { copy(r.Data[st.Offset+off:], b) }
			}
			h.Spawn(fmt.Sprintf("recv%d-%d", i, ki), targets[ki], delay, func(env core.Env, redial func() (core.Env, error)) {
				pull(env, redial, hop, sink, sp.Seed+int64(i*FanoutStripeStride+ki))
			})
		}
	}
	if sp.DrainAt > 0 {
		h.After(sp.DrainAt, func() {
			for _, s := range servers {
				s.BeginDrain()
			}
		})
	}
	if err := h.Run(); err != nil {
		return FanoutResult{}, fmt.Errorf("session: fanout: %w", err)
	}

	// Join sender-side stats and verify every receiver.
	for ki := range res.Relays {
		res.Relays[ki].Sent = sent[res.Relays[ki].ID]
	}
	expected := core.SeededPayload(int64(sp.Bytes), sp.Bytes, sp.Chunk)
	expectedSum := core.TransferChecksum(expected)
	first, last := time.Duration(-1), time.Duration(0)
	for i := range res.Receivers {
		r := &res.Receivers[i]
		r.Start, r.Completed = -1, true
		var acc wire.SumAcc
		for ki := range r.Stripes {
			hop := &r.Stripes[ki]
			hop.Sent = sent[hop.ID]
			if r.Start < 0 || hop.Start < r.Start {
				r.Start = hop.Start
			}
			r.End = max(r.End, hop.End)
			if hop.Err != nil && r.Err == nil {
				r.Err = hop.Err
			}
			if hop.Err != nil || !hop.Recv.Completed {
				r.Completed = false
			}
			acc.AddChecksumAt(hop.Stripe.Offset, hop.Recv.Checksum)
		}
		if sp.KeepData {
			r.Intact = r.Completed && bytes.Equal(r.Data, expected)
		} else {
			r.Intact = r.Completed && acc.Sum16() == expectedSum
		}
		if !r.Intact {
			continue
		}
		res.Intact++
		if first < 0 || r.Start < first {
			first = r.Start
		}
		last = max(last, r.End)
	}
	res.Makespan = last - max(first, 0)
	return res, nil
}
