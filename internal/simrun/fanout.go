package simrun

import (
	"fmt"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/sim"
	"blastlan/internal/wire"
)

// FanoutScenario is a DES-backed one-to-many replication experiment: the
// shared stripe-relay fan-out (session.RunFanout — a depth-2 tree with
// Relays > 0, N independent pulls with Relays == 0) on a sim.Host. The
// source blasts each stripe once, to the relay that owns it, so it pays ~1×
// the object in transmitted bytes no matter how many receivers there are.
//
// Everything runs under one kernel's handoff scheduling, so a run is
// deterministic bit for bit at any GOMAXPROCS — the property the sim==UDP
// fanout conformance suite pins. Every receiver keeps its assembled object
// and is verified against the seeded one byte for byte.
type FanoutScenario struct {
	// Name labels the scenario in test output and experiment tables.
	Name string
	// Cost is the simulator hardware model (zero: modern gigabit).
	Cost params.CostModel
	// FanoutSpec is the tree; Seed also drives the network model.
	session.FanoutSpec
}

// FanoutResult is one fan-out run with every hop's counters projected:
// receiver-side net of linger plus the serving sessions' sender-side ones.
type FanoutResult struct {
	session.FanoutResult
	// ReceiverCounts[i] sums receiver i's stripe sessions (failed stripes
	// count nothing); RelayCounts[k] is relay k's uplink.
	ReceiverCounts []Counts
	RelayCounts    []Counts
	AggBytes       int64 // payload bytes delivered to intact receivers
	// SourceDataSent counts data packets the source's sessions transmitted
	// — the headline: ~1 object with relays, N objects without.
	SourceDataSent int
	// SourceTxBytes counts wire bytes out of the source station.
	SourceTxBytes int64
	Agg           Counts
}

// AggMBps is aggregate delivered payload over the makespan.
func (r FanoutResult) AggMBps() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.AggBytes) / r.Makespan.Seconds() / 1e6
}

// recvCounts projects a pull's receiver-side counters net of linger.
func recvCounts(res core.RecvResult) Counts {
	return Counts{
		DataRecv:   res.DataPackets - res.LingerEvents,
		Duplicates: res.Duplicates - res.LingerEvents,
		AcksOut:    res.AcksSent - res.LingerAcks,
		NaksOut:    res.NaksSent - res.LingerNaks,
	}
}

// hopCounts projects one pull: its serving session's sender-side counters,
// plus its receiver-side ones when the pull did not fail.
func hopCounts(hop session.FanoutHop) Counts {
	var c Counts
	if hop.Err == nil {
		c = recvCounts(hop.Recv)
	}
	c.DataSent, c.Retransmits = hop.Sent.Packets, hop.Sent.Retransmits
	return c
}

// add sums o into c.
func (c *Counts) add(o Counts) {
	c.DataSent += o.DataSent
	c.Retransmits += o.Retransmits
	c.Rounds += o.Rounds
	c.Timeouts += o.Timeouts
	c.AcksIn += o.AcksIn
	c.NaksIn += o.NaksIn
	c.DataRecv += o.DataRecv
	c.Duplicates += o.Duplicates
	c.AcksOut += o.AcksOut
	c.NaksOut += o.NaksOut
}

// projectFanout folds a fan-out run into per-hop Counts, substrate
// independently: the sim==UDP conformance suite compares exactly this
// projection.
func projectFanout(res session.FanoutResult, bytes int) FanoutResult {
	out := FanoutResult{
		FanoutResult:   res,
		ReceiverCounts: make([]Counts, len(res.Receivers)),
		AggBytes:       int64(res.Intact) * int64(bytes),
	}
	for _, hop := range res.Relays {
		c := hopCounts(hop)
		out.RelayCounts = append(out.RelayCounts, c)
		out.SourceDataSent += c.DataSent
	}
	for i, r := range res.Receivers {
		c := &out.ReceiverCounts[i]
		for _, hop := range r.Stripes {
			if hop.Err == nil {
				c.add(hopCounts(hop))
			}
		}
		if len(res.Relays) == 0 {
			// Baseline: the source's sessions are the receivers' own.
			out.SourceDataSent += c.DataSent
		}
		out.Agg.add(*c)
	}
	return out
}

// Run executes the scenario once on a fresh kernel. Deterministic — same
// seed, same bits — at any worker count.
func (sc FanoutScenario) Run() (FanoutResult, error) {
	if sc.Cost.BandwidthBitsPerSec == 0 {
		sc.Cost = params.ModernGigabit()
	}
	n, err := sim.NewNetwork(sim.NewKernel(), sc.Cost, params.LossModel{}, sc.Seed)
	if err != nil {
		return FanoutResult{}, err
	}
	spec := sc.FanoutSpec.WithDefaults()
	spec.KeepData = true
	res, err := session.RunFanout(&sim.Host{Net: n}, spec)
	if err != nil {
		return FanoutResult{}, fmt.Errorf("simrun: fanout %s: %w", sc.Name, err)
	}
	out := projectFanout(res, spec.Bytes)
	// RunFanout serves the source first: it is the network's first station.
	out.SourceTxBytes = n.Stations()[0].Counters.TxBytes
	return out, nil
}

// BroadcastResult reports the native-broadcast comparator run.
type BroadcastResult struct {
	Packets  int           // distinct data packets broadcast
	Elapsed  time.Duration // first transmission start to last completion
	AggBytes int64         // payload bytes heard across all receivers
}

// AggMBps is aggregate delivered payload over the broadcast's elapsed time.
func (r BroadcastResult) AggMBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.AggBytes) / r.Elapsed.Seconds() / 1e6
}

// RunBroadcast models the paper's native one-to-many lower bound on the
// same hardware model: the source broadcasts each chunk once on the shared
// ether and every station hears it (internal/ether CSMA — one medium
// occupancy regardless of receiver count). No per-receiver reliability, no
// acks: this is the physical floor a relay tree is compared against, not a
// usable protocol on its own.
func (sc FanoutScenario) RunBroadcast() (BroadcastResult, error) {
	if sc.Cost.BandwidthBitsPerSec == 0 {
		sc.Cost = params.ModernGigabit()
	}
	sc.FanoutSpec = sc.FanoutSpec.WithDefaults()
	k := sim.NewKernel()
	n, err := sim.NewNetwork(k, sc.Cost, params.LossModel{}, sc.Seed)
	if err != nil {
		return BroadcastResult{}, err
	}
	src := n.AddStation("source")
	for i := 0; i < sc.N; i++ {
		st := n.AddStation(fmt.Sprintf("recv%d", i))
		st.SetSink()
	}
	var out BroadcastResult
	k.Go("broadcast", func(p *sim.Proc) {
		payload := core.SeededPayload(int64(sc.Bytes), sc.Bytes, sc.Chunk)
		total := (sc.Bytes + sc.Chunk - 1) / sc.Chunk
		t0 := p.Now()
		for seq := 0; seq < total; seq++ {
			lo := seq * sc.Chunk
			hi := lo + sc.Chunk
			if hi > sc.Bytes {
				hi = sc.Bytes
			}
			pkt := &wire.Packet{Type: wire.TypeData, Trans: 1, Seq: uint32(seq), Payload: payload[lo:hi]}
			if seq == total-1 {
				pkt.Flags = wire.FlagLast
			}
			src.SendBroadcast(p, pkt)
			out.Packets++
		}
		out.Elapsed = p.Now() - t0
	})
	if err := k.Run(); err != nil {
		return BroadcastResult{}, fmt.Errorf("simrun: broadcast %s: %w", sc.Name, err)
	}
	out.AggBytes = int64(sc.N) * int64(sc.Bytes)
	return out, nil
}
