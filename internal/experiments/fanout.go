package experiments

import (
	"fmt"
	"time"

	"blastlan/internal/params"
	"blastlan/internal/session"
	"blastlan/internal/simrun"
)

func init() {
	register(&Experiment{
		ID:    "fanout",
		Title: "Extension: one-to-many replication — stripe-relay tree vs N independent pulls vs native broadcast (DES)",
		Paper: "§6 observes that a blast monopolises the shared ether; the paper's one-to-many answer is the medium's own broadcast. This extension measures what a relay tree buys — and costs — on both the 1985 shared medium and a modern switched-fabric model",
		Run:   runFanout,
	})
}

// runFanout compares three one-to-many shapes delivering the same object to
// 8 receivers, on the paper's 10 Mb/s shared ether and the modern gigabit
// model: 8 independent pulls (the source transmits N×), the depth-2
// stripe-relay tree (the source transmits ~1×, relays carry the rest), and
// the medium's native broadcast (one transmission reaches everyone — the
// shared-medium floor, with no per-receiver reliability).
func runFanout(opt Options) (*Result, error) {
	res := &Result{
		ID:     "fanout",
		Title:  "One-to-many distribution: 1 source → 8 receivers, by topology and hardware model",
		Paper:  "extension of §6's broadcast observation: on a shared medium no relay tree can beat native broadcast — the tree's win is a parallel-socket (switched fabric) phenomenon, measured for real by lanbench -udp (udp_fanout_8)",
		Header: []string{"model", "topology", "source data pkts", "source tx bytes", "delivered", "agg MB/s", "makespan (virtual)"},
	}
	bytes := 256 << 10
	if opt.Quick {
		bytes = 64 << 10
	}
	models := []struct {
		name string
		cost params.CostModel
	}{
		{"3com-10mbps", params.Standalone3Com()},
		{"gigabit", params.ModernGigabit()},
	}
	type cell struct{ rows [][]string }
	cells := make([]cell, len(models))
	err := forEachPoint(opt.Workers, len(models), func(mi int) error {
		m := models[mi]
		base := simrun.FanoutScenario{
			Name:       "fanout-" + m.name,
			Cost:       m.cost,
			FanoutSpec: session.FanoutSpec{N: 8, Bytes: bytes, Chunk: 1000, Seed: opt.Seed},
		}
		row := func(topology string, r simrun.FanoutResult) []string {
			return []string{
				m.name, topology,
				fmt.Sprintf("%d", r.SourceDataSent),
				fmt.Sprintf("%d", r.SourceTxBytes),
				fmt.Sprintf("%d/8", r.Intact),
				fmt.Sprintf("%.2f", r.AggMBps()),
				fmt.Sprintf("%v", r.Makespan.Round(time.Microsecond)),
			}
		}
		flat := base
		flat.Relays = 0
		fr, err := flat.Run()
		if err != nil {
			return err
		}
		tree := base
		tree.Relays = 4
		tr, err := tree.Run()
		if err != nil {
			return err
		}
		bc, err := base.RunBroadcast()
		if err != nil {
			return err
		}
		cells[mi].rows = [][]string{
			row("8 independent pulls", fr),
			row("stripe-relay tree (4 relays)", tr),
			{m.name, "native broadcast (floor)",
				fmt.Sprintf("%d", bc.Packets), "-", "8/8",
				fmt.Sprintf("%.2f", bc.AggMBps()),
				fmt.Sprintf("%v", bc.Elapsed.Round(time.Microsecond))},
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		res.Rows = append(res.Rows, c.rows...)
	}
	res.Notes = append(res.Notes,
		"the tree's headline is the source column: ~1× the object in data packets regardless of receiver count, vs N× for independent pulls — every other hop is carried by a relay",
		"on a shared medium the tree moves more total wire bytes than the baseline (every byte crosses the ether twice), so native broadcast — one occupancy for all receivers, but no per-receiver reliability — is the physical floor there, exactly the paper's §6 reading",
		"on parallel-socket fabrics the economics invert: the bottleneck is the most-loaded socket (source 1 stream + relays 2 each, vs 8 serialised at the source), which is what lanbench -udp measures for real as udp_fanout_8 vs udp_fanout_8_independent",
		"deterministic bit for bit at any worker count; pinned by TestFanoutDeterministic and the sim==UDP fanout conformance suite",
	)
	return res, nil
}
