package simrun

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/session"
	"blastlan/internal/udplan"
)

// Fan-out conformance: the 1-source → 4-relay → 8-receiver stripe tree runs
// once on the discrete-event simulator and once over real UDP loopback,
// through the one runner (session.RunFanout: boards, stripe REQs,
// PullResume) on a sim.Host and a udplan.Host. Per-receiver and per-relay protocol counters and the
// receivers' assembled payloads must be identical. The network is clean and
// timeouts generous on both sides, so every counter is purely data-driven —
// any divergence is a protocol-layer bug, not scheduling noise.

const (
	fanConfN      = 8
	fanConfRelays = 4
	fanConfBytes  = 64000
	fanConfChunk  = 1000
	fanConfTr     = 500 * time.Millisecond
)

func fanConfScenario() FanoutScenario {
	return FanoutScenario{
		Name: "fanout-conformance",
		FanoutSpec: session.FanoutSpec{
			N:      fanConfN,
			Relays: fanConfRelays,
			Bytes:  fanConfBytes,
			Chunk:  fanConfChunk,
			Tr:     fanConfTr,
			Seed:   5,
		},
	}
}

// fanConfOutcome is the cross-substrate projection of one hop.
type fanConfOutcome struct {
	Counts    Counts
	Completed bool
	Data      []byte
}

// fanConfOutcomes reduces a projected run to its cross-substrate outcomes.
func fanConfOutcomes(res FanoutResult) (recv, relays []fanConfOutcome) {
	for i, r := range res.Receivers {
		recv = append(recv, fanConfOutcome{Counts: res.ReceiverCounts[i], Completed: r.Intact, Data: r.Data})
	}
	for ki, rr := range res.Relays {
		relays = append(relays, fanConfOutcome{Counts: res.RelayCounts[ki], Completed: rr.Err == nil && rr.Recv.Completed})
	}
	return recv, relays
}

// runFanoutConformanceSim runs the tree on the simulator.
func runFanoutConformanceSim(t *testing.T) (recv, relays []fanConfOutcome) {
	t.Helper()
	res, err := fanConfScenario().Run()
	if err != nil {
		t.Fatal(err)
	}
	return fanConfOutcomes(res)
}

// runFanoutConformanceUDP runs the same tree, through the same runner and
// the same Counts projection, on a UDP loopback host.
func runFanoutConformanceUDP(t *testing.T, batch int) (recv, relays []fanConfOutcome) {
	t.Helper()
	spec := fanConfScenario().FanoutSpec
	spec.KeepData = true
	res, err := session.RunFanout(&udplan.Host{Batch: batch}, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Receivers {
		for ki, hop := range r.Stripes {
			if hop.Err != nil {
				t.Fatalf("udp receiver %d stripe %d: %v", i, ki, hop.Err)
			}
		}
	}
	for ki, hop := range res.Relays {
		if hop.Err != nil {
			t.Fatalf("udp relay %d uplink: %v", ki, hop.Err)
		}
	}
	return fanConfOutcomes(projectFanout(res, fanConfBytes))
}

// TestFanoutConformance is the acceptance pin: the 1→8 stripe-relay tree
// produces identical per-receiver and per-relay protocol counters and
// byte-identical payloads on the simulator and over UDP loopback.
func TestFanoutConformance(t *testing.T) {
	simRecv, simRelays := runFanoutConformanceSim(t)

	// Non-vacuity: every receiver holds the seeded object and the source
	// transmitted it ~once (each stripe to exactly one relay).
	expected := core.SeededPayload(int64(fanConfBytes), fanConfBytes, fanConfChunk)
	srcSent := 0
	for _, rr := range simRelays {
		if !rr.Completed {
			t.Fatal("sim relay uplink incomplete")
		}
		srcSent += rr.Counts.DataSent
	}
	if want := fanConfBytes / fanConfChunk; srcSent != want {
		t.Fatalf("sim source sent %d data packets, want %d (~1x the object)", srcSent, want)
	}
	for i, o := range simRecv {
		if !o.Completed {
			t.Fatalf("sim receiver %d incomplete", i)
		}
		if !bytes.Equal(o.Data, expected) {
			t.Fatalf("sim receiver %d payload differs from the seeded stream", i)
		}
	}

	for _, batch := range []int{1, 32} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			udpRecv, udpRelays := runFanoutConformanceUDP(t, batch)
			for i := range udpRecv {
				if !udpRecv[i].Completed {
					t.Fatalf("udp receiver %d incomplete", i)
				}
				if !bytes.Equal(udpRecv[i].Data, simRecv[i].Data) {
					t.Errorf("receiver %d payload differs between sim and udp", i)
				}
				if udpRecv[i].Counts != simRecv[i].Counts {
					t.Errorf("receiver %d counters diverge:\nsim %+v\nudp %+v",
						i, simRecv[i].Counts, udpRecv[i].Counts)
				}
			}
			for ki := range udpRelays {
				if udpRelays[ki].Counts != simRelays[ki].Counts {
					t.Errorf("relay %d counters diverge:\nsim %+v\nudp %+v",
						ki, simRelays[ki].Counts, udpRelays[ki].Counts)
				}
			}
		})
	}
}

// TestFanoutStrideGuard pins the transfer-ID plan's bounds on both hosts: a
// tree with more stripes than FanoutStripeStride, or with so many receivers
// that their IDs run into the relays', would hand two sessions the same ID
// and silently mis-join their sender-side counters, so it must be refused
// before anything runs.
func TestFanoutStrideGuard(t *testing.T) {
	for _, spec := range []session.FanoutSpec{
		{Relays: session.FanoutStripeStride + 1},
		{N: 51, Relays: 1},
	} {
		sc := FanoutScenario{Name: "fanout-stride", FanoutSpec: spec}
		if _, err := sc.Run(); err == nil {
			t.Errorf("DES host ran a colliding ID plan (N %d, relays %d)", spec.N, spec.Relays)
		}
		if _, err := session.RunFanout(&udplan.Host{}, spec); err == nil {
			t.Errorf("UDP host ran a colliding ID plan (N %d, relays %d)", spec.N, spec.Relays)
		}
	}
}
