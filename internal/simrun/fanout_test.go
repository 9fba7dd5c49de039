package simrun

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"blastlan/internal/core"
	"blastlan/internal/session"
)

// fanoutTestScenario is the small, fast tree used across the fan-out tests:
// 1 source → 4 stripe relays → 8 receivers, 64 chunks.
func fanoutTestScenario() FanoutScenario {
	return FanoutScenario{
		Name:       "fanout-test",
		FanoutSpec: session.FanoutSpec{N: 8, Relays: 4, Bytes: 64000, Chunk: 1000, Seed: 42},
	}
}

func TestFanoutTreeDelivers(t *testing.T) {
	sc := fanoutTestScenario()
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Intact != sc.N {
		t.Fatalf("completed %d/%d receivers", res.Intact, sc.N)
	}
	for i, r := range res.Receivers {
		if !r.Intact {
			t.Errorf("receiver %d assembled a corrupt object", i)
		}
		if c := res.ReceiverCounts[i]; c.DataRecv < 64 {
			t.Errorf("receiver %d saw %d data packets, want >= 64", i, c.DataRecv)
		}
	}
	for ki, rr := range res.Relays {
		if rr.Err != nil || !rr.Recv.Completed {
			t.Errorf("relay %d uplink incomplete: %v", ki, rr.Err)
		}
	}
	// The headline: the source transmitted the object once — each stripe
	// went to exactly one relay — no matter that there are 8 receivers.
	if res.SourceDataSent != 64 {
		t.Errorf("source sent %d data packets, want 64 (~1x the object)", res.SourceDataSent)
	}

	// The baseline pays N x at the source for the same delivery.
	base := sc
	base.Name, base.Relays = "fanout-base", 0
	bres, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	if bres.Intact != sc.N {
		t.Fatalf("baseline completed %d/%d receivers", bres.Intact, sc.N)
	}
	if bres.SourceDataSent != 64*sc.N {
		t.Errorf("baseline source sent %d data packets, want %d (Nx)", bres.SourceDataSent, 64*sc.N)
	}
}

func TestFanoutDeterministic(t *testing.T) {
	sc := fanoutTestScenario()
	a, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.SourceTxBytes != b.SourceTxBytes || a.SourceDataSent != b.SourceDataSent {
		t.Errorf("aggregate outcomes diverge between identical runs:\n%+v\n%+v",
			a, b)
	}
	for i := range a.Receivers {
		ra, rb := a.Receivers[i], b.Receivers[i]
		if a.ReceiverCounts[i] != b.ReceiverCounts[i] || ra.Start != rb.Start || ra.End != rb.End {
			t.Errorf("receiver %d diverges between identical runs:\n%+v %+v\n%+v %+v",
				i, a.ReceiverCounts[i], ra, b.ReceiverCounts[i], rb)
		}
		if !bytes.Equal(ra.Data, rb.Data) {
			t.Errorf("receiver %d payload diverges between identical runs", i)
		}
	}
	for ki := range a.Relays {
		if a.RelayCounts[ki] != b.RelayCounts[ki] {
			t.Errorf("relay %d diverges between identical runs", ki)
		}
	}
}

// TestFanoutDrainRace pins BeginDrain racing an active fan-out: every
// in-flight subtree completes byte-identical to the seeded object, while a
// latecomer arriving after the drain begins is refused BUSY with a
// RETRY-AFTER hint instead of hanging or corrupting anything.
func TestFanoutDrainRace(t *testing.T) {
	// ~37 ms of in-flight virtual transfer on the gigabit model; the drain
	// begins at 5 ms and the latecomer's two refusals land well before the
	// in-flight subtrees finish. (The shared-ether models are unsuitable
	// here: a blast monopolizes the CSMA medium and starves latecomer REQs
	// outright — the paper's own observation — so no BUSY ever reaches
	// them.)
	sc := FanoutScenario{Name: "fanout-drain", FanoutSpec: session.FanoutSpec{
		N:            9,
		Relays:       4,
		Bytes:        512 << 10,
		Chunk:        1000,
		RetryAfter:   2 * time.Millisecond,
		Backoff:      2 * time.Millisecond,
		MaxBusyWaits: 2,
		Arrivals: []time.Duration{
			0, 0, 0, 0, 0, 0, 0, 0,
			6 * time.Millisecond, // receiver 8 arrives after the drain begins
		},
		DrainAt: 5 * time.Millisecond,
		Seed:    7,
	}}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Intact != 8 {
		t.Fatalf("completed %d receivers, want the 8 in-flight ones", res.Intact)
	}
	for i := 0; i < 8; i++ {
		r := res.Receivers[i]
		if !r.Completed || !r.Intact {
			t.Errorf("in-flight receiver %d did not complete intact: %v", i, r.Err)
		}
	}
	late := res.Receivers[8]
	if late.Completed {
		t.Fatal("latecomer completed against a draining tree")
	}
	var busy *core.BusyError
	if !errors.As(late.Err, &busy) {
		t.Fatalf("latecomer error is not a BUSY refusal: %v", late.Err)
	}
	if busy.RetryAfter <= 0 {
		t.Errorf("latecomer BUSY carried no RETRY-AFTER hint (%v)", busy.RetryAfter)
	}
}

// TestFanoutBroadcastLowerBound checks the native-broadcast comparator: on
// the shared ether one transmission reaches every station, so broadcast's
// aggregate rate is the physical ceiling no relay tree can beat there.
func TestFanoutBroadcastLowerBound(t *testing.T) {
	sc := fanoutTestScenario()
	bc, err := sc.RunBroadcast()
	if err != nil {
		t.Fatal(err)
	}
	if bc.Packets != 64 {
		t.Errorf("broadcast sent %d packets, want 64", bc.Packets)
	}
	if bc.Elapsed <= 0 || bc.AggMBps() <= 0 {
		t.Fatalf("broadcast measured nothing: %+v", bc)
	}
	tree, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if bc.AggMBps() < tree.AggMBps() {
		t.Errorf("relay tree (%.1f MB/s) beat native broadcast (%.1f MB/s) on a shared medium",
			tree.AggMBps(), bc.AggMBps())
	}
}
