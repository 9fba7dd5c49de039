package wire

import (
	"encoding/binary"
	"errors"
	"testing"
)

// TestCodecRoundTripAllocFree pins the codec hot path at zero allocations:
// Encode into a capacity-sufficient reused buffer and DecodeInto a reused
// Packet must not touch the heap.
func TestCodecRoundTripAllocFree(t *testing.T) {
	pkt := &Packet{Type: TypeData, Trans: 7, Seq: 41, Total: 64,
		Payload: make([]byte, 1000)}
	buf := make([]byte, 0, 1100)
	var dec Packet
	allocs := testing.AllocsPerRun(200, func() {
		out, err := pkt.Encode(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(&dec, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("codec round trip allocates %.1f times per op, want 0", allocs)
	}
	if dec.Seq != pkt.Seq || dec.Total != pkt.Total || len(dec.Payload) != len(pkt.Payload) {
		t.Fatalf("round trip corrupted packet: %+v", dec)
	}
}

// TestDecodeVerifyMatchesNaive cross-checks the decoder's split verify
// (header and payload summed separately, the checksum word subtracted)
// against a naive recomputation over the frame with its checksum field
// zeroed: a frame carrying the naive checksum must decode, and one carrying
// a different value must not.
func TestDecodeVerifyMatchesNaive(t *testing.T) {
	for _, n := range []int{24, 25, 100, 1024, 1499} {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*131 + 17)
		}
		binary.BigEndian.PutUint16(b[0:2], Magic)
		b[2], b[3] = Version, uint8(TypeData)
		binary.BigEndian.PutUint16(b[18:20], uint16(n-HeaderSize))
		b[20], b[21] = 0, 0
		want := Checksum(b)
		binary.BigEndian.PutUint16(b[20:22], want)
		var p Packet
		if err := DecodeInto(&p, b); err != nil {
			t.Fatalf("len=%d: frame with the naive checksum rejected: %v", n, err)
		}
		binary.BigEndian.PutUint16(b[20:22], want^0x0100)
		if err := DecodeInto(&p, b); !errors.Is(err, ErrChecksum) {
			t.Fatalf("len=%d: wrong checksum decoded: %v", n, err)
		}
	}
}
