package wire

import (
	"math/rand"
	"testing"
	"unsafe"
)

// AddPayloadAt must fold in exactly what AddAt would: from the decode's kept
// sum for decoded packets and their clones, by scanning for packets that
// were never decoded or were rebuilt after a decode. Offsets cover both
// parities, since odd stream offsets swap the folded sum's bytes.
func TestAddPayloadAtMatchesAddAt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lens := []int{1000, MaxPayload}
	for n := 0; n <= 40; n++ {
		lens = append(lens, n)
	}
	for _, n := range lens {
		payload := make([]byte, n)
		rng.Read(payload)
		built := &Packet{Type: TypeData, Trans: 9, Seq: 3, Total: 8, Payload: payload}
		frame, err := built.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if decoded.paySum&paySumValid == 0 {
			t.Fatalf("len=%d: decode kept no payload sum", n)
		}
		rebuilt := Packet{Type: TypeData, Payload: decoded.Payload} // a whole-struct overwrite forgets the sum
		for _, tc := range []struct {
			name string
			p    *Packet
		}{
			{"decoded", decoded},
			{"cloned", decoded.Clone()},
			{"never-decoded", built},
			{"rebuilt", &rebuilt},
		} {
			for _, off := range []int{0, 1, 1000, 1513} {
				var got, want SumAcc
				got.AddPayloadAt(off, tc.p)
				want.AddAt(off, payload)
				if got != want {
					t.Errorf("len=%d off=%d %s: AddPayloadAt %04x, AddAt %04x",
						n, off, tc.name, got.Sum16(), want.Sum16())
				}
			}
		}
	}
}

// The kept payload sum must not push Packet out of its allocation size
// class: the simulator allocates one per delivered packet.
func TestPacketSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 80 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, want <= 80", got)
	}
}

// BenchmarkDecodeVerify prices the receive-side decode+verify layer: one
// 1024-byte frame.
func BenchmarkDecodeVerify(b *testing.B) {
	p := &Packet{Type: TypeData, Trans: 1, Seq: 7, Total: 64, Payload: make([]byte, 1024-HeaderSize)}
	frame, err := p.Encode(nil)
	if err != nil {
		b.Fatal(err)
	}
	var dec Packet
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for b.Loop() {
		if err := DecodeInto(&dec, frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSumAccAddPayloadAt prices the receiver's stream-sum layer for a
// decoded 1000-byte data payload.
func BenchmarkSumAccAddPayloadAt(b *testing.B) {
	p := &Packet{Type: TypeData, Payload: make([]byte, 1000)}
	frame, err := p.Encode(nil)
	if err != nil {
		b.Fatal(err)
	}
	var dec Packet
	if err := DecodeInto(&dec, frame); err != nil {
		b.Fatal(err)
	}
	var acc SumAcc
	b.SetBytes(int64(len(dec.Payload)))
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		acc.AddPayloadAt(i*1000, &dec)
	}
}
