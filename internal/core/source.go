package core

import "encoding/binary"

// SeededSource returns a ChunkSource generating deterministic pseudo-random
// transfer bytes: packet seq's chunk is derived from (seed, seq) alone, so
// retransmissions regenerate identical payloads and a daemon can serve an
// arbitrarily large pull without ever materialising it. The generator is a
// per-chunk splitmix64 stream and performs no allocation when dst has
// capacity for the chunk.
func SeededSource(seed int64, bytes, chunk int) ChunkSource {
	return func(seq int, dst []byte) []byte {
		n := chunk
		if rem := bytes - seq*chunk; rem < n {
			n = rem
		}
		if n < 0 {
			n = 0
		}
		if cap(dst) < n {
			dst = make([]byte, n)
		}
		dst = dst[:n]
		fillChunk(uint64(seed)+splitmixGamma*uint64(seq+1), dst)
		return dst
	}
}

// SeededPayload materialises the full transfer a SeededSource generates —
// the verification-side convenience: a client that knows the seed can check
// a received transfer byte for byte (or just compare checksums) without the
// server ever buffering it.
func SeededPayload(seed int64, bytes, chunk int) []byte {
	src := SeededSource(seed, bytes, chunk)
	out := make([]byte, bytes)
	for seq, off := 0, 0; off < bytes; seq++ {
		off += copy(out[off:], src(seq, out[off:]))
	}
	return out
}

// splitmixGamma is splitmix64's state increment (the golden-ratio odd
// constant).
const splitmixGamma uint64 = 0x9e3779b97f4a7c15

// mix is splitmix64's output function.
func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// fillChunk fills dst from a splitmix64 stream starting at state. The
// stream's words are independent — word k is mix(state + k·γ) — so the main
// loop computes four per iteration, which the CPU overlaps instead of
// waiting on one multiply chain at a time; the tail falls back to one word
// per step. The output is the same byte stream either way.
func fillChunk(state uint64, dst []byte) {
	for len(dst) >= 32 {
		s1 := state + splitmixGamma
		s2 := s1 + splitmixGamma
		s3 := s2 + splitmixGamma
		state = s3 + splitmixGamma
		binary.LittleEndian.PutUint64(dst, mix(s1))
		binary.LittleEndian.PutUint64(dst[8:], mix(s2))
		binary.LittleEndian.PutUint64(dst[16:], mix(s3))
		binary.LittleEndian.PutUint64(dst[24:], mix(state))
		dst = dst[32:]
	}
	var word [8]byte
	for len(dst) > 0 {
		state += splitmixGamma
		z := mix(state)
		if len(dst) >= 8 {
			binary.LittleEndian.PutUint64(dst, z)
			dst = dst[8:]
			continue
		}
		binary.LittleEndian.PutUint64(word[:], z)
		copy(dst, word[:])
		return
	}
}
