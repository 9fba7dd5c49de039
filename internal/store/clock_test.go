package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refShard is the reference CLOCK model: the original slice-shifting ring,
// where every removal deletes its cell with a memmove. The production ring
// punches holes instead; the two must agree on every decision.
type refShard struct {
	m      map[chunkKey]*refEntry
	ring   []*refEntry
	hand   int
	bytes  int64
	budget int64
}

type refEntry struct {
	key     chunkKey
	charge  int
	refs    int32
	pending bool
	dead    bool
	hot     bool
}

type refCache struct {
	shards    []refShard
	shardOf   func(chunkKey) int
	evictions int64
	evicted   []chunkKey // eviction order since the last reset
}

func (c *refCache) acquire(k chunkKey, charge int) (*refEntry, bool) {
	sh := &c.shards[c.shardOf(k)]
	if e := sh.m[k]; e != nil {
		e.hot = true
		e.refs++
		return e, true
	}
	e := &refEntry{key: k, charge: charge, refs: 1, pending: true}
	sh.m[k] = e
	sh.ring = append(sh.ring, e)
	sh.bytes += int64(charge)
	c.evict(sh)
	return e, false
}

func (c *refCache) fillDone(e *refEntry) { e.pending = false }

func (c *refCache) fillFail(e *refEntry) {
	sh := &c.shards[c.shardOf(e.key)]
	e.pending, e.dead = false, true
	delete(sh.m, e.key)
	sh.bytes -= int64(e.charge)
}

func (c *refCache) release(e *refEntry) { e.refs-- }

func (c *refCache) evict(sh *refShard) {
	for sh.bytes > sh.budget && len(sh.ring) > 0 {
		evicted := false
		for scanned := 2 * len(sh.ring); scanned > 0 && len(sh.ring) > 0; scanned-- {
			if sh.hand >= len(sh.ring) {
				sh.hand = 0
			}
			e := sh.ring[sh.hand]
			if e.dead {
				sh.removeAt(sh.hand)
				continue
			}
			if e.pending || e.refs > 0 {
				sh.hand++
				continue
			}
			if e.hot {
				e.hot = false
				sh.hand++
				continue
			}
			delete(sh.m, e.key)
			e.dead = true
			sh.bytes -= int64(e.charge)
			sh.removeAt(sh.hand)
			c.evictions++
			c.evicted = append(c.evicted, e.key)
			evicted = true
			break
		}
		if !evicted {
			return
		}
	}
}

func (sh *refShard) removeAt(i int) {
	sh.ring = append(sh.ring[:i], sh.ring[i+1:]...)
	if sh.hand > i {
		sh.hand--
	}
}

// pin is one acquisition the driver holds in both caches at once.
type pin struct {
	real  *entry
	model *refEntry
	owner bool // missed: must fill (done or fail) before releasing
}

// A seeded random mix of acquires (misses and hot hits), lock-free hot
// marks, fills, failed fills and releases — with pinned and pending
// entries and mixed charges — drives the hole-punching ring and the
// reference model in lockstep. After every step the two must agree on
// which entries were evicted, in what order, on the ring's order, the
// hand's logical position, resident bytes and the eviction count.
func TestClockMatchesReference(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("shards%d/seed%d", shards, seed), func(t *testing.T) {
				clockEquivalence(t, shards, seed, 20000)
			})
		}
	}
}

func clockEquivalence(t *testing.T, shards int, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	const budget = 24 << 10
	c := newCache(budget, shards, false)
	ref := &refCache{shards: make([]refShard, shards)}
	ref.shardOf = func(k chunkKey) int {
		sh := c.shardOf(k)
		for i := range c.shards {
			if &c.shards[i] == sh {
				return i
			}
		}
		panic("unknown shard")
	}
	for i := range ref.shards {
		ref.shards[i] = refShard{m: map[chunkKey]*refEntry{}, budget: c.shards[i].budget}
	}
	charges := []int{256, 1 << 10, 1 << 10, 3 << 10, 8 << 10}
	var pins []pin
	for step := 0; step < steps; step++ {
		before := c.evictions.Load()
		ref.evicted = ref.evicted[:0]
		var op string
		switch r := rng.Intn(100); {
		case r < 45 || len(pins) == 0:
			op = "acquire"
			k := chunkKey{file: uint32(rng.Intn(3)), chunk: 1 << 10, idx: uint32(rng.Intn(40))}
			charge := charges[rng.Intn(len(charges))]
			e, hit, _ := c.acquire(k, charge, nil)
			m, mhit := ref.acquire(k, charge)
			if hit != mhit {
				t.Fatalf("step %d: acquire %v hit=%v, model hit=%v", step, k, hit, mhit)
			}
			pins = append(pins, pin{real: e, model: m, owner: !hit})
		case r < 55:
			op = "hot"
			p := pins[rng.Intn(len(pins))]
			if !p.model.dead {
				p.real.hot.Store(true)
				p.model.hot = true
			}
		default:
			i := rng.Intn(len(pins))
			p := pins[i]
			switch {
			case p.owner && p.model.pending && rng.Intn(5) == 0:
				op = "fillFail"
				c.fillFail(p.real, fmt.Errorf("injected"))
				ref.fillFail(p.model)
			case p.owner && p.model.pending:
				op = "fillDone"
				c.fillDone(p.real, make([]byte, 1))
				ref.fillDone(p.model)
			default:
				op = "release"
				c.release(p.real)
				ref.release(p.model)
				pins = slices.Delete(pins, i, i+1)
			}
		}
		got := c.evictions.Load() - before
		if got != int64(len(ref.evicted)) || c.evictions.Load() != ref.evictions {
			t.Fatalf("step %d (%s): evictions %d (+%d), model %d (+%d)",
				step, op, c.evictions.Load(), got, ref.evictions, len(ref.evicted))
		}
		for i := range c.shards {
			compareShard(t, step, op, &c.shards[i], &ref.shards[i])
		}
		for _, k := range ref.evicted {
			if _, ok := c.shards[ref.shardOf(k)].m[k]; ok {
				t.Fatalf("step %d (%s): model evicted %v, cache kept it", step, op, k)
			}
		}
	}
	if ref.evictions == 0 {
		t.Fatal("no evictions: the sequence never put the cache under pressure")
	}
}

// compareShard checks that the ring, read without its holes, is the model
// ring entry for entry, that the hand sits at the same logical cell, and
// that resident bytes and the key set agree.
func compareShard(t *testing.T, step int, op string, sh *cacheShard, ref *refShard) {
	t.Helper()
	if sh.bytes != ref.bytes {
		t.Fatalf("step %d (%s): bytes %d, model %d", step, op, sh.bytes, ref.bytes)
	}
	if len(sh.m) != len(ref.m) {
		t.Fatalf("step %d (%s): %d keys, model %d", step, op, len(sh.m), len(ref.m))
	}
	holes, hand, j := 0, -1, 0
	for i, e := range sh.ring {
		if i == sh.hand {
			hand = j
		}
		if e == nil {
			holes++
			continue
		}
		if j >= len(ref.ring) || e.key != ref.ring[j].key || e.dead != ref.ring[j].dead {
			t.Fatalf("step %d (%s): ring cell %d diverged from the model", step, op, j)
		}
		j++
	}
	if hand < 0 {
		hand = j
	}
	if j != len(ref.ring) || holes != sh.holes {
		t.Fatalf("step %d (%s): %d cells + %d holes (counted %d), model %d cells",
			step, op, j, holes, sh.holes, len(ref.ring))
	}
	if holes > j {
		t.Fatalf("step %d (%s): %d holes outnumber %d cells after compaction", step, op, holes, j)
	}
	if hand != ref.hand {
		t.Fatalf("step %d (%s): hand at logical %d, model %d", step, op, hand, ref.hand)
	}
}

// BenchmarkCacheChurn is acquire-fill-release of a fresh key against a full
// shard, so every operation evicts one entry. With a slice-shifting ring
// each eviction memmoves the ring behind it and ns/op grows with the ring;
// the hole-punching ring keeps it flat.
//
//	go test -run '^$' -bench CacheChurn ./internal/store
func BenchmarkCacheChurn(b *testing.B) {
	for _, n := range []int{1 << 10, 8 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			const charge = 1 << 10
			c := newCache(int64(n)*charge, 1, false)
			buf := make([]byte, charge)
			touch := func(i int) {
				e, _, _ := c.acquire(chunkKey{chunk: charge, idx: uint32(i)}, charge, nil)
				c.fillDone(e, buf)
				c.release(e)
			}
			for i := 0; i < n; i++ {
				touch(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				touch(n + i)
			}
		})
	}
}
