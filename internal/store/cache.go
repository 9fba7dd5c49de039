package store

import (
	"sync"
	"sync/atomic"
	"time"

	"blastlan/internal/core"
)

// The hot-object cache: chunk-grained, sharded, CLOCK-evicted, with
// ref-counted buffers and single-flight fills.
//
// Keys are (file, chunk size, chunk index) — every concurrent puller of
// one file at one chunk size shares entries, including the stripes of one
// striped pull. A miss inserts a pending entry before reading, so N
// sessions racing for the same cold chunk trigger exactly one backing
// read: the first owns the fill, the rest wait on it (a closed channel on
// real substrates, virtual-time polling on the DES, where blocking on a
// channel would stall the kernel's handoff scheduling).
//
// Readers pin an entry with a refcount for exactly the span of one
// copy-out into the engine's scratch buffer; CLOCK never evicts a pinned
// or pending entry, so a buffer fanned out to N sessions cannot be
// recycled under a concurrent copy. The hit path is alloc-free: map
// lookup, memcpy, unpin.

// simWaitQuantum is how much virtual time a DES session sleeps between
// polls of a chunk another session is reading off the simulated disk.
const simWaitQuantum = 200 * time.Microsecond

// chunkKey identifies one cached chunk.
type chunkKey struct {
	file  uint32 // store registry id
	chunk uint32 // chunk size the stream was requested with
	idx   uint32 // chunk index within the file at that chunk size
}

// entry lifecycle states, published through entry.state so lock-free
// readers can tell a filled buffer from one still in flight or already
// torn down.
const (
	entryPending uint32 = iota // fill in flight; owner is the acquirer that missed
	entryFilled                // buf valid and immutable
	entryDead                  // failed or evicted; no longer in the map
)

// entry is one cached chunk. buf is written exactly once by the filling
// owner and published with a release store of state=entryFilled, so any
// reader that loads state and sees entryFilled may read buf without a
// lock — including after a concurrent eviction, because buffers are
// never recycled (the GC reclaims them once the last reader drops the
// pointer). key/charge are immutable; refs/pending/dead/err are guarded
// by the owning shard's mutex; hot and prefetched are atomics because
// the memoized fast path touches them outside the lock.
type entry struct {
	key     chunkKey
	buf     []byte
	charge  int   // bytes accounted against the shard budget
	refs    int32 // pinned readers; never evicted while > 0
	pending bool  // fill in flight (shard-mutex view of state)
	dead    bool  // failed or evicted (shard-mutex view of state)
	state   atomic.Uint32
	hot     atomic.Bool // CLOCK reference bit
	// prefetched marks an entry created by background read-ahead and not
	// yet consumed by a reader. The first hit consumes it (Swap) — the
	// signal that the pipeline is live and the read-ahead window should
	// slide. A warm entry (flag already cleared) tells readers the stream
	// is cached and the per-chunk prefetch probing can be skipped
	// entirely, which is what keeps the hot hit path within sight of the
	// in-memory generator.
	prefetched atomic.Bool
	err        error
	ready      chan struct{}
	// slot points back at the entry's cell in the owning object's view
	// (the dense per-(file, chunk-size) index sources read lock-free).
	// Written once at creation under the shard mutex; eviction and fill
	// failure CAS the cell back to nil so a dead entry's buffer does not
	// stay reachable — the cell, not the map, is what outlives the entry.
	slot *atomic.Pointer[entry]
}

// cacheShard's CLOCK ring keeps insertion order with holes: an evicted or
// harvested-dead entry leaves a nil cell that the hand steps over, so a
// removal is O(1) instead of a memmove of everything behind it. Once holes
// outnumber the cells still in use, one order-preserving pass squeezes
// them out, so hand travel and compaction both stay amortized O(1) per
// eviction. Holes never change the visit order, so eviction decisions are
// exactly those of a hole-free ring.
type cacheShard struct {
	mu     sync.Mutex
	m      map[chunkKey]*entry
	ring   []*entry // CLOCK ring in insertion order; nil cells are holes
	holes  int      // nil cells in ring
	hand   int
	bytes  int64
	budget int64
}

type cache struct {
	shards    []cacheShard
	sim       bool
	evictions atomic.Int64
}

func newCache(budget int64, shards int, sim bool) *cache {
	if shards < 1 {
		shards = 1
	}
	c := &cache{shards: make([]cacheShard, shards), sim: sim}
	per := budget / int64(shards)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].m = make(map[chunkKey]*entry)
		c.shards[i].budget = per
	}
	return c
}

func (c *cache) shardOf(k chunkKey) *cacheShard {
	h := uint64(k.file)<<40 ^ uint64(k.chunk)<<20 ^ uint64(k.idx)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return &c.shards[h%uint64(len(c.shards))]
}

// acquire pins the entry for k, creating a pending one on a miss. The
// caller that misses owns the fill: it must call fillDone or fillFail
// exactly once, then release. Hitters (including hits on a still-pending
// fill) wait, copy, release. prefetched reports (and consumes) the
// entry's read-ahead provenance — true for the first hit on a
// background-filled entry. slot, when non-nil, is the view cell the new
// entry publishes itself into — lock-free readers find it there the
// moment the fill completes.
func (c *cache) acquire(k chunkKey, charge int, slot *atomic.Pointer[entry]) (e *entry, hit, prefetched bool) {
	sh := c.shardOf(k)
	sh.mu.Lock()
	if e = sh.m[k]; e != nil {
		e.hot.Store(true)
		e.refs++
		prefetched = e.prefetched.Swap(false)
		sh.mu.Unlock()
		return e, true, prefetched
	}
	e = &entry{key: k, charge: charge, refs: 1, pending: true, ready: make(chan struct{}), slot: slot}
	if slot != nil {
		slot.Store(e)
	}
	sh.m[k] = e
	sh.ring = append(sh.ring, e)
	sh.bytes += int64(charge)
	sh.evict(c)
	sh.mu.Unlock()
	return e, false, false
}

// markPrefetched tags a freshly-acquired entry as read-ahead-filled.
func (c *cache) markPrefetched(e *entry) {
	e.prefetched.Store(true)
}

// wait blocks until e's fill completes and reports its outcome. On the
// DES it polls in virtual time instead of blocking the kernel.
func (c *cache) wait(e *entry, env core.Env) error {
	if !c.sim {
		<-e.ready
		return e.err
	}
	sh := c.shardOf(e.key)
	for {
		sh.mu.Lock()
		pending, err := e.pending, e.err
		sh.mu.Unlock()
		if !pending {
			return err
		}
		env.Compute(simWaitQuantum)
	}
}

// fillDone publishes a completed fill. The state store is the release
// barrier that publishes buf to lock-free readers.
func (c *cache) fillDone(e *entry, buf []byte) {
	sh := c.shardOf(e.key)
	sh.mu.Lock()
	e.buf = buf
	e.pending = false
	e.state.Store(entryFilled)
	sh.mu.Unlock()
	close(e.ready)
}

// fillFail publishes a failed fill and removes the entry, so the next
// request for the chunk retries the read instead of caching the error.
func (c *cache) fillFail(e *entry, err error) {
	sh := c.shardOf(e.key)
	sh.mu.Lock()
	e.err = err
	e.pending = false
	e.dead = true
	e.state.Store(entryDead)
	if e.slot != nil {
		e.slot.CompareAndSwap(e, nil)
	}
	delete(sh.m, e.key)
	sh.bytes -= int64(e.charge)
	sh.mu.Unlock()
	close(e.ready)
}

// release unpins an entry.
func (c *cache) release(e *entry) {
	sh := c.shardOf(e.key)
	sh.mu.Lock()
	e.refs--
	sh.mu.Unlock()
}

// bytesCached sums the budget-accounted bytes across shards.
func (c *cache) bytesCached() int64 {
	var total int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += sh.bytes
		sh.mu.Unlock()
	}
	return total
}

// evict runs the CLOCK hand until the shard is back under budget: a hot
// entry loses its reference bit and survives one sweep; pinned or pending
// entries are skipped outright; dead entries are harvested in passing. If
// everything live is pinned the shard runs over budget until the pins
// drop — correctness over ceremony. A scan step visits one non-hole cell,
// and a scan gets two steps per non-hole cell. Caller holds sh.mu.
func (sh *cacheShard) evict(c *cache) {
	for sh.bytes > sh.budget && sh.cells() > 0 {
		evicted := false
		for scanned := 2 * sh.cells(); scanned > 0 && sh.cells() > 0; scanned-- {
			e := sh.advance()
			if e.dead {
				sh.punch()
				continue
			}
			if e.pending || e.refs > 0 {
				sh.hand++
				continue
			}
			if e.hot.Load() {
				e.hot.Store(false)
				sh.hand++
				continue
			}
			delete(sh.m, e.key)
			e.dead = true
			e.state.Store(entryDead)
			if e.slot != nil {
				e.slot.CompareAndSwap(e, nil)
			}
			sh.bytes -= int64(e.charge)
			sh.punch()
			c.evictions.Add(1)
			evicted = true
			break
		}
		if !evicted {
			return
		}
	}
}

// cells counts the ring's non-hole cells: live entries plus dead ones the
// hand has not harvested yet.
func (sh *cacheShard) cells() int { return len(sh.ring) - sh.holes }

// advance moves the hand past holes, wrapping at the end, and returns the
// entry under it. The ring must hold at least one non-hole cell.
func (sh *cacheShard) advance() *entry {
	for {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		if e := sh.ring[sh.hand]; e != nil {
			return e
		}
		sh.hand++
	}
}

// punch turns the cell under the hand into a hole, leaving the hand on it
// (the next advance steps to the following entry, as a slice delete
// would), and compacts once holes outnumber the cells in use.
func (sh *cacheShard) punch() {
	sh.ring[sh.hand] = nil
	sh.holes++
	if sh.holes > sh.cells() {
		sh.compact()
	}
}

// compact squeezes the holes out of the ring in one order-preserving pass
// and remaps the hand to the same logical position.
func (sh *cacheShard) compact() {
	n, hand := 0, 0
	for i, e := range sh.ring {
		if i == sh.hand {
			hand = n
		}
		if e != nil {
			sh.ring[n] = e
			n++
		}
	}
	if sh.hand >= len(sh.ring) {
		hand = n
	}
	clear(sh.ring[n:])
	sh.ring = sh.ring[:n]
	sh.hand, sh.holes = hand, 0
}
