package cache_test

import (
	"math/rand"
	"testing"

	"nucache/internal/cache"
	"nucache/internal/policy"
	"nucache/internal/trace"
)

func tinyCache(t *testing.T, ways int) *cache.Cache {
	t.Helper()
	return cache.New(cache.Config{
		Name:      "test",
		SizeBytes: 4 * ways * 64, // 4 sets
		Ways:      ways,
		LineBytes: 64,
		Cores:     2,
	}, policy.NewLRU())
}

func access(c *cache.Cache, addr uint64) cache.AccessResult {
	return c.Access(&cache.Request{Addr: addr, PC: 0x400000, Kind: trace.Load})
}

func TestCacheColdMissThenHit(t *testing.T) {
	c := tinyCache(t, 4)
	if r := access(c, 0x1000); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := access(c, 0x1000); !r.Hit {
		t.Fatal("second access missed")
	}
	if r := access(c, 0x1038); !r.Hit { // same 64B line
		t.Fatal("same-line access missed")
	}
	if c.Stats.Accesses != 3 || c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := tinyCache(t, 2) // 4 sets, 2 ways
	// Three distinct lines mapping to set 0 (stride = sets*line = 256).
	a, b, d := uint64(0), uint64(256), uint64(512)
	access(c, a)
	access(c, b)
	r := access(c, d) // must evict a (LRU)
	if !r.EvictedValid || r.Evicted.Tag != c.Tag(a) {
		t.Fatalf("evicted %+v, want tag of a", r.Evicted)
	}
	if access(c, b).Hit != true {
		t.Fatal("b should still hit")
	}
	if access(c, a).Hit {
		t.Fatal("a should have been evicted")
	}
}

func TestCacheLRURecencyOnHit(t *testing.T) {
	c := tinyCache(t, 2)
	a, b, d := uint64(0), uint64(256), uint64(512)
	access(c, a)
	access(c, b)
	access(c, a) // a becomes MRU
	access(c, d) // evicts b
	if !access(c, a).Hit {
		t.Fatal("a evicted despite recency")
	}
	if access(c, b).Hit {
		t.Fatal("b not evicted")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := tinyCache(t, 1)
	c.Access(&cache.Request{Addr: 0, Kind: trace.Store})
	r := c.Access(&cache.Request{Addr: 256, Kind: trace.Load})
	if !r.EvictedValid || !r.Evicted.Dirty {
		t.Fatalf("expected dirty eviction, got %+v", r)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats.Writebacks)
	}
	// Load-filled line made dirty by a later store hit.
	c.Access(&cache.Request{Addr: 512, Kind: trace.Load})
	c.Access(&cache.Request{Addr: 512, Kind: trace.Store})
	r = c.Access(&cache.Request{Addr: 768, Kind: trace.Load})
	if !r.Evicted.Dirty {
		t.Fatal("store hit did not dirty line")
	}
}

func TestCachePerCoreStats(t *testing.T) {
	c := tinyCache(t, 4)
	c.Access(&cache.Request{Addr: 0, Core: 0})
	c.Access(&cache.Request{Addr: 0, Core: 1})
	c.Access(&cache.Request{Addr: 64, Core: 1})
	if c.Stats.CoreAccesses[0] != 1 || c.Stats.CoreAccesses[1] != 2 {
		t.Fatalf("core accesses = %v", c.Stats.CoreAccesses)
	}
	if c.Stats.CoreMisses[0] != 1 || c.Stats.CoreHits[1] != 1 || c.Stats.CoreMisses[1] != 1 {
		t.Fatalf("core stats = %+v", c.Stats)
	}
	// Out-of-range core indexes fold into core 0 rather than crashing.
	c.Access(&cache.Request{Addr: 128, Core: 99})
	if c.Stats.CoreAccesses[0] != 2 {
		t.Fatal("out-of-range core not folded")
	}
}

func TestCacheLineMetadata(t *testing.T) {
	c := tinyCache(t, 2)
	c.Access(&cache.Request{Addr: 0x40, PC: 0xabc, Core: 1, Kind: trace.Store})
	set := c.Set(c.SetIndex(0x40))
	way := set.Lookup(c.Tag(0x40))
	if way < 0 {
		t.Fatal("line not installed")
	}
	l := set.Lines[way]
	if l.PC != 0xabc || l.Core != 1 || !l.Dirty || !l.Valid {
		t.Fatalf("line = %+v", l)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := tinyCache(t, 2)
	access(c, 0x100)
	if _, ok := c.Invalidate(0x100); !ok {
		t.Fatal("invalidate missed present line")
	}
	if _, ok := c.Invalidate(0x100); ok {
		t.Fatal("invalidate hit absent line")
	}
	if access(c, 0x100).Hit {
		t.Fatal("access hit after invalidate")
	}
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy = %d", c.Occupancy())
	}
}

func TestCacheOccupancyBounded(t *testing.T) {
	c := tinyCache(t, 2) // capacity 8 lines
	for i := uint64(0); i < 100; i++ {
		access(c, i*64)
	}
	if got := c.Occupancy(); got != 8 {
		t.Fatalf("occupancy = %d, want 8", got)
	}
}

// TestOccupancyMatchesLineScan pins the popcount Occupancy against the
// per-line scan it replaced, across a random mix of fills, evictions
// and invalidations on several geometries (including odd way counts).
func TestOccupancyMatchesLineScan(t *testing.T) {
	lineScan := func(c *cache.Cache) int {
		n := 0
		for i := 0; i < c.NumSets(); i++ {
			for _, l := range c.Set(i).Lines {
				if l.Valid {
					n++
				}
			}
		}
		return n
	}
	rng := rand.New(rand.NewSource(42))
	for _, ways := range []int{1, 2, 3, 8, 12, 16} {
		c := cache.New(cache.Config{
			Name: "occ", SizeBytes: 8 * ways * 64, Ways: ways, LineBytes: 64, Cores: 1,
		}, policy.NewLRU())
		for op := 0; op < 2000; op++ {
			addr := uint64(rng.Intn(64*ways)) * 64
			if rng.Intn(4) == 0 {
				c.Invalidate(addr)
			} else {
				access(c, addr)
			}
			if op%97 == 0 {
				if got, want := c.Occupancy(), lineScan(c); got != want {
					t.Fatalf("ways=%d op=%d: Occupancy=%d, line scan=%d", ways, op, got, want)
				}
			}
		}
		if got, want := c.Occupancy(), lineScan(c); got != want {
			t.Fatalf("ways=%d final: Occupancy=%d, line scan=%d", ways, got, want)
		}
	}
}

// TestAccessAgreesWithSetLookup pins Access's lookup over the dense tag
// mirror against Set.Lookup (which scans Lines directly, bypassing the
// mirrors): for every access the hit/miss outcome must match the ground
// truth, from 1 to 64 ways and under invalidation.
func TestAccessAgreesWithSetLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, ways := range []int{1, 3, 7, 8, 9, 16, 64} {
		var pol cache.Policy = policy.NewLRU() // supports up to 16 ways
		if ways > 16 {
			pol = policy.NewRandom(3)
		}
		c := cache.New(cache.Config{
			Name: "lookup", SizeBytes: 4 * ways * 64, Ways: ways, LineBytes: 64, Cores: 1,
		}, pol)
		for op := 0; op < 3000; op++ {
			addr := uint64(rng.Intn(32*ways)) * 64
			if rng.Intn(8) == 0 {
				c.Invalidate(addr)
				continue
			}
			want := c.Set(c.SetIndex(addr)).Lookup(c.Tag(addr)) >= 0
			if got := access(c, addr).Hit; got != want {
				t.Fatalf("ways=%d op=%d addr=%#x: Access hit=%v, Set.Lookup says %v",
					ways, op, addr, got, want)
			}
		}
	}
}

// TestLookupPartialTagCollisions fills a 32-way set with lines whose
// tags agree in their low byte and differ only above it, so lookup must
// compare full tags: every resident hits and a 33rd tag with the same
// low byte misses. Random's victim choice prefers invalid ways, making
// the fill deterministic.
func TestLookupPartialTagCollisions(t *testing.T) {
	wide := func() *cache.Cache {
		return cache.New(cache.Config{
			Name:      "wide",
			SizeBytes: 4 * 32 * 64, // 4 sets
			Ways:      32,
			LineBytes: 64,
			Cores:     1,
		}, policy.NewRandom(9))
	}
	// Strides of sets*256 lines keep the set index and the tag bits just
	// above it equal while the full tags differ; +0x100 makes those
	// shared bits nonzero so a match can't be confused with the zeroed
	// mirror slot of an invalid way.
	const stride = uint64(4 * 256 * 64)

	c := wide()
	for i := uint64(0); i < 32; i++ {
		if access(c, 0x100+i*stride).Hit {
			t.Fatalf("cold access %d hit", i)
		}
	}
	// Set 0 is now full of lines that agree in those bits: only the
	// full-tag compare separates them.
	for i := uint64(0); i < 32; i++ {
		if !access(c, 0x100+i*stride).Hit {
			t.Fatalf("colliding resident %d missed", i)
		}
	}
	// A 33rd colliding line must still miss.
	if access(c, 0x100+32*stride).Hit {
		t.Fatal("absent colliding line hit")
	}

	// Tag 0 and its colliders: a valid line whose tag equals the zeroed
	// mirror slot of an invalid way must hit, and an absent colliding
	// probe must still miss.
	c2 := wide()
	for i := uint64(0); i < 32; i++ {
		access(c2, i*stride) // tags i*1024: identical low bits, tag 0 included
	}
	for i := uint64(0); i < 32; i++ {
		if !access(c2, i*stride).Hit {
			t.Fatalf("zero-low-bits resident %d missed", i)
		}
	}
	if access(c2, 32*stride).Hit {
		t.Fatal("absent zero-low-bits line hit")
	}
}

func TestCacheSeqAssigned(t *testing.T) {
	c := tinyCache(t, 2)
	r1 := &cache.Request{Addr: 0}
	r2 := &cache.Request{Addr: 64}
	c.Access(r1)
	c.Access(r2)
	if r1.Seq != 0 || r2.Seq != 1 {
		t.Fatalf("seq = %d, %d", r1.Seq, r2.Seq)
	}
}

func TestCachePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cache.New(cache.Config{Name: "bad", SizeBytes: 100, Ways: 3, LineBytes: 7}, policy.NewLRU())
}

// bypassPolicy always declines fills; used to test the bypass path.
type bypassPolicy struct{ policy.LRU }

func (*bypassPolicy) Victim(*cache.Set, *cache.Request) int { return -1 }

func TestCacheBypass(t *testing.T) {
	c := cache.New(cache.Config{Name: "b", SizeBytes: 2 * 64 * 4, Ways: 2, LineBytes: 64},
		&bypassPolicy{})
	r := access(c, 0)
	if r.Hit || !r.Bypassed || r.EvictedValid {
		t.Fatalf("result = %+v", r)
	}
	if c.Stats.Bypasses != 1 || c.Occupancy() != 0 {
		t.Fatal("bypass not recorded")
	}
}

func TestRandomPolicyBounds(t *testing.T) {
	c := cache.New(cache.Config{Name: "r", SizeBytes: 4 * 64 * 4, Ways: 4, LineBytes: 64},
		policy.NewRandom(1))
	for i := uint64(0); i < 1000; i++ {
		access(c, i*64)
	}
	if c.Occupancy() != 16 {
		t.Fatalf("occupancy = %d", c.Occupancy())
	}
}

func TestNRUPolicyBasics(t *testing.T) {
	c := cache.New(cache.Config{Name: "n", SizeBytes: 1 * 64 * 4, Ways: 4, LineBytes: 64},
		policy.NewNRU())
	// Fill the single... four sets? SizeBytes=256, ways=4, line=64 -> 1 set.
	for i := uint64(0); i < 4; i++ {
		access(c, i*64)
	}
	// Touch line 0 so it is protected, then miss: victim must not be line 0.
	access(c, 0)
	r := access(c, 4*64)
	if r.Evicted.Tag == c.Tag(0) {
		t.Fatal("NRU evicted the just-referenced line")
	}
	if !access(c, 0).Hit {
		t.Fatal("referenced line was evicted")
	}
}

// observingPolicy counts observer callbacks to verify the cache honors
// the optional interfaces.
type observingPolicy struct {
	policy.LRU
	accesses  int
	evictions int
}

func (o *observingPolicy) ObserveAccess(setIndex int, tag uint64, req *cache.Request) {
	o.accesses++
}

func (o *observingPolicy) ObserveEviction(setIndex int, line cache.Line) {
	o.evictions++
}

func TestObserverInterfacesInvoked(t *testing.T) {
	obs := &observingPolicy{}
	c := cache.New(cache.Config{Name: "o", SizeBytes: 2 * 64 * 4, Ways: 2, LineBytes: 64}, obs)
	// 3 lines into a 2-way set: 3 accesses observed, 1 eviction.
	for i := uint64(0); i < 3; i++ {
		c.Access(&cache.Request{Addr: i * 4 * 64})
	}
	if obs.accesses != 3 {
		t.Fatalf("observed %d accesses", obs.accesses)
	}
	if obs.evictions != 1 {
		t.Fatalf("observed %d evictions", obs.evictions)
	}
	// Invalidate also reports an eviction.
	c.Invalidate(1 * 4 * 64)
	if obs.evictions != 2 {
		t.Fatalf("invalidate not observed: %d", obs.evictions)
	}
}
