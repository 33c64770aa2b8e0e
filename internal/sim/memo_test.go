package sim

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"testing"

	"nucache/internal/mrc"
)

// memoVal is a cached value with a slice, so a shallow copy shares
// memory with the memory tier's decoded value.
type memoVal struct {
	N int   `json:"n"`
	S []int `json:"s"`
}

func memoOf(n int) memoVal { return memoVal{N: n, S: []int{n, -n}} }

// decodesDuring reports how many cache decodes fn performed.
func decodesDuring(fn func()) int64 {
	before := CacheDecodes.Value()
	fn()
	return CacheDecodes.Value() - before
}

func TestCacheMemoDecodesOnce(t *testing.T) {
	const gets = 20
	getAll := func(t *testing.T, c *Cache, key string, want memoVal) {
		t.Helper()
		for i := 0; i < gets; i++ {
			var got memoVal
			if !c.Get(key, &got) || !reflect.DeepEqual(got, want) {
				t.Fatalf("get %d: %+v, want %+v", i, got, want)
			}
		}
	}

	t.Run("put-encoded", func(t *testing.T) {
		c := NewCache(8, "")
		data, _ := json.Marshal(memoOf(7))
		c.PutEncoded("k", data)
		if n := decodesDuring(func() { getAll(t, c, "k", memoOf(7)) }); n != 1 {
			t.Fatalf("%d Gets of a PutEncoded entry decoded %d times, want 1", gets, n)
		}
	})
	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		if err := NewCache(8, dir).Put("k", memoOf(9)); err != nil {
			t.Fatal(err)
		}
		c := NewCache(8, dir) // empty memory tier: the first Get reads disk
		if n := decodesDuring(func() { getAll(t, c, "k", memoOf(9)) }); n != 1 {
			t.Fatalf("%d Gets of a disk entry decoded %d times, want 1", gets, n)
		}
	})
	t.Run("put", func(t *testing.T) {
		c := NewCache(8, "")
		if err := c.Put("k", memoOf(3)); err != nil {
			t.Fatal(err)
		}
		if n := decodesDuring(func() { getAll(t, c, "k", memoOf(3)) }); n != 1 {
			t.Fatalf("%d Gets of a Put entry decoded %d times, want 1", gets, n)
		}
	})
}

func TestCacheMemoReplacedByPut(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(8, dir)
	expect := func(want memoVal) {
		t.Helper()
		for i := 0; i < 2; i++ { // the decoding Get, then the kept value
			var got memoVal
			if !c.Get("k", &got) || !reflect.DeepEqual(got, want) {
				t.Fatalf("Get = %+v, want %+v", got, want)
			}
		}
	}
	if err := c.Put("k", memoOf(1)); err != nil {
		t.Fatal(err)
	}
	expect(memoOf(1))
	if err := c.Put("k", memoOf(2)); err != nil {
		t.Fatal(err)
	}
	expect(memoOf(2))
	data, _ := json.Marshal(memoOf(3))
	c.PutEncoded("k", data)
	expect(memoOf(3))
	// A disk read-back replaces the memory entry too: a fresh instance
	// over the same directory sees the last Put, not the PutEncoded
	// bytes (memory only).
	c = NewCache(8, dir)
	expect(memoOf(2))
}

func TestCacheMemoOtherTypeDecodes(t *testing.T) {
	c := NewCache(8, "")
	if err := c.Put("k", memoOf(5)); err != nil {
		t.Fatal(err)
	}
	var first memoVal
	if !c.Get("k", &first) { // keeps a *memoVal
		t.Fatal("miss")
	}
	type onlyN struct {
		N int `json:"n"`
	}
	var n onlyN
	var m map[string]any
	decodes := decodesDuring(func() {
		if !c.Get("k", &n) || n.N != 5 {
			t.Fatalf("Get into another struct: %+v", n)
		}
		if !c.Get("k", &m) || m["n"] != float64(5) {
			t.Fatalf("Get into a map: %v", m)
		}
	})
	if decodes != 2 {
		t.Fatalf("Gets into other types decoded %d times, want 2", decodes)
	}
	// The kept value is still the first type's, and still served.
	var again memoVal
	if n := decodesDuring(func() { c.Get("k", &again) }); n != 0 || !reflect.DeepEqual(again, memoOf(5)) {
		t.Fatalf("Get into the kept type decoded %d times, got %+v", n, again)
	}
	// A nil pointer of the kept type is an error, as with JSON, and
	// never a panic.
	var nilPtr *memoVal
	if c.Get("k", nilPtr) {
		t.Fatal("Get into a nil pointer reported a hit")
	}
}

func TestCacheMemoConcurrentOneKey(t *testing.T) {
	c := NewCache(8, "")
	if err := c.Put("k", memoOf(0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				switch i % 3 {
				case 0:
					_ = c.Put("k", memoOf(g*1000+i))
				case 1:
					data, _ := json.Marshal(memoOf(g*1000 + i))
					c.PutEncoded("k", data)
				}
				var got memoVal
				if !c.Get("k", &got) {
					t.Error("key lost")
					return
				}
				if want := memoOf(got.N); !reflect.DeepEqual(got, want) {
					t.Errorf("torn value %+v", got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := c.CheckDecoded(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheCheckDecodedCatchesMutation(t *testing.T) {
	c := NewCache(8, "")
	if err := c.Put("k", memoOf(4)); err != nil {
		t.Fatal(err)
	}
	var v memoVal
	c.Get("k", &v)
	if err := c.CheckDecoded(); err != nil {
		t.Fatalf("untouched value: %v", err)
	}
	v.N = 99 // the top-level copy is the caller's own
	if err := c.CheckDecoded(); err != nil {
		t.Fatalf("writing the caller's copy flagged: %v", err)
	}
	v.S[0] = 99 // the slice is shared with the cache: a contract breach
	if c.CheckDecoded() == nil {
		t.Fatal("a mutated shared slice went unnoticed")
	}
}

// TestCachedValuesStayReadOnly drives every serving consumer of cached
// values over memoized entries, then re-encodes each kept value and
// compares it with its bytes: a handler, the advisor or an mrc
// predictor that wrote into a shared value would fail here.
func TestCachedValuesStayReadOnly(t *testing.T) {
	c := NewCache(64, "")
	ts := httptest.NewServer(NewServer(NewScheduler(2, c)).Handler())
	t.Cleanup(ts.Close)
	post := func(path, body string) {
		t.Helper()
		resp := postJSON(t, ts.URL+path, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d", path, body, resp.StatusCode)
		}
	}
	const spec = `"mix":"mix2-01","budget":60000`
	for i := 0; i < 3; i++ { // compute, decode once, then kept-value hits
		post("/v1/sim", `{`+spec+`,"policy":"NUcache"}`)
		post("/v1/profile", `{`+spec+`}`)
	}
	for _, ask := range []string{
		`"policy":"part","alloc":[10,6]`,
		`"policy":"part","best":true`,
		`"policy":"lru"`,
		`"policy":"nucache","deliways":4`,
		`"policy":"nucache","best":true`,
		`"policy":"part","alloc":[8,8],"verify":true`,
	} {
		for i := 0; i < 2; i++ {
			post("/v1/advise", `{`+spec+`,`+ask+`}`)
		}
	}
	kept := 0
	c.mu.Lock()
	for el := c.order.Front(); el != nil; el = el.Next() {
		if el.Value.(*cacheEntry).val != nil {
			kept++
		}
	}
	c.mu.Unlock()
	if kept < 2 {
		t.Fatalf("only %d decoded values kept; the hits did not go through the memory tier", kept)
	}
	if err := c.CheckDecoded(); err != nil {
		t.Fatal(err)
	}
}

// TestAdviseRecomputesInvalidCachedProfile: a stored profile that is
// valid JSON but fails mrc.Profile.Validate must be recomputed, never
// handed to the model, whether it sits in memory or on disk.
func TestAdviseRecomputesInvalidCachedProfile(t *testing.T) {
	req := ProfileRequest{Mix: "mix2-01", Budget: 60_000}.Normalize()
	key := req.Key()
	bad, _ := json.Marshal(&mrc.Profile{Version: mrc.Version, Mix: "mix2-01"}) // zero cores
	body := `{"mix":"mix2-01","budget":60000,"policy":"part","best":true}`

	check := func(t *testing.T, c *Cache) {
		t.Helper()
		ts := httptest.NewServer(NewServer(NewScheduler(2, c)).Handler())
		defer ts.Close()
		built := MRCProfilesBuilt.Value()
		resp := postJSON(t, ts.URL+"/v1/advise", body)
		defer resp.Body.Close()
		var out AdviseResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if got := MRCProfilesBuilt.Value() - built; got != 1 {
			t.Fatalf("profiles built %d, want 1 (the invalid profile must be recomputed)", got)
		}
		if out.ProfileCached || out.ProfileKey != key || out.Prediction == nil || len(out.Prediction.PerCore) != 2 {
			t.Fatalf("advise answered from the invalid profile: %+v", out)
		}
		var p mrc.Profile
		if !c.Get(key, &p) || p.Validate() != nil {
			t.Fatal("the recomputed profile did not replace the invalid one")
		}
	}

	t.Run("memory", func(t *testing.T) {
		c := NewCache(8, "")
		c.PutEncoded(key, bad)
		check(t, c)
	})
	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		if err := NewCache(8, dir).Put(key, json.RawMessage(bad)); err != nil {
			t.Fatal(err)
		}
		quarantined := CacheQuarantined.Value()
		c := NewCache(8, dir)
		check(t, c)
		if CacheQuarantined.Value() != quarantined+1 {
			t.Fatal("the invalid disk entry was not quarantined")
		}
		if _, err := os.Stat(c.diskPath(key) + ".quarantined"); err != nil {
			t.Fatalf("quarantined file: %v", err)
		}
	})
}

func ExampleCache_Get() {
	c := NewCache(8, "")
	_ = c.Put("k", memoVal{N: 1, S: []int{1, 2}})
	var a, b memoVal
	c.Get("k", &a) // decodes and keeps the value
	c.Get("k", &b) // copies the kept value: b.S shares a.S's array
	fmt.Println(a.N == b.N, &a.S[0] == &b.S[0])
	// Output: true true
}
