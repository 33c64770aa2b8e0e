package sim

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"nucache/internal/failpoint"
)

// Cache is a content-addressed result store: an in-memory LRU over
// JSON-encoded values, optionally backed by an on-disk JSON store that
// survives restarts. Values round-trip through encoding/json, which is
// exact for float64, so a cached result is byte-identical to a fresh one.
//
// The disk tier self-heals: a corrupt entry (truncated write, bit rot)
// is quarantined on first read so it is never re-read and re-rejected,
// and a failing disk (read-only remount, volume full) degrades the
// cache to memory-only mode with a logged warning instead of failing
// requests.
//
// Disk entries are written inside an integrity envelope — the payload
// plus its SHA-256 — so corruption that still parses as JSON (a bit
// flip inside a float, a truncated-then-patched file) is detected by
// checksum instead of being served as truth. Pre-envelope entries (raw
// payload JSON) still load, so existing caches survive the upgrade.
//
// The in-memory tier is sharded by key hash into a power-of-2 number of
// independently locked LRUs sized from runtime.NumCPU(), so concurrent
// writers — a scheduler's worker pool, or remote fabric results landing
// between local completions — don't serialize on one global mutex.
// Small caches (under minShardEntries per would-be shard) collapse to a
// single shard, where eviction order is exactly the classic global LRU.
type Cache struct {
	shards []*cacheShard
	mask   uint32 // len(shards) - 1
	dir    string // "" disables the disk tier
	diskOK atomic.Bool
}

// cacheShard is one independently locked LRU slice of the key space.
type cacheShard struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry struct {
	key  string
	data []byte
}

// minShardEntries is the floor on per-shard capacity: sharding a cache
// below it would turn capacity-accurate LRU eviction into noise (and
// every small-cache test in this repo into a flake), so caches that
// small stay single-shard.
const minShardEntries = 64

// shardCount picks the in-memory shard count: the smallest power of two
// ≥ NumCPU, halved until each shard holds at least minShardEntries.
func shardCount(capacity int) int {
	n := 1
	for n < runtime.NumCPU() {
		n <<= 1
	}
	for n > 1 && capacity/n < minShardEntries {
		n >>= 1
	}
	return n
}

// NewCache builds a cache holding up to capacity in-memory entries
// (minimum 1). dir, when non-empty, enables the persistent tier; it is
// created on first write.
func NewCache(capacity int, dir string) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	n := shardCount(capacity)
	c := &Cache{
		shards: make([]*cacheShard, n),
		mask:   uint32(n - 1),
		dir:    dir,
	}
	for i := range c.shards {
		// Spread capacity across shards, remainder to the low shards,
		// so the total in-memory bound is exactly `capacity`.
		sc := capacity / n
		if i < capacity%n {
			sc++
		}
		c.shards[i] = &cacheShard{
			cap:     sc,
			entries: map[string]*list.Element{},
			order:   list.New(),
		}
	}
	c.diskOK.Store(true)
	return c
}

// shard routes a key to its shard by FNV-1a hash. Keys are sha256 hex
// digests in the common case, so any decent mix works; FNV keeps it
// allocation-free.
func (c *Cache) shard(key string) *cacheShard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return c.shards[h&c.mask]
}

// Len reports the in-memory entry count across all shards.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Contains reports whether the key is resident in memory, without
// promoting it or touching the disk tier. The sweep's fabric offer path
// uses it to skip already-finished cells.
func (c *Cache) Contains(key string) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// DiskHealthy reports whether the disk tier is still accepting writes.
// It is true for memory-only caches (nothing to be unhealthy about) and
// flips to false permanently once a disk write fails, at which point the
// cache serves from memory only.
func (c *Cache) DiskHealthy() bool { return c.dir == "" || c.diskOK.Load() }

// Persistent reports whether a disk tier was configured.
func (c *Cache) Persistent() bool { return c.dir != "" }

// Get looks the key up (memory first, then disk) and decodes the stored
// value into `into` (a pointer). A disk hit is promoted into memory. A
// disk entry that fails to decode is quarantined so the next lookup for
// the key recomputes instead of re-reading the corrupt file forever.
func (c *Cache) Get(key string, into any) bool {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		data := el.Value.(*cacheEntry).data
		s.mu.Unlock()
		if json.Unmarshal(data, into) == nil {
			return true
		}
		// Memory entries are written by Put and should never be corrupt;
		// drop the entry anyway so a decode mismatch (e.g. a changed
		// result schema) heals by recomputation instead of recurring.
		s.evict(key, el)
		return false
	}
	s.mu.Unlock()
	if c.dir == "" {
		return false
	}
	path := c.diskPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	payload, err := openEnvelope(data)
	if err != nil {
		c.quarantine(path, err)
		return false
	}
	if err := json.Unmarshal(payload, into); err != nil {
		c.quarantine(path, err)
		return false
	}
	c.putBytes(key, payload)
	return true
}

// diskEnvelope wraps a disk entry's payload with its own SHA-256 so
// bit rot is detected by checksum, not by whether it happens to break
// JSON syntax.
type diskEnvelope struct {
	V       int             `json:"v"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// sealEnvelope wraps a payload for the disk tier.
func sealEnvelope(payload []byte) ([]byte, error) {
	sum := sha256.Sum256(payload)
	return json.Marshal(diskEnvelope{V: 1, SHA256: hex.EncodeToString(sum[:]), Payload: payload})
}

// openEnvelope extracts and verifies a disk entry's payload. Entries
// written before the envelope existed (raw payload JSON, no checksum)
// pass through unchanged — they lack the envelope's marker fields, and
// no cached Result ever had a top-level "sha256" — so old caches keep
// loading; checksum mismatches count in nucache_cache_checksum_fails
// and surface as errors for the quarantine path.
func openEnvelope(data []byte) ([]byte, error) {
	var env diskEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	if env.V == 0 || env.SHA256 == "" || env.Payload == nil {
		return data, nil // legacy raw-payload entry
	}
	sum := sha256.Sum256(env.Payload)
	if got := hex.EncodeToString(sum[:]); got != env.SHA256 {
		CacheChecksumFails.Add(1)
		return nil, fmt.Errorf("sim: cache entry checksum mismatch: payload sha256 %s, envelope says %s", got, env.SHA256)
	}
	return env.Payload, nil
}

// evict removes a known-bad memory entry, tolerating concurrent
// replacement (only the exact element observed corrupt is removed).
func (s *cacheShard) evict(key string, el *list.Element) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.entries[key]; ok && cur == el {
		s.order.Remove(cur)
		delete(s.entries, key)
	}
}

// quarantine moves a corrupt disk entry aside (or deletes it if even
// that fails) so it is inspected at most once. Counted in
// nucache_cache_quarantined.
func (c *Cache) quarantine(path string, cause error) {
	CacheQuarantined.Add(1)
	qpath := path + ".quarantined"
	if err := os.Rename(path, qpath); err != nil {
		// Read-only disk or concurrent removal: removing is best
		// effort too; a persistent failure just means one wasted
		// re-read per restart, never a wrong result.
		_ = os.Remove(path)
		qpath = "(removed)"
	}
	slog.Warn("sim cache: quarantined corrupt entry",
		"path", path, "moved_to", qpath, "error", cause.Error())
}

// Put stores a JSON-marshalable value under the key, evicting the
// least-recently-used in-memory entry past capacity and writing through
// to the disk tier when enabled. A disk-tier failure (unwritable or
// full volume) degrades the cache to memory-only mode — logged once,
// counted in nucache_cache_disk_errors — and is not reported as an
// error: the in-memory store succeeded and the caller's result is
// valid.
func (c *Cache) Put(key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("sim: cache encode: %w", err)
	}
	c.putBytes(key, data)
	if c.dir == "" || !c.diskOK.Load() {
		return nil
	}
	if err := c.writeDisk(key, data); err != nil {
		CacheDiskErrors.Add(1)
		if c.diskOK.CompareAndSwap(true, false) {
			slog.Warn("sim cache: disk tier failed; degrading to memory-only mode",
				"dir", c.dir, "error", err.Error())
		}
	}
	return nil
}

func (c *Cache) writeDisk(key string, data []byte) error {
	if err := failpoint.Inject("sim.cache.write"); err != nil {
		return err
	}
	sealed, err := sealEnvelope(data)
	if err != nil {
		return err
	}
	path := c.diskPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	// Write-then-rename keeps readers from seeing partial files.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, sealed, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// PutEncoded stores an already-marshaled JSON value under the key in
// the in-memory tier only. It is the journal-resume seeding path: a
// checkpointed cell's bytes go straight back into the cache, so the
// resumed sweep decodes exactly what the original run computed (JSON
// round-trips float64 exactly) without touching the disk tier.
func (c *Cache) PutEncoded(key string, data []byte) {
	c.putBytes(key, append([]byte(nil), data...))
}

func (c *Cache) putBytes(key string, data []byte) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*cacheEntry).data = data
		s.order.MoveToFront(el)
		return
	}
	s.entries[key] = s.order.PushFront(&cacheEntry{key: key, data: data})
	for s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.entries, oldest.Value.(*cacheEntry).key)
	}
}

// diskPath maps a key to a file. Keys that are already hex digests are
// used as-is; anything else is hashed so arbitrary key strings stay
// filesystem-safe. A two-character fan-out directory keeps directories
// small under large sweeps.
func (c *Cache) diskPath(key string) string {
	name := key
	if !isHex(name) || len(name) != 64 {
		sum := sha256.Sum256([]byte(key))
		name = hex.EncodeToString(sum[:])
	}
	return filepath.Join(c.dir, name[:2], name+".json")
}

func isHex(s string) bool {
	return strings.IndexFunc(s, func(r rune) bool {
		return !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f')
	}) < 0
}
