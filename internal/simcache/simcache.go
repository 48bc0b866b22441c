// Package simcache is a content-addressed result cache for
// deterministic simulation runs.  A run is a pure function of its
// options, so its result can be keyed by a fingerprint of a canonical
// serialization of those options plus a schema/code version token.
// Entries live in a bounded in-memory LRU and, optionally, as JSON
// envelopes on disk (results/.simcache/ by convention) so repeated
// figure regeneration and sweeps become near-instant on unchanged
// inputs.
//
// The cache is safe for concurrent use: parallel sweeps (the
// experiments package's parmap) share one instance.  It is strictly
// best-effort — a missing, unreadable or mismatched disk entry is a
// miss (counted in Stats.Corrupt when the file exists but fails
// verification), never an error, and a failed disk write leaves the
// memory tier intact.
package simcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Key is a content-addressed cache key: a SHA-256 digest of a version
// token and a canonical payload.
type Key [sha256.Size]byte

// String returns the key in lowercase hex, the on-disk file stem.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Fingerprint derives the key for a canonical payload.  The version
// token is length-prefixed before hashing so that (version, payload)
// pairs map injectively onto the hashed byte stream: bumping the token
// invalidates every existing entry without touching the payload
// encoding.
func Fingerprint(version string, payload []byte) Key {
	h := sha256.New()
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(version)))
	h.Write(n[:])
	h.Write([]byte(version))
	h.Write(payload)
	var k Key
	h.Sum(k[:0])
	return k
}

// KeyOf derives the key of a run from its options: the Fingerprint of
// version and the options' canonical JSON.  encoding/json emits struct
// fields in declaration order, so equal options always serialize to
// equal bytes, and every exported, untagged field is covered.
func KeyOf(version string, opts any) (Key, error) {
	payload, err := json.Marshal(opts)
	if err != nil {
		return Key{}, fmt.Errorf("simcache: fingerprint: %w", err)
	}
	return Fingerprint(version, payload), nil
}

// Cached is run behind c, keyed by KeyOf(version, opts): a hit decodes
// the stored result, a miss runs and stores it.  A nil cache, options
// that do not serialize, or an entry that no longer decodes all degrade
// to a plain run — the cache can make a run faster, never wrong.  A
// failed run is never stored.
func Cached[R any](c *Cache, version string, opts any, run func() (R, error)) (R, error) {
	if c == nil {
		return run()
	}
	key, err := KeyOf(version, opts)
	if err != nil {
		return run()
	}
	if raw, ok := c.Get(key); ok {
		var res R
		if err := json.Unmarshal(raw, &res); err == nil {
			return res, nil
		}
		c.NoteCorrupt()
	}
	res, err := run()
	if err != nil {
		return res, err
	}
	if raw, err := json.Marshal(res); err == nil {
		c.Put(key, raw)
	}
	return res, nil
}

// DefaultMaxEntries bounds the in-memory LRU when Options.MaxEntries
// is not positive.  Entries are whole simulation results (a few KB
// each), so the default keeps the footprint in the tens of MB.
const DefaultMaxEntries = 4096

// Options configures a cache.
type Options struct {
	// Dir is the persistence directory ("" = memory-only).  It is
	// created if absent.
	Dir string
	// MaxEntries bounds the in-memory LRU (≤0 = DefaultMaxEntries).
	// Disk entries are never evicted; they are the persistent tier.
	MaxEntries int
}

// Stats are the cache's event counters.
type Stats struct {
	Hits      int64 // Get found a valid entry (memory or disk)
	Misses    int64 // Get found nothing usable
	Evictions int64 // memory entries displaced by the LRU bound
	Corrupt   int64 // disk entries that existed but failed verification
}

// String renders the counters the way the binaries report them.
func (s Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses, %d evictions, %d corrupt entries",
		s.Hits, s.Misses, s.Evictions, s.Corrupt)
}

// Cache is a two-tier (memory LRU + optional disk) content-addressed
// store.  The zero value is not usable; construct with New.
type Cache struct {
	mu    sync.Mutex
	dir   string
	max   int
	ll    *list.List // front = most recently used
	items map[Key]*list.Element
	stats Stats
}

type entry struct {
	key   Key
	value []byte
}

// New returns a cache, creating the persistence directory when one is
// configured.
func New(o Options) (*Cache, error) {
	if o.MaxEntries <= 0 {
		o.MaxEntries = DefaultMaxEntries
	}
	if o.Dir != "" {
		if err := os.MkdirAll(o.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("simcache: %w", err)
		}
	}
	return &Cache{
		dir:   o.Dir,
		max:   o.MaxEntries,
		ll:    list.New(),
		items: make(map[Key]*list.Element),
	}, nil
}

// envelope is the on-disk JSON format.  Key and Sum make corruption
// detectable: a renamed, truncated or bit-flipped file fails
// verification and is treated as a miss.
type envelope struct {
	Key   string          `json:"key"`
	Sum   string          `json:"sum"` // SHA-256 of Value
	Value json.RawMessage `json:"value"`
}

// Get returns the cached value for key, consulting memory first and
// then the disk tier.  A disk hit is promoted into memory.
func (c *Cache) Get(key Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*entry).value, true
	}
	if v, ok := c.load(key); ok {
		c.insert(key, v)
		c.stats.Hits++
		return v, true
	}
	c.stats.Misses++
	return nil, false
}

// Put stores value under key in memory and, when a directory is
// configured, on disk.  The disk write is atomic (temp file + rename)
// and best-effort: its failure does not invalidate the memory entry.
func (c *Cache) Put(key Key, value []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insert(key, value)
	c.store(key, value)
}

// NoteCorrupt records an entry that passed Get but failed the caller's
// decoding — the caller treats it as a miss and overwrites it.
func (c *Cache) NoteCorrupt() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Corrupt++
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// MetricsRegistry is the slice of probe.Metrics the cache needs to
// publish itself — an interface here so simcache does not depend on
// the observability layer.
type MetricsRegistry interface {
	CounterFunc(name, help string, fn func() int64)
	GaugeFunc(name, help string, fn func() int64)
}

// ExposeMetrics registers the cache's live counters on reg, so `-http`
// runs can scrape cache effectiveness from /metrics instead of waiting
// for the end-of-run stderr summary.  The callbacks snapshot under the
// cache mutex and are safe to scrape concurrently with lookups.
func (c *Cache) ExposeMetrics(reg MetricsRegistry) {
	reg.CounterFunc("surfbless_simcache_hits_total", "result-cache lookups served from memory or disk", func() int64 { return c.Stats().Hits })
	reg.CounterFunc("surfbless_simcache_misses_total", "result-cache lookups that found nothing usable", func() int64 { return c.Stats().Misses })
	reg.CounterFunc("surfbless_simcache_evictions_total", "memory entries displaced by the LRU bound", func() int64 { return c.Stats().Evictions })
	reg.CounterFunc("surfbless_simcache_corrupt_total", "cache entries that failed verification", func() int64 { return c.Stats().Corrupt })
	reg.GaugeFunc("surfbless_simcache_entries", "in-memory cache entries", func() int64 { return int64(c.Len()) })
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// insert adds or refreshes a memory entry and enforces the LRU bound.
// Callers hold c.mu.
func (c *Cache) insert(key Key, value []byte) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).value = value
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, value: value})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*entry).key)
		c.stats.Evictions++
	}
}

func (c *Cache) path(key Key) string {
	return filepath.Join(c.dir, key.String()+".json")
}

// load reads and verifies a disk entry.  A file that exists but fails
// verification is quarantined — renamed to <name>.corrupt — so the
// evidence survives for forensics, repeated lookups of the same key
// become plain misses instead of re-counting the same corruption, and
// the next Put can lay down a clean entry under the original name.
// Callers hold c.mu.
func (c *Cache) load(key Key) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	path := c.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false // absent (or unreadable): a plain miss
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		c.quarantine(path)
		return nil, false
	}
	sum := sha256.Sum256(env.Value)
	if env.Key != key.String() || env.Sum != hex.EncodeToString(sum[:]) {
		c.quarantine(path)
		return nil, false
	}
	return []byte(env.Value), true
}

// quarantine counts and sidelines a corrupt disk entry.  The rename is
// best-effort (a read-only cache directory still yields a functioning
// miss); an earlier quarantined file under the same name is
// overwritten — the newest corruption is the interesting one.
func (c *Cache) quarantine(path string) {
	c.stats.Corrupt++
	os.Rename(path, path+".corrupt") //nolint:errcheck // best-effort evidence preservation
}

// store writes a disk entry atomically and durably: the temp file is
// fsynced before the rename, so a machine crash right after the rename
// cannot leave a visible entry with unflushed (empty or partial)
// contents — the entry either exists whole or not at all.  Callers
// hold c.mu.
func (c *Cache) store(key Key, value []byte) {
	if c.dir == "" {
		return
	}
	sum := sha256.Sum256(value)
	raw, err := json.Marshal(envelope{
		Key:   key.String(),
		Sum:   hex.EncodeToString(sum[:]),
		Value: json.RawMessage(value),
	})
	if err != nil {
		return // value was not valid JSON; keep the memory entry only
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(raw)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
	}
}
