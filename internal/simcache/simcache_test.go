package simcache

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func key(s string) Key { return Fingerprint("test-v1", []byte(s)) }

func TestFingerprintStability(t *testing.T) {
	a := Fingerprint("v1", []byte(`{"x":1}`))
	if a != Fingerprint("v1", []byte(`{"x":1}`)) {
		t.Error("equal inputs produced different keys")
	}
	if a == Fingerprint("v1", []byte(`{"x":2}`)) {
		t.Error("distinct payloads produced the same key")
	}
	if a == Fingerprint("v2", []byte(`{"x":1}`)) {
		t.Error("version bump did not change the key")
	}
	// The length prefix keeps (version, payload) injective even when a
	// version/payload boundary shifts.
	if Fingerprint("ab", []byte("c")) == Fingerprint("a", []byte("bc")) {
		t.Error("boundary-shifted inputs collide")
	}
}

func TestMemoryHitMiss(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("hit on an empty cache")
	}
	c.Put(key("a"), []byte(`"va"`))
	v, ok := c.Get(key("a"))
	if !ok || !bytes.Equal(v, []byte(`"va"`)) {
		t.Fatalf("got %q %v, want va", v, ok)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Evictions != 0 || s.Corrupt != 0 {
		t.Errorf("stats %+v, want 1 hit / 1 miss", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c, err := New(Options{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key("a"), []byte(`1`))
	c.Put(key("b"), []byte(`2`))
	c.Get(key("a")) // refresh a: b becomes the LRU victim
	c.Put(key("c"), []byte(`3`))
	if _, ok := c.Get(key("b")); ok {
		t.Error("LRU victim b survived")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(key(k)); !ok {
			t.Errorf("recently used %q evicted", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Errorf("%d evictions, want 1", s.Evictions)
	}
	if c.Len() != 2 {
		t.Errorf("len %d, want 2", c.Len())
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(key("a"), []byte(`{"r":42}`))

	// A fresh cache over the same directory sees the entry.
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := c2.Get(key("a"))
	if !ok || !bytes.Equal(v, []byte(`{"r":42}`)) {
		t.Fatalf("disk entry not recovered: %q %v", v, ok)
	}
	if s := c2.Stats(); s.Hits != 1 {
		t.Errorf("stats %+v, want a disk hit", s)
	}
	// And a memory eviction does not lose it.
	c3, err := New(Options{Dir: dir, MaxEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	c3.Put(key("b"), []byte(`1`))
	c3.Put(key("c"), []byte(`2`)) // evicts b from memory
	if _, ok := c3.Get(key("b")); !ok {
		t.Error("evicted entry not recovered from disk")
	}
}

func TestCorruptEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := key("a")
	c.Put(k, []byte(`{"r":1}`))
	path := filepath.Join(dir, k.String()+".json")

	corrupt := func(name string, content []byte) {
		t.Helper()
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := fresh.Get(k); ok {
			t.Errorf("%s: corrupt entry served", name)
		}
		if s := fresh.Stats(); s.Corrupt != 1 || s.Misses != 1 {
			t.Errorf("%s: stats %+v, want 1 corrupt + 1 miss", name, s)
		}
	}
	corrupt("truncated", []byte(`{"key":"`))
	corrupt("wrong key", mustEnvelope(t, key("other"), []byte(`{"r":1}`)))
	bad := mustEnvelope(t, k, []byte(`{"r":1}`))
	bad = bytes.Replace(bad, []byte(`"r":1`), []byte(`"r":2`), 1) // sum mismatch
	corrupt("flipped value", bad)

	// A Put over the corrupt file repairs it.
	c.Put(k, []byte(`{"r":3}`))
	fresh, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := fresh.Get(k); !ok || !bytes.Equal(v, []byte(`{"r":3}`)) {
		t.Errorf("repair failed: %q %v", v, ok)
	}
}

// A corrupt disk entry must be quarantined, not silently consumed: the
// damaged file moves aside to <name>.corrupt (preserving the evidence),
// the corrupt counter ticks exactly once, and subsequent lookups of the
// same key are plain misses until a Put lays down a clean entry.
func TestCorruptEntriesAreQuarantined(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := key("q")
	c.Put(k, []byte(`{"r":1}`))
	path := filepath.Join(dir, k.String()+".json")
	if err := os.WriteFile(path, []byte(`{"key":"torn`), 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.Get(k); ok {
		t.Fatal("corrupt entry served")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupt entry not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt entry still at its original path (err %v)", err)
	}
	// The second miss is plain: the quarantined file no longer shadows
	// the key, so the counter must not tick again.
	if _, ok := fresh.Get(k); ok {
		t.Fatal("quarantined entry served")
	}
	if s := fresh.Stats(); s.Corrupt != 1 || s.Misses != 2 {
		t.Errorf("stats %+v, want exactly 1 corrupt + 2 misses", s)
	}

	// A Put after quarantine restores a clean, loadable entry.
	fresh.Put(k, []byte(`{"r":2}`))
	again, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := again.Get(k); !ok || !bytes.Equal(v, []byte(`{"r":2}`)) {
		t.Errorf("post-quarantine repair failed: %q %v", v, ok)
	}
}

func mustEnvelope(t *testing.T, k Key, value []byte) []byte {
	t.Helper()
	c, err := New(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(k, value)
	raw, err := os.ReadFile(c.path(k))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestMissingDirEntriesArePlainMisses(t *testing.T) {
	c, err := New(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key("absent")); ok {
		t.Fatal("hit for an absent key")
	}
	if s := c.Stats(); s.Corrupt != 0 || s.Misses != 1 {
		t.Errorf("stats %+v, want a plain miss", s)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, err := New(Options{Dir: t.TempDir(), MaxEntries: 32})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(fmt.Sprint(i % 50))
				if v, ok := c.Get(k); ok {
					var got int
					if err := json.Unmarshal(v, &got); err != nil || got != i%50 {
						t.Errorf("worker %d: bad value %q for %d", w, v, i%50)
						return
					}
				} else {
					c.Put(k, []byte(fmt.Sprint(i%50)))
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits == 0 || s.Corrupt != 0 {
		t.Errorf("stats %+v, want hits and no corruption", s)
	}
}

// TestCached: a miss runs and stores, a hit decodes without running, a
// failed run is never stored, an entry that no longer decodes is
// counted corrupt and re-run, and a nil cache always runs.
func TestCached(t *testing.T) {
	type opts struct{ Seed int }
	type result struct{ Sum int }
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	run := func() (result, error) { runs++; return result{Sum: 42}, nil }
	for i := 0; i < 2; i++ {
		if got, err := Cached(c, "v1", opts{Seed: 1}, run); err != nil || got.Sum != 42 {
			t.Fatalf("call %d: %+v, %v", i, got, err)
		}
	}
	if runs != 1 {
		t.Errorf("%d runs for a miss and a hit, want 1", runs)
	}
	fail := func() (result, error) { runs++; return result{}, errors.New("boom") }
	if _, err := Cached(c, "v1", opts{Seed: 2}, fail); err == nil {
		t.Error("run error swallowed")
	}
	key, err := KeyOf("v1", opts{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Error("failed run was stored")
	}
	c.Put(key, []byte("not json"))
	if got, err := Cached(c, "v1", opts{Seed: 2}, run); err != nil || got.Sum != 42 {
		t.Errorf("corrupt entry: %+v, %v", got, err)
	}
	if s := c.Stats(); s.Corrupt != 1 {
		t.Errorf("stats %+v, want 1 corrupt", s)
	}
	runs = 0
	if _, err := Cached(nil, "v1", opts{Seed: 1}, run); err != nil || runs != 1 {
		t.Errorf("nil cache: %d runs, %v; want 1 run", runs, err)
	}
}
