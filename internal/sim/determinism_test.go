package sim

import (
	"reflect"
	"sync"
	"testing"

	"surfbless/internal/config"
	"surfbless/internal/simcache"
	"surfbless/internal/traffic"
)

// The result cache is only sound if Run is a pure function of its
// Options.  These tests enforce that: identical options must yield
// deep-equal results and identical fingerprints, run back to back or
// concurrently in any order (the experiments package fans runs out
// through a parallel map, so scheduling must not leak into results).

func determinismOptions(model config.Model, seed int64) Options {
	cfg := config.Default(model)
	cfg.Domains = 2
	return Options{
		Cfg:     cfg,
		Pattern: traffic.UniformRandom,
		Sources: ctrlSources(2, 0.04),
		Warmup:  100, Measure: 1000, Drain: 20000,
		Seed: seed,
	}
}

func TestRunDeterminism(t *testing.T) {
	for _, model := range []config.Model{config.BLESS, config.SB, config.WH, config.Surf} {
		o := determinismOptions(model, 11)
		r1, err := Run(o)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		r2, err := Run(o)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("%v: identical options produced different results:\n%+v\n%+v", model, r1, r2)
		}
		k1, err := Fingerprint(o)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := Fingerprint(o)
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Errorf("%v: identical options fingerprint differently", model)
		}
		if ko, err := Fingerprint(determinismOptions(model, 12)); err != nil || ko == k1 {
			t.Errorf("%v: different seeds share a fingerprint (err %v)", model, err)
		}
	}
}

// Recycling ejected packets through the free list must be observably
// equivalent to fresh allocation on every model: bit-identical results
// and an unchanged cache fingerprint (Recycle is fingerprint-exempt).
// RUNAHEAD is included deliberately — there Recycle must be a no-op.
func TestRecycleMatchesFresh(t *testing.T) {
	for _, model := range []config.Model{
		config.WH, config.BLESS, config.Surf, config.SB, config.CHIPPER, config.RUNAHEAD,
	} {
		fresh := determinismOptions(model, 7)
		recycled := fresh
		recycled.Recycle = true
		rf, err := Run(fresh)
		if err != nil {
			t.Fatalf("%v fresh: %v", model, err)
		}
		rr, err := Run(recycled)
		if err != nil {
			t.Fatalf("%v recycled: %v", model, err)
		}
		if !reflect.DeepEqual(rf, rr) {
			t.Errorf("%v: recycling changed the result:\n%+v\n%+v", model, rf, rr)
		}
		kf, err := Fingerprint(fresh)
		if err != nil {
			t.Fatal(err)
		}
		kr, err := Fingerprint(recycled)
		if err != nil {
			t.Fatal(err)
		}
		if kf != kr {
			t.Errorf("%v: Recycle leaked into the cache fingerprint", model)
		}
	}
}

// Sharded stepping must be observably equivalent to serial stepping on
// every model: bit-identical results and an unchanged cache fingerprint
// (Shards is fingerprint-exempt).  RUNAHEAD, which has no sharded
// stepping, is included deliberately — there Shards must be a no-op.
// The tile counts cover even and uneven tiles on the 64-node mesh, one
// node per tile, a count clamped to the node count, and — with a fault
// plan armed on SB, BLESS and CHIPPER — the fallback to serial
// stepping.
func TestShardMatchesSerial(t *testing.T) {
	type input struct {
		name   string
		o      Options
		shards []int
	}
	var inputs []input
	for _, model := range []config.Model{
		config.WH, config.BLESS, config.Surf, config.SB, config.CHIPPER, config.RUNAHEAD,
	} {
		inputs = append(inputs, input{model.String(), determinismOptions(model, 7), []int{3, 4, 7, 64, 65}})
	}
	for _, model := range []config.Model{config.BLESS, config.SB, config.CHIPPER} {
		inputs = append(inputs, input{model.String() + "-faults", faultyOptions(model, 1), []int{4}})
	}
	for _, in := range inputs {
		rs, err := Run(in.o)
		if err != nil {
			t.Fatalf("%s serial: %v", in.name, err)
		}
		ks, err := Fingerprint(in.o)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range in.shards {
			sharded := in.o
			sharded.Shards = n
			rp, err := Run(sharded)
			if err != nil {
				t.Fatalf("%s Shards=%d: %v", in.name, n, err)
			}
			if !reflect.DeepEqual(rs, rp) {
				t.Errorf("%s: Shards=%d changed the result:\n%+v\n%+v", in.name, n, rs, rp)
			}
			kp, err := Fingerprint(sharded)
			if err != nil {
				t.Fatal(err)
			}
			if ks != kp {
				t.Errorf("%s: Shards=%d leaked into the cache fingerprint", in.name, n)
			}
		}
	}
}

// TestShardMatchesSerialGiant is the CI gate for the headline claim: a
// 32×32 mesh stepped with Shards=4 produces results bit-identical to
// Shards=1.  It runs on every sharded model — the VC fabrics, SB and
// the deflection routers — with a shortened window so `make
// bench-shard` stays a smoke test under -race.
func TestShardMatchesSerialGiant(t *testing.T) {
	for _, model := range []config.Model{config.WH, config.BLESS, config.Surf, config.SB, config.CHIPPER} {
		cfg := config.Default(model)
		cfg.Width, cfg.Height = 32, 32
		cfg.Domains = 2
		o := Options{
			Cfg:     cfg,
			Pattern: traffic.UniformRandom,
			Sources: ctrlSources(2, 0.02),
			Warmup:  50, Measure: 300, Drain: 20000,
			Seed: 9,
		}
		sharded := o
		sharded.Shards = 4
		rs, err := Run(o)
		if err != nil {
			t.Fatalf("%v serial: %v", model, err)
		}
		rp, err := Run(sharded)
		if err != nil {
			t.Fatalf("%v sharded: %v", model, err)
		}
		if !reflect.DeepEqual(rs, rp) {
			t.Errorf("%v: 32×32 sharding changed the result:\n%+v\n%+v", model, rs, rp)
		}
	}
}

// TestRunDeterminismAcrossOrderings executes the same batch of runs
// serially, concurrently in submission order, and concurrently in
// reverse order; every ordering must produce the identical result set.
func TestRunDeterminismAcrossOrderings(t *testing.T) {
	var opts []Options
	for _, model := range []config.Model{config.BLESS, config.SB} {
		for seed := int64(1); seed <= 3; seed++ {
			opts = append(opts, determinismOptions(model, seed))
		}
	}
	serial := make([]Result, len(opts))
	for i, o := range opts {
		r, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}
	concurrent := func(order []int) []Result {
		out := make([]Result, len(opts))
		var wg sync.WaitGroup
		for _, i := range order {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r, err := Run(opts[i])
				if err != nil {
					t.Error(err)
					return
				}
				out[i] = r
			}(i)
		}
		wg.Wait()
		return out
	}
	forward := make([]int, len(opts))
	backward := make([]int, len(opts))
	for i := range opts {
		forward[i] = i
		backward[i] = len(opts) - 1 - i
	}
	for name, got := range map[string][]Result{
		"concurrent":          concurrent(forward),
		"concurrent-reversed": concurrent(backward),
	} {
		for i := range serial {
			if !reflect.DeepEqual(serial[i], got[i]) {
				t.Errorf("%s: run %d diverged from the serial result", name, i)
			}
		}
	}
}

// TestRunCachedRoundTrip checks the cache path end to end: a miss
// stores the result, a hit returns a deep-equal copy (the JSON
// round-trip must lose nothing the figures read), and the fingerprints
// agree byte-for-byte across the two runs.
func TestRunCachedRoundTrip(t *testing.T) {
	c, err := simcache.New(simcache.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	o := determinismOptions(config.SB, 5)
	miss, err := RunCached(o, c)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := RunCached(o, c)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 1 || s.Corrupt != 0 {
		t.Fatalf("stats %+v, want exactly one miss then one hit", s)
	}
	if !reflect.DeepEqual(miss, hit) {
		t.Errorf("cached result differs from computed result:\n%+v\n%+v", miss, hit)
	}
	direct, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, hit) {
		t.Error("cached result differs from an uncached Run")
	}
	// A nil cache degrades to a plain Run.
	plain, err := RunCached(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, direct) {
		t.Error("nil-cache RunCached differs from Run")
	}
}
