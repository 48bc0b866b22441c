package sim

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"surfbless/internal/config"
	"surfbless/internal/probe"
	"surfbless/internal/simcache"
	"surfbless/internal/trace"
	"surfbless/internal/traffic"
)

// The result cache is only sound if Run is a pure function of its
// Options.  These tests enforce that: identical options must yield
// deep-equal results and identical fingerprints, run back to back or
// concurrently in any order (the experiments package fans runs out
// through a parallel map, so scheduling must not leak into results).

var allModels = []config.Model{
	config.WH, config.BLESS, config.Surf, config.SB, config.CHIPPER, config.RUNAHEAD,
}

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

// runGolden pins the SHA-256 of the JSON-encoded Run result for every
// model on the determinism options and a fault plan.  The digests were
// recorded when Run still allocated every packet afresh, so they also
// prove that always-on recycling and RUNAHEAD's per-source timers left
// every result bit-identical.
var runGolden = map[string]string{
	"WH/det":          "221a77ab5cdf9586374971c2ba00ec4bb2afb51d0e36951c234f10021d148c2a",
	"WH/faulty":       "2e7e3ed69a58f8757a356c27ebfbf2d5e4058c6baecf776298644e7bba93b636",
	"BLESS/det":       "7561addf1caf770987407bdf6afe82c08174c0be38fc4737dc3fde3d1a159cf9",
	"BLESS/faulty":    "a2d3587067923b1cb2c9b5aa4c96c90a81e562fc9f56b6e6bf9b3b7652bcbcf5",
	"Surf/det":        "68b3997e96848fe7bf36d76b693a9912ff1a026aef3e2f784f115594e8716b2f",
	"Surf/faulty":     "8ff9f7a51d3fb656afb157d45f8fdcff7d0d8edb89fe96af762a2386cb6bb769",
	"SB/det":          "04094b0c6cc7ed720066f367d730dae363fe17ac9f4eba64c653ae322657e134",
	"SB/faulty":       "1b4aa2eee55e5c1d971cf8f9af092de4625aa639e06df87c4be53972cbc6ed5a",
	"CHIPPER/det":     "13b14724f2cbe450ad8a501783221edae5646fa8abef36dbf048b1183026e5f6",
	"CHIPPER/faulty":  "687598ec91ac635023a93f3be68939001f4f9652457013470cd257fece4c16fe",
	"RUNAHEAD/det":    "27bd93eeb4ea76536ab1c1746803c19981bc6b9e28e616656d7a4df99cd63720",
	"RUNAHEAD/faulty": "ebbcb29f40ad6910a0da65c1bec69b7b4c882fe6230d801667cea73613cf7be8",
}

func TestRunResultsGolden(t *testing.T) {
	for _, model := range allModels {
		for _, in := range []struct {
			name string
			o    Options
		}{
			{"det", determinismOptions(model, 7)},
			{"faulty", faultyOptions(model, 1)},
		} {
			key := model.String() + "/" + in.name
			res, err := Run(in.o)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != runGolden[key] {
				t.Errorf("%s: result digest %s, want %s", key, got, runGolden[key])
			}
		}
	}
}

// Sharded stepping must be observably equivalent to serial stepping on
// every model: bit-identical results and an unchanged cache fingerprint
// (Shards is fingerprint-exempt).  The tile counts cover even and uneven tiles on the 64-node mesh, one
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
	for _, model := range allModels {
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
// Shards=1.  It runs on every model — the VC fabrics, SB, the
// deflection routers and RUNAHEAD — with a shortened window so `make
// bench-shard` stays a smoke test under -race.
func TestShardMatchesSerialGiant(t *testing.T) {
	for _, model := range allModels {
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

// lifecycleTap keeps a copy of every packet lifecycle event it is
// handed (the kinds KindCreated through KindRetransmit), in stream
// order.
type lifecycleTap []probe.Event

func (l *lifecycleTap) Arm(probe.Config) { *l = (*l)[:0] }

func (l *lifecycleTap) Consume(batch []probe.Event) {
	for _, e := range batch {
		if e.Kind <= probe.KindRetransmit {
			*l = append(*l, e)
		}
	}
}

// TestShardedEventsMatchSerial checks the kernel's claim that the
// event ring sees the serial lifecycle sequence: a tap records every
// lifecycle event, and the events at Shards=4 — counts as of the event
// included — must equal the serial ones on every model.  At 0.10 per
// domain RUNAHEAD retransmits, so its deferred Retransmitted events
// are covered too.
func TestShardedEventsMatchSerial(t *testing.T) {
	record := func(o Options) lifecycleTap {
		var evs lifecycleTap
		o.Taps = []probe.Tap{&evs}
		if _, err := Run(o); err != nil {
			t.Fatalf("%v: %v", o.Cfg.Model, err)
		}
		return evs
	}
	for _, model := range allModels {
		o := determinismOptions(model, 7)
		o.Sources = ctrlSources(2, 0.10)
		serial := record(o)
		o.Shards = 4
		sharded := record(o)
		if model == config.RUNAHEAD && !slices.ContainsFunc(serial, func(e probe.Event) bool { return e.Kind == probe.KindRetransmit }) {
			t.Errorf("%v: no retransmissions at this load", model)
		}
		if i := slices.IndexFunc(serial, func(e probe.Event) bool { return e.Kind == probe.KindEjected && e.Node != e.Dst }); i >= 0 {
			t.Errorf("%v: ejection away from the destination: %+v", model, serial[i])
		}
		if len(serial) != len(sharded) {
			t.Errorf("%v: %d events serial, %d sharded", model, len(serial), len(sharded))
		}
		for i := range min(len(serial), len(sharded)) {
			if serial[i] != sharded[i] {
				t.Errorf("%v: event %d differs: serial %+v, sharded %+v", model, i, serial[i], sharded[i])
				break
			}
		}
	}
}

// traceCSV runs o with a trace writer tapping its event stream and
// returns the CSV.
func traceCSV(t *testing.T, o Options) string {
	t.Helper()
	var sb strings.Builder
	w := trace.New(&sb)
	o.Taps = []probe.Tap{w}
	if _, err := Run(o); err != nil {
		t.Fatalf("%v: %v", o.Cfg.Model, err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// traceGolden pins the SHA-256 of the lifecycle trace CSV (no header)
// for every model on the determinism options and a fault plan.  The
// digests were recorded when the trace was a collector callback that
// read each packet's live counts, so they prove that the event ring
// reproduces the serial trace byte for byte.
var traceGolden = map[string]string{
	"WH/det":          "b0737270f4e8deb0bededcb359d59acc7f66f618d7d8f96fba3286c60b4fa3a7",
	"WH/faulty":       "f353410482b88dfc8a5174124920c93119a4d1c19ee3f4bce4b6f7beeeba1d35",
	"BLESS/det":       "58401e62394e74a12df7d6448339e9765c292a63dd90fec4d6648fbab18459ac",
	"BLESS/faulty":    "fa0f5ca887fbe273366abfbdcd162bbb64325b8a3ae3af2eed207a83ce4209e2",
	"Surf/det":        "754ecfbbf50c8d3b88e970ae068a2f6e4416fc4f5fbcb6ccfe1fd83395a47c92",
	"Surf/faulty":     "fa565a0904c0359fad90710e3dbae55c305e1dedf07fd20650e57ea51d9c7d52",
	"SB/det":          "ec408ebeae91d84a61b2e1e78a1607b011ee69c7d07d0c8373c07235292bca5f",
	"SB/faulty":       "f2f81cf446becbd204ce1fb5b3dd4cf1fdb0961502f3a0d92f131b81561dfabe",
	"CHIPPER/det":     "432bbebc094e25615988297739ea00a37d4207e9596a648338617a8e8600d56c",
	"CHIPPER/faulty":  "58f521fcae6e7dcbfeb81a920a4e6990af2605f63f15825c6e00198184d49af3",
	"RUNAHEAD/det":    "2d6dd08acd1e1c6d1fa03f70a81e9927a59b6493315796db54869590d77d90e2",
	"RUNAHEAD/faulty": "091c34c31b4a62df2af7c38568fa5c03dd7292de93d35e75bbc9d870e4f83a1f",
}

func TestTraceGolden(t *testing.T) {
	for _, model := range allModels {
		for _, in := range []struct {
			name string
			o    Options
		}{
			{"det", determinismOptions(model, 7)},
			{"faulty", faultyOptions(model, 1)},
		} {
			key := model.String() + "/" + in.name
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(traceCSV(t, in.o)))); got != traceGolden[key] {
				t.Errorf("%s: trace digest %s, want %s", key, got, traceGolden[key])
			}
		}
	}
}

// observerGolden pins the SHA-256 of the three outputs of a run tapped
// by a 100-cycle probe.Series and a trace.Perfetto, for every model on
// the determinism options and a fault plan: the series JSONL, the
// heatmap CSV and the closed Chrome-trace JSON.  The digests were
// recorded when the series and heatmaps were folded inside the probe
// ring itself, so they prove that moving them into a tap, and sizing
// router segments to one drain, left every byte unchanged.
var observerGolden = map[string][3]string{
	"WH/det":          {"6074996c4e23640a303bd16905814eb72b14e9f7943bb0947d8b3544ac54be30", "68df08b9f5ac130e320bbcba5c16d689150be60dca7750d03bc122396c5f5e95", "03825fa6d90f3d7cadd3db30e97a8ed49e7541f62a4d0e75eae8a0090fb04c45"},
	"WH/faulty":       {"d4fa7b8d469629eb08706ed828763185bb12dd8095bda7bbf971eff875fc90f7", "0b8b1811277fbe3642c4758b4dbe32e377ba52c9e6cc528bf1023bbc3bd59180", "aefb70d785ff6bf3506e3c570e31f05d24fe093e8896ce0317e07dae6d2a55a8"},
	"BLESS/det":       {"371acb8ef56eae571afb880cd9be2ecd39c3e0343dcaf9804cd79636b6c4aecf", "8476ae9c206555e701f36f368b0fdcb49e091a00f328dffaaad30a79baf09ff8", "2c6f7149c50a9c135733b19d4f4e905c8c55912b6ccf1bf24dc1b6dc94d95309"},
	"BLESS/faulty":    {"fa848d52052cd165a687874143199b4278f00524fa62fcab0caed4b2034844bb", "8ad6b1bb11b34c883ea29e75af737848bfef24674019af00c549804770a5e0b0", "8f5a5d2b9bb9528273d9f5fd7ed901b134216eaa9d45a04a649b97a733b2ebda"},
	"Surf/det":        {"dee62d42a8174ca58def800b095af2690bdd012c558fedb57c21fbc1ac5f8996", "68df08b9f5ac130e320bbcba5c16d689150be60dca7750d03bc122396c5f5e95", "c8a812f0c583c365eca0b1c7216617a5b9a3087e6e13fa09ad0e28a6ecca8c7c"},
	"Surf/faulty":     {"a8d5af9467ee1eb3ea383a00d11a1f8f8f417e59a38cf022b34f6dd16e171de0", "0b8b1811277fbe3642c4758b4dbe32e377ba52c9e6cc528bf1023bbc3bd59180", "38f428fc0445c18425e4fe4f1f84c946313b8f007fdd9482ac2751a3f811f8c1"},
	"SB/det":          {"c6f63f6ba41289b6705c627317c7abb0fd37d68195843fd5c6629605d0c26f14", "bdda1953583e4ef964b3845d2db32f203ac50fcece1edb82f70df46b1061e679", "605169ef5b961becfa69be1cc690caf9bd6497fc2d313ae93b2a9ff7a8cac174"},
	"SB/faulty":       {"8c79b49ba6405238c01df3058f731c82168e0be4a5f884f5caf424c1541c82c2", "64b65c06f4f9a7fb650d13560b3828082f23b2e58858082d753c1ccac60562aa", "3a56ef3ee9452a4e7bd282b8528e34362b5ee5919686d76b2757591343689cd7"},
	"CHIPPER/det":     {"b6f1d3942d123e2180e9189a0ac67a600931d218cec3a78670b33f9686dbc6cd", "a1d4f05f86204f0b53495afa0499c3e9b24e5e5a96b7b47bad854ef07e0c9019", "6ae39ef21e0c0dbfc0194fa34c53057b3be3835ae50f3390dc96fd55d05756af"},
	"CHIPPER/faulty":  {"abb008cc20f1bdfeec79eb65492b8347f5b1684645cd1b16ea6fd68c72a88b39", "d2fae55c2c2a7918dce1f36e4904cf56f598d8d942d7935a6a9baeef253d6685", "b20411409de67d0230b82c45c87363916c36107776d1c2110d774eb03c9acc46"},
	"RUNAHEAD/det":    {"6b5ded867b438987a6cb67d71b686d009fb42652efe2c11dc186ecb130765183", "c97521e286908066637b47d9a9541e8f841a712908e8a5f45b95c4d5b30a50aa", "877c723901210bbfef13f5dec3cb00d2495c2f5f56890fee107d4da47ae6fed8"},
	"RUNAHEAD/faulty": {"6d52a02b64f451b3036e4467aa6c60273bef8b0d6432e9dec57b319b9cf45ed9", "fe021fc4d1087420a997543395121994d56ddf968e057e923d2677fcf47f739f", "23107abc88a46ed308d14e99cd3095002967343f2413a4951d880cccdf82a9b4"},
}

func TestObserverGolden(t *testing.T) {
	for _, model := range allModels {
		for _, in := range []struct {
			name string
			o    Options
		}{
			{"det", determinismOptions(model, 7)},
			{"faulty", faultyOptions(model, 1)},
		} {
			key := model.String() + "/" + in.name
			series := probe.NewSeries(100)
			var ts, heat, spans strings.Builder
			pf := trace.NewPerfetto(&spans)
			o := in.o
			o.Taps = []probe.Tap{series, pf}
			if _, err := Run(o); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if err := pf.Close(); err != nil {
				t.Fatal(err)
			}
			if err := series.WriteTimeSeriesJSONL(&ts); err != nil {
				t.Fatal(err)
			}
			if err := series.WriteHeatmapCSV(&heat); err != nil {
				t.Fatal(err)
			}
			for i, out := range []string{ts.String(), heat.String(), spans.String()} {
				if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != observerGolden[key][i] {
					t.Errorf("%s: %s digest %s, want %s", key, []string{"series", "heatmap", "spans"}[i], got, observerGolden[key][i])
				}
			}
		}
	}
}

// TestShardedTraceMatchesSerial: the trace CSV prints each packet's
// hop and deflection counts, so at Shards=4 it must still equal the
// serial trace byte for byte on every model — the counts an event
// carries are those of its own moment, not of the end-of-cycle replay.
func TestShardedTraceMatchesSerial(t *testing.T) {
	for _, model := range allModels {
		o := determinismOptions(model, 7)
		serial := traceCSV(t, o)
		o.Shards = 4
		if sharded := traceCSV(t, o); sharded != serial {
			a, b := strings.Split(serial, "\n"), strings.Split(sharded, "\n")
			for i := range min(len(a), len(b)) {
				if a[i] != b[i] {
					t.Errorf("%v: trace line %d differs: serial %q, sharded %q", model, i+1, a[i], b[i])
					break
				}
			}
			if len(a) != len(b) {
				t.Errorf("%v: %d trace lines serial, %d sharded", model, len(a), len(b))
			}
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

// TestFingerprintPinned pins two cache keys recorded before the key
// derivation moved into simcache.KeyOf, so entries already on disk
// under results/.simcache stay reachable.
func TestFingerprintPinned(t *testing.T) {
	for _, c := range []struct {
		o    Options
		want string
	}{
		{determinismOptions(config.SB, 7), "e583c6a120011c2ab765145088c5c7a483b82e772b03c9e9c4719cad8ee2ca03"},
		{faultyOptions(config.RUNAHEAD, 1), "3405ace549705b6054095d9a9a21d25d71d3af2ee4ae5445330e0cd2ca509c25"},
	} {
		k, err := Fingerprint(c.o)
		if err != nil {
			t.Fatal(err)
		}
		if k.String() != c.want {
			t.Errorf("%v: fingerprint %s, want %s", c.o.Cfg.Model, k, c.want)
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
