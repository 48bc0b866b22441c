package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the simulator sees, printed on
// every workload by an untraced run.
var endToEnd = []metricDef{
	{"router_cycles_per_s", "router-cycles/s", "higher"},
	{"points_per_s", "points/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// Model sets behind the per-model per-layer metrics.
var (
	fabricModels = []string{"WH", "Surf", "BLESS", "SB", "CHIPPER"} // synth ∪ giant
	giantModels  = []string{"WH", "SB", "BLESS", "CHIPPER"}
	appModels    = []string{"WH", "Surf", "SB"}
)

// perLayer lists every metric a traced run prints.  A layer that a
// workload does not exercise reads 0 there (README.md maps each metric
// to its workloads).
func perLayer() []metricDef {
	var ds []metricDef
	add := func(name, unit, better string) { ds = append(ds, metricDef{name, unit, better}) }
	pct := func(name, unit string, qs ...string) {
		for _, q := range qs {
			add(name+"."+q, unit, "lower")
		}
		add(name+".n", "count", "higher")
	}
	add("traffic.tick_ns_per_cycle", "ns/cycle", "lower")
	add("traffic.offers_per_cycle", "offers/cycle", "higher")
	for _, m := range fabricModels {
		add("fabric."+m+".step_ns_per_router_cycle", "ns/router-cycle", "lower")
	}
	for _, m := range giantModels {
		pct("fabric."+m+".step_us", "us", "p50", "p99")
	}
	add("fabric.inject_ns", "ns", "lower")
	add("fabric.build_ms", "ms", "lower")
	add("fabric.ns_per_link_flit", "ns/flit", "lower")
	add("fabric.link_flits_per_cycle", "flits/cycle", "higher")
	add("stats.deflections_per_pkt", "defl/pkt", "lower")
	for _, m := range giantModels {
		add("shard."+m+".speedup", "ratio", "higher")
	}
	add("shard.setup_ms", "ms", "lower")
	for _, m := range appModels {
		add("system."+m+".ns_per_router_cycle", "ns/router-cycle", "lower")
	}
	add("system.packets_per_kcycle", "pkt/kcycle", "higher")
	add("coherence.l1_miss_rate", "ratio", "lower")
	add("runtime.allocs_per_krc", "allocs/krc", "lower")
	add("runtime.bytes_per_krc", "B/krc", "lower")
	add("runtime.gc_cpu_share", "ratio", "lower")
	pct("runtime.sched_latency_us", "us", "p99")
	add("sweepsvc.slot_busy_share", "ratio", "higher")
	pct("sweepsvc.lease_ms", "ms", "p50", "p90")
	for _, rpc := range rpcKinds {
		pct("sweepsvc.rpc_ms."+rpc, "ms", "p50", "p90")
	}
	add("sweepsvc.points_simulated", "count", "lower")
	add("sweepsvc.points_deduped", "count", "higher")
	add("sweepsvc.requeues", "count", "lower")
	add("sweepsvc.wal_bytes", "B", "lower")
	add("simcache.disk_bytes", "B", "lower")
	add("simcache.hit_ratio", "ratio", "higher")
	add("trace.overhead", "ratio", "lower")
	return ds
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted samples and
// whether at least minBeyond samples lie beyond it — the condition for
// reporting that percentile at all.
func quantile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n-rank >= minBeyond
}

// percentiles fills name.<q> and name.n from samples; a percentile
// without minBeyond samples beyond it reads 0.
func percentiles(out map[string]float64, name string, samples []float64, qs map[string]float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	for label, q := range qs {
		if v, ok := quantile(s, q); ok {
			out[name+"."+label] = v
		} else {
			out[name+"."+label] = 0
		}
	}
	out[name+".n"] = float64(len(s))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// ratio divides, reading 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime is the CPU time the process has used so far, user and
// system, over all threads.  Unlike wall time it leaves out the time a
// virtual CPU was stolen by the hypervisor.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processStart anchors wallTime.
var processStart = time.Now()

// wallTime is the monotonic wall-clock time since the process started.
func wallTime() time.Duration { return time.Since(processStart) }

// peakRSSMiB is the process's maximum resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample holds the Go runtime counters the runtime.* metrics are
// derived from: a snapshot, or the growth summed over measured
// intervals.
type runtimeSample struct {
	allocs, bytes   uint64
	gcCPU, totalCPU float64
	sched           []uint64 // /sched/latencies bucket counts
	buckets         []float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	h := ss[4].Value.Float64Histogram()
	return runtimeSample{
		allocs:   ss[0].Value.Uint64(),
		bytes:    ss[1].Value.Uint64(),
		gcCPU:    ss[2].Value.Float64(),
		totalCPU: ss[3].Value.Float64(),
		sched:    append([]uint64(nil), h.Counts...),
		buckets:  h.Buckets,
	}
}

// add accumulates the counters' growth from a to b into d.
func (d *runtimeSample) add(a, b runtimeSample) {
	d.allocs += b.allocs - a.allocs
	d.bytes += b.bytes - a.bytes
	d.gcCPU += b.gcCPU - a.gcCPU
	d.totalCPU += b.totalCPU - a.totalCPU
	if d.sched == nil {
		d.sched = make([]uint64, len(b.sched))
		d.buckets = b.buckets
	}
	for i := range b.sched {
		d.sched[i] += b.sched[i] - a.sched[i]
	}
}

// fill writes the runtime.* metrics for rc router-cycles of work.
func (d *runtimeSample) fill(out map[string]float64, rc float64) {
	out["runtime.allocs_per_krc"] = ratio(float64(d.allocs), rc/1000)
	out["runtime.bytes_per_krc"] = ratio(float64(d.bytes), rc/1000)
	out["runtime.gc_cpu_share"] = ratio(d.gcCPU, d.totalCPU)
	var n uint64
	for _, c := range d.sched {
		n += c
	}
	out["runtime.sched_latency_us.n"] = float64(n)
	out["runtime.sched_latency_us.p99"] = 0
	// Nearest rank over the histogram; a bucket's upper bound stands for
	// its samples.
	rank := uint64(math.Ceil(0.99 * float64(n)))
	if n == 0 || n-rank < minBeyond {
		return
	}
	var cum uint64
	for i, c := range d.sched {
		cum += c
		if cum >= rank {
			hi := d.buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = d.buckets[i]
			}
			out["runtime.sched_latency_us.p99"] = hi * 1e6
			return
		}
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the result line with exactly the metrics in defs; every
// one of them must have been measured.
func emit(w io.Writer, defs []metricDef, vals map[string]float64, attempted, failed int) error {
	r := result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
