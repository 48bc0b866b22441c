package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/sim"
	"surfbless/internal/stats"
	"surfbless/internal/system"
	"surfbless/internal/traffic"
)

// digest is the SHA-256 of a result's JSON encoding: equal digests mean
// every simulated statistic is equal.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// simDigest digests a sim.Result, rejecting runs that did not drain.
func simDigest(res sim.Result, err error) (string, error) {
	if err != nil {
		return "", err
	}
	if res.LeftInFlight > 0 {
		return "", fmt.Errorf("%d packets left in flight", res.LeftInFlight)
	}
	return digest(res)
}

// sysDigest digests a system.Result, rejecting unfinished runs.
func sysDigest(res system.Result, err error) (string, error) {
	if err != nil {
		return "", err
	}
	if !res.Finished {
		return "", fmt.Errorf("%s on %v did not finish", res.App, res.Model)
	}
	return digest(res)
}

// shardSetter is the optional fabric interface sim.Run uses to apply
// Options.Shards.
type shardSetter interface {
	SetShards(n int) error
	StopShards()
}

// timedFabric times every Inject the traffic generator makes.
type timedFabric struct {
	network.Fabric
	ns    time.Duration
	calls int64
}

func (f *timedFabric) Inject(node int, p *packet.Packet, now int64) bool {
	t := time.Now()
	ok := f.Fabric.Inject(node, p, now)
	f.ns += time.Since(t)
	f.calls++
	return ok
}

// simTrace is what one traced sim op measured.
type simTrace struct {
	start, built, looped, end time.Time
	shardStart, shardEnd      time.Time // zero when the fabric ignores Shards

	tick, inject, step time.Duration // tick includes inject
	ticks, injects     int64         // generator cycles, Inject calls
	cycles             int64         // Step calls
	linkFlits          int64
	stepNS             []float64 // per-cycle Step time, when kept
}

// tracedSim is a copy of sim.Run's cycle loop built from public calls —
// collector, meter, BuildFabric, SetShards, traffic.New, Tick through a
// timing Fabric wrapper, Step, drain and snapshot — so each layer can be
// timed from outside.  It covers the options the benchmark uses (no
// probe, observers, faults, cancellation, audit, watchdog, recycling or
// custom energy model) and must return exactly what sim.Run returns.
func tracedSim(o sim.Options, keepSteps bool) (res sim.Result, st simTrace, err error) {
	if err := o.Cfg.Validate(); err != nil {
		return res, st, err
	}
	switch {
	case len(o.Sources) != o.Cfg.Domains, o.Measure <= 0, o.Warmup < 0, o.Drain < 0:
		return res, st, fmt.Errorf("traced sim: invalid phases or sources")
	case o.Observed(), o.Ctx != nil, o.Recycle, o.AuditEvery != 0,
		o.WatchdogNoProgress > 0, o.WatchdogMaxAge > 0, o.Coefficients != nil, !o.Cfg.Faults.Empty():
		return res, st, fmt.Errorf("traced sim: options outside the copied loop")
	}
	st.start = time.Now()
	col := stats.NewCollector(o.Cfg.Domains, o.Warmup, o.Warmup+o.Measure)
	meter := power.NewMeter(o.Cfg, power.Default45nm())
	fab, err := sim.BuildFabric(o.Cfg, o.SlotWidths, nil, col, meter)
	if err != nil {
		return res, st, err
	}
	if ss, ok := fab.(shardSetter); ok && o.Shards > 1 {
		st.shardStart = time.Now()
		if err := ss.SetShards(o.Shards); err != nil {
			return res, st, err
		}
		st.shardEnd = time.Now()
		defer ss.StopShards()
	}
	gen := traffic.New(o.Cfg.Mesh(), o.Pattern, o.Sources, o.Seed)
	tf := &timedFabric{Fabric: fab}
	genEnd, drainEnd := o.Warmup+o.Measure, o.Warmup+o.Measure+o.Drain
	if keepSteps {
		st.stepNS = make([]float64, 0, drainEnd)
	}
	now := int64(0)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("traced sim: fabric panic at cycle %d: %v", now, r)
		}
	}()
	st.built = time.Now()
	for ; now < genEnd; now++ {
		a := time.Now()
		gen.Tick(tf, now)
		b := time.Now()
		fab.Step(now)
		d := time.Since(b)
		st.tick += b.Sub(a)
		st.step += d
		if keepSteps {
			st.stepNS = append(st.stepNS, float64(d))
		}
	}
	for ; now < drainEnd && fab.InFlight() > 0; now++ {
		b := time.Now()
		fab.Step(now)
		d := time.Since(b)
		st.step += d
		if keepSteps {
			st.stepNS = append(st.stepNS, float64(d))
		}
	}
	st.looped = time.Now()
	st.ticks, st.cycles = genEnd, now
	st.inject, st.injects = tf.ns, tf.calls
	_, _, _, _, st.linkFlits = meter.Counts()

	// The snapshot sim.Run takes of a run that was not cut short.
	res = sim.Result{
		Domains:        make([]stats.Domain, o.Cfg.Domains),
		LatencyP50:     make([]int64, o.Cfg.Domains),
		LatencyP99:     make([]int64, o.Cfg.Domains),
		Total:          col.Total(),
		Energy:         meter.Report(now),
		Cycles:         now,
		MeasuredCycles: max(0, min(now, o.Warmup+o.Measure)-o.Warmup),
		Nodes:          o.Cfg.Nodes(),
		LeftInFlight:   fab.InFlight(),
	}
	for d := 0; d < o.Cfg.Domains; d++ {
		res.Domains[d] = col.Domain(d)
		res.LatencyP50[d] = col.Latency(d).Percentile(0.5)
		res.LatencyP99[d] = col.Latency(d).Percentile(0.99)
	}
	if err := col.Err(); err != nil {
		return sim.Result{}, st, err
	}
	st.end = time.Now()
	return res, st, nil
}

// record writes one traced sim op as spans: the op, its build (with
// SetShards inside) and snapshot, plus per-cycle folds for tick, inject
// and step.  suffix tells the serial re-run of a sharded op apart.
func (st *simTrace) record(tr *tracer, suffix string) {
	op := tr.add("sim.op"+suffix, 0, st.start, st.end)
	build := tr.add("fabric.build"+suffix, op, st.start, st.built)
	if !st.shardStart.IsZero() {
		tr.add("shard.setup"+suffix, build, st.shardStart, st.shardEnd)
	}
	tr.add("sim.snapshot"+suffix, op, st.looped, st.end)
	tr.fold(fold{Parent: op, Name: "traffic.tick" + suffix, Count: st.ticks,
		SumNS: int64(st.tick), SelfNS: int64(st.tick - st.inject)})
	tr.fold(fold{Parent: op, In: "traffic.tick" + suffix, Name: "fabric.inject" + suffix,
		Count: st.injects, SumNS: int64(st.inject), SelfNS: int64(st.inject)})
	step := fold{Parent: op, Name: "fabric.step" + suffix, Count: st.cycles,
		SumNS: int64(st.step), SelfNS: int64(st.step)}
	if len(st.stepNS) > 0 {
		s := append([]float64(nil), st.stepNS...)
		sort.Float64s(s)
		p50, _ := quantile(s, 0.50)
		p99, _ := quantile(s, 0.99)
		step.P50NS, step.P99NS = int64(p50), int64(p99)
	}
	tr.fold(step)
}
