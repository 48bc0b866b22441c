package main

import (
	"fmt"
	"runtime"
	"time"

	"surfbless/internal/config"
	"surfbless/internal/cpu"
	"surfbless/internal/sim"
	"surfbless/internal/sweepsvc"
	"surfbless/internal/system"
)

// Op sizes.  Each is small enough that a run repeats every op several
// times within its measuring window; the digests in digests.json were
// recorded at these sizes.
const (
	synthCycles = 5000 // measured cycles per synth-8x8 op
	giantCycles = 1000 // measured cycles per giant-32x32 op (≥1000 Steps for p99)
	appInstr    = 800  // instructions per core per fullsys-apps op: experiments' tiny scale

	systemNodes = 64 // routers in system.Run's 8×8 mesh
)

// op is one sim.Run or system.Run call; exactly one of Sim and Sys is
// set.
type op struct {
	Name  string
	Model string
	Sim   *sim.Options
	Sys   *system.Options
}

// simOps expands sweep-style sim ops through sweepsvc.Spec.Options, the
// canonical expansion cmd/sweep uses.
func simOps(workload string, models []string, rates []float64, spec sweepsvc.Spec, shards int) ([]op, error) {
	var ops []op
	for _, m := range models {
		for _, r := range rates {
			spec.Model = m
			o, err := spec.Options(r)
			if err != nil {
				return nil, err
			}
			o.Shards = shards
			ops = append(ops, op{Name: fmt.Sprintf("%s/%s@%.2f", workload, m, r), Model: m, Sim: &o})
		}
	}
	return ops, nil
}

func synthOps(seed int64) ([]op, error) {
	return simOps("synth-8x8", []string{"WH", "Surf", "BLESS", "SB"}, []float64{0.05, 0.15, 0.30},
		sweepsvc.Spec{Domains: 2, Cycles: synthCycles, Seed: seed}, 0)
}

func giantOps(seed int64) ([]op, error) {
	return simOps("giant-32x32", giantModels, []float64{0.05},
		sweepsvc.Spec{Domains: 2, Cycles: giantCycles, Seed: seed, Width: 32, Height: 32}, runtime.NumCPU())
}

func appOps(seed int64) ([]op, error) {
	var ops []op
	for _, app := range []string{"swaptions", "x264", "canneal"} {
		prof, err := cpu.ProfileByName(app)
		if err != nil {
			return nil, err
		}
		for _, m := range []config.Model{config.WH, config.Surf, config.SB} {
			ops = append(ops, op{Name: fmt.Sprintf("fullsys-apps/%s/%v", app, m), Model: m.String(),
				Sys: &system.Options{Model: m, App: prof, InstrPerCore: appInstr, Seed: seed}})
		}
	}
	return ops, nil
}

// run executes the op through its public entry point and returns the
// result digest and the router-cycles simulated.
func (o op) run() (string, int64, error) {
	if o.Sim != nil {
		res, err := sim.Run(*o.Sim)
		d, err := simDigest(res, err)
		return d, res.Cycles * int64(res.Nodes), err
	}
	res, err := system.Run(*o.Sys)
	d, err := sysDigest(res, err)
	return d, res.ExecCycles * systemNodes, err
}

// execution is one run of one op, kept for the output check.
type execution struct {
	digest string
	err    error
}

// opBench runs a list of ops in closed batches: each op starts when the
// previous one returns.
type opBench struct {
	ops   []op
	refs  []string // recorded digest per op ("" = cross-check instead)
	giant bool     // traced batches also re-run each op serially
	tr    *tracer
	// clock times ops: process CPU time for single-threaded ops, which
	// leaves out time the hypervisor steals, and wall time for sharded
	// ops, whose CPU time sums the shard workers and so would never
	// credit their parallel speedup.
	clock func() time.Duration

	execs [][]execution     // every execution of every op
	times [][]time.Duration // clock time of every untraced execution
	rc    []int64           // router-cycles per op

	// Traced runs.
	rt           runtimeSample
	rtRC         float64
	baselineTime []time.Duration      // clock time per baseline batch
	tracedTime   []time.Duration      // clock time per traced batch (sharded pass on giant)
	layers       []map[string]float64 // one per traced batch
	steps        map[string][]float64 // per-cycle Step µs by model, all traced batches
}

func newOpBench(ops []op, refs digests, giant bool, tr *tracer) *opBench {
	b := &opBench{ops: ops, giant: giant, tr: tr, clock: cpuTime,
		refs: make([]string, len(ops)), execs: make([][]execution, len(ops)),
		times: make([][]time.Duration, len(ops)), rc: make([]int64, len(ops)), steps: map[string][]float64{}}
	if giant {
		b.clock = wallTime
	}
	for i, o := range ops {
		b.refs[i] = refs.Ops[o.Name]
	}
	return b
}

func (b *opBench) close() error { return nil }

// batch runs every op once.  An untraced batch times each op through its
// public entry point; a baseline batch also accumulates the runtime
// counters over the ops.
func (b *opBench) batch(mode batchMode) error {
	if mode == traced {
		return b.tracedBatch()
	}
	var total time.Duration
	for i, o := range b.ops {
		runtime.GC()
		r0 := readRuntime()
		c0 := b.clock()
		d, rc, err := o.run()
		dt := b.clock() - c0
		if mode == baseline {
			b.rt.add(r0, readRuntime())
			b.rtRC += float64(rc)
		}
		total += dt
		b.execs[i] = append(b.execs[i], execution{d, err})
		b.times[i] = append(b.times[i], dt)
		if err == nil {
			b.rc[i] = rc
		}
	}
	if mode == baseline {
		b.baselineTime = append(b.baselineTime, total)
	}
	return nil
}

// modelAcc accumulates one model's traced step time.
type modelAcc struct {
	step, serialStep time.Duration
	routerCycles     float64
	system           time.Duration
	systemRC         float64
}

// tracedBatch runs every op once with per-layer spans and folds its
// per-layer metrics into b.layers.
func (b *opBench) tracedBatch() error {
	var (
		total                                       time.Duration
		tickSelf, inject                            time.Duration
		ticks, injects, cycles, linkFlits           int64
		build, shardSetup, step                     time.Duration
		builds, shardSetups                         int
		defl, ejected, packets, execCycles, missSum float64
		sysOps                                      int
	)
	models := map[string]*modelAcc{}
	acc := func(m string) *modelAcc {
		if models[m] == nil {
			models[m] = &modelAcc{}
		}
		return models[m]
	}
	for i, o := range b.ops {
		runtime.GC()
		a := acc(o.Model)
		if o.Sys != nil {
			c0, t0 := b.clock(), time.Now()
			res, err := system.Run(*o.Sys)
			t1, c1 := time.Now(), b.clock()
			b.tr.add("system.run", 0, t0, t1)
			d, err := sysDigest(res, err)
			b.execs[i] = append(b.execs[i], execution{d, err})
			total += c1 - c0
			a.system += t1.Sub(t0)
			a.systemRC += float64(res.ExecCycles * systemNodes)
			packets += float64(res.Total.Ejected)
			execCycles += float64(res.ExecCycles)
			missSum += res.L1MissRate
			sysOps++
			continue
		}
		c0 := b.clock()
		res, st, err := tracedSim(*o.Sim, b.giant)
		total += b.clock() - c0
		d, err := simDigest(res, err)
		b.execs[i] = append(b.execs[i], execution{d, err})
		if err != nil {
			continue
		}
		st.record(b.tr, "")
		tickSelf += st.tick - st.inject
		inject += st.inject
		ticks += st.ticks
		injects += st.injects
		cycles += st.cycles
		linkFlits += st.linkFlits
		build += st.built.Sub(st.start)
		builds++
		if !st.shardStart.IsZero() {
			shardSetup += st.shardEnd.Sub(st.shardStart)
			shardSetups++
		}
		step += st.step
		defl += float64(res.Total.Deflections)
		ejected += float64(res.Total.Ejected)
		a.step += st.step
		a.routerCycles += float64(st.cycles) * float64(res.Nodes)
		for _, ns := range st.stepNS {
			b.steps[o.Model] = append(b.steps[o.Model], ns/1e3)
		}
		if b.giant {
			// The same op stepped serially: shard.<model>.speedup.
			serial := *o.Sim
			serial.Shards = 0
			res, sst, err := tracedSim(serial, false)
			d, err := simDigest(res, err)
			b.execs[i] = append(b.execs[i], execution{d, err})
			if err != nil {
				continue
			}
			sst.record(b.tr, ".serial")
			a.serialStep += sst.step
		}
	}
	b.tracedTime = append(b.tracedTime, total)

	l := map[string]float64{}
	l["traffic.tick_ns_per_cycle"] = ratio(float64(tickSelf), float64(ticks))
	l["traffic.offers_per_cycle"] = ratio(float64(injects), float64(ticks))
	l["fabric.inject_ns"] = ratio(float64(inject), float64(injects))
	l["fabric.build_ms"] = ratio(float64(build)/1e6, float64(builds))
	l["fabric.ns_per_link_flit"] = ratio(float64(step), float64(linkFlits))
	l["fabric.link_flits_per_cycle"] = ratio(float64(linkFlits), float64(cycles))
	l["stats.deflections_per_pkt"] = ratio(defl, ejected)
	l["shard.setup_ms"] = ratio(float64(shardSetup)/1e6, float64(shardSetups))
	l["system.packets_per_kcycle"] = ratio(packets, execCycles/1000)
	l["coherence.l1_miss_rate"] = ratio(missSum, float64(sysOps))
	for _, m := range fabricModels {
		a := acc(m)
		l["fabric."+m+".step_ns_per_router_cycle"] = ratio(float64(a.step), a.routerCycles)
	}
	for _, m := range giantModels {
		a := acc(m)
		l["shard."+m+".speedup"] = ratio(float64(a.serialStep), float64(a.step))
	}
	for _, m := range appModels {
		a := acc(m)
		l["system."+m+".ns_per_router_cycle"] = ratio(float64(a.system), a.systemRC)
	}
	b.layers = append(b.layers, l)
	return nil
}

// verify checks every execution against its op's reference digest and
// returns the op counts.  Without a recorded digest (a seed other than
// the recorded one) the reference is the traced copy of sim.Run, run
// now if no traced batch ran, or the first of the repeated system.Run
// calls.
func (b *opBench) verify() (attempted, failed int, errs []error) {
	for i, o := range b.ops {
		ref := b.refs[i]
		if ref == "" && o.Sim != nil {
			res, _, err := tracedSim(*o.Sim, false)
			attempted++
			if ref, err = simDigest(res, err); err != nil {
				failed++
				errs = append(errs, fmt.Errorf("%s: reference copy: %w", o.Name, err))
			}
		}
		if ref == "" && o.Sys != nil && len(b.execs[i]) > 0 {
			ref = b.execs[i][0].digest
		}
		for _, e := range b.execs[i] {
			attempted++
			switch {
			case e.err != nil:
				failed++
				errs = append(errs, fmt.Errorf("%s: %w", o.Name, e.err))
			case e.digest != ref:
				failed++
				errs = append(errs, fmt.Errorf("%s: digest %.12s, reference %.12s", o.Name, e.digest, ref))
			}
		}
	}
	return attempted, failed, errs
}

// endToEnd reports throughput over each op's median clock time.
func (b *opBench) endToEnd(out map[string]float64) {
	var rc, secs float64
	for i := range b.ops {
		rc += float64(b.rc[i])
		secs += medianDur(b.times[i]).Seconds()
	}
	out["router_cycles_per_s"] = ratio(rc, secs)
	out["points_per_s"] = ratio(float64(len(b.ops)), secs)
}

// perLayer reports the median of each per-layer metric over the traced
// batches, percentiles over their pooled samples, the runtime counters
// of the untraced batches and the tracing overhead.
func (b *opBench) perLayer(out map[string]float64) {
	for k := range b.layers[0] {
		xs := make([]float64, len(b.layers))
		for i, l := range b.layers {
			xs[i] = l[k]
		}
		out[k] = median(xs)
	}
	if b.giant {
		for _, m := range giantModels {
			percentiles(out, "fabric."+m+".step_us", b.steps[m], map[string]float64{"p50": 0.50, "p99": 0.99})
		}
	}
	b.rt.fill(out, b.rtRC)
	out["trace.overhead"] = ratio(float64(medianDur(b.tracedTime)), float64(medianDur(b.baselineTime)))
}
