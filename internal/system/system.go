// Package system is the full-system simulator behind Figs. 8–10: 64
// in-order cores with private L1s, 64 address-interleaved shared L2
// banks with the MESI directory, four corner memory controllers, all
// communicating over one of the WH / Surf / SB networks through three
// virtual networks (one 1-flit control, two 5-flit data; §5.2).
//
// Virtual networks map one-to-one onto interference domains: WH binds
// them to per-VNet VCs, Surf to per-domain VCs plus wave gating, and SB
// to the paper's wave sets — data VNets get three aligned 5-wave
// windows each, control the remaining waves — which is exactly how the
// paper removes the request/reply protocol-deadlock cycle on a
// bufferless NoC.  BLESS cannot carry multi-flit classes and is
// excluded, as in the paper.
package system

import (
	"fmt"

	"surfbless/internal/coherence"
	"surfbless/internal/config"
	"surfbless/internal/cpu"
	"surfbless/internal/dueq"
	"surfbless/internal/geom"
	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/router/surf"
	"surfbless/internal/router/surfbless"
	"surfbless/internal/router/wormhole"
	"surfbless/internal/stats"
	"surfbless/internal/traffic"
)

// Options configures one full-system run.
type Options struct {
	Model config.Model
	App   cpu.Profile

	// InstrPerCore is each core's instruction quota.
	InstrPerCore int64
	// MaxCycles bounds the run (0 = a generous default).
	MaxCycles int64

	Seed int64

	// L2Latency and DRAMLatency are the bank and memory service times in
	// cycles (defaults: 6 and 80).
	L2Latency   int64
	DRAMLatency int64

	// Coefficients overrides the energy model (nil = Default45nm).
	Coefficients *power.Coefficients

	// WaveSets overrides the SB wave assignment (nil = the tuned
	// waveSetsFor placement).  The wave-placement ablation passes
	// PaperWaveSets().
	WaveSets [][]int
}

// Result is one full-system run's outcome.
type Result struct {
	App   string
	Model config.Model

	// ExecCycles is the application execution time: the cycle at which
	// the last core retired its final instruction (Fig. 8).
	ExecCycles int64
	Finished   bool

	// Per-virtual-network and total packet statistics (Fig. 9 uses the
	// queue/network latency breakdown of Total).
	VNets []stats.Domain
	Total stats.Domain

	Energy power.Energy // Fig. 10 breakdown

	L1MissRate float64
	MemReads   int64
}

// waveSetsFor builds the §5.2-style wave assignment for Smax waves and
// hop delay P: each data virtual network receives three 5-wave worm
// windows, the control network owns every remaining wave.
//
// The paper hand-picks {0–4},{15–19},{30–34} / {7–11},{22–26},{37–41}.
// This reproduction places the windows at multiples of 2·P instead
// (P = 3 ⇒ data0 {0–4},{12–16},{24–28}, data1 {6–10},{18–22},{30–34}).
// The placement matters enormously: the SE scheduler trails the N
// scheduler by 2·P·y at row y, so a worm travelling north on wave s can
// hop onto the south-east wave — to turn or to eject — only at rows
// where s − 2·P·y is again a window start.  With the paper's stride 15
// (not a multiple of 2·P = 6) that happens only at the mesh border,
// and every north/west-destined worm detours to row/column 0 or 7;
// with stride 2·P, turn rows exist every couple of rows and the
// deflection detour shrinks dramatically.  PaperWaveSets returns the
// literal published assignment so the ablation bench can quantify the
// difference.
func waveSetsFor(smax, hopDelay int) [][]int {
	stride := 2 * hopDelay
	if stride <= coherence.DataFlits {
		panic(fmt.Sprintf("system: stride %d cannot hold a %d-flit worm window plus a gap", stride, coherence.DataFlits))
	}
	if smax < 6*stride {
		panic(fmt.Sprintf("system: Smax %d too small for two data VNets (need ≥ %d)", smax, 6*stride))
	}
	var data0, data1 []int
	for k := 0; k < 3; k++ {
		data0 = append(data0, window(2*k*stride)...)
		data1 = append(data1, window((2*k+1)*stride)...)
	}
	owned := make(map[int]bool)
	for _, w := range append(append([]int{}, data0...), data1...) {
		owned[w] = true
	}
	var ctrl []int
	for w := 0; w < smax; w++ {
		if !owned[w] {
			ctrl = append(ctrl, w)
		}
	}
	// Order: domain index == virtual network (0 ctrl, 1 and 2 data).
	return [][]int{ctrl, data0, data1}
}

// PaperWaveSets returns the paper's literal §5.2 assignment for
// Smax = 42 — data VNets on {0–4},{15–19},{30–34} and {7–11},{22–26},
// {37–41}, control on the rest — used by the wave-placement ablation.
func PaperWaveSets() [][]int {
	var data0, data1 []int
	for _, s := range []int{0, 15, 30} {
		data0 = append(data0, window(s)...)
	}
	for _, s := range []int{7, 22, 37} {
		data1 = append(data1, window(s)...)
	}
	owned := make(map[int]bool)
	for _, w := range append(append([]int{}, data0...), data1...) {
		owned[w] = true
	}
	var ctrl []int
	for w := 0; w < 42; w++ {
		if !owned[w] {
			ctrl = append(ctrl, w)
		}
	}
	return [][]int{ctrl, data0, data1}
}

func window(start int) []int {
	ws := make([]int, coherence.DataFlits)
	for i := range ws {
		ws[i] = start + i
	}
	return ws
}

// cfgFor returns the §5.2 network configuration for the model.
func cfgFor(model config.Model) (config.Config, error) {
	switch model {
	case config.WH, config.Surf, config.SB:
	default:
		return config.Config{}, fmt.Errorf("system: model %v does not support the multi-class cache traffic (§5.2)", model)
	}
	cfg := config.Default(model)
	cfg.Domains = coherence.NumVNets
	cfg.InjectionVCDepth = coherence.DataFlits // injection VCs must hold a worm
	if model == config.SB {
		cfg.WaveSets = waveSetsFor(cfg.Smax(), cfg.HopDelay())
	}
	// Surf keeps the default round-robin wave→domain decoding.  Two
	// alternatives were measured and rejected: SB-style sparse worm
	// windows (halves the data domains' slot share; exec +39%) and
	// block-cyclic 5-wave runs (helps data tails but taxes control
	// packets; exec +2.5% net).  The remaining Surf cost relative to
	// the paper — per-flit TDM limits each domain to 1/D of the NI and
	// link bandwidth, which latency-sensitive blocking cores amplify —
	// is recorded in EXPERIMENTS.md.
	return cfg, nil
}

// buildFabric instantiates the §5.2 network for the configuration.
func buildFabric(cfg config.Config, col *stats.Collector, meter *power.Meter, sink network.Sink) (network.Fabric, error) {
	switch cfg.Model {
	case config.WH:
		return wormhole.New(wormhole.Options{
			Cfg: cfg,
			VCs: wormhole.VNetVCs(cfg),
			Key: wormhole.KeyVNet,
		}, sink, col, meter)
	case config.Surf:
		return surf.New(cfg, sink, col, meter)
	default:
		return surfbless.New(cfg, []int{1, coherence.DataFlits, coherence.DataFlits}, sink, col, meter)
	}
}

// Run executes one full-system simulation.
func Run(o Options) (Result, error) {
	if o.InstrPerCore < 1 {
		return Result{}, fmt.Errorf("system: InstrPerCore = %d", o.InstrPerCore)
	}
	if err := o.App.Validate(); err != nil {
		return Result{}, err
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 200 * o.InstrPerCore // generous: CPI 200 ceiling
	}
	if o.L2Latency == 0 {
		o.L2Latency = 6
	}
	if o.DRAMLatency == 0 {
		o.DRAMLatency = 80
	}
	co := power.Default45nm()
	if o.Coefficients != nil {
		co = *o.Coefficients
	}

	cfg, err := cfgFor(o.Model)
	if err != nil {
		return Result{}, err
	}
	if o.WaveSets != nil && o.Model == config.SB {
		cfg.WaveSets = o.WaveSets
	}
	s := &sys{opt: o, cfg: cfg}
	s.col = stats.NewCollector(coherence.NumVNets, 0, 0)
	s.meter = power.NewMeter(cfg, co)
	s.fab, err = buildFabric(cfg, s.col, s.meter, s.sink)
	if err != nil {
		return Result{}, err
	}
	s.build()

	return s.run()
}

// sys holds one run's live state.
type sys struct {
	opt   Options
	cfg   config.Config
	fab   network.Fabric
	col   *stats.Collector
	meter *power.Meter

	mesh  geom.Mesh
	cores []*cpu.Core
	l1s   []*coherence.L1
	l2s   []*coherence.L2
	mcs   []*coherence.MC // nil for non-corner nodes
	mcIDs []int

	// outbox[node][vnet] holds protocol messages awaiting injection;
	// per-vnet queues so a full data NI queue cannot block control
	// messages (and vice versa).
	outbox [][][]*coherence.Msg
	// loopback delivers node-local messages (L1→own L2 bank) one cycle
	// later without touching the network, uniformly across models.
	loopback dueq.Queue[*coherence.Msg]
	ids      packet.IDSource
	now      int64
}

func (s *sys) build() {
	s.mesh = s.cfg.Mesh()
	nodes := s.mesh.Nodes()
	homeOf := func(block uint64) int { return int(block % uint64(nodes)) }
	s.mcIDs = coherence.CornerMCs(s.cfg.Width, s.cfg.Height)
	mcSet := make(map[int]int, len(s.mcIDs))
	for i, id := range s.mcIDs {
		mcSet[id] = i
	}
	mcOf := func(block uint64) int { return s.mcIDs[int(block>>4)%len(s.mcIDs)] }

	s.outbox = make([][][]*coherence.Msg, nodes)
	s.l1s = make([]*coherence.L1, nodes)
	s.l2s = make([]*coherence.L2, nodes)
	s.mcs = make([]*coherence.MC, nodes)
	s.cores = make([]*cpu.Core, nodes)
	for n := 0; n < nodes; n++ {
		n := n
		s.outbox[n] = make([][]*coherence.Msg, coherence.NumVNets)
		send := func(m *coherence.Msg, now int64) { s.post(m, now) }
		s.l1s[n] = coherence.NewL1(n, 32*1024, 16, 4, homeOf, send) // Table 1: 32 KB I/D L1
		s.l2s[n] = coherence.NewL2(n, 256*1024, 16, 8, s.opt.L2Latency, mcOf, send)
		if _, ok := mcSet[n]; ok {
			s.mcs[n] = coherence.NewMC(n, s.opt.DRAMLatency, send)
		}
		s.cores[n] = cpu.NewCore(n, s.opt.App, s.opt.InstrPerCore, s.opt.Seed, s.l1s[n])
	}
}

// post queues a protocol message for transmission.
func (s *sys) post(m *coherence.Msg, now int64) {
	if m.From == m.To {
		// Node-local hop: bypass the network with a one-cycle loopback.
		s.loopback.Push(m, now+1)
		return
	}
	vn := m.Type.VNet()
	s.outbox[m.From][vn] = append(s.outbox[m.From][vn], m)
}

// drainOutboxes injects as many pending messages as the NIs accept.
func (s *sys) drainOutboxes(now int64) {
	for n := range s.outbox {
		for vn := range s.outbox[n] {
			q := s.outbox[n][vn]
			for len(q) > 0 {
				m := q[0]
				p := packet.New(traffic.PacketID(n, vn, uint64(s.ids.Next())),
					s.mesh.CoordOf(m.From), s.mesh.CoordOf(m.To), vn, classOf(m.Type), now)
				p.VNet = vn
				p.Msg = m
				if !s.fab.Inject(n, p, now) {
					break
				}
				q = q[1:]
			}
			s.outbox[n][vn] = q
		}
	}
}

func classOf(t coherence.MsgType) packet.Class {
	if t.Flits() == 1 {
		return packet.Ctrl
	}
	return packet.Data
}

// sink receives ejected packets and hands them to the local engines.
func (s *sys) sink(node int, p *packet.Packet, now int64) {
	s.deliver(node, p.Msg.(*coherence.Msg), now)
}

func (s *sys) deliver(node int, m *coherence.Msg, now int64) {
	switch m.Type {
	case coherence.Data, coherence.Grant, coherence.Inv, coherence.Recall:
		s.l1s[node].Deliver(m, now)
	case coherence.MemRead, coherence.MemWB:
		if s.mcs[node] == nil {
			panic(fmt.Sprintf("system: %v addressed to non-MC node %d", m, node))
		}
		s.mcs[node].Deliver(m, now)
	default:
		s.l2s[node].Deliver(m, now)
	}
}

func (s *sys) run() (Result, error) {
	var execDone int64 = -1
	for s.now = 0; s.now < s.opt.MaxCycles; s.now++ {
		now := s.now
		// Local loopback deliveries due this cycle, in posting order.
		// Delivering can post fresh loopback messages (an L1 fill may
		// evict and write back to its own bank); those fall due next
		// cycle.
		for m, ok := s.loopback.PopDue(now); ok; m, ok = s.loopback.PopDue(now) {
			s.deliver(m.To, m, now)
		}
		done := true
		for n, core := range s.cores {
			core.Tick(now)
			done = done && core.Done()
			s.l2s[n].Tick(now)
			if s.mcs[n] != nil {
				s.mcs[n].Tick(now)
			}
		}
		if done && execDone < 0 {
			execDone = now
		}
		s.drainOutboxes(now)
		s.fab.Step(now)
		if done && s.quiescent() {
			s.now++
			break
		}
	}

	res := Result{
		App:        s.opt.App.Name,
		Model:      s.opt.Model,
		ExecCycles: execDone,
		Finished:   execDone >= 0,
		VNets:      make([]stats.Domain, coherence.NumVNets),
		Total:      s.col.Total(),
		Energy:     s.meter.Report(max(execDone, s.now)),
	}
	for v := 0; v < coherence.NumVNets; v++ {
		res.VNets[v] = s.col.Domain(v)
	}
	var hits, misses, reads int64
	for n := range s.l1s {
		hits += s.l1s[n].Hits
		misses += s.l1s[n].Misses
		if s.mcs[n] != nil {
			reads += s.mcs[n].Reads
		}
	}
	if hits+misses > 0 {
		res.L1MissRate = float64(misses) / float64(hits+misses)
	}
	res.MemReads = reads
	if !res.Finished {
		return res, fmt.Errorf("system: %s on %v did not finish within %d cycles",
			s.opt.App.Name, s.opt.Model, s.opt.MaxCycles)
	}
	return res, nil
}

// quiescent reports whether every queue in the system is empty.
func (s *sys) quiescent() bool {
	if s.fab.InFlight() != 0 || s.loopback.Len() != 0 {
		return false
	}
	for n := range s.outbox {
		for vn := range s.outbox[n] {
			if len(s.outbox[n][vn]) != 0 {
				return false
			}
		}
		if s.l2s[n].Pending() != 0 {
			return false
		}
		if s.mcs[n] != nil && s.mcs[n].Pending() != 0 {
			return false
		}
	}
	return true
}
