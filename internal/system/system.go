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
	"surfbless/internal/wave"
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
	// wave.StrideSets placement).  The wave-placement ablation passes
	// wave.PaperSets.
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
		// Each data VNet gets three aligned worm windows at the tuned
		// 2·P stride (DESIGN.md §6); control owns the other waves.
		sets, err := wave.StrideSets(cfg.Smax(), cfg.HopDelay(), coherence.NumVNets-1, coherence.DataFlits)
		if err != nil {
			return config.Config{}, fmt.Errorf("system: %w", err)
		}
		cfg.WaveSets = sets
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
	s, err := newSys(o)
	if err != nil {
		return Result{}, err
	}
	return s.run()
}

// newSys validates the options and builds the system at cycle 0.
func newSys(o Options) (*sys, error) {
	if o.InstrPerCore < 1 {
		return nil, fmt.Errorf("system: InstrPerCore = %d", o.InstrPerCore)
	}
	if err := o.App.Validate(); err != nil {
		return nil, err
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
		return nil, err
	}
	if o.WaveSets != nil && o.Model == config.SB {
		cfg.WaveSets = o.WaveSets
	}
	s := &sys{opt: o, cfg: cfg}
	s.col = stats.NewCollector(coherence.NumVNets, 0, 0)
	s.meter = power.NewMeter(cfg, co)
	s.fab, err = buildFabric(cfg, s.col, s.meter, s.sink)
	if err != nil {
		return nil, err
	}
	s.build()
	return s, nil
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
	// messages (and vice versa).  posted holds the nodes with a
	// message in some outbox.
	outbox [][coherence.NumVNets]fifo
	posted coherence.NodeSet
	// loopback delivers node-local messages (L1→own L2 bank) one cycle
	// later without touching the network, uniformly across models.
	loopback dueq.Queue[*coherence.Msg]
	ids      packet.IDSource
	free     packet.FreeList // delivered packets, reused by drainOutboxes
	now      int64
}

// fifo is one outbox: a ring over a backing array that grows only when
// full.  A pop nils its slot, so a delivered message is never kept
// reachable by the queue.
type fifo struct {
	buf  []*coherence.Msg
	head int
	n    int
}

func (f *fifo) push(m *coherence.Msg) {
	if f.n == len(f.buf) {
		grown := make([]*coherence.Msg, max(8, 2*len(f.buf)))
		k := copy(grown, f.buf[f.head:])
		copy(grown[k:], f.buf[:f.head])
		f.buf, f.head = grown, 0
	}
	f.buf[(f.head+f.n)%len(f.buf)] = m
	f.n++
}

func (f *fifo) peek() *coherence.Msg { return f.buf[f.head] }

func (f *fifo) pop() {
	f.buf[f.head] = nil
	f.head = (f.head + 1) % len(f.buf)
	f.n--
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

	s.outbox = make([][coherence.NumVNets]fifo, nodes)
	s.l1s = make([]*coherence.L1, nodes)
	s.l2s = make([]*coherence.L2, nodes)
	s.mcs = make([]*coherence.MC, nodes)
	s.cores = make([]*cpu.Core, nodes)
	for n := 0; n < nodes; n++ {
		n := n
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
	s.outbox[m.From][m.Type.VNet()].push(m)
	s.posted.Add(m.From)
}

// drainOutboxes injects as many pending messages as the NIs accept,
// visiting the nodes with posted messages in ascending order.
func (s *sys) drainOutboxes(now int64) {
	for nodes := s.posted; !nodes.Empty(); {
		n := nodes.PopMin()
		empty := true
		for vn := range s.outbox[n] {
			q := &s.outbox[n][vn]
			for q.n > 0 {
				m := q.peek()
				p := s.free.New(traffic.PacketID(n, vn, uint64(s.ids.Next())),
					s.mesh.CoordOf(m.From), s.mesh.CoordOf(m.To), vn, classOf(m.Type), now)
				p.VNet = vn
				p.Msg = m
				if !s.fab.Inject(n, p, now) {
					s.free.Put(p)
					break
				}
				q.pop()
			}
			empty = empty && q.n == 0
		}
		if empty {
			s.posted.Remove(n)
		}
	}
}

func classOf(t coherence.MsgType) packet.Class {
	if t.Flits() == 1 {
		return packet.Ctrl
	}
	return packet.Data
}

// sink receives ejected packets, recycles them and hands their
// messages to the local engines.
func (s *sys) sink(node int, p *packet.Packet, now int64) {
	m := p.Msg.(*coherence.Msg)
	p.Msg = nil
	s.free.Put(p)
	s.deliver(node, m, now)
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
		done := s.cycle(s.now)
		if done && execDone < 0 {
			execDone = s.now
		}
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

// cycle advances the system through cycle now and reports whether
// every core has retired its quota.
func (s *sys) cycle(now int64) bool {
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
	s.drainOutboxes(now)
	s.fab.Step(now)
	return done
}

// quiescent reports whether every queue in the system is empty.
func (s *sys) quiescent() bool {
	if s.fab.InFlight() != 0 || s.loopback.Len() != 0 || !s.posted.Empty() {
		return false
	}
	for n := range s.l2s {
		if s.l2s[n].Pending() != 0 {
			return false
		}
		if s.mcs[n] != nil && s.mcs[n].Pending() != 0 {
			return false
		}
	}
	return true
}
