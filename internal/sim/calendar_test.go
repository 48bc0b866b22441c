package sim

import (
	"slices"
	"testing"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/probe"
	"surfbless/internal/stats"
	"surfbless/internal/traffic"
)

// activeFabric is a fabric whose kernel lists the routers each tile
// visited in the cycle last stepped (router.Kernel.Active).
type activeFabric interface {
	Fabric
	Active(tile int) []int
}

func buildActive(t *testing.T, cfg config.Config) activeFabric {
	t.Helper()
	col := stats.NewCollector(cfg.Domains, 0, 0)
	fab, err := BuildFabric(cfg, nil, nil, col, power.NewMeter(cfg, power.Default45nm()))
	if err != nil {
		t.Fatal(err)
	}
	return fab.(activeFabric)
}

// eventTap keeps a copy of every event, router events included.
type eventTap []probe.Event

func (e *eventTap) Arm(probe.Config) bool       { return true }
func (e *eventTap) Consume(batch []probe.Event) { *e = append(*e, batch...) }

// TestIdleFabricVisitsNoRouter checks that a fabric with nothing queued
// or in flight steps without visiting a router.
func TestIdleFabricVisitsNoRouter(t *testing.T) {
	for _, model := range allModels {
		cfg := config.Default(model)
		cfg.Width, cfg.Height = 4, 4
		fab := buildActive(t, cfg)
		for now := int64(0); now < 50; now++ {
			fab.Step(now)
			if got := fab.Active(0); len(got) != 0 {
				t.Fatalf("%v: idle cycle %d visited %v", model, now, got)
			}
		}
	}
}

// TestActiveFollowsPacket sends one packet across an idle 4×4 mesh and
// checks that every cycle visits exactly the routers that queue, hold
// or receive part of it: the source while its NI queues the packet,
// each router on its path from the cycle the packet arrives until the
// cycle it leaves, and on WH/Surf the router each credit returns to.
// A RUNAHEAD source is also visited when its retransmission timer falls
// due.  The path and its cycles come from the probe's events.
func TestActiveFollowsPacket(t *testing.T) {
	const cycles = 80
	for _, model := range allModels {
		cfg := config.Default(model)
		cfg.Width, cfg.Height = 4, 4
		cfg.Domains = 2
		mesh := cfg.Mesh()
		fab := buildActive(t, cfg)
		var evs eventTap
		var pr probe.Probe
		pr.Arm(probe.Config{Mesh: mesh, Domains: cfg.Domains}, &evs)
		fab.SetProbe(&pr)

		src, dst := 0, mesh.Nodes()-1
		p := packet.New(1, mesh.CoordOf(src), mesh.CoordOf(dst), 1, packet.Ctrl, 0)
		if !fab.Inject(src, p, 0) {
			t.Fatalf("%v: offer refused", model)
		}
		visited := make([][]int, cycles)
		for now := int64(0); now < cycles; now++ {
			fab.Step(now)
			visited[now] = slices.Clone(fab.Active(0))
		}
		pr.Flush()

		hop := int64(cfg.HopDelay())
		if model == config.RUNAHEAD {
			hop = 1
		}
		want := make([]map[int]bool, cycles)
		for c := range want {
			want[c] = map[int]bool{}
		}
		add := func(node int, from, to int64) {
			for c := from; c <= to && c < cycles; c++ {
				want[c][node] = true
			}
		}
		// A departure is a link traversal out of a router or the
		// ejection at the destination.
		type departure struct {
			node  int
			cycle int64
		}
		var deps []departure
		injected, ejected := int64(-1), int64(-1)
		for _, e := range evs {
			switch e.Kind {
			case probe.KindInjected:
				injected = e.Cycle
			case probe.KindEjected:
				ejected = e.Cycle
				deps = append(deps, departure{int(e.Node), e.Cycle})
			case probe.KindLinkBusy, probe.KindDeflect:
				deps = append(deps, departure{int(e.Node), e.Cycle})
			}
		}
		if injected < 0 || ejected < 0 {
			t.Fatalf("%v: packet injected at %d, ejected at %d within %d cycles", model, injected, ejected, cycles)
		}
		add(src, 0, injected)
		for _, d := range deps {
			if d.node == dst && d.cycle == ejected {
				continue
			}
			e := slices.IndexFunc(evs, func(e probe.Event) bool {
				return (e.Kind == probe.KindLinkBusy || e.Kind == probe.KindDeflect) && int(e.Node) == d.node && e.Cycle == d.cycle
			})
			next := mesh.ID(mesh.CoordOf(d.node).Add(geom.Dir(evs[e].Dir)))
			arrive := d.cycle + hop
			leave := int64(-1)
			for _, l := range deps {
				if l.node == next && l.cycle >= arrive && (leave < 0 || l.cycle < leave) {
					leave = l.cycle
				}
			}
			if leave < 0 {
				t.Fatalf("%v: the packet never left node %d after arriving at %d", model, next, arrive)
			}
			add(next, arrive, leave)
			if model == config.WH || model == config.Surf {
				add(d.node, leave+1, leave+1) // the credit of the freed buffer slot
			}
		}
		if model == config.RUNAHEAD {
			add(src, injected+32, injected+32) // retryTimeout on 4×4
		}
		for c := range cycles {
			var exp []int
			for node := range want[c] {
				exp = append(exp, node)
			}
			slices.Sort(exp)
			if !slices.Equal(visited[c], exp) {
				t.Errorf("%v: cycle %d visited %v, want %v", model, c, visited[c], exp)
			}
		}
	}
}

// TestShardedActiveMatchesSerial steps a 32×32 mesh at 0.05 load
// serially and as four tiles, in lockstep on the same traffic, and
// checks on every cycle that the tiles' Active lists, in tile order,
// are the serial list: each tile visits exactly its share of the
// routers the serial walk visits.
func TestShardedActiveMatchesSerial(t *testing.T) {
	const cycles, tiles = 300, 4
	for _, model := range allModels {
		cfg := config.Default(model)
		cfg.Width, cfg.Height = 32, 32
		cfg.Domains = 2
		serial, sharded := buildActive(t, cfg), buildActive(t, cfg)
		if err := sharded.SetShards(tiles); err != nil {
			t.Fatal(err)
		}
		genS := traffic.New(cfg.Mesh(), traffic.UniformRandom, traffic.EvenSplit(0.05, cfg.Domains), 3)
		genP := traffic.New(cfg.Mesh(), traffic.UniformRandom, traffic.EvenSplit(0.05, cfg.Domains), 3)
		busy := 0
		for now := int64(0); now < cycles; now++ {
			genS.Tick(serial, now)
			genP.Tick(sharded, now)
			serial.Step(now)
			sharded.Step(now)
			var union []int
			for tile := range tiles {
				union = append(union, sharded.Active(tile)...)
			}
			want := serial.Active(0)
			if !slices.Equal(union, want) {
				t.Fatalf("%v: cycle %d: tiles visited %v, serial %v", model, now, union, want)
			}
			busy += len(want)
		}
		sharded.StopShards()
		if busy == 0 {
			t.Errorf("%v: no router was visited in %d cycles", model, cycles)
		}
	}
}
