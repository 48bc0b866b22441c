// Package chipper implements CHIPPER [10], the low-complexity
// bufferless deflection router the paper cites as related work — built
// here as an extension so the reproduction can compare Surf-Bless
// against both bufferless baselines.
//
// CHIPPER replaces BLESS's full crossbar and sequential oldest-first
// port allocation with two hardware tricks:
//
//   - a permutation deflection network: two stages of 2×2 arbiter
//     blocks steer the four in-flight packets toward their preferred
//     quadrant; a packet that loses an arbitration is misrouted by
//     construction (that IS the deflection), so no allocator runs
//     sequentially over ports; and
//   - golden packets for livelock freedom: instead of carrying and
//     comparing ages, one packet class (rotating with a global epoch)
//     has absolute priority and is never deflected, so every packet
//     eventually gets a clear run to its destination.
//
// Mesh borders need a fix-up pass (the original design targets routers
// with all four ports): packets steered at a missing port are
// reassigned to free existing outputs, golden class first.  Packet IDs
// here are dense per source, so the golden class is a residue class of
// the ID space rather than a single transaction id; the livelock
// argument weakens from a guarantee to "with probability 1", which the
// stress tests exercise.
//
// The fabric is a router.Plane: the plane receives, sends and audits,
// and the fabric supplies its arbitration as a resolve root, which the
// kernel steps serially or sharded across node tiles with bit-identical
// results (SetShards; DESIGN.md §17).  The golden epoch is a pure
// function of the cycle, so tiles need no shared arbitration state.
package chipper

import (
	"fmt"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/router"
	"surfbless/internal/stats"
)

// goldenEpoch is the length in cycles of one golden epoch; goldenMod is
// the number of ID residue classes the epoch rotates through.
const (
	goldenEpoch = 64
	goldenMod   = 64
)

// Fabric is a CHIPPER mesh.  It implements network.Fabric.  With
// faults armed (SetFaults) a down link is treated exactly like a
// missing border port — the fix-up pass reassigns its packets — and
// packets that still find no output enter the kernel's
// drop-with-retransmit recovery instead of panicking.
type Fabric struct {
	router.Plane
}

// New builds a CHIPPER mesh for cfg.
func New(cfg config.Config, sink network.Sink, col *stats.Collector, meter *power.Meter) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Model != config.CHIPPER {
		return nil, fmt.Errorf("chipper: config model is %v", cfg.Model)
	}
	f := &Fabric{}
	if err := f.Init(cfg, cfg.HopDelay(), cfg.HopDelay(), sink, col, meter, nil, f.resolveTile); err != nil {
		return nil, err
	}
	return f, nil
}

// golden reports whether p belongs to the current golden class.
func golden(p *packet.Packet, now int64) bool {
	return p.ID%goldenMod == uint64((now/goldenEpoch)%goldenMod)
}

// resolveTile runs the ejection, injection and permutation of one
// tile's active routers, and keeps a router with a queued packet
// awake.
//
//shard:phase(resolve)
func (f *Fabric) resolveTile(t int) {
	fx := &f.FX[t]
	for _, id := range f.Active(t) {
		f.resolveNode(id, f.Nodes[id], f.Now, fx)
		f.Settle(fx, id, false)
	}
}

// prio orders two packets inside an arbiter block: golden class first,
// then a deterministic hash (CHIPPER carries no ages).
func prio(a, b *packet.Packet, now int64) bool {
	ga, gb := golden(a, now), golden(b, now)
	if ga != gb {
		return ga
	}
	return router.Hash64(a.ID, uint64(now)) >= router.Hash64(b.ID, uint64(now))
}

// resolveNode is the cycle's routing phase for one router: ejection,
// injection, the permutation network and the border fix-up over the
// node's arrivals, laid out by input port as the network's four slots.
func (f *Fabric) resolveNode(id int, n *router.Node, now int64, fx *router.FX) {
	if f.Faults != nil && f.Faults.Frozen(id, now) {
		f.DropArrivals(n, now)
		return
	}
	var slots [geom.NumLinkDirs]*packet.Packet
	for i, p := range n.Arrivals {
		slots[n.From[i]] = p
	}

	// Eject one packet per cycle, golden class first.
	ej := -1
	for d, p := range slots {
		if p == nil || p.Dst != n.C {
			continue
		}
		if ej < 0 || prio(p, slots[ej], now) {
			ej = d
		}
	}
	if ej >= 0 {
		p := slots[ej]
		f.Crossbar(fx, p.Size)
		f.Ejected(fx, id, p, now)
		slots[ej] = nil
	}

	// Inject into one empty slot (injection is lowest priority by
	// construction: it only uses a slot no in-flight packet holds).
	f.tryInject(id, n, &slots, now, fx)

	// Two-stage permutation deflection network.
	outs := permute(n.C, &slots, now)

	// Border fix-up: reassign packets steered at missing ports, golden
	// class first so its delivery guarantee survives the mesh edge.
	f.fixup(id, n, &outs, now)

	for d, p := range outs {
		if p == nil {
			continue
		}
		f.Forward(fx, id, n, p, geom.Dir(d), now)
	}
}

// permute runs the 4×4 partial permutation: stage 1 pairs (N,E) and
// (S,W) and steers toward the {N,E} or {S,W} half; stage 2 picks the
// concrete port.  Losing an arbitration misroutes the loser — that is
// the deflection.
func permute(c geom.Coord, slots *[geom.NumLinkDirs]*packet.Packet, now int64) [geom.NumLinkDirs]*packet.Packet {
	// Stage 1: toward the {N,E} half ("up") or the {S,W} half.
	aUp, aDown := arb(slots[geom.North], slots[geom.East],
		up(c, slots[geom.North], now), up(c, slots[geom.East], now), now)
	bUp, bDown := arb(slots[geom.South], slots[geom.West],
		up(c, slots[geom.South], now), up(c, slots[geom.West], now), now)
	// Stage 2: concrete ports.  In the upper block "first" is N; in the
	// lower block "first" is S.
	var outs [geom.NumLinkDirs]*packet.Packet
	outs[geom.North], outs[geom.East] = arb(aUp, bUp, wants(c, aUp, geom.North), wants(c, bUp, geom.North), now)
	outs[geom.South], outs[geom.West] = arb(aDown, bDown, wants(c, aDown, geom.South), wants(c, bDown, geom.South), now)
	return outs
}

// wantsUp reports whether p steers toward the {N,E} half of the
// permutation network at router c.
func wantsUp(c geom.Coord, p *packet.Packet, now int64) bool {
	d := geom.XYFirst(c, p.Dst)
	if d == geom.Local {
		// At its destination but not ejected this cycle: steer by
		// hash; it will loop back.
		return router.Hash64(p.ID, uint64(now))&1 == 0
	}
	return d == geom.North || d == geom.East
}

// arb is one 2×2 arbiter block: the packet that wants the "first"
// output and wins priority gets it; the other takes "second".
func arb(a, b *packet.Packet, aWants, bWants bool, now int64) (first, second *packet.Packet) {
	switch {
	case a == nil && b == nil:
		return nil, nil
	case b == nil:
		if aWants {
			return a, nil
		}
		return nil, a
	case a == nil:
		if bWants {
			return b, nil
		}
		return nil, b
	case aWants == bWants:
		winner, loser := a, b
		if !prio(a, b, now) {
			winner, loser = b, a
		}
		if aWants {
			return winner, loser
		}
		return loser, winner
	case aWants:
		return a, b
	default:
		return b, a
	}
}

func up(c geom.Coord, p *packet.Packet, now int64) bool {
	return p != nil && wantsUp(c, p, now)
}

func wants(c geom.Coord, p *packet.Packet, d geom.Dir) bool {
	return p != nil && geom.XYFirst(c, p.Dst) == d
}

// fixup moves packets off missing border ports — and, with faults
// armed, off killed links — onto free usable ones.
func (f *Fabric) fixup(id int, n *router.Node, outs *[geom.NumLinkDirs]*packet.Packet, now int64) {
	// Fixed-size candidate array: at most one packet per port needs
	// re-homing, and a heap slice here would allocate every border
	// cycle.
	var homeless [geom.NumLinkDirs]*packet.Packet
	nh := 0
	for d := range outs {
		if outs[d] != nil && !f.Usable(id, n, geom.Dir(d), now) {
			homeless[nh] = outs[d]
			nh++
			outs[d] = nil
		}
	}
	if nh == 0 {
		return
	}
	// Golden class first, then hash order, deterministically.
	for i := 0; i < nh; i++ {
		for j := i + 1; j < nh; j++ {
			if prio(homeless[j], homeless[i], now) {
				homeless[i], homeless[j] = homeless[j], homeless[i]
			}
		}
	}
	for _, p := range homeless[:nh] {
		placed := false
		// Preferred productive port first.
		if d := geom.XYFirst(n.C, p.Dst); d != geom.Local && f.Usable(id, n, d, now) && outs[d] == nil {
			outs[d] = p
			placed = true
		}
		if !placed {
			for _, d := range geom.LinkDirs {
				if f.Usable(id, n, d, now) && outs[d] == nil {
					outs[d] = p
					placed = true
					break
				}
			}
		}
		if !placed {
			// Fault-free this is unreachable (injection leaves room for
			// every existing port); with links down it is the expected
			// degradation path.
			if f.Faults != nil {
				f.DropOrRetry(p, now)
				continue
			}
			//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
			panic(fmt.Sprintf("chipper: no output left at %v cycle %d for %v", n.C, now, p))
		}
	}
}

func (f *Fabric) tryInject(id int, n *router.Node, slots *[geom.NumLinkDirs]*packet.Packet, now int64, fx *router.FX) {
	// The router can emit at most one packet per usable output port;
	// borders have fewer than four (and faults may kill more), so
	// injection must leave room or the fix-up pass would strand a
	// packet.
	usableOut, occupied := 0, 0
	free := -1
	for d := range slots {
		if f.Usable(id, n, geom.Dir(d), now) {
			usableOut++
		}
		if slots[d] != nil {
			occupied++
		} else if free < 0 {
			free = d
		}
	}
	if free < 0 || occupied >= usableOut {
		return
	}
	for off := 0; off < n.NI.Domains(); off++ {
		dom := int((now + int64(off)) % int64(n.NI.Domains()))
		p := n.NI.Head(dom)
		if p == nil {
			continue
		}
		n.NI.Pop(dom)
		f.Injected(fx, p, now)
		f.BufferRead(fx, p.Size)
		slots[free] = p
		return
	}
}

var _ network.Fabric = (*Fabric)(nil)
