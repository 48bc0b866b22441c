package surfbless

import (
	"strings"
	"testing"

	"surfbless/internal/geom"
	"surfbless/internal/packet"
	"surfbless/internal/wave"
)

// Failure injection: the always-on wave assertions are the confinement
// proof, so they must actually fire when the schedule is corrupted —
// a silent checker would be worse than none.

// runUntilPanic drives the fabric and returns the recovered panic
// message, or "" if nothing fired.
func runUntilPanic(h *harness, cycles int) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
			if msg == "" {
				msg = "non-string panic"
			}
		}
	}()
	mesh := h.cfg.Mesh()
	for cyc := 0; cyc < cycles; cyc++ {
		for node := 0; node < mesh.Nodes(); node += 5 {
			src := mesh.CoordOf(node)
			dst := mesh.CoordOf((node*7 + cyc + 3) % mesh.Nodes())
			if src == dst {
				continue
			}
			h.f.Inject(node, h.pkt(src, dst, (node+cyc)%h.cfg.Domains, packet.Ctrl), h.now)
		}
		h.f.Step(h.now)
		h.now++
	}
	return ""
}

// A decoder swapped mid-flight (routers disagreeing about wave→domain
// ownership) must be caught by the arrival-domain assertion.
func TestInjectedDecoderCorruptionCaught(t *testing.T) {
	h := newHarness(t, defCfg(3), nil)
	// Warm the network up with real traffic…
	if msg := runUntilPanic(h, 30); msg != "" {
		t.Fatalf("healthy fabric panicked: %s", msg)
	}
	// …then corrupt the decoder: domains rotate by one, so every packet
	// already in flight is now on a "foreign" wave.
	dec := h.f.plan.Dec
	rotated, err := wave.FromSets(dec.Smax(), [][]int{
		dec.Owned(1), dec.Owned(2), dec.Owned(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	h.f.plan.Dec = rotated
	msg := runUntilPanic(h, 50)
	if msg == "" {
		t.Fatal("decoder corruption went undetected")
	}
	if !strings.Contains(msg, "domain") && !strings.Contains(msg, "wave") {
		t.Errorf("panic message does not identify the violation: %s", msg)
	}
}

// A schedule with the wrong hop delay (counters advancing at the right
// rate but with initial offsets computed for a different P) breaks
// continuity; packets arrive on waves of other domains and the
// assertion fires.
func TestInjectedScheduleMismatchCaught(t *testing.T) {
	h := newHarness(t, defCfg(2), nil)
	if msg := runUntilPanic(h, 30); msg != "" {
		t.Fatalf("healthy fabric panicked: %s", msg)
	}
	// A schedule built for P=2 on a fabric whose links take P=3: same
	// Smax parity games don't save it — offsets diverge per hop.
	h.f.plan.Sched = wave.New(h.cfg.Mesh(), 2)
	h.f.plan.Dec = wave.RoundRobin(h.f.plan.Sched.Smax(), 2)
	if msg := runUntilPanic(h, 80); msg == "" {
		t.Fatal("hop-delay mismatch went undetected")
	}
}

// Conservation corruption must be caught by Audit.
func TestInjectedConservationDriftCaught(t *testing.T) {
	h := newHarness(t, defCfg(1), nil)
	h.f.Inject(0, h.pkt(geom.Coord{X: 0, Y: 0}, geom.Coord{X: 3, Y: 3}, 0, packet.Ctrl), 0)
	if err := h.f.Audit(); err != nil {
		t.Fatalf("healthy fabric failed audit: %v", err)
	}
	// Simulate an accounting bug: a queued packet the fabric never counted.
	h.f.NIs[5].Offer(h.pkt(geom.Coord{X: 1, Y: 1}, geom.Coord{X: 3, Y: 0}, 0, packet.Ctrl))
	if err := h.f.Audit(); err == nil {
		t.Error("conservation drift went undetected")
	}
}
