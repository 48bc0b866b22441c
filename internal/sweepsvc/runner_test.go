package sweepsvc

import (
	"context"
	"strings"
	"testing"
	"time"

	"surfbless/internal/probe"
	"surfbless/internal/sim"
)

// stallTap stalls its run once, on the first batch past cycle 0: after
// the simulator's cycle-0 cancellation poll and before its next one at
// cycle 1024.
type stallTap struct {
	d       time.Duration
	stalled bool
}

func (s *stallTap) Arm(probe.Config) bool { return false }

func (s *stallTap) Consume(batch []probe.Event) {
	if !s.stalled && len(batch) > 0 && batch[len(batch)-1].Cycle > 0 {
		s.stalled = true
		time.Sleep(s.d)
	}
}

// A point's wall-clock bound holds for a run that overruns it between
// two cancellation polls: an 880-cycle run, stalled past its 10ms
// bound after the cycle-0 poll, never meets another poll, and must
// still time out rather than come back ok.
func TestRunPointBoundHoldsBetweenPolls(t *testing.T) {
	spec := Spec{
		Model: "SB", Domains: 2, From: 0.02, To: 0.02, Step: 0.02,
		Cycles: 800, Seed: 7, PointTimeoutMS: 10, MaxAttempts: 1,
	}
	r := &Runner{Attach: func(_ float64, o *sim.Options) (func(error) error, error) {
		o.Taps = append(o.Taps, &stallTap{d: 30 * time.Millisecond})
		return func(err error) error { return err }, nil
	}}
	exec := r.RunPoint(context.Background(), spec, 0.02)
	if !exec.Failed || !strings.Contains(exec.Status, "timeout after 10ms") {
		t.Errorf("status %q, want a timeout", exec.Status)
	}
}
