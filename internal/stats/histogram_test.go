package stats

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"surfbless/internal/geom"
	"surfbless/internal/packet"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(0.5) != 0 {
		t.Error("empty histogram must read zero")
	}
	for _, v := range []int64{1, 2, 3, 4, 100} {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Mean() != 22 {
		t.Errorf("Mean = %g, want 22", h.Mean())
	}
	if h.Max() != 100 {
		t.Errorf("Max = %d", h.Max())
	}
}

func TestHistogramInvalidSamples(t *testing.T) {
	var h Histogram
	h.Add(5)
	h.Add(-1) // a degraded run may surface inconsistent stamps
	h.Add(-7)
	if h.Invalid() != 2 {
		t.Errorf("Invalid = %d, want 2", h.Invalid())
	}
	if h.Count() != 1 || h.Max() != 5 {
		t.Errorf("negative samples leaked into the distribution: n=%d max=%d", h.Count(), h.Max())
	}
}

func TestHistogramPanics(t *testing.T) {
	var h Histogram
	for name, f := range map[string]func(){
		"bad percentile": func() { h.Percentile(0) },
		"p>1":            func() { h.Percentile(1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// The percentile bound must bracket the true quantile: true ≤ bound ≤
// max, and bound < 2·true + 1 (power-of-two buckets).
func TestHistogramPercentileBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var h Histogram
	var samples []int64
	for i := 0; i < 5000; i++ {
		v := int64(rng.ExpFloat64() * 40)
		samples = append(samples, v)
		h.Add(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
		truth := samples[int(p*float64(len(samples)))-1]
		bound := h.Percentile(p)
		if bound < truth {
			t.Errorf("p%.0f: bound %d below true quantile %d", p*100, bound, truth)
		}
		if bound > 2*truth+1 {
			t.Errorf("p%.0f: bound %d looser than 2× true %d", p*100, bound, truth)
		}
	}
}

// Percentile is monotone in p (property).
func TestHistogramMonotoneQuick(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		h.Add(int64(rng.Intn(1000)))
	}
	f := func(a, b uint8) bool {
		pa := float64(a%100+1) / 100
		pb := float64(b%100+1) / 100
		if pa > pb {
			pa, pb = pb, pa
		}
		return h.Percentile(pa) <= h.Percentile(pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	h.Add(10)
	if s := h.String(); !strings.Contains(s, "n=1") || !strings.Contains(s, "max=10") {
		t.Errorf("String = %q", s)
	}
}

func TestCollectorHistogram(t *testing.T) {
	c := NewCollector(2, 0, 0)
	p := packet.New(1, geom.Coord{}, geom.Coord{X: 1, Y: 0}, 1, packet.Ctrl, 0)
	p.InjectedAt = 2
	p.EjectedAt = 12
	c.Created(p)
	c.Injected(p)
	c.Ejected(p)
	c.Refused(0, 5)
	if c.Latency(1).Count() != 1 || c.Latency(1).Max() != 12 {
		t.Errorf("histogram not fed: %v", c.Latency(1))
	}
	if c.Latency(0).Count() != 0 {
		t.Error("wrong domain's histogram fed")
	}
}
