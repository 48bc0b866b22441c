// Package probe is the testdata stand-in for the event probe: Traverse
// appends to per-tile ring segments (safe); Lifecycle appends to the
// one shared lifecycle stream and Flush folds the segments into the
// shared aggregate (both effects-only).
package probe

type Probe struct {
	n     int
	life  int
	total int
}

func (p *Probe) Traverse(a, b int) { p.n++ }

func (p *Probe) Lifecycle(a int) { p.life++ }

func (p *Probe) Flush() { p.total += p.n + p.life; p.n, p.life = 0, 0 }
