// Package router is the testdata stand-in for the stepping kernel:
// Active(t) lists the routers of tile t woken for the cycle, so its
// elements are tile-derived node IDs.
package router

type Kernel struct {
	active [][]int
}

// Active returns tile t's woken routers.
func (k *Kernel) Active(t int) []int { return k.active[t] }
