// Package fab is hotalloc-analyzer testdata: a fabric whose Step
// reaches every flagged construct, plus the idioms that must stay
// silent.
package fab

import (
	"fmt"
	"sort"

	"nocvet.example/internal/link"
)

// Fabric is the root type: Step(now int64) matches the fabric
// contract's hot entry point.
type Fabric struct {
	scratch []int
	line    link.Line
}

// Step is the hot-path root.
func (f *Fabric) Step(now int64) {
	f.scratch = f.scratch[:0]
	for i := 0; i < 4; i++ {
		f.scratch = append(f.scratch, i) // self-append: amortized, allowed
	}
	f.route(now)
	f.misc("x", f.scratch)
	f.line.Recv(f.scratch)
	if bad(now) {
		panic(f.describe(now))
	}
}

// route holds the composite-construct findings.
func (f *Fabric) route(now int64) {
	tmp := make([]int, 4)                                           // want `make allocates on the Step hot path`
	m := map[int]int{1: 2}                                          // want `map literal allocates`
	s := []int{1, 2}                                                // want `slice literal allocates`
	p := &Fabric{}                                                  // want `&composite literal escapes to the heap`
	fresh := append(s, 3)                                           // want `append into a fresh destination allocates`
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] }) // want `sort\.Slice allocates` `closure literal allocates`
	_, _, _, _ = m, p, fresh, now
}

// misc holds the call/statement findings.
func (f *Fabric) misc(name string, b []int) {
	n := new(Fabric)         // want `new allocates`
	raw := []byte(name)      // want `string conversion allocates a copy`
	back := string(raw)      // want `string conversion allocates a copy`
	msg := name + "!"        // want `string concatenation allocates`
	const folded = "a" + "b" // constant-folded: silent
	go f.route(0)            // want `go statement allocates a goroutine`
	defer f.route(0)         // want `defer allocates its frame record`
	_, _, _, _, _ = n, back, msg, folded, b
}

func bad(now int64) bool { return now < 0 }

// describe is the waived cold path: it only runs while panicking.
func (f *Fabric) describe(now int64) string {
	//nocvet:alloc panic-only formatting, executed at most once per run
	return fmt.Sprintf("fabric wedged at cycle %d", now)
}

// Cold is never reachable from Step: its allocations are silent.
func Cold() []int { return make([]int, 128) }

// Reset is setup-path code, also unreachable from Step.
func (f *Fabric) Reset() { f.scratch = make([]int, 0, 16) }
