// Package router is nilhook-analyzer testdata: every guard idiom the
// analyzer must accept, and the unguarded calls it must reject.
package router

import (
	"nocvet.example/fault"
	"nocvet.example/network"
	"nocvet.example/probe"
	"nocvet.example/stats"
)

// Fabric carries one of each hook kind.
type Fabric struct {
	probe  *probe.Probe
	faults *fault.Injector
	tracer stats.Tracer
	sink   network.Sink
}

// Unguarded calls must be flagged for every hook kind.
func (f *Fabric) Unguarded(id int) bool {
	f.probe.Traverse(id)       // want `call through hook field f\.probe is not nil-guarded`
	f.tracer(id)               // want `call through hook field f\.tracer is not nil-guarded`
	f.sink(id)                 // want `call through hook field f\.sink is not nil-guarded`
	return f.faults.Frozen(id) // want `call through hook field f\.faults is not nil-guarded`
}

// GuardedBody is the canonical guard.
func (f *Fabric) GuardedBody(id int) {
	if f.probe != nil {
		f.probe.Traverse(id)
	}
}

// GuardedShortCircuit relies on && evaluation order.
func (f *Fabric) GuardedShortCircuit(id int) bool {
	return f.faults != nil && f.faults.Frozen(id)
}

// GuardedOr relies on || evaluation order.
func (f *Fabric) GuardedOr(id int) bool {
	return f.faults == nil || f.faults.Frozen(id)
}

// GuardedEarlyReturn establishes the guard for the rest of the block.
func (f *Fabric) GuardedEarlyReturn(id int) {
	if f.tracer == nil {
		return
	}
	f.tracer(id)
}

// GuardedElse uses the negative branch.
func (f *Fabric) GuardedElse(id int) {
	if f.probe == nil {
		_ = id
	} else {
		f.probe.Traverse(id)
	}
}

// GuardedConjunction buries the nil check in a wider condition.
func (f *Fabric) GuardedConjunction(on bool, id int) {
	if on && f.sink != nil {
		f.sink(id)
	}
}

// GuardedSwitch uses an expression-less switch.
func (f *Fabric) GuardedSwitch(id int) {
	switch {
	case f.probe != nil:
		f.probe.Traverse(id)
	}
}

// GuardedPanic treats a nil hook as a programming error.
func (f *Fabric) GuardedPanic(id int) {
	if f.sink == nil {
		panic("sink required")
	}
	f.sink(id)
}

// WrongReceiver guards a different fabric's hook: still a finding.
func (f *Fabric) WrongReceiver(g *Fabric, id int) {
	if g.probe != nil {
		f.probe.Traverse(id) // want `call through hook field f\.probe is not nil-guarded`
	}
}

// StaleGuard checks the wrong field: still a finding.
func (f *Fabric) StaleGuard(id int) {
	if f.probe != nil {
		f.tracer(id) // want `call through hook field f\.tracer is not nil-guarded`
	}
}

// Waived documents a guard the analyzer cannot see.
func (f *Fabric) Waived(id int) {
	//nocvet:hook only dispatched from GuardedBody
	f.probe.Traverse(id)
}

// engine nests a hook one level down.
type engine struct{ probe *probe.Probe }

// Mesh exercises multi-level field chains.
type Mesh struct{ eng engine }

// Nested guards and uses a nested hook field.
func (m *Mesh) Nested(id int) {
	if m.eng.probe != nil {
		m.eng.probe.Traverse(id)
	}
	m.eng.probe.Traverse(id) // want `call through hook field m\.eng\.probe is not nil-guarded`
}

// Locals through plain variables are out of the analyzer's contract:
// a hook copied into a local was usually just guarded.
func (f *Fabric) LocalAlias(id int) {
	if p := f.probe; p != nil {
		p.Traverse(id)
	}
}
