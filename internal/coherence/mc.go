package coherence

import (
	"fmt"

	"surfbless/internal/dueq"
)

// MC is one memory controller (Table 1: four, one at each mesh corner).
// It serves MemRead with a fixed DRAM latency and absorbs MemWB; queuing
// beyond the service bandwidth (one new request per cycle) accumulates
// naturally in the event queue.
type MC struct {
	node    int
	send    SendFunc
	latency int64

	inq dueq.Queue[*Msg] // reads in DRAM service

	Reads, Writebacks int64
}

// NewMC builds a memory controller with the given DRAM latency.
func NewMC(node int, latency int64, send SendFunc) *MC {
	if latency < 1 {
		panic(fmt.Sprintf("coherence: MC latency %d", latency))
	}
	return &MC{node: node, send: send, latency: latency}
}

// Deliver accepts a message addressed to this controller.
func (mc *MC) Deliver(m *Msg, now int64) {
	switch m.Type {
	case MemRead:
		mc.Reads++
		mc.inq.Push(m, now+mc.latency)
	case MemWB:
		mc.Writebacks++ // absorbed; data values are not modelled
	default:
		panic(fmt.Sprintf("coherence: MC %d cannot handle %v", mc.node, m))
	}
}

// Tick sends the fills whose DRAM latency has elapsed.
func (mc *MC) Tick(now int64) {
	for m, ok := mc.inq.PopDue(now); ok; m, ok = mc.inq.PopDue(now) {
		mc.send(&Msg{Type: MemData, Addr: m.Addr, From: mc.node, To: m.From}, now)
	}
}

// Pending returns in-service read requests (for quiescence detection).
func (mc *MC) Pending() int { return mc.inq.Len() }

// CornerMCs returns the node ids of the four mesh corners for an N×N
// mesh of the given width — the Table-1 memory-controller placement.
func CornerMCs(width, height int) []int {
	return []int{
		0,
		width - 1,
		(height - 1) * width,
		height*width - 1,
	}
}
