package traffic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"surfbless/internal/geom"
	"surfbless/internal/packet"
)

// hashFabric is a network.Fabric that folds every Inject call into a
// SHA-256 and recycles the packet.
type hashFabric struct {
	h   hash.Hash
	fl  *packet.FreeList
	buf []byte
}

func (f *hashFabric) Inject(node int, p *packet.Packet, now int64) bool {
	b := f.buf[:0]
	for _, v := range []int64{now, int64(node), int64(p.ID), int64(p.Src.X), int64(p.Src.Y),
		int64(p.Dst.X), int64(p.Dst.Y), int64(p.Domain), int64(p.Class), int64(p.VNet)} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	f.buf = b
	f.h.Write(b)
	f.fl.Put(p)
	return true
}
func (f *hashFabric) Step(now int64) {}
func (f *hashFabric) InFlight() int  { return 0 }
func (f *hashFabric) Audit() error   { return nil }

// goldenSources are the source sets of TestGeneratorPopulationGolden:
// each process on its own, then all six as the domains of one
// generator, which pins the (node, domain) inject order.
var goldenSources = []struct {
	name string
	src  []Source
}{
	{"bernoulli", []Source{{Rate: 0.3, Class: packet.Ctrl, VNet: -1}}},
	{"burst", []Source{{Rate: 0.2, Burst: 3, Class: packet.Data, VNet: 1}}},
	{"onoff", []Source{{Rate: 0.05, Burst: 2, OnOff: true, Class: packet.Ctrl, VNet: 0}}},
	{"rate0", []Source{{Rate: 0, Class: packet.Ctrl, VNet: -1}}},
	{"rate1", []Source{{Rate: 1, Class: packet.Data, VNet: 2}}},
	{"sparse", []Source{{Rate: 4e-4, Class: packet.Ctrl, VNet: -1}}},
	{"mixed", []Source{
		{Rate: 0.3, Class: packet.Ctrl, VNet: -1},
		{Rate: 0.2, Burst: 3, Class: packet.Data, VNet: 1},
		{Rate: 0.05, Burst: 2, OnOff: true, Class: packet.Ctrl, VNet: 0},
		{Rate: 0, Class: packet.Ctrl, VNet: -1},
		{Rate: 1, Class: packet.Data, VNet: 2},
		{Rate: 4e-4, Class: packet.Ctrl, VNet: -1},
	}},
}

// goldenDigests are SHA-256 digests of generator populations recorded
// before the generator was rewritten around per-stream look-ahead.
// Never regenerate them to make a change pass: a mismatch means the
// packet population — and every simulated result downstream — moved.
var goldenDigests = map[string]string{
	"8x8/uniform/bernoulli":     "3df097362e96307e58703260b83c3923f22e0b03a5b58d4e34d8a2450231ccb6",
	"8x8/uniform/burst":         "73171ea91e56153687766c0229f114035bcec79f390687932f41fc59803efedc",
	"8x8/uniform/onoff":         "f7b9470cbc8fa8d5e6955da888865ce8443194fb8cc352db10c09d6dc245c842",
	"8x8/uniform/rate0":         "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
	"8x8/uniform/rate1":         "1bdad45b6b25f374fe56884512a8a4976a137f24c3cfc91469a3bf17f296c898",
	"8x8/uniform/sparse":        "e56551728b3e21f2983309b303fd17cfcc50e5f48a622f9f0d2b3e1c0bc6d4b0",
	"8x8/uniform/mixed":         "666d1ac2cf5e030af1a57f68a01e8df8818f107a86f87fcebf951d2c32f4fcec",
	"8x8/transpose/bernoulli":   "c0693862c2bed7bf6cc105cb8ca9000f5189e4e27b60735994352771845422e1",
	"8x8/transpose/burst":       "ef081c9ff3a9596ba542458a4f2ca95186c516de566c3df82af786c9b2412bae",
	"8x8/transpose/onoff":       "6f7c157d8f962cb404cc36566fe64d321e3326bf36ce35ba3c0d663d1652bd93",
	"8x8/transpose/rate0":       "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
	"8x8/transpose/rate1":       "3a17fd421d4c81b412e6b1411651a2d3ff639c4779e9293b0a04866d0986293d",
	"8x8/transpose/sparse":      "258876b111f8715200060a5409d4b355df0e3b2069786033c2b97c860475a93d",
	"8x8/transpose/mixed":       "1f152eea41a0d7bbbc925396129e7c2e6e76e07f59b84ba6aa8e1fa33bd1ffb6",
	"8x8/bitcomp/bernoulli":     "9232b3ed6fa412b84e7566013cf5704fdee96eda91726f55f9a649d0d4ccca13",
	"8x8/bitcomp/burst":         "15a1c5fcfd1f196da60f3858b30d3fe0b886babc9dff5bf529ebcfebfda0e88f",
	"8x8/bitcomp/onoff":         "bc86b4b2b2cc46f02c1bea1ad5db91fef5a5a62c0031e258651fe2df0278623c",
	"8x8/bitcomp/rate0":         "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
	"8x8/bitcomp/rate1":         "33321d661879a94b852b7fb245a906f2aa83d261f008fbce3943554d246e0deb",
	"8x8/bitcomp/sparse":        "fb56a006095985bda0a0578d06d8f4efe7f17f7713e9e58001788a086d35c913",
	"8x8/bitcomp/mixed":         "254b46b4378b7ff168700f07e58ff95bf369ad4e73d917b889f736b52f662366",
	"8x8/hotspot/bernoulli":     "a0262c0d892999a54d3d13cef9862e598890ceccc95bf1dc170e0adfe9fdf0cf",
	"8x8/hotspot/burst":         "abf6ccfb7fcd2f498ec8d5c7a98d55e00023b90002ef4eb96466b6e1ab3308b9",
	"8x8/hotspot/onoff":         "1e5cd5c6872665ade12ce88b3289680ece55e4f360ce996669ea0002abd9b5d2",
	"8x8/hotspot/rate0":         "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
	"8x8/hotspot/rate1":         "802eec5fa7e04040b0e151cabd80ab84f18282580754b94d23cfd1eaf4ee405e",
	"8x8/hotspot/sparse":        "44ea14a0c12c986d39c9e81b324ad0f63d42ce6ab55f19c06a80c538178cff77",
	"8x8/hotspot/mixed":         "4455f985e7ced18fa7aa4b29e81a5e7ea2146298881b4704fad19d1bf74429e7",
	"8x8/corner/bernoulli":      "4010c688376af5849f13cc61bae2038f22e9b455c2aa3fb3bb41f6c58836588c",
	"8x8/corner/burst":          "5713938c5857e965c90f2eb06368c23a95e46dbd3e3d014fe2b68a07c36d821a",
	"8x8/corner/onoff":          "61a346b75d6b92b90bfffe46038b8c3992fa01eea17923d67d046a1c2e567054",
	"8x8/corner/rate0":          "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560",
	"8x8/corner/rate1":          "aa9af67ed509f472160c53ea82f58c2733184df0e2138a2cef3b80d36425718e",
	"8x8/corner/sparse":         "51f1111e6ab2e9bce8d564e0bc5186eb75e5ef04841c2f7396c683f9d87cd59e",
	"8x8/corner/mixed":          "32e5ae7e0bfcae21e825c43071760d8c678c2030971da4635f0063c556728b88",
	"32x32/uniform/bernoulli":   "c7f38f3402aa467af864932a81e77190b17a6dac37c9bfa5779d0b3905091da7",
	"32x32/uniform/burst":       "c19c558fbd57154c2003ba6f00f48c3411014d4bbc4fea88b35a337cff60d2e5",
	"32x32/uniform/onoff":       "b69cd61c2bdaa5806f2d1cf1f2dbb57eeb4dc356c398d7a11588d92b7bea1e4b",
	"32x32/uniform/rate0":       "9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47",
	"32x32/uniform/rate1":       "588c916372eb68492ffe85ebd935d0899b628a5a9ac42079b14bc9da45360c9e",
	"32x32/uniform/sparse":      "08fe89e63a5ae1e35f8b342c111940824abd2ba2f9a797a16f6cfdfda9de5f83",
	"32x32/uniform/mixed":       "2975907b1dcb6f26ddd3038fad3acc913c8f16e1a99f3f9b217e834e63022a90",
	"32x32/transpose/bernoulli": "1d9a75dcf7dbca2e10772bcccef1918c970db8e06e21fc07725b0b164b238edd",
	"32x32/transpose/burst":     "e9ef890aaacfdd8409c3ed34b92139efa88c36404c403993e1cb08ffea18fb88",
	"32x32/transpose/onoff":     "3c487889a4c10e573ae7f46d0a9155243b492f2820df332787f114bcdfda7e8f",
	"32x32/transpose/rate0":     "9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47",
	"32x32/transpose/rate1":     "7e051ee60f03af96b6736413600fe8f511c3dc3c5effcc8c6f42593515783120",
	"32x32/transpose/sparse":    "07767f4f4b1a4908ab5295b1f992e3ebf421cd9f3957d80cf792c539f7c97884",
	"32x32/transpose/mixed":     "4a68379da4f7f1b7684ef5131337e3566e93c77db001f7885bfc64445dec8829",
	"32x32/bitcomp/bernoulli":   "38d24447c0c6a107b3944a19b8989c3174f24646d322bc1a082347c2f5139124",
	"32x32/bitcomp/burst":       "3e88097bbd8e2ff35b3f5d7830ca066b155d01608c02440a5012ee970ed92e2c",
	"32x32/bitcomp/onoff":       "1ae7ad19d70bab5d006df38b4a1a0a0d58299e1f4d2f55722441f19d1601d6c3",
	"32x32/bitcomp/rate0":       "9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47",
	"32x32/bitcomp/rate1":       "4bacd15510a39e4190e0ee4399fd48a24e5e5fe7a216d53e4db8eca1944213d4",
	"32x32/bitcomp/sparse":      "3910dd32bbc3111fd241af92fed783ddd8a9f919f7822ad8af156c2f6f563fe7",
	"32x32/bitcomp/mixed":       "cd5d66b6a2abdec4ab4fdd53a72109cabb250181e14128f67127677b059a60d6",
	"32x32/hotspot/bernoulli":   "938e94f44855525ac70b417f338a80570a515393938c4c863fa4bc474486ab9c",
	"32x32/hotspot/burst":       "0e27f5e968b29c9101c3fb61fbe1639ced14e01ec45b017fa6a1d3a821268ecd",
	"32x32/hotspot/onoff":       "dffbf63a290e044ef1e15e11810b8026dd92bd45e38182ca1b076fae5e48b22c",
	"32x32/hotspot/rate0":       "9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47",
	"32x32/hotspot/rate1":       "023d5a59153b9d55f4ae5af854f1d5873fb29b6c05dedacd0a1985a057c1547f",
	"32x32/hotspot/sparse":      "38af4f577042bb6e73f9433134a67a09755ab5a2227f3405457d30f1b5134f48",
	"32x32/hotspot/mixed":       "faee8ae7debe950f32cefd537b77516d880d8ce1610ada631a0f019d58ac7ece",
	"32x32/corner/bernoulli":    "35b1df7e98d69ce6632b74dbecbc5e47eb5dce9d1a76267b56940fee059f6832",
	"32x32/corner/burst":        "c2be824a3d964c58be85f96010e86d48f763a9a34699a0298b3f4cfb7dad4ebd",
	"32x32/corner/onoff":        "b434e64cc719c47b7dd986eb434f6a59d6c862e72191117fdbf0d3ade1cf1278",
	"32x32/corner/rate0":        "9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47",
	"32x32/corner/rate1":        "8e3693614b694a2b143c5fac3f9f082c8a83a0fa053840ada1e25185419aac3c",
	"32x32/corner/sparse":       "9f1dcbc35c350d6027f98be0f5c8b43b42ca52b7604459c0c42be3aa88913d47",
	"32x32/corner/mixed":        "2198d3c7e300d19a51870440c07a92afbca62089818c6c97e1ea6e2bbda4a0cf",
}

// TestGeneratorPopulationGolden pins the generator's exact output to
// fixed digests: every Inject call (cycle, node, ID, source,
// destination, domain, class, VNet) of every pattern and source set on
// an 8×8 and a 32×32 mesh, ticked at non-consecutive cycles, followed
// by every stream's Offered count.  The other generator tests compare
// one run with another; this one compares with a fixed reference.
func TestGeneratorPopulationGolden(t *testing.T) {
	for _, mc := range []struct {
		w, h  int
		ticks int
	}{{8, 8, 1200}, {32, 32, 250}} {
		m := geom.NewMesh(mc.w, mc.h)
		for _, pat := range []Pattern{UniformRandom, Transpose, BitComplement, Hotspot, Corner} {
			for _, set := range goldenSources {
				name := fmt.Sprintf("%dx%d/%v/%s", mc.w, mc.h, pat, set.name)
				f := &hashFabric{h: sha256.New(), fl: &packet.FreeList{}}
				g := New(m, pat, set.src, 11)
				g.SetFreeList(f.fl)
				for i := 0; i < mc.ticks; i++ {
					g.Tick(f, int64(5+3*i+i%2))
				}
				for n := 0; n < m.Nodes(); n++ {
					for d := range set.src {
						f.h.Write(binary.LittleEndian.AppendUint64(nil, g.Offered(n, d)))
					}
				}
				got := hex.EncodeToString(f.h.Sum(nil))
				if want := goldenDigests[name]; got != want {
					t.Errorf("%s: population digest %s, want %s", name, got, want)
				}
			}
		}
	}
}
