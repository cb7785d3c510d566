package sig_test

import (
	"fmt"

	"bulk/internal/sig"
)

// ExampleSignature demonstrates the primitive bulk operations of Table 1.
func ExampleSignature() {
	cfg := sig.DefaultTM()
	w := cfg.NewSignature()
	r := cfg.NewSignature()
	w.Add(100) // committing thread wrote line 100
	r.Add(100) // receiver read line 100
	r.Add(200)

	fmt.Println("conflict:", w.Intersects(r))
	fmt.Println("100 ∈ W:", w.Contains(100))
	fmt.Println("200 ∈ W:", w.Contains(200))
	w.Clear() // commit
	fmt.Println("after commit, empty:", w.Empty())
	// Output:
	// conflict: true
	// 100 ∈ W: true
	// 200 ∈ W: false
	// after commit, empty: true
}

// ExampleDecodePlan shows the exact δ decode into a cache-set bitmask.
func ExampleDecodePlan() {
	cfg := sig.DefaultTM()
	plan, err := sig.NewDecodePlan(cfg, sig.IndexSpec{LowBit: 0, Bits: 7})
	if err != nil {
		panic(err)
	}
	w := cfg.NewSignature()
	w.Add(5)   // set 5
	w.Add(133) // 133 mod 128 = set 5 as well
	w.Add(70)  // set 70
	fmt.Println("sets:", plan.Decode(w).Sets(nil))
	// Output:
	// sets: [5 70]
}

// ExampleRLEncode shows commit-packet compression (Section 6.1).
func ExampleRLEncode() {
	cfg := sig.DefaultTM()
	w := cfg.NewSignature()
	for l := sig.Addr(0); l < 8; l++ {
		w.Add(l * 1021)
	}
	packet := sig.RLEncode(w)
	back, err := sig.RLDecode(cfg, packet)
	if err != nil {
		panic(err)
	}
	fmt.Println("full bits:", cfg.TotalBits())
	fmt.Println("round trip ok:", back.Equal(w))
	fmt.Println("compressed under 64 bytes:", len(packet) < 64)
	// Output:
	// full bits: 2048
	// round trip ok: true
	// compressed under 64 bytes: true
}
