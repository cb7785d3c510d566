// Quickstart: address signatures and the primitive bulk operations.
//
// This example builds two threads' read/write signatures, performs bulk
// address disambiguation (Equation 1 of the paper), decodes a signature
// into a cache-set bitmask (the δ operation), and shows RLE compression of
// a commit packet.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"bulk/internal/sig"
)

func main() {
	// The paper's default signature: S14 (2 Kbits, two 10-bit chunks)
	// over 26-bit line addresses with the tuned TM bit permutation.
	cfg := sig.DefaultTM()
	fmt.Printf("signature: %v\n\n", cfg)

	// Thread A reads lines 100..104 and writes lines 200..201.
	rA, wA := cfg.NewSignature(), cfg.NewSignature()
	for l := sig.Addr(100); l < 105; l++ {
		rA.Add(l)
	}
	wA.Add(200)
	wA.Add(201)

	// Thread B (committing) wrote lines 300..303 — disjoint from A.
	wB := cfg.NewSignature()
	for l := sig.Addr(300); l < 304; l++ {
		wB.Add(l)
	}

	// Bulk address disambiguation: squash A iff W_B ∩ R_A ≠ ∅ ∨ W_B ∩ W_A ≠ ∅.
	squash := wB.Intersects(rA) || wB.Intersects(wA)
	fmt.Printf("disjoint committer: squash=%v (false positives possible, false negatives never)\n", squash)

	// Now B also wrote line 102, which A read: a true dependence.
	wB.Add(102)
	fmt.Printf("overlapping committer: squash=%v\n\n", wB.Intersects(rA) || wB.Intersects(wA))

	// Membership (∈): does an address hit the signature?
	fmt.Printf("102 ∈ W_B: %v;  999 ∈ W_B: %v\n\n", wB.Contains(102), wB.Contains(999))

	// δ decode: exactly which cache sets (128-set L1) hold W_B's lines.
	plan, err := sig.NewDecodePlan(cfg, sig.IndexSpec{LowBit: 0, Bits: 7})
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
	mask := plan.Decode(wB)
	fmt.Printf("δ(W_B) selects cache sets %v\n\n", mask.Sets(nil))

	// Commit = broadcast the RLE-compressed write signature, then clear.
	packet := sig.RLEncode(wB)
	fmt.Printf("commit packet: %d bits raw -> %d bytes RLE-compressed\n",
		cfg.TotalBits(), len(packet))
	wB.Clear()
	fmt.Printf("after commit, W_B empty: %v\n", wB.Empty())
}
