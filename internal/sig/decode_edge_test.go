package sig

import (
	"testing"

	"bulk/internal/rng"
)

// TestDecodeEmptySignaturePaperConfigs: δ of an empty signature selects no
// sets under the paper's production configurations — the BDM must not
// expand anything for a thread that wrote nothing.
func TestDecodeEmptySignaturePaperConfigs(t *testing.T) {
	for _, cfg := range []*Config{DefaultTM(), DefaultTLS()} {
		plan, err := NewDecodePlan(cfg, IndexSpec{LowBit: 0, Bits: 6})
		if err != nil {
			t.Fatalf("%s: NewDecodePlan: %v", cfg.Name(), err)
		}
		mask := plan.Decode(cfg.NewSignature())
		if mask.Count() != 0 {
			t.Errorf("%s: empty signature decoded to %d sets, want 0", cfg.Name(), mask.Count())
		}
	}
}

// TestDecodeSaturatedSignature: a tiny config whose full address space has
// been added saturates every chunk field; δ must then select every set and
// membership must report true everywhere (the all-ones signature is the
// degenerate "conflicts with everything" case).
func TestDecodeSaturatedSignature(t *testing.T) {
	cfg := MustConfig("sat", []int{3, 3}, nil, 6)
	plan, err := NewDecodePlan(cfg, IndexSpec{LowBit: 0, Bits: 3})
	if err != nil {
		t.Fatalf("NewDecodePlan: %v", err)
	}

	s := cfg.NewSignature()
	for a := Addr(0); a < 1<<6; a++ {
		s.Add(a)
	}
	for a := Addr(0); a < 1<<6; a++ {
		if !s.Contains(a) {
			t.Fatalf("saturated signature misses address %d", a)
		}
	}
	mask := plan.Decode(s)
	if mask.Count() != plan.Index().NumSets() {
		t.Errorf("saturated decode marked %d/%d sets, want all", mask.Count(), plan.Index().NumSets())
	}
}

// TestDecodeMembershipAgreement: over a small, fully-enumerable address
// space, Decode and Contains must agree — every member address lands in a
// marked set (δ never under-approximates membership), and, δ being exact,
// every marked set is witnessed by some member address.
func TestDecodeMembershipAgreement(t *testing.T) {
	cfg := MustConfig("walk", []int{4, 4}, nil, 8)
	plan, err := NewDecodePlan(cfg, IndexSpec{LowBit: 0, Bits: 4})
	if err != nil {
		t.Fatalf("NewDecodePlan: %v", err)
	}

	// Adversarial patterns: a dense cluster (stresses aliasing within one
	// chunk), a strided sweep (hits every set with few chunk values), and
	// a random scatter.
	r := rng.New(7)
	patterns := map[string][]Addr{
		"cluster": {0, 1, 2, 3, 4, 5, 6, 7},
		"stride":  {0, 17, 34, 51, 68, 85, 102, 119, 136, 153},
	}
	var scatter []Addr
	for i := 0; i < 24; i++ {
		scatter = append(scatter, Addr(r.Intn(1<<8)))
	}
	patterns["scatter"] = scatter

	for _, name := range []string{"cluster", "stride", "scatter"} {
		addrs := patterns[name]
		s := cfg.NewSignature()
		for _, a := range addrs {
			s.Add(a)
		}
		mask := plan.Decode(s)

		// Every address the signature reports as a member must fall in a
		// marked set — walking the whole 8-bit space covers aliased
		// members, not just the inserted ones.
		for a := Addr(0); a < 1<<8; a++ {
			if s.Contains(a) && !mask.Has(plan.SetIndexOf(a)) {
				t.Errorf("%s: member address %d in unmarked set %d", name, a, plan.SetIndexOf(a))
			}
		}
		// Exact δ: each marked set must have a member witness.
		witness := map[int]bool{}
		for a := Addr(0); a < 1<<8; a++ {
			if s.Contains(a) {
				witness[plan.SetIndexOf(a)] = true
			}
		}
		for set := 0; set < plan.Index().NumSets(); set++ {
			if mask.Has(set) && !witness[set] {
				t.Errorf("%s: marked set %d has no member address", name, set)
			}
		}
	}
}
