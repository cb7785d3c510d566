package lint

import "testing"

// The benchmarks time the full suite over the real module. scripts/check.sh
// fails when BenchmarkLintModule takes more than twice the ns/op captured
// in bench/baseline/lint.txt. Loading (parse + type-check) is done once
// outside the timed loop: the interesting costs are the analyzers and the
// effect fixpoint, not the parser.

func BenchmarkLintModule(b *testing.B) {
	pkgs, fset, err := LoadModule("../..")
	if err != nil {
		b.Fatalf("LoadModule: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		findings := RunAnalyzers(pkgs, fset)
		if len(findings) != 0 {
			b.Fatalf("module is not lint-clean: %v", findings[0])
		}
	}
}

func BenchmarkInferEffects(b *testing.B) {
	pkgs, _, err := LoadModule("../..")
	if err != nil {
		b.Fatalf("LoadModule: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(inferEffects(pkgs, buildCallGraph(pkgs)).order) == 0 {
			b.Fatal("no function summaries")
		}
	}
}
