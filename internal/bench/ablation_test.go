package bench

import "testing"

func TestAblationRunners(t *testing.T) {
	if e := AblateLookAhead([]int{1, 15}, 64, 1); len(e.Rows) != 2 {
		t.Fatal("lookahead ablation rows")
	}
	e := AblatePipeline([]int{8192, 65536}, 64, 1)
	small, _ := e.Value("8KiB", "MVAPICH2-0.9.5")
	big, _ := e.Value("64KiB", "MVAPICH2-0.9.5")
	if small <= big {
		t.Fatalf("smaller granules should slow the baseline: %v vs %v", small, big)
	}
	b := AblateBinThreshold([]int{64, 1 << 20}, 2)
	loT, _ := b.Value("64B", "light-peer")
	hiT, _ := b.Value("1048576B", "light-peer")
	if loT >= hiT {
		t.Fatalf("small-first binning should protect light peers: %v vs %v", loT, hiT)
	}
	alg := AblateAlgorithms([]int{8}, 2)
	rd, _ := alg.Value("8", "recursive-doubling")
	ring, _ := alg.Value("8", "ring")
	if rd >= ring {
		t.Fatalf("recursive doubling should beat ring: %v vs %v", rd, ring)
	}
	out := AblateOutlierThreshold([]float64{2, 64}, 2)
	low, _ := out.Value("2", "adaptive")
	high, _ := out.Value("64", "adaptive")
	if low >= high {
		t.Fatalf("high threshold should fall back to the slower ring: %v vs %v", low, high)
	}
}
