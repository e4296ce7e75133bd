package floatbytes

import (
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	v := []float64{0, 1.5, -2.25, math.Pi, math.Inf(1)}
	b := Bytes(v)
	if len(b) != 40 {
		t.Fatalf("len = %d, want 40", len(b))
	}
	w := Floats(b)
	for i := range v {
		if w[i] != v[i] {
			t.Fatalf("w[%d] = %v, want %v", i, w[i], v[i])
		}
	}
	// Aliasing: writing through one view is visible in the other.
	w[0] = 42
	if v[0] != 42 {
		t.Fatal("views do not alias")
	}
}

func TestEmpty(t *testing.T) {
	if Bytes(nil) != nil || Floats(nil) != nil {
		t.Fatal("empty conversions should be nil")
	}
}

func TestBadLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Floats(make([]byte, 7))
}

func TestWords(t *testing.T) {
	v := []float64{1, 2, 3}
	b := Bytes(v)
	w, ok := Words(b)
	if !ok || len(w) != 3 || w[1] != math.Float64bits(2) {
		t.Fatalf("Words of an aligned buffer = %v, %v", w, ok)
	}
	w[0] = math.Float64bits(42)
	if v[0] != 42 {
		t.Fatal("word view does not alias")
	}
	if w, ok := Words(b[:23]); !ok || len(w) != 2 {
		t.Fatalf("Words of 23 aligned bytes = %d words, %v; want 2, true", len(w), ok)
	}
	for shift := 1; shift < 8; shift++ {
		if w, ok := Words(b[shift:]); ok || w != nil {
			t.Fatalf("Words of a base shifted %d bytes = %v, %v; want no view", shift, w, ok)
		}
	}
	if w, ok := Words(nil); !ok || w != nil {
		t.Fatal("Words(nil) should be an empty view")
	}
}
