package petsc

import "fmt"

// IS is an index set: an ordered list of global indices, as used to define
// scatters, built from an explicit list or a stride.
type IS struct {
	idx []int
}

// ISGeneral wraps an explicit index list.  The list is copied.
func ISGeneral(idx []int) *IS {
	return &IS{idx: append([]int(nil), idx...)}
}

// ISStride returns the index set {first + i*step : 0 <= i < n}.
func ISStride(n, first, step int) *IS {
	if n < 0 {
		panic("petsc: negative index set length")
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = first + i*step
	}
	return &IS{idx: idx}
}

// Len returns the number of indices.
func (is *IS) Len() int { return len(is.idx) }

// Indices returns the underlying index list (not a copy).
func (is *IS) Indices() []int { return is.idx }

// At returns the i-th index.
func (is *IS) At(i int) int { return is.idx[i] }

// Validate panics unless every index lies in [0, n).
func (is *IS) Validate(n int) {
	for k, i := range is.idx {
		if i < 0 || i >= n {
			panic(fmt.Sprintf("petsc: index set entry %d = %d out of range [0,%d)", k, i, n))
		}
	}
}
