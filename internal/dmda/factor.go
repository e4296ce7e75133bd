package dmda

import "fmt"

// FactorGrid chooses a process-grid factorization of size ranks for a
// dim-dimensional grid of extents n, minimizing the estimated communication
// surface (the sum of subdomain face areas), PETSc-style.  Dimensions the
// grid cannot split further (p[d] > n[d]) are rejected; size must admit at
// least one feasible factorization (size ≤ prod(n) guarantees one).
func FactorGrid(size, dim int, n [3]int) [3]int {
	if size < 1 {
		panic("dmda: world size must be positive")
	}
	best, ok := factorGrid(size, dim, n)
	if !ok {
		panic(fmt.Sprintf("dmda: no feasible process grid for %d ranks on %v", size, n))
	}
	return best
}

// GridFeasible reports whether FactorGrid would find a factorization, so
// front-ends can refuse a bad shape before any rank is built.
func GridFeasible(size, dim int, n [3]int) bool {
	if size < 1 || dim < 1 || dim > 3 {
		return false
	}
	_, ok := factorGrid(size, dim, n)
	return ok
}

func factorGrid(size, dim int, n [3]int) ([3]int, bool) {
	best := [3]int{0, 0, 0}
	bestCost := -1.0

	try := func(p [3]int) {
		for d := 0; d < 3; d++ {
			if p[d] > n[d] {
				return
			}
		}
		// Total halo traffic is proportional to the total cut-plane area:
		// (p[d]-1) cuts per dimension, each of the perpendicular
		// cross-section's area.
		cost := float64(p[0]-1)*float64(n[1]*n[2]) +
			float64(p[1]-1)*float64(n[0]*n[2]) +
			float64(p[2]-1)*float64(n[0]*n[1])
		if bestCost < 0 || cost < bestCost {
			bestCost = cost
			best = p
		}
	}

	switch dim {
	case 1:
		try([3]int{size, 1, 1})
	case 2:
		for px := 1; px <= size; px++ {
			if size%px == 0 {
				try([3]int{px, size / px, 1})
			}
		}
	case 3:
		for px := 1; px <= size; px++ {
			if size%px != 0 {
				continue
			}
			rest := size / px
			for py := 1; py <= rest; py++ {
				if rest%py == 0 {
					try([3]int{px, py, rest / py})
				}
			}
		}
	default:
		panic(fmt.Sprintf("dmda: dimension %d out of range", dim))
	}
	return best, bestCost >= 0
}
