// Package core ties the paper's framework together: it names the three
// experimental arms every evaluation in the paper compares —
//
//  1. "hand-tuned": PETSc's default vector scatter (explicit packing and
//     point-to-point messages) over either MPI build;
//  2. "MVAPICH2-0.9.5": MPI derived datatypes + collectives over the
//     baseline MPI (single-context pack engine, uniform-volume collective
//     algorithms, round-robin Alltoallw);
//  3. "MVAPICH2-New": the same datatype/collective path over the MPI with
//     all of the paper's designs enabled (dual-context look-ahead engine,
//     outlier-adaptive Allgatherv, binned Alltoallw) —
//
// and provides constructors for worlds on the paper's simulated testbed.
// The pieces themselves live in internal/datatype (pack engines),
// internal/kselect (outlier detection), internal/mpi (runtime and
// collectives), and internal/petsc, internal/dmda, internal/mg (the PETSc
// stack).
package core

import (
	"nccd/internal/mpi"
	"nccd/internal/petsc"
	"nccd/internal/simnet"
)

// Arm is one experimental configuration: an MPI build plus the scatter
// backend the PETSc layer uses on it.
type Arm struct {
	// Name as the paper labels it.
	Name string
	// Config is the MPI build (Baseline = MVAPICH2-0.9.5-like, Optimized =
	// MVAPICH2-New).
	Config mpi.Config
	// Mode is the PETSc scatter backend.
	Mode petsc.ScatterMode
}

// Arms returns the paper's three experimental arms in presentation order.
func Arms() []Arm {
	return []Arm{
		{Name: "MVAPICH2-0.9.5", Config: mpi.Baseline(), Mode: petsc.ScatterDatatype},
		{Name: "MVAPICH2-New", Config: mpi.Optimized(), Mode: petsc.ScatterDatatype},
		{Name: "hand-tuned", Config: mpi.Baseline(), Mode: petsc.ScatterHandTuned},
	}
}

// MPIArms returns only the two MPI-level arms (for the microbenchmarks,
// which do not involve the PETSc scatter).
func MPIArms() []Arm {
	return Arms()[:2]
}

// NewPaperWorld creates an n-rank world on the simulated paper testbed
// (32 Intel + 32 Opteron InfiniBand nodes; see simnet.Paper).
func NewPaperWorld(n int, cfg mpi.Config) *mpi.World {
	return mpi.NewWorld(simnet.Paper(n), cfg)
}

// NewUniformWorld creates an n-rank world on a homogeneous IB DDR cluster
// with no skew — useful for deterministic unit experiments.
func NewUniformWorld(n int, cfg mpi.Config) *mpi.World {
	return mpi.NewWorld(simnet.Uniform(n, simnet.IBDDR()), cfg)
}
