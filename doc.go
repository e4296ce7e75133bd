// Package nccd reproduces "Nonuniformly Communicating Noncontiguous Data:
// A Case Study with PETSc and MPI" (Balaji, Buntinas, Balay, Smith, Thakur,
// Gropp; IPDPS 2007) as a pure-Go system: an MPI runtime with derived
// datatypes and nonuniform-volume collectives, a mini-PETSc stack (vectors,
// index sets, scatters, distributed arrays, geometric multigrid), a
// virtual-time cluster model standing in for the paper's InfiniBand testbed,
// and a benchmark harness regenerating every figure of the paper's
// evaluation.  See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
//
// The root package holds no code; the library lives under internal/ and the
// executables under cmd/.  Root-level bench_test.go hosts one testing.B
// benchmark per paper figure.
package nccd
