// Package mpi is an in-process message-passing runtime reproducing the MPI
// features the paper studies: derived-datatype communication with pipelined
// pack engines, and collective operations with both the baseline (uniform-
// volume-tuned) algorithms of MPICH2/MVAPICH2-0.9.5 and the paper's
// nonuniform-aware replacements.
//
// Each rank is a goroutine.  Data really moves between ranks, so all
// correctness properties are end-to-end testable; in addition every rank
// maintains a virtual clock advanced by the simnet cost model, so latencies
// have the deterministic, hardware-independent shape the experiments need.
package mpi

import (
	"nccd/internal/datatype"
	"nccd/internal/kselect"
)

// AllgathervAlgo selects the MPI_Allgatherv implementation.
type AllgathervAlgo uint8

const (
	// AGAuto picks by the baseline MPICH2 rule: recursive doubling (or
	// dissemination for non-power-of-two sizes) for short totals, ring for
	// long totals — with no regard for volume nonuniformity.
	AGAuto AllgathervAlgo = iota
	// AGAdaptive is the paper's rule: detect volume outliers with the
	// Floyd–Rivest-based ratio; nonuniform sets use recursive doubling /
	// dissemination regardless of total size, uniform sets fall back to
	// the baseline rule.
	AGAdaptive
	// AGRing forces the ring algorithm.
	AGRing
	// AGRecursiveDoubling forces recursive doubling (requires a
	// power-of-two number of ranks).
	AGRecursiveDoubling
	// AGDissemination forces the dissemination (Bruck-style) algorithm.
	AGDissemination
)

func (a AllgathervAlgo) String() string {
	switch a {
	case AGAuto:
		return "auto"
	case AGAdaptive:
		return "adaptive"
	case AGRing:
		return "ring"
	case AGRecursiveDoubling:
		return "recursive-doubling"
	case AGDissemination:
		return "dissemination"
	}
	return "unknown"
}

// AlltoallwAlgo selects the MPI_Alltoallw implementation.
type AlltoallwAlgo uint8

const (
	// ATRoundRobin is the baseline: every rank exchanges with every other
	// rank in round-robin order, including zero-byte pairs, processing
	// messages in peer order.
	ATRoundRobin AlltoallwAlgo = iota
	// ATBinned is the paper's design: zero-volume peers are exempted
	// entirely, small messages are processed before large ones.
	ATBinned
)

func (a AlltoallwAlgo) String() string {
	if a == ATRoundRobin {
		return "round-robin"
	}
	return "binned"
}

// Config selects the implementation variants a World runs with.  The two
// presets Baseline and Optimized correspond to the paper's MVAPICH2-0.9.5
// and MVAPICH2-New configurations.
type Config struct {
	// Engine selects the datatype pack engine.
	Engine datatype.EngineKind
	// Datatype tunes pipelining granularity, look-ahead and density.
	Datatype datatype.Options
	// Allgatherv selects the MPI_Allgatherv algorithm policy.
	Allgatherv AllgathervAlgo
	// Alltoallw selects the MPI_Alltoallw algorithm.
	Alltoallw AlltoallwAlgo
	// OutlierThreshold is the outlier ratio at which AGAdaptive declares a
	// volume set nonuniform.  Zero takes the paper's 16; the outlier
	// fraction is always the paper's OUTLIER_FRACT (both in
	// kselect.DefaultOutlierParams).
	OutlierThreshold float64
	// BinThresholdBytes is the Alltoallw boundary between the small and
	// large bins.  Default 1 KiB.
	BinThresholdBytes int
	// Job labels this world as one tenant of a multi-job service.  Zero
	// (the default) is a standalone world.  The label flows into the
	// world's spans (obs.Span.Job) so one process's traces separate by
	// tenant; frame-level isolation itself lives in the transport mux,
	// which stamps its own job id on the wire.
	Job uint64
}

// DefaultBinThreshold is BinThresholdBytes when the field is zero.
const DefaultBinThreshold = 1024

// Fixed protocol and algorithm thresholds.  The ack/retransmission
// protocol that masks message loss under fault injection waits ackTimeout
// seconds of virtual time before the first retransmission, multiplies the
// wait by ackBackoff after every failed attempt, and raises ErrTimeout
// after maxAttempts transmissions.  The baseline Allgatherv rule switches
// from recursive doubling/dissemination to the ring algorithm at a total
// of ringThresholdBytes.
const (
	ackTimeout         = 50e-6
	ackBackoff         = 2.0
	maxAttempts        = 16
	ringThresholdBytes = 32 * 1024
)

func (c Config) withDefaults() Config {
	if c.BinThresholdBytes <= 0 {
		c.BinThresholdBytes = DefaultBinThreshold
	}
	if c.OutlierThreshold == 0 {
		c.OutlierThreshold = kselect.DefaultOutlierParams.Threshold
	}
	// c.Datatype zero fields are filled by the pack engine itself.
	return c
}

// Baseline returns the MVAPICH2-0.9.5-like configuration: single-context
// pack engine, uniform-volume collective algorithm selection, round-robin
// Alltoallw.
func Baseline() Config {
	return Config{
		Engine:     datatype.SingleContext,
		Allgatherv: AGAuto,
		Alltoallw:  ATRoundRobin,
	}
}

// Optimized returns the MVAPICH2-New configuration with all of the paper's
// designs enabled: dual-context look-ahead engine, outlier-adaptive
// Allgatherv, binned Alltoallw.
func Optimized() Config {
	return Config{
		Engine:     datatype.DualContext,
		Allgatherv: AGAdaptive,
		Alltoallw:  ATBinned,
	}
}

// Compiled returns the configuration this repository moves beyond the paper
// with: the Optimized collective algorithms plus the compiled-plan datatype
// path — derived types are compiled once into cached kernel programs
// (strided runs, offset tables, 8- and 16-byte word loops) and every
// send/recv packs through them instead of interpreting the type tree.  The
// dual-context engine remains available as the streaming fallback and
// correctness oracle.
func Compiled() Config {
	return Config{
		Engine:     datatype.CompiledPlans,
		Allgatherv: AGAdaptive,
		Alltoallw:  ATBinned,
	}
}
