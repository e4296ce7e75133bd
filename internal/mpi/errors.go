package mpi

import (
	"errors"
	"fmt"
	"strings"
)

// Typed communication errors.  Blocking operations raise them when their
// peer can no longer respond; World.Run converts an uncaught one into that
// rank's returned error, and Guard lets fault-tolerant code intercept them
// mid-run (e.g. to Restore the communicator and resume).
var (
	// ErrRankFailed reports that a peer rank died (crashed, panicked or
	// aborted with an error) while this rank depended on it.
	ErrRankFailed = errors.New("mpi: peer rank failed")
	// ErrTimeout reports that a reliable transmission exhausted its retries
	// or a RecvDeadline expired.
	ErrTimeout = errors.New("mpi: operation timed out")
	// ErrDeadlock reports that the watchdog found every live rank blocked
	// with no message able to satisfy any of them.
	ErrDeadlock = errors.New("mpi: deadlock detected")
	// ErrRevoked reports that the communicator was revoked by a member
	// (Comm.Revoke) to interrupt peers for collective failure recovery.
	ErrRevoked = errors.New("mpi: communicator revoked")
)

// RankFailedError carries which rank failed and in what call the failure
// was observed.  It wraps ErrRankFailed.
type RankFailedError struct {
	Rank int    // world rank of the failed peer
	Call string // operation that observed the failure
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("mpi: rank %d failed (observed in %s)", e.Rank, e.Call)
}

func (e *RankFailedError) Unwrap() error { return ErrRankFailed }

// TimeoutError carries the peer and operation of an exhausted retransmission
// or expired deadline.  It wraps ErrTimeout.
type TimeoutError struct {
	Rank     int // world rank of the unresponsive peer, -1 if unknown
	Call     string
	Attempts int // transmission attempts made, 0 for receive deadlines
}

func (e *TimeoutError) Error() string {
	if e.Attempts > 0 {
		return fmt.Sprintf("mpi: %s to rank %d timed out after %d attempts", e.Call, e.Rank, e.Attempts)
	}
	return fmt.Sprintf("mpi: %s from rank %d timed out", e.Call, e.Rank)
}

func (e *TimeoutError) Unwrap() error { return ErrTimeout }

// RevokedError carries the operation interrupted by a revocation.  It wraps
// ErrRevoked.
type RevokedError struct {
	Call string
}

func (e *RevokedError) Error() string {
	return fmt.Sprintf("mpi: communicator revoked (observed in %s)", e.Call)
}

func (e *RevokedError) Unwrap() error { return ErrRevoked }

// BlockedRank describes one participant of a detected deadlock: where it is
// blocked and what it is waiting for.
type BlockedRank struct {
	Rank int    // world rank
	Call string // blocking operation, e.g. "Recv", "Barrier"
	Src  int    // world rank awaited, -1 for AnySource
	Tag  int
}

func (b BlockedRank) String() string {
	src := "any"
	if b.Src >= 0 {
		src = fmt.Sprintf("%d", b.Src)
	}
	return fmt.Sprintf("rank %d blocked in %s waiting for src=%s tag=%d", b.Rank, b.Call, src, b.Tag)
}

// DeadlockError names every blocked rank and, when the wait-for edges form
// one, the cycle.  It wraps ErrDeadlock.
type DeadlockError struct {
	Blocked []BlockedRank
	Cycle   []int // world ranks forming a wait-for cycle, empty if none found
}

func (e *DeadlockError) Error() string {
	var sb strings.Builder
	sb.WriteString("mpi: deadlock detected: ")
	for i, b := range e.Blocked {
		if i > 0 {
			sb.WriteString("; ")
		}
		sb.WriteString(b.String())
	}
	if len(e.Cycle) > 0 {
		sb.WriteString(" [wait-for cycle:")
		for _, r := range e.Cycle {
			fmt.Fprintf(&sb, " %d", r)
		}
		sb.WriteString("]")
	}
	return sb.String()
}

func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// commPanic transports a typed communication error up the stack of blocking
// MPI calls (which have error-free signatures) to the nearest Guard or to
// World.Run, which converts it into an ordinary returned error.
type commPanic struct{ err error }

// throwErr aborts the current operation with a typed communication error.
func throwErr(err error) {
	panic(commPanic{err})
}

// crashPanic terminates a rank whose scheduled FaultPlan crash time has
// arrived.  It is not catchable by Guard: the rank is gone.
type crashPanic struct{ rank int }

// Guard runs fn and converts a typed communication error raised by a
// blocking MPI call inside it (ErrRankFailed, ErrTimeout, ErrDeadlock) into
// a returned error, leaving the rank alive.  Fault-tolerant code wraps its
// work in Guard, then recovers through Comm.Restore and resumes.
// Other panics, including injected crashes, propagate.
func Guard(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if cp, ok := p.(commPanic); ok {
				err = cp.err
				return
			}
			panic(p)
		}
	}()
	return fn()
}
