package simnet

import (
	"fmt"
	"math"
)

// FaultPlan is a deterministic, seed-driven fault model layered over the
// cluster's wire.  Every decision — whether a given transmission attempt of
// a given message is dropped, duplicated, corrupted or delayed, and when a
// rank crashes — is a pure function of (Seed, link, message sequence,
// attempt), so a run with a fixed plan is exactly reproducible regardless of
// goroutine scheduling.
//
// Probabilities are per transmission attempt and independent; Drop and
// Corrupt both count as a failed attempt for the reliability layer (a
// corrupted copy is really delivered so the receiver's checksum path is
// exercised, but it never matches and the sender must retransmit).
type FaultPlan struct {
	// Seed drives every pseudo-random decision the plan makes.
	Seed uint64

	// Drop is the probability that an attempt's payload is lost on the wire.
	Drop float64
	// Duplicate is the probability that a successfully delivered attempt
	// arrives twice (the receiver's dedup layer discards the extra copy).
	Duplicate float64
	// Corrupt is the probability that an attempt arrives with flipped bits;
	// the receiver's checksum rejects it, which the sender observes as loss.
	// Zero-byte payloads cannot be corrupted; Corrupt acts as Drop for them.
	Corrupt float64
	// DelayMean, when positive, adds a uniform [0, 2*DelayMean) extra wire
	// delay (seconds of virtual time) to every delivered copy.
	DelayMean float64

	// Links, when non-nil, restricts the loss/duplication/corruption/delay
	// model to the listed directed (src, dst) world-rank pairs; nil applies
	// it to every link.  Crashes are unaffected.
	Links []Link

	// CrashAt schedules rank crashes: CrashAt[rank] is the virtual time in
	// seconds at or after which the rank dies at its next operation.
	CrashAt map[int]float64

	linkSet map[Link]struct{} // lazily built from Links
}

// Validate refuses a plan no run could finish under: a probability that is
// not a number in [0, 1) (at 1 every attempt fails and a reliable send
// retransmits for ever), or a mean delay that is negative or not finite.
func (f *FaultPlan) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", f.Drop}, {"duplicate", f.Duplicate}, {"corrupt", f.Corrupt}} {
		if !(p.v >= 0 && p.v < 1) { // NaN compares false
			return fmt.Errorf("simnet: fault plan: %s probability %v not in [0, 1)", p.name, p.v)
		}
	}
	if !(f.DelayMean >= 0) || math.IsInf(f.DelayMean, 1) {
		return fmt.Errorf("simnet: fault plan: mean delay %v not a finite number of seconds >= 0", f.DelayMean)
	}
	return nil
}

// Link is a directed sender→receiver pair of world ranks.
type Link struct{ Src, Dst int }

// Attempt reports the deterministic outcome of transmission attempt number
// attempt (0-based) of message seq on link src→dst: whether the payload is
// lost outright, delivered twice, delivered with corruption, and how much
// extra delay the delivered copy (and its duplicate) suffers.
func (f *FaultPlan) Attempt(src, dst int, seq uint64, attempt int) (drop, dup, corrupt bool, delay float64) {
	if f == nil || !f.onLink(src, dst) {
		return false, false, false, 0
	}
	h := f.Seed
	h = splitmix64(h ^ uint64(src)*0x9e3779b97f4a7c15)
	h = splitmix64(h ^ uint64(dst)*0xbf58476d1ce4e5b9)
	h = splitmix64(h ^ seq*0x94d049bb133111eb)
	h = splitmix64(h ^ uint64(attempt)*0xd6e8feb86659fd93)
	drop = unit(splitmix64(h^1)) < f.Drop
	dup = unit(splitmix64(h^2)) < f.Duplicate
	corrupt = unit(splitmix64(h^3)) < f.Corrupt
	if f.DelayMean > 0 {
		delay = f.DelayMean * 2 * unit(splitmix64(h^4))
	}
	return drop, dup, corrupt, delay
}

// CorruptByte picks the deterministic payload offset to damage for message
// seq on link src→dst (attempt attempt) given the payload length.
func (f *FaultPlan) CorruptByte(src, dst int, seq uint64, attempt, length int) int {
	if length <= 0 {
		return 0
	}
	h := splitmix64(f.Seed ^ uint64(src)<<32 ^ uint64(dst) ^ seq*0xff51afd7ed558ccd ^ uint64(attempt)<<16 ^ 5)
	return int(h % uint64(length))
}

// Lossy reports whether the plan can interfere with messages at all (as
// opposed to only scheduling crashes).
func (f *FaultPlan) Lossy() bool {
	return f != nil && (f.Drop > 0 || f.Duplicate > 0 || f.Corrupt > 0 || f.DelayMean > 0)
}

// CrashTime returns the scheduled crash time of rank r, or +Inf if the rank
// never crashes.
func (f *FaultPlan) CrashTime(r int) float64 {
	if f == nil || f.CrashAt == nil {
		return math.Inf(1)
	}
	if t, ok := f.CrashAt[r]; ok {
		return t
	}
	return math.Inf(1)
}

func (f *FaultPlan) onLink(src, dst int) bool {
	if f.Links == nil {
		return true
	}
	if f.linkSet == nil {
		f.linkSet = make(map[Link]struct{}, len(f.Links))
		for _, l := range f.Links {
			f.linkSet[l] = struct{}{}
		}
	}
	_, ok := f.linkSet[Link{src, dst}]
	return ok
}

// unit maps a hash to a uniform float64 in [0, 1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}
