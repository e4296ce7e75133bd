package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"nccd/internal/obs"
)

// smokeSizes keeps every workload's shape but shrinks it to run in a test.
var smokeSizes = sizes{mgExtent: 16, mgLevels: 3, scatterN: 1 << 10, svcExtent: 16, svcLevels: 2}

// TestP10SurvivesBursts feeds the estimator what this host produces: a
// quiet cost with small jitter, and bursts of interference that only add
// time.  The lower decile must stay on the quiet cost where the median and
// the mean leave it.
func TestP10SurvivesBursts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const quiet = 100.0
	for _, burstShare := range []float64{0, 0.3, 0.6, 0.8} {
		xs := make([]float64, 400)
		for i := range xs {
			xs[i] = quiet * (1 + 0.01*rng.Float64())
			if rng.Float64() < burstShare {
				xs[i] += quiet * (0.2 + rng.Float64())
			}
		}
		if got := p10(xs); math.Abs(got-quiet)/quiet > 0.02 {
			t.Errorf("burst share %.0f%%: p10 = %.2f, want within 2%% of %.0f", 100*burstShare, got, quiet)
		}
		if burstShare >= 0.6 {
			if med := quantile(xs, 0.5); med < 1.15*quiet {
				t.Errorf("burst share %.0f%%: median %.2f did not move; the test no longer shows why p10 is used", 100*burstShare, med)
			}
		}
	}
	if got := p10(nil); got != 0 {
		t.Errorf("p10 of no samples = %v, want 0", got)
	}
	if got := quantile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("median of 3,1,2 = %v", got)
	}
	// statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
	if q1, q3 := quartiles([]float64{1, 2, 4, 7, 11}); q1 != 1.5 || q3 != 9 {
		t.Errorf("quartiles of 1,2,4,7,11 = %v, %v, want 1.5, 9", q1, q3)
	}
}

// TestAssemble checks op_ms = quiet(init) + cycles * quiet(cycle), and that
// the samples of an op split at its marks the way the assembly expects.
func TestAssemble(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	inst := func(ms int) mark { return mark{at(ms), at(ms)} }
	var s samples
	// init 10 ms, then cycles of 100, 110 and 120 ms.
	s.add(opTiming{start: at(0), end: at(340), marks: []mark{inst(10), inst(110), inst(220)}})
	// init 30 ms, then three cycles of 100 ms.
	s.add(opTiming{start: at(1000), end: at(1330), marks: []mark{inst(1030), inst(1130), inst(1230)}})
	if len(s.init) != 2 || len(s.step) != 6 || len(s.total) != 2 {
		t.Fatalf("got %d init, %d step, %d total samples", len(s.init), len(s.step), len(s.total))
	}
	want := p10([]float64{10, 30}) + 3*p10([]float64{100, 110, 120, 100, 100, 100})
	if got := assemble(p10, s.init, s.step, 3); math.Abs(got-want) > 1e-9 {
		t.Errorf("assemble = %v, want %v", got, want)
	}
	var single samples
	single.add(opTiming{start: at(0), end: at(7)})
	if got := assemble(fastest, single.init, single.step, 1); got != 7 {
		t.Errorf("single-phase op assembled to %v ms, want 7", got)
	}
}

// TestReferenceSweepCorrection runs the same op on a quiet host and on one
// a neighbour slows 1.6 times from the second cycle on, phases and
// reference sweeps alike: the corrected samples must agree, the time
// inside the marks must be left out, and the wall clock must still show
// the difference.
func TestReferenceSweepCorrection(t *testing.T) {
	const quiet = 2 * time.Millisecond
	op := func(slowFrom int) opTiming {
		now := time.Unix(1000, 0)
		speed := func(phase int) float64 {
			if phase >= slowFrom {
				return 1.6
			}
			return 1
		}
		scaled := func(d time.Duration, phase int) time.Duration { return time.Duration(float64(d) * speed(phase)) }
		o := opTiming{start: now, refQuiet: quiet, refPre: quiet}
		for phase, d := range []time.Duration{10 * time.Millisecond, 100 * time.Millisecond, 100 * time.Millisecond, 100 * time.Millisecond} {
			now = now.Add(scaled(d, phase))
			if phase == 3 {
				break
			}
			// The sweep after a phase runs at the speed of the next one.
			m := mark{at: now}
			now = now.Add(scaled(quiet, phase+1))
			m.resume = now
			o.marks = append(o.marks, m)
		}
		o.end, o.refPost = now, scaled(quiet, 3)
		return o
	}
	var calm, noisy samples
	calm.add(op(99))
	noisy.add(op(2))
	if calm.total[0] != 310 || math.Abs(noisy.total[0]-(110+1.6*200)) > 1e-6 {
		t.Errorf("wall clock less the marks: calm %v ms, noisy %v ms, want 310 and 430", calm.total[0], noisy.total[0])
	}
	if calm.init[0] != 10 || noisy.init[0] != 10 {
		t.Errorf("init: calm %v, noisy %v, want 10", calm.init[0], noisy.init[0])
	}
	for i, want := range []float64{100, 100, 100} {
		// The last quiet cycle has a quiet and a slow sweep beside it and is
		// corrected by their mean: the price of one sample at each change.
		if i == 0 {
			want = 100 / 1.3
		}
		if math.Abs(calm.step[i]-100) > 1e-6 || math.Abs(noisy.step[i]-want) > 1e-6 {
			t.Errorf("cycle %d: calm %v, noisy %v, want 100 and %v", i+1, calm.step[i], noisy.step[i], want)
		}
	}
}

// svcFixture is the service fixture of the traced run (svc.go), shaped as
// a workload so that the smoke tests cover its verification too.
var svcFixture = workloadDef{
	name: "service fixture", gcEvery: 1, quiet: p10,
	build: func(seed int64, sz sizes) (instance, error) { return buildSvc(2, seed, sz.svcExtent, sz.svcLevels) },
}

// burstOf is how many ops one hand-over to the ranks runs.
func burstOf(def workloadDef) int {
	if def.name == "vecscatter_np2_shm" {
		return scatterBurst
	}
	return 1
}

// smoke runs a workload's loop for dur (the warm-ups alone when dur is 0)
// with the op numbered bad corrupted, and checks that exactly that op is counted as failed and not timed.
func smoke(t *testing.T, def workloadDef, seed int64, bad int, dur time.Duration) (instance, loopOut) {
	t.Helper()
	inst, err := def.build(seed, smokeSizes)
	if err != nil {
		t.Fatalf("%s: build: %v", def.name, err)
	}
	t.Cleanup(inst.close)
	if err := inst.prepare(); err != nil {
		t.Fatalf("%s: prepare: %v", def.name, err)
	}
	out, err := runLoop(inst, dur, def.gcEvery, nil, 0, nil, func(op int) bool { return op == bad })
	if err != nil {
		t.Fatalf("%s: %v", def.name, err)
	}
	wantFailed := 0
	if bad > 0 {
		wantFailed = 1
	}
	if out.failed != wantFailed || out.refused != 0 {
		t.Fatalf("%s: %d failed and %d refused of %d ops, want %d failed", def.name, out.failed, out.refused, out.attempted, wantFailed)
	}
	timed := len(out.plain[armDT].total) + len(out.plain[armHand].total)
	if want := out.attempted - 2*burstOf(def) - wantFailed; timed != want {
		t.Fatalf("%s: %d ops timed, want %d: the %d attempted less the warm-ups and the failed one", def.name, timed, want, out.attempted)
	}
	return inst, out
}

// TestSmokeVerificationCatchesCorruption runs each workload small, once
// clean and once with one op's outputs damaged after the warm-ups: a
// corrupted residual history (multigrid, service) or destination element
// (scatter) must count as a failed op and its time must be discarded.
func TestSmokeVerificationCatchesCorruption(t *testing.T) {
	for _, def := range append(append([]workloadDef{}, workloads...), svcFixture) {
		def := def
		t.Run(def.name, func(t *testing.T) {
			smoke(t, def, 1, 0, 100*time.Millisecond)
			smoke(t, def, 1, 2*burstOf(def)+1, 100*time.Millisecond) // the first op after the warm-ups
		})
	}
}

// TestSeedsChangeDataNotCounts checks that the seed reaches the inputs and
// leaves every size, shape and count alone.
func TestSeedsChangeDataNotCounts(t *testing.T) {
	mgDef, _ := findWorkload("mg96_np2_tcp")
	i1, _ := smoke(t, mgDef, 1, 0, 0)
	i2, _ := smoke(t, mgDef, 2, 0, 0)
	m1, m2 := i1.(*mgInst), i2.(*mgInst)
	if m1.cycles() != m2.cycles() || m1.cycles() == 0 {
		t.Errorf("cycle counts %d and %d", m1.cycles(), m2.cycles())
	}
	if m1.ref[0] == m2.ref[0] {
		t.Errorf("seeds 1 and 2 gave the same first residual %v", m1.ref[0])
	}
	b1, b2 := m1.arms[armDT].ranks[0].b.Array(), m2.arms[armDT].ranks[0].b.Array()
	if len(b1) != len(b2) || b1[0] == b2[0] {
		t.Errorf("forcing: %d and %d cells, first %v and %v", len(b1), len(b2), b1[0], b2[0])
	}
	// Each arm has built its solver and solved once.
	s1, s2 := m1.arms[armDT].m.stats(), m2.arms[armDT].m.stats()
	if s1.MsgsSent != s2.MsgsSent || s1.BytesSent != s2.BytesSent {
		t.Errorf("traffic differs across seeds: %d msgs %d bytes, %d msgs %d bytes", s1.MsgsSent, s1.BytesSent, s2.MsgsSent, s2.BytesSent)
	}

	scDef, _ := findWorkload("vecscatter_np2_shm")
	j1, o1 := smoke(t, scDef, 1, 0, 0)
	j2, o2 := smoke(t, scDef, 2, 0, 0)
	if x1, x2 := j1.(*scatterInst).base[0], j2.(*scatterInst).base[0]; len(x1) != len(x2) || x1[0] == x2[0] {
		t.Errorf("scatter sources: %d and %d elements, first %v and %v", len(x1), len(x2), x1[0], x2[0])
	}
	if o1.attempted != 2*scatterBurst || o2.attempted != o1.attempted {
		t.Errorf("warm-ups ran %d and %d scatters, want %d", o1.attempted, o2.attempted, 2*scatterBurst)
	}

	k1, _ := smoke(t, svcFixture, 1, 0, 0)
	k2, _ := smoke(t, svcFixture, 2, 0, 0)
	v1, v2 := k1.(*svcInst), k2.(*svcInst)
	if v1.cycles() != v2.cycles() {
		t.Errorf("service batches of %d and %d cycles", v1.cycles(), v2.cycles())
	}
	same := true
	for i := 0; i < 8; i++ {
		p1, p2 := v1.arms[armDT].rng.Perm(batchJobs), v2.arms[armDT].rng.Perm(batchJobs)
		for k := range p1 {
			same = same && p1[k] == p2[k]
		}
	}
	if same {
		t.Errorf("seeds 1 and 2 submit jobs in the same order")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestMetricTablesAndContractFile checks the metric tables against the
// limits of the driver's contract, and BENCHMARK.json against the tables.
func TestMetricTablesAndContractFile(t *testing.T) {
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q with unit %q is outside the contract's alphabet", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Errorf("no setup_s metric in seconds, lower is better")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.name, len(w.why))
		}
	}

	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %+v, the harness has %q: %q", i, file.Workloads[i], w.name, w.why)
		}
	}
	compare := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the harness has %d", len(got), what, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("BENCHMARK.json %s metric %d is %+v, the harness has %+v", what, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd)
	compare("per_layer", file.PerLayer, perLayer)
	if file.RunSeconds < 1 || file.RunSeconds > 60 || len(file.Paths) != 1 || file.Paths[0] != "benchmarks" {
		t.Errorf("BENCHMARK.json: run_seconds %d, paths %v", file.RunSeconds, file.Paths)
	}
}

// TestTracedRunEmitsEveryLayerMetric does a whole traced run small: every
// per-layer metric must come out, the spans must load in the repo's own
// trace tooling, and the chains must nest the way the replays claim.
func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	def, _ := findWorkload("mg96_np2_tcp")
	def.builds = 2
	path := filepath.Join(t.TempDir(), "trace.json")
	res, err := measure(io.Discard, def, smokeSizes, 1, 0.4, true, path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced smoke run: %d of %d ops failed", res.Failed, res.Attempted)
	}
	for _, d := range perLayer {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("per-layer metric %s: %+v (present %v)", d.Name, m, ok)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, want the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
	if c := res.Metrics["mg.cycles"].Value; c < 1 {
		t.Errorf("mg.cycles = %v", c)
	}
	if m := res.Metrics["datatype.plan_cache_misses_per_op"].Value; m != 0 {
		t.Errorf("%v plan-cache misses per op in steady state", m)
	}
	if err := obs.ValidateChromeTraceFile(path); err != nil {
		t.Errorf("harness trace: %v", err)
	}
	evs, err := obs.ReadChromeTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	counts := obs.CountEvents(evs)
	for _, name := range []string{"mg.Solve", "mg.cycle", "mg.Apply", "dmda.GlobalToLocal.l0", "petsc.GhostScatter.DoArrays.l0",
		"petsc.DoArrays", "mpi.Alltoallw", "datatype.Pack", "transport.shm.oneway", "datatype.Unpack", "service.batch", "service.job"} {
		if counts[name] == 0 {
			t.Errorf("no %s span in the trace", name)
		}
	}
}

// TestUntracedRunReportsEndToEnd checks the result an untraced run hands
// to the driver.
func TestUntracedRunReportsEndToEnd(t *testing.T) {
	def, _ := findWorkload("vecscatter_np2_shm")
	def.builds = 3
	res, err := measure(io.Discard, def, smokeSizes, 3, 0.2, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", res)
	}
	for _, d := range endToEnd {
		if m := res.Metrics[d.Name]; m.Value <= 0 || m.Unit != d.Unit {
			t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", d.Name, m, d.Unit)
		}
	}
}
