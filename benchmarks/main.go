// Command benchmarks is the repository's benchmark spine: three closed-loop
// workloads, each measured under the paper's datatype arm and hand-tuned
// arm, five gated end-to-end metrics per workload, and a traced run that
// replays every layer for the per-layer budget.  See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// workloadDef is one closed-loop workload.
type workloadDef struct {
	name, why string
	kind      string                  // transport of the workload's meshes
	np        int                     // ranks per solve
	builds    int                     // fresh builds sampled for setup_s
	gcEvery   int                     // ops between forced collections, outside the timed interval
	quiet     func([]float64) float64 // quiet-host estimator of the workload's timing samples
	build     func(seed int64, sz sizes) (instance, error)
}

var workloads = []workloadDef{
	{
		name: "mg96_np1",
		why:  "96^3 multigrid solve on one rank: solver kernels do at least 90% of the work; the plain single-rank baseline",
		kind: kindInproc, np: 1, builds: 20, gcEvery: 1, quiet: lowerQuartile,
		build: func(seed int64, sz sizes) (instance, error) {
			return buildMG(kindInproc, 1, seed, sz.mgExtent, sz.mgLevels)
		},
	},
	{
		name: "mg96_np2_tcp",
		why:  "the same solve on two ranks over TCP loopback: the full stack, ghost exchange, Alltoallw, framing and syscalls",
		kind: kindTCP, np: 2, builds: 20, gcEvery: 1, quiet: lowerQuartile,
		build: func(seed int64, sz sizes) (instance, error) {
			return buildMG(kindTCP, 2, seed, sz.mgExtent, sz.mgLevels)
		},
	},
	{
		name: "vecscatter_np2_shm",
		why:  "the paper's Fig. 16 scatter over shm rings: 32768 8-byte segments each way, communication only, no solver",
		kind: kindShm, np: 2, builds: 60, gcEvery: 1000, quiet: fastest,
		build: func(seed int64, sz sizes) (instance, error) {
			return buildScatter(kindShm, 2, seed, sz.scatterN)
		},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload, as written to a result file.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	TimedSec  float64           `json:"timed_seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Refused   int               `json:"refused"`
	Metrics   map[string]metric `json:"metrics"`
	Noise     noiseProbe        `json:"noise"`
}

// resultFile is what -out writes and what baseline-<fingerprint>.json holds.
type resultFile struct {
	Host hostInfo    `json:"host"`
	Runs []runResult `json:"runs"`
}

// measure runs one workload once.  An untraced run reports the end-to-end
// metrics; a traced run reports the per-layer metrics and, when traceOut
// is set, writes the harness spans there as Chrome trace JSON.
func measure(log io.Writer, def workloadDef, sz sizes, seed int64, seconds float64, traced bool, traceOut string) (*runResult, error) {
	ticks0 := readCPUTicks()
	dropRefSweeps()
	build := func() (instance, error) { return def.build(seed, sz) }
	_, inst, err := timedBuild(build) // the process's first build is a cold one; the loop samples the rest
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	defer inst.close()
	if err := inst.prepare(); err != nil {
		return nil, fmt.Errorf("%s: reference: %w", def.name, err)
	}
	var tr *tracer
	dur := time.Duration(seconds * float64(time.Second))
	if traced {
		// The traced run splits its time between the workload's own loop
		// and the layer replays, so it costs what an untraced run costs.
		tr = &tracer{}
		dur /= 2
	}
	out, err := runLoop(inst, dur, def.gcEvery, build, def.builds, tr, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	res := &runResult{
		Workload: def.name, Seed: seed, Seconds: seconds, Traced: traced, TimedSec: out.timedSec,
		Attempted: out.attempted, Failed: out.failed, Refused: out.refused,
		Correct: out.failed == 0 && len(out.plain[armDT].step) > 0 && len(out.plain[armHand].step) > 0,
		Metrics: map[string]metric{},
	}
	steps := inst.steps()
	values := map[string]float64{
		"op_ms":         assemble(def.quiet, out.plain[armDT].init, out.plain[armDT].step, steps),
		"op_hand_ms":    assemble(def.quiet, out.plain[armHand].init, out.plain[armHand].step, steps),
		"setup_s":       p10(out.setup),
		"allocs_per_op": quantile(out.allocs, 0.5),
		"heap_mb":       out.heapMB,
	}
	defs := endToEnd
	if traced {
		layer, err := layerMetrics(log, def, inst, sz, seed, &out, values, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: layer replay: %w", def.name, err)
		}
		values, defs = layer, perLayer
		if traceOut != "" {
			if err := tr.writeChrome(traceOut); err != nil {
				return nil, fmt.Errorf("%s: trace: %w", def.name, err)
			}
		}
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", def.name, d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	res.Noise = noiseBetween(ticks0, readCPUTicks())
	if slow := out.plain[armDT].slow; len(slow) > 0 {
		res.Noise.RefSlowP10, res.Noise.RefSlowMedian = p10(slow), quantile(slow, 0.5)
		res.Noise.FastestWallMs = fastest(out.plain[armDT].total)
	}
	printRun(log, res, defs)
	return res, nil
}

func printRun(w io.Writer, r *runResult, defs []metricDef) {
	fmt.Fprintf(w, "workload %s, seed %d: %.1f s timed, %d ops attempted, %d failed, %d refused\n",
		r.Workload, r.Seed, r.TimedSec, r.Attempted, r.Failed, r.Refused)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(w, "  host noise: steal %.2f%%, user %.1f%%, system %.1f%%, idle %.1f%% of all cpu time; loadavg %s\n",
		r.Noise.StealPct, r.Noise.UserPct, r.Noise.SystemPct, r.Noise.IdlePct, r.Noise.LoadAvg)
	if r.Noise.RefSlowMedian > 0 {
		fmt.Fprintf(w, "  reference sweep: x%.2f its quiet-host time at the lower decile, x%.2f at the median; fastest uncorrected op %.1f ms\n",
			r.Noise.RefSlowP10, r.Noise.RefSlowMedian, r.Noise.FastestWallMs)
	}
}

// printContractLine prints the one-line JSON object the driver reads.
func printContractLine(w io.Writer, r *runResult) error {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeResultFile(path string, runs []runResult) error {
	data, err := json.MarshalIndent(resultFile{Host: readHost(), Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfCheck is the A/A mode: the whole suite n times on the same code,
// each time with another seed, and per workload and end-to-end metric the
// spread of the n values against the metric's bound.  The spread is the
// driver's: the distance between the first and third quartile over the
// median.
func selfCheck(w io.Writer, n int, seed int64, seconds float64) (ok bool, runs []runResult, err error) {
	vals := map[string][]float64{}
	for i := 0; i < n; i++ {
		for _, def := range workloads {
			r, err := measure(w, def, fullSizes, seed+int64(i), seconds, false, "")
			if err != nil {
				return false, runs, err
			}
			if !r.Correct {
				return false, runs, fmt.Errorf("%s: %d of %d ops failed", def.name, r.Failed, r.Attempted)
			}
			runs = append(runs, *r)
			for _, d := range endToEnd {
				key := def.name + "/" + d.Name
				vals[key] = append(vals[key], r.Metrics[d.Name].Value)
			}
		}
	}
	ok = true
	fmt.Fprintf(w, "\nA/A self-check, %d runs of %.0f s per workload\n", n, seconds)
	fmt.Fprintf(w, "%-20s %-14s %12s %12s %12s %8s %8s %7s\n", "workload", "metric", "min", "median", "max", "range", "spread", "bound")
	for _, def := range workloads {
		for _, d := range endToEnd {
			v := vals[def.name+"/"+d.Name]
			sort.Float64s(v)
			med := quantile(v, 0.5)
			q1, q3 := quartiles(v)
			spread := (q3 - q1) / med
			verdict := ""
			if spread > d.Bound {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Fprintf(w, "%-20s %-14s %12.4f %12.4f %12.4f %7.2f%% %7.2f%% %6.0f%%%s\n",
				def.name, d.Name, v[0], med, v[len(v)-1], 100*(v[len(v)-1]-v[0])/med, 100*spread, 100*d.Bound, verdict)
		}
	}
	return ok, runs, nil
}

func run() error {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "input seed: vector contents and forcing amplitude")
	seconds := flag.Float64("seconds", 32, "how long one workload measures")
	trace := flag.String("trace", "0", "0: end-to-end run; 1: traced run with per-layer metrics; a file name: traced run that also writes its spans there as Chrome trace JSON")
	aa := flag.Int("aa", 0, "A/A self-check: run the whole suite this many times and compare the spread with the bounds")
	out := flag.String("out", "", "also write the results, with the host fingerprint, to this JSON file")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	host := readHost()
	fmt.Printf("host %s: %d cpus, GOMAXPROCS %d, %s, %s, caches %v, loadavg %s\n",
		host.fingerprint(), host.NProc, host.GOMAXPROCS, host.GoVersion, host.CPUModel, host.Caches, host.LoadAvg)

	if *aa > 0 {
		ok, runs, err := selfCheck(os.Stdout, *aa, *seed, *seconds)
		if err != nil {
			return err
		}
		if *out != "" {
			if err := writeResultFile(*out, runs); err != nil {
				return err
			}
		}
		if !ok {
			return fmt.Errorf("A/A spread exceeds a bound")
		}
		return nil
	}

	defs := workloads
	if *workload != "all" {
		def, ok := findWorkload(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		defs = []workloadDef{def}
	}
	traced, traceOut := *trace != "0", ""
	if traced && *trace != "1" {
		traceOut = *trace
	}
	var runs []runResult
	for _, def := range defs {
		path := traceOut
		if path != "" && len(defs) > 1 {
			path = def.name + "-" + path
		}
		r, err := measure(os.Stdout, def, fullSizes, *seed, *seconds, traced, path)
		if err != nil {
			return err
		}
		runs = append(runs, *r)
		if err := printContractLine(os.Stdout, r); err != nil {
			return err
		}
	}
	if *out != "" {
		return writeResultFile(*out, runs)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}
