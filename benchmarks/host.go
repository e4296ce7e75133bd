package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the fingerprint every result file carries: numbers from two
// hosts are not comparable, and a baseline is only a baseline for the host
// it names.
type hostInfo struct {
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	CPUModel   string            `json:"cpu_model"`
	Caches     map[string]string `json:"caches"`
	LoadAvg    string            `json:"loadavg"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: "unknown", Caches: map[string]string{},
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		level, err1 := os.ReadFile(dir + "level")
		typ, err2 := os.ReadFile(dir + "type")
		size, err3 := os.ReadFile(dir + "size")
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		key := "L" + strings.TrimSpace(string(level)) + strings.ToLower(strings.TrimSpace(string(typ)))[:1]
		h.Caches[key] = strings.TrimSpace(string(size))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg = strings.TrimSpace(string(b))
	}
	return h
}

// fingerprint names the host class a baseline belongs to.
func (h hostInfo) fingerprint() string {
	model := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		}
		return -1
	}, h.CPUModel)
	if len(model) > 24 {
		model = model[:24]
	}
	return fmt.Sprintf("%s-%s-%dcpu-%s", h.GOOS, h.GOARCH, h.NProc, model)
}

// cpuTicks is the aggregate cpu line of /proc/stat, in clock ticks.
type cpuTicks struct {
	user, nice, system, idle, iowait, irq, softirq, steal float64
	ok                                                    bool
}

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]float64
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64)
	}
	return cpuTicks{v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7], true}
}

// noiseProbe is what the rest of the machine did while a workload ran:
// shares of all cpu time across the workload, from /proc/stat deltas.
// Steal is time the hypervisor gave to someone else.  A neighbour on the
// host's cores shows in none of those, so the multigrid workloads add what
// their reference sweeps saw: how many times their quiet-host time the
// sweeps took, and the fastest datatype-arm op by the wall clock, to check
// the corrected op_ms against.
type noiseProbe struct {
	StealPct      float64 `json:"steal_pct"`
	UserPct       float64 `json:"user_pct"`
	SystemPct     float64 `json:"system_pct"`
	IdlePct       float64 `json:"idle_pct"`
	LoadAvg       string  `json:"loadavg_after"`
	RefSlowP10    float64 `json:"ref_sweep_slow_p10,omitempty"`
	RefSlowMedian float64 `json:"ref_sweep_slow_median,omitempty"`
	FastestWallMs float64 `json:"uncorrected_op_ms_fastest,omitempty"`
}

func noiseBetween(a, b cpuTicks) noiseProbe {
	var n noiseProbe
	if load, err := os.ReadFile("/proc/loadavg"); err == nil {
		n.LoadAvg = strings.TrimSpace(string(load))
	}
	total := (b.user + b.nice + b.system + b.idle + b.iowait + b.irq + b.softirq + b.steal) -
		(a.user + a.nice + a.system + a.idle + a.iowait + a.irq + a.softirq + a.steal)
	if !a.ok || !b.ok || total <= 0 {
		return n
	}
	n.StealPct = 100 * (b.steal - a.steal) / total
	n.UserPct = 100 * (b.user + b.nice - a.user - a.nice) / total
	n.SystemPct = 100 * (b.system + b.irq + b.softirq - a.system - a.irq - a.softirq) / total
	n.IdlePct = 100 * (b.idle + b.iowait - a.idle - a.iowait) / total
	return n
}
