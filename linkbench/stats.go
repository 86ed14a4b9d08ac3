package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// jain is Jain's fairness index over xs: 1 when every entry is equal.
func jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// procSample is a point-in-time reading of the process-wide counters the
// end-to-end metrics difference over the measured phase.
type procSample struct {
	at      time.Time
	cpu     time.Duration // user + system CPU of the whole process
	allocs  uint64        // heap objects allocated since start
	gcPause time.Duration // total stop-the-world GC pause
	steal   time.Duration // machine-wide hypervisor steal, -1 if unknown
}

var allocsMetric = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func sampleProcess() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(allocsMetric)
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	return procSample{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:  allocsMetric[0].Value.Uint64(),
		gcPause: gc.PauseTotal,
		steal:   hostSteal(),
	}
}

// hostSteal reads the machine's steal time from /proc/stat: time the
// hypervisor gave the physical cores to other guests while a vCPU of this
// machine wanted to run. On a shared host it is the main source of
// run-to-run spread in the wall-clock metrics, so runs report it.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100
}

// stealShare is the share of the machine's CPU time stolen between a and b,
// or -1 when steal is unknown.
func stealShare(a, b procSample) float64 {
	if a.steal < 0 || b.steal < 0 {
		return -1
	}
	return float64(b.steal-a.steal) / (float64(b.at.Sub(a.at)) * float64(runtime.NumCPU()))
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// cpuModel names the processor for the run record; "unknown" off Linux.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostInfo is the run record every result carries.
type hostInfo struct {
	NumCPU        int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	DecodeWorkers int    `json:"decode_workers"`
	GoVersion     string `json:"go_version"`
	CPUModel      string `json:"cpu_model"`
	Transport     string `json:"transport"`
}

func newHostInfo(transport string) hostInfo {
	return hostInfo{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		DecodeWorkers: decodeWorkers(),
		GoVersion:     runtime.Version(),
		CPUModel:      cpuModel(),
		Transport:     transport,
	}
}

// decodeWorkers leaves one core for the load generator and ingest.
func decodeWorkers() int {
	if n := runtime.NumCPU() - 1; n > 1 {
		return n
	}
	return 1
}
