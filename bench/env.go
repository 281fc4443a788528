package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// environment is what a set of runs records about the machine it ran
// on, so two result files can be told apart before they are compared.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	Load1      float64 `json:"load1"`
	// Noisy marks a set started while the 1-minute load average was
	// above nproc/2: its timings are suspect and -compare says so.
	Noisy bool `json:"noisy"`
}

// benchProcs is the GOMAXPROCS every workload runs under: the ranks of
// a 2x2 mesh want four, a smaller machine gives what it has.
func benchProcs() int { return min(runtime.NumCPU(), 4) }

func captureEnvironment() environment {
	e := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: benchProcs(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Commit:     gitCommit(),
		Load1:      loadAverage(),
	}
	e.Noisy = e.Load1 > float64(e.NProc)/2
	return e
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the commit being measured; a checkout that is not a
// git repository (the driver's) reports "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func loadAverage() float64 {
	f, _, _ := strings.Cut(firstLine("/proc/loadavg"), " ")
	v, err := strconv.ParseFloat(f, 64)
	if err != nil {
		return 0
	}
	return v
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// resident-set high-water mark, so that peakRSSMB afterwards covers the
// timed phase and not the set-ups before it. Where the kernel refuses
// (clear_refs is Linux >= 4.0), the mark keeps covering the whole run.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in
// MB. The coordinator and the four grid ranks share this process, so
// every copy of the dataset they hold is counted.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
