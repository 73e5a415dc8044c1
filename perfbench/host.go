package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	steal, total uint64
}

// parseProcStat reads the aggregate cpu line of a /proc/stat dump.
// total sums user, nice, system, idle, iowait, irq, softirq and steal;
// guest time is already counted inside user and nice.
func parseProcStat(data []byte) (cpuTimes, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "cpu" {
			continue
		}
		if len(fields) < 9 {
			return cpuTimes{}, fmt.Errorf("proc/stat: cpu line has %d fields, want at least 9", len(fields))
		}
		var t cpuTimes
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseUint(fields[i], 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("proc/stat: cpu field %d: %w", i, err)
			}
			t.total += v
			if i == 8 {
				t.steal = v
			}
		}
		return t, nil
	}
	return cpuTimes{}, fmt.Errorf("proc/stat: no aggregate cpu line")
}

// readCPUTimes samples /proc/stat; the zero value on hosts without it.
func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	t, err := parseProcStat(data)
	if err != nil {
		return cpuTimes{}
	}
	return t
}

// stealShare is the share of all CPU time the hypervisor stole between
// two samples: not a program metric, but it tells a noisy run from a
// regression.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// peakRSSMB is the process resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuModel names the host processor, for the run record.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// processCPU is the CPU time (user plus system) this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostInfo is recorded with every run so that two sets of figures can
// be told apart by the machine that made them.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	StealShare float64 `json:"steal_share"`
}
