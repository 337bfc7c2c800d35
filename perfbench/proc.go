package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPUSeconds returns the user+system CPU time of every thread of pid,
// live and exited, from /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields start after its ')'.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	// f[0] is field 3 (state), so utime (14) and stime (15) are f[11], f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return float64(ut+st) / clockTicks, nil
}

// statusField returns a "Key:  value kB"-style field of a status file as
// its first number.
func statusField(path, key string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			fs := strings.Fields(rest)
			if len(fs) == 0 {
				break
			}
			return strconv.ParseUint(fs[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s field", path, key)
}

// peakRSSMiB returns VmHWM, the peak resident set of pid ("self" for this
// process), in MiB.
func peakRSSMiB(pid string) (float64, error) {
	kb, err := statusField("/proc/"+pid+"/status", "VmHWM")
	return float64(kb) / 1024, err
}

// ctxSwitches sums voluntary and involuntary context switches over the
// live threads of pid.
func ctxSwitches(pid int) (uint64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("/proc/%d/task: no threads", pid)
	}
	var total uint64
	for _, t := range tasks {
		v, err1 := statusField(t, "voluntary_ctxt_switches")
		n, err2 := statusField(t, "nonvoluntary_ctxt_switches")
		if err1 != nil || err2 != nil {
			continue // thread exited between the glob and the read
		}
		total += v + n
	}
	return total, nil
}

// cpuModel returns the "model name" of the first CPU in /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
