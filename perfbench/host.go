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

// hostBlock describes where a run executed. It is printed with every run
// for diagnosis only; no metric is adjusted by it.
type hostBlock struct {
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	PoolWorkers int    `json:"pool_workers"`
	// StoreFS is the file system of verifyd's store and spool directory,
	// or "none" for the in-process workloads, which keep no store.
	StoreFS string `json:"store_fs"`
	// StealJiffies is the host's steal time over the timed window, summed
	// over all CPUs, from /proc/stat (USER_HZ ticks; -1 if unreadable).
	StealJiffies int64 `json:"steal_jiffies"`
}

func newHostBlock(storeFS string) hostBlock {
	return hostBlock{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		PoolWorkers: poolWorkers,
		StoreFS:     storeFS,
	}
}

// stealJiffies reads the aggregate steal counter from /proc/stat, or -1.
func stealJiffies() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := strings.Fields(string(line))
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// stealSince returns the steal jiffies since an earlier reading, or -1.
func stealSince(s0 int64) int64 {
	s1 := stealJiffies()
	if s0 < 0 || s1 < 0 {
		return -1
	}
	return s1 - s0
}

// fsName names the file system holding dir.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTick = 100

// procCPU returns the user+system CPU time of another process from
// /proc/<pid>/stat, at 1/USER_HZ resolution.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	fields := strings.Fields(string(data[i+1:]))
	// After the name: state(3) ... utime(14) stime(15), 1-based overall.
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// peakRSS returns a process's peak resident set size (VmHWM) in bytes;
// pid 0 means this process.
func peakRSS(pid int) (int64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: VmHWM: %w", path, err)
		}
		return kb << 10, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no VmHWM", path)
}
