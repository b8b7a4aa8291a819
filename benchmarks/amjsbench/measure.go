package main

import (
	"bufio"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"amjs/internal/units"
)

// cpuTime is the process's user+system CPU time so far. Unlike wall
// time it counts both cores, so a workload that buys wall time with the
// second core shows a higher cpu_ms_per_kjob.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is the cumulative heap bytes allocated by the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// resetPeakRSS asks the kernel to restart the VmHWM high-water mark at
// the current resident size, so peak_rss_mib reports the timed window
// and not the Paranoid verification op, which records a full event
// trace. Where the kernel refuses, VmHWM keeps covering the whole
// process; both commits of a comparison run on the same kernel.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads VmHWM, the process's peak resident set.
func peakRSSMiB() float64 {
	fields := strings.Fields(procField("/proc/self/status", "VmHWM:"))
	if len(fields) == 0 {
		return 0
	}
	kib, _ := strconv.ParseFloat(fields[0], 64)
	return kib / 1024
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	if _, v, ok := strings.Cut(procField("/proc/cpuinfo", "model name"), ":"); ok {
		return strings.TrimSpace(v)
	}
	return "unknown"
}

// procField returns the rest of the first line of a /proc file that
// starts with prefix, or "" when there is none.
func procField(path, prefix string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			return rest
		}
	}
	return ""
}

// span is one job's place in a schedule, the unit the digest covers.
type span struct{ start, end units.Time }

// scheduleDigest is FNV-1a over (ID, Start, End) in ID order. spans is
// indexed by ID-1: every trace here numbers its jobs 1..n.
func scheduleDigest(spans []span) uint64 {
	h := fnv.New64a()
	for i, s := range spans {
		put(h, int64(i+1))
		put(h, int64(s.start))
		put(h, int64(s.end))
	}
	return h.Sum64()
}

func put(h hash.Hash64, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}
