package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord fingerprints the machine a result was measured on, so
// results from different hosts are never compared blindly. The shape
// follows a DetectHardware-style record: CPU count and model, memory,
// plus what this benchmark is sensitive to (Go version, kernel, the
// scratch filesystem's fsync cost) and a fixed calibration loop.
type hostRecord struct {
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	CPUModel      string  `json:"cpu_model"`
	Kernel        string  `json:"kernel"`
	TotalMemoryMB uint64  `json:"total_memory_mb"`
	ScratchFS     string  `json:"scratch_fs"`
	CalibrationNS float64 `json:"calibration_ns"`
}

func detectHost(scratch string) hostRecord {
	return hostRecord{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		CPUModel:      procField("/proc/cpuinfo", "model name"),
		Kernel:        readTrim("/proc/sys/kernel/osrelease"),
		TotalMemoryMB: memTotalMB(),
		ScratchFS:     fsType(scratch),
		CalibrationNS: calibrate(),
	}
}

// calibrate times a fixed integer loop (xorshift, data-dependent so the
// compiler cannot fold it) and returns the median of five timings in ns.
// Dividing a host-time metric by it normalizes across hosts to first
// order.
func calibrate() float64 {
	var ts []float64
	for i := 0; i < 5; i++ {
		x := uint64(88172645463325252)
		start := time.Now()
		for j := 0; j < 20_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ts = append(ts, float64(time.Since(start).Nanoseconds()))
		calibSink = x
	}
	return median(ts)
}

var calibSink uint64

func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func memTotalMB() uint64 {
	fields := strings.Fields(procField("/proc/meminfo", "MemTotal"))
	if len(fields) == 0 {
		return 0
	}
	kb, _ := strconv.ParseUint(fields[0], 10, 64)
	return kb / 1024
}

func readTrim(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// fsMagic names the statfs magic numbers of common filesystems.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x01021997: "9p",
	0x6A656A63: "virtiofs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
	0x65735546: "fuse",
}

func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}
