package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
)

// A shared virtual host takes CPU time away in bursts that last longer than
// a run, so no median inside a run removes them: on the 2-vCPU sandbox the
// same binary reads 15-30% apart from one run to the next while the
// hypervisor's steal counter accounts for nearly all of it. The window
// therefore measures both what the process consumed and what the hypervisor
// withheld, and scales its wall-clock results by cpu/(cpu+steal).
//
// The factor is exact when steal hits a runnable vCPU at a uniform rate s:
// a phase with p busy vCPUs and CPU work W takes wall W/(p(1-s)) and
// accumulates steal p*s*wall = W*s/(1-s), so cpu/(cpu+steal) = 1-s for any p,
// and wall*(1-s) is the wall an undisturbed host would have shown. Time the
// process spends idle (waiting for a disk) accrues no steal and is left alone.

// cpuSeconds is the CPU time this process has consumed, user plus system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stealSeconds is the time, summed over CPUs, that the hypervisor ran
// something else while this machine wanted to run: the eighth counter of
// /proc/stat's first line, in USER_HZ ticks of 10 ms. It reads 0 on a host
// that does not report it.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// hostMark is one reading of the two host clocks.
type hostMark struct{ cpu, steal float64 }

func readHostMark() hostMark { return hostMark{cpuSeconds(), stealSeconds()} }

// undisturbed is cpu/(cpu+steal) between two marks, 1 when nothing was
// withheld or the host does not say.
func undisturbed(from, to hostMark) float64 {
	cpu, steal := to.cpu-from.cpu, to.steal-from.steal
	if cpu <= 0 || steal <= 0 {
		return 1
	}
	return cpu / (cpu + steal)
}

// fsName names the filesystem dir lives on, for the record: a checkpoint
// directory on tmpfs and one on a shared virtual disk are different
// experiments.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if syscall.Statfs(dir, &st) != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}
