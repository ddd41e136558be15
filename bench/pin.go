package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// pinnedEnv marks a driver that has already narrowed its affinity; its
// value is the CPU.
const pinnedEnv = "DMAPBENCH_CPU"

// pinOneCPU puts the driver, and with it every node it spawns, on one
// CPU: the last one the process is allowed on (CPU 0 takes the virtual
// machine's device interrupts). Four processes bouncing requests between
// two cores measure where the scheduler happened to put them — a serial
// round trip reads 34 µs when both ends share a core and 76 µs when they
// do not — and an idle core has to be woken by an interrupt the
// hypervisor prices differently from minute to minute. On one core every
// hand-over is a plain context switch.
//
// Affinity set on the calling thread survives exec and is what every
// thread of the new image starts from, so the driver re-executes itself
// once. It returns the CPU it runs on.
func pinOneCPU() (int, error) {
	if v := os.Getenv(pinnedEnv); v != "" {
		return strconv.Atoi(v)
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var mask [16]uint64 // 1024 CPUs
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu := -1
	for i, word := range mask {
		for b := 0; b < 64; b++ {
			if word&(1<<uint(b)) != 0 {
				cpu = i*64 + b
			}
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity: empty mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << uint(cpu%64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return 0, fmt.Errorf("sched_setaffinity(cpu %d): %w", cpu, e)
	}
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	err = syscall.Exec(exe, os.Args, append(os.Environ(), pinnedEnv+"="+strconv.Itoa(cpu)))
	return 0, fmt.Errorf("re-exec %s: %w", exe, err)
}
